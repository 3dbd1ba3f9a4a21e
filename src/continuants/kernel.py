"""The three-term recurrence kernel.

The continuant ``K_n`` and the scaled Chebyshev value ``S_m(t, d)`` are one
recurrence, ``x_k = a_k x_{k-1} - e_k x_{k-2}``.  ``_three_term`` runs it
for every ring, with three branches that run on plain ints:

* ``ModInt`` tables of one modulus are reduced every step and charge the
  ``ModInt`` op counter (``ring._modint_ops``) what the object loop would
  have counted;
* rational tables (``Fraction`` and int entries) are scaled once by the lcm
  of their denominators (``_cleared``), with no gcd until the two
  ``Fraction`` results are built;
* Laurent tables (``LaurentPoly`` and int entries) whose exponent support
  is dense on its stride ``g`` are Kronecker-packed at ``q^g = 2^W``: ``W``
  comes from a 1-norm bound on the two results, each step's value is
  stored from a min-plus exponent floor, and each step is a shift-and-add
  over the few terms of the table entries.  Sparse ones, where most slots
  would be empty, stay on the object loop.

Any other table runs the same recurrence on its ring elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle, islice

from . import ring
from .ring import LaurentPoly, ModInt, _mul_terms, ring_one, ring_zero

#: Bits of packed shift-and-add that cost as much as the Python overhead of
#: one object-loop term product, for ``_packed_laurent``'s choice of path.
#: Paired timings of both loops on 20 dense and sparse tables put the
#: break-even between about 750 and 4300 bits (CPython 3.11, Intel Xeon).
_BITS_PER_TERM_PRODUCT = 2000


def _cleared(values) -> tuple:
    """(g, [g*x, ...]) for ``Fraction`` and int values: g is the lcm of their
    denominators, so every g*x is an int."""
    g = math.lcm(*(x.denominator for x in values))
    return g, [x.numerator * (g // x.denominator) for x in values]


def _three_term(a, b, c, steps: int):
    """(x_steps, x_{steps-1}) for x_k = a_k x_{k-1} - e_k x_{k-2}, x_{-1} = 0, x_0 = 1.

    Step k >= 1 takes entry (k-1) % l of the period-l tables.  ``e_k`` is
    ``b_k c_k``, formed once per entry, or ``b_k`` itself when ``c`` is None.
    Three kinds of table leave the object loop:

    * ``ModInt`` tables of one modulus run on plain ints reduced every step
      and charge the op counter what a per-step object loop counts: 4 ops
      per step with a ``c`` table (b*c too), 3 without.
    * Tables of ``Fraction`` and int values, at least one a ``Fraction``, are
      cleared of denominators once: with ``g = lcm`` of the denominators of
      every ``a_k`` and ``e_k``, the ints ``y_k = g^k x_k`` satisfy
      ``y_k = (a_k g) y_{k-1} - (e_k g^2) y_{k-2}``, so no step reduces a gcd
      and two ``Fraction`` values are built at the end.
    * Tables of ``LaurentPoly`` and int values, at least one a
      ``LaurentPoly``, run Kronecker-packed on Python ints
      (``_packed_laurent``) and return two ``LaurentPoly`` values, with no
      ``LaurentPoly.__mul__`` call, unless their exponent support is too
      sparse for packing to pay; those run on ``LaurentPoly`` elements.

    Every other ring runs on its elements.
    """
    moduli = {x.modulus if isinstance(x, ModInt) else None for x in (*a, *b, *(c or ()))}
    modulus = moduli.pop() if len(moduli) == 1 else None
    if modulus is not None:
        ring._modint_ops += (3 if c is None else 4) * steps
        a = [x.value for x in a]
        e = ([y.value for y in b] if c is None
             else [y.value * z.value % modulus for y, z in zip(b, c)])
        prev, cur = 0, 1
        for ak, ek in islice(cycle(zip(a, e)), steps):
            prev, cur = cur, (ak * cur - ek * prev) % modulus
        return ModInt(cur, modulus), ModInt(prev, modulus)
    kinds = {type(x) for x in (*a, *b, *(c or ()))}
    if LaurentPoly in kinds and kinds <= {int, LaurentPoly}:
        a, b = ([LaurentPoly._coerce(x) for x in t] for t in (a, b))
        e = b if c is None else [LaurentPoly(_mul_terms(y.terms, LaurentPoly._coerce(z).terms))
                                 for y, z in zip(b, c)]
        packed = _packed_laurent(a, e, steps)
        if packed is not None:
            return packed
    else:
        e = list(b) if c is None else [y * z for y, z in zip(b, c)]
    g = None
    if Fraction in kinds and kinds <= {int, Fraction}:
        g, ints = _cleared((*a, *e))
        a, e = ints[:len(a)], [x * g for x in ints[len(a):]]
        prev, cur = 0, 1
    else:
        prev, cur = ring_zero(a[0]), ring_one(a[0])
    # The one unreduced loop: ring elements, or the rational tables' scaled ints.
    for ak, ek in islice(cycle(zip(a, e)), steps):
        prev, cur = cur, ak * cur - ek * prev
    if g is None:
        return cur, prev
    den = g ** steps
    return Fraction(cur, den), Fraction(prev * g, den)


def _packed_laurent(a: list, e: list, steps: int):
    """The three-term recurrence on Kronecker-packed ints, or None when the
    tables' exponent support is too sparse for packing to pay.

    ``a`` and ``e`` are period-l lists of ``LaurentPoly`` values.  A first
    pass over the steps finds, for each ``x_k``:

    * a 1-norm bound ``N_k = |a_k|_1 N_{k-1} + |e_k|_1 N_{k-2}``, which
      bounds every coefficient; ``W`` is ``bit_length(max(N_n, N_{n-1})) + 1``
      rounded up to whole bytes;
    * an exponent floor ``lo_k = min(min a_k + lo_{k-1}, min e_k + lo_{k-2})``
      (None when ``x_k`` is zero by construction), exact unless the lowest
      terms cancel;
    * a stride ``g``: the gcd of the exponent differences inside each entry
      and between the floors of the two products that make ``x_k``.  Every
      exponent of ``x_k`` is then ``lo_k`` plus a multiple of ``g``; for
      ``q + q^-1`` the stride is 2, for ``q^100000 + 1`` it is 100000.

    ``x_k`` is held as one int ``X_k``, its coefficient of
    ``q^(lo_k + g i)`` in the ``W``-bit slot ``i`` as a signed (balanced)
    digit, which is ``q^-lo_k x_k(q)`` evaluated at ``q^g = 2^W``.  That is
    a ring map, so each step shifts ``X_{k-1}`` and ``X_{k-2}`` by the
    terms of ``a_k`` and ``e_k`` and adds, every shift non-negative, and
    only the two results are unpacked.

    Packing pays ``W`` bits for every slot up to the top exponent, the
    object loop pays per term present, so the tables pack only when their
    exponent support is dense on the stride.  A second pass covers the
    support of ``x_k``, ``(supp a_k + supp x_{k-1})`` with
    ``(supp e_k + supp x_{k-2})``, by intervals; it joins two intervals when
    the empty slots between them cost less to pack than one term product
    (``_BITS_PER_TERM_PRODUCT / W`` slots), so it stays short when the
    support is dense.  The tables pack when the packed loop's bits are at
    most ``_BITS_PER_TERM_PRODUCT + W`` (the per-term overhead, and the
    coefficient's own bits) times the object loop's term products over the
    covered exponents.  Every shipped config packs; ``a = q^1000000 + q``
    leaves almost every slot empty and returns None.
    """
    # The sign of the e_k x_{k-2} term is folded into e_k's coefficients.
    rows = [(list(t.terms.items()), [(x, -c) for x, c in u.terms.items()],
             sum(map(abs, t.terms.values())), sum(map(abs, u.terms.values())),
             min(t.terms, default=None), min(u.terms, default=None))
            for t, u in zip(a, e)]
    g = math.gcd(*(x - low for ta, te, _, _, la, le in rows
                   for terms, low in ((ta, la), (te, le)) for x, _ in terms))
    n1, n2, lo1, lo2 = 1, 0, 0, None  # 1-norm bounds and floors of x_{k-1}, x_{k-2}
    floors = []
    for _, _, na, ne, la, le in islice(cycle(rows), steps):
        n1, n2 = na * n1 + ne * n2, n1
        lows = [x + y for x, y in ((la, lo1), (le, lo2)) if x is not None and y is not None]
        lo1, lo2 = min(lows, default=None), lo1
        g = math.gcd(g, *(x - lo1 for x in lows))
        floors.append(lo1)
    g = g or 1  # every x_k is a monomial
    w = -(-(max(n1, n2).bit_length() + 1) // 8) * 8
    reach = g * (_BITS_PER_TERM_PRODUCT // w + 1)
    s1, s2, c1, c2 = [(0, 0)], [], 1, 0  # covers of x_{k-1}, x_{k-2} and their sizes
    bits = products = 0  # the packed loop's slot-bits shifted, the object loop's term products
    for ta, te, *_ in islice(cycle(rows), steps):
        products += len(ta) * c1 + len(te) * c2
        s1, s2 = _cover([(lo + x, hi + x) for x, _ in ta for lo, hi in s1]
                        + [(lo + x, hi + x) for x, _ in te for lo, hi in s2], reach), s1
        c1, c2 = sum((hi - lo) // g + 1 for lo, hi in s1), c1
        if s1:
            bits += (len(ta) + len(te)) * ((s1[-1][1] - s1[0][0]) // g + 1) * w
    if bits > (_BITS_PER_TERM_PRODUCT + w) * products:
        return None
    x1, x2, lo1, lo2 = 1, 0, 0, None
    for (ta, te, *_), lo in zip(cycle(rows), floors):
        x = 0
        for v, terms, low in ((x1, ta, lo1), (x2, te, lo2)):
            if v:
                for d, c in terms:
                    s = w * ((d + low - lo) // g)
                    # Each special case saves a copy of a long int (a zero
                    # shift, a multiply by 1, an add to 0); together they
                    # more than halve q_fibonacci's kernel time.
                    t = v << s if s else v
                    if c == 1:
                        x = x + t if x else t
                    elif c == -1:
                        x -= t
                    else:
                        x += c * t
        x1, x2, lo1, lo2 = x, x1, lo, lo1
    return _unpack(x1, lo1, w, g), _unpack(x2, lo2, w, g)


def _cover(intervals: list, reach: int) -> list:
    """Sorted disjoint intervals covering the given ones, joining any two
    whose ends are at most ``reach`` apart."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + reach:
            if hi > out[-1][1]:
                out[-1] = out[-1][0], hi
        else:
            out.append((lo, hi))
    return out


def _unpack(x: int, lo, w: int, g: int) -> LaurentPoly:
    """The Laurent polynomial whose balanced ``w``-bit slots, for the exponents
    ``lo, lo + g, lo + 2g, ...``, pack to ``x``; every coefficient is below
    ``2^(w-1)`` in size."""
    if not x:
        return LaurentPoly()
    width, slots = w // 8, x.bit_length() // w + 1
    # Adding 2^(w-1) to every slot makes each digit non-negative, so the
    # slots are the bytes of one unsigned int.
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    half = 1 << (w - 1)
    raw = memoryview((x + bias).to_bytes(width * slots, "little"))
    return LaurentPoly({lo + g * i: int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
                        for i in range(slots)})

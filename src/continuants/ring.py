"""Exact coefficient rings.

Three interchangeable exact rings back everything in this package:

* big rationals -- the stdlib ``fractions.Fraction``,
* integer-coefficient Laurent polynomials in one variable ``q``
  (``LaurentPoly``),
* modular integers for benchmarking (``ModInt``, prime modulus below
  ``MAX_MODULUS``, checked by deterministic Miller-Rabin).

``_three_term`` is the one three-term recurrence kernel, for every ring,
with three branches that run on plain ints:

* ``ModInt`` tables of one modulus are reduced every step and charge the
  ``ModInt`` op counter what the object loop would have counted;
* rational tables (``Fraction`` and int entries) are scaled once by the lcm
  of their denominators, with no gcd until the two ``Fraction`` results are
  built;
* Laurent tables (``LaurentPoly`` and int entries) whose exponent support
  is dense on its stride ``g`` are Kronecker-packed at ``q^g = 2^W``: ``W``
  comes from a 1-norm bound on the two results, each step's value is
  stored from a min-plus exponent floor, and each step is a shift-and-add
  over the few terms of the table entries.  Sparse ones, where most slots
  would be empty, stay on the object loop.

Any other table runs the same recurrence on its ring elements.

``LaurentFraction`` is the fraction field of ``LaurentPoly``: a normalized
numerator/denominator pair.  Normalization is by integer content, a power
of ``q`` (lowest denominator exponent becomes 0) and the denominator's
leading sign; no polynomial gcd or division is attempted, so equality
compares cross-multiplied products.

Elements of different rings never mix: arithmetic between them raises
``TypeError`` (``ValueError`` for ``ModInt`` values with different moduli).
All values are immutable and all operations pure.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import cycle, islice

#: Default benchmark modulus: the Mersenne prime 2^61 - 1.
DEFAULT_MODULUS = (1 << 61) - 1

_modint_ops = 0

#: Bits of packed shift-and-add that cost as much as the Python overhead of
#: one object-loop term product, for ``_packed_laurent``'s choice of path.
#: Paired timings of both loops on 20 dense and sparse tables put the
#: break-even between about 750 and 4300 bits (CPython 3.11, Intel Xeon).
_BITS_PER_TERM_PRODUCT = 2000


class Record(tuple):
    """Base of the library's immutable tuple records: with a
    ``collections.namedtuple``, of ``Mat2``, ``PeriodicAlpha``,
    ``Quaternion``, ``cli.AlphaConfig`` and ``bench.BenchReport``, and alone,
    of the digit tuple ``CFDigits``.

    A record compares and hashes equal to the plain tuple of its fields, but
    tuple ordering, concatenation and repetition say nothing about the value
    it holds, so they raise ``TypeError``.  ``__radd__`` raises rather than
    returning ``NotImplemented``: for ``tuple + record`` the subclass's
    reflected method runs first, and ``NotImplemented`` would fall back to
    tuple concatenation.  Ordering raises for the same reason.
    """

    __slots__ = ()

    def _refuse(self, other):
        raise TypeError(f"unsupported operand for {type(self).__name__}: "
                        "records have no tuple ordering or concatenation")

    __lt__ = __le__ = __gt__ = __ge__ = __radd__ = _refuse

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__


def reset_modint_ops() -> None:
    """Zero the global ModInt operation counter."""
    global _modint_ops
    _modint_ops = 0


def modint_ops() -> int:
    """Number of ModInt ring operations since the last reset."""
    return _modint_ops


class LaurentPoly:
    """Finitely supported map from integer exponents to integer coefficients.

    The zero polynomial has an empty term map.  ``__init__`` takes a dict of
    int exponents to int coefficients and is the one place that drops zero
    coefficients, so arithmetic may hand it cancelled terms.  It is the
    one constructor: ``LaurentPoly({e: c})`` is c*q^e and ``LaurentPoly()``
    is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if not (isinstance(e, int) and isinstance(c, int)):
                    raise TypeError("Laurent exponents and coefficients must be int, got "
                                    f"{type(e).__name__} and {type(c).__name__}")
                if c:
                    clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        return g

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    # --- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly(_mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if not self.terms.keys() - {0}:
            # A constant compares equal to the int it holds, so hashes like it.
            return hash(self.terms.get(0, 0))
        return hash(tuple(sorted(self.terms.items())))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by ``other``, requiring the quotient to exist in the ring.

        Raises ``ZeroDivisionError`` for a zero divisor and ``ValueError``
        when ``other`` does not divide ``self`` exactly over the integers.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot divide LaurentPoly by %r" % (other,))
        if o.is_zero():
            raise ZeroDivisionError("Laurent polynomial division by zero")
        if self.is_zero():
            return LaurentPoly()
        # Strip q-powers so both sides are ordinary polynomials.
        ns, ds = self.min_exp(), o.min_exp()
        num = self.shift(-ns)
        den = o.shift(-ds)
        nd, dd = num.max_exp(), den.max_exp()
        if nd < dd:
            raise ValueError("not divisible: degree too small")
        rem = [num.coeff(i) for i in range(nd + 1)]
        div = [den.coeff(i) for i in range(dd + 1)]
        quot = [0] * (nd - dd + 1)
        lead = div[dd]
        for k in range(nd - dd, -1, -1):
            qc, r = divmod(rem[k + dd], lead)
            if r:
                raise ValueError("not divisible over the integers")
            quot[k] = qc
            if qc:
                for i, dc in enumerate(div):
                    rem[k + i] -= qc * dc
        if any(rem):
            raise ValueError("not divisible: nonzero remainder")
        return LaurentPoly({k + ns - ds: c for k, c in enumerate(quot)})

    def evaluate(self, x):
        """Evaluate at a numeric value of q (Fraction, int or float).

        An int is evaluated as a ``Fraction``, so the value is exact: a
        negative power of an int would be a float.
        """
        if isinstance(x, int):
            x = Fraction(x)
        total = x * 0
        for e, c in self.terms.items():
            total += c * x ** e
        return total

    # --- text ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _mul_terms(s: dict, o: dict) -> dict:
    """Term map of the product of two term maps; cancelled terms stay as 0."""
    terms: dict[int, int] = {}
    for e1, c1 in s.items():
        for e2, c2 in o.items():
            e = e1 + e2
            terms[e] = terms.get(e, 0) + c1 * c2
    return terms


_LAURENT_TERM = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*?\s*(?P<var1>q)(?:\^(?P<exp1>[+-]?\d+))?)?
          | (?P<var2>q)(?:\^(?P<exp2>[+-]?\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse a Laurent polynomial like ``"1 + 2*q - q^-1"``.

    Whitespace-insensitive; ``*`` is optional; ``^`` introduces an integer
    exponent (possibly negative).
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent polynomial")
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _LAURENT_TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse Laurent polynomial at {s[pos:]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms near {s[pos:]!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if sign == "-":
            coeff = -coeff
        has_var = m.group("var1") is not None or m.group("var2") is not None
        if m.group("exp1") is not None:
            exp = int(m.group("exp1"))
        elif m.group("exp2") is not None:
            exp = int(m.group("exp2"))
        elif has_var:
            exp = 1
        else:
            exp = 0
        terms[exp] = terms.get(exp, 0) + coeff
        pos = m.end()
        first = False
    return LaurentPoly(terms)


class ModInt:
    """Integer residue modulo a fixed odd prime (benchmark ring).

    A ``ModInt`` compares equal to every int of its residue class
    (``ModInt(3, 7) == 3 == 10``), and those ints hash differently, so no
    hash can agree with all of them: the hash is consistent among
    ``ModInt`` values only.  Do not mix ``ModInt`` and int keys in a set
    or dict.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int = DEFAULT_MODULUS):
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("ModInt is immutable")

    def _result(self, value: int) -> "ModInt":
        """Every ``ModInt`` operation returns through here: one op charged."""
        global _modint_ops
        _modint_ops += 1
        return ModInt(value, self.modulus)

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")
            return other.value
        if isinstance(other, int):
            return other % self.modulus
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self._result(self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self._result(self.value - v)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self._result(v - self.value)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self._result(self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return self._result(-self.value)

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("ModInt division by zero")
        return self._result(self.value * pow(v, -1, self.modulus))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return self._result(pow(self.value, k, self.modulus))

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModInt({self.value}, mod={self.modulus})"


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
        global _modint_ops
        _modint_ops += (3 if c is None else 4) * steps
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
        g = math.lcm(*(x.denominator for x in (*a, *e)))
        a = [x.numerator * (g // x.denominator) for x in a]
        e = [x.numerator * (g // x.denominator) * g for x in e]
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


def _unpack(x: int, lo, w: int, g: int) -> "LaurentPoly":
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


class LaurentFraction:
    """Quotient of two integer Laurent polynomials, kept normalized.

    Normal form: the denominator's lowest exponent is 0, its leading
    (highest-exponent) coefficient is positive, and the gcd of both
    contents is 1.  Construction never divides one polynomial by the
    other, so a pair such as ``(q^2 - 1) / (q - 1)`` keeps its written
    denominator.  Equality is by cross-multiplication, so unreduced but
    equal fractions compare equal, and ``__hash__`` is where a fraction
    finds out whether its value is a Laurent polynomial (an exact
    division), so that it hashes like that polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None):
        args = (num, 1 if den is None else den)
        num, den = map(LaurentPoly._coerce, args)
        if num is None or den is None:
            bad = args[0] if num is None else args[1]
            raise TypeError(f"expected LaurentPoly, got {type(bad).__name__}")
        if den.is_zero():
            raise ZeroDivisionError("LaurentFraction with zero denominator")
        if num.is_zero():
            den = LaurentPoly({0: 1})
        else:
            shift = -den.min_exp()
            g = math.gcd(num.content(), den.content())
            if den.terms[den.max_exp()] < 0:
                g = -g
            num = LaurentPoly({e + shift: c // g for e, c in num.terms.items()})
            den = LaurentPoly({e + shift: c // g for e, c in den.terms.items()})
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentFraction is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentFraction):
            return other
        if isinstance(other, (LaurentPoly, int)):
            return LaurentFraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentFraction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("LaurentFraction division by zero")
        return LaurentFraction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # Equal values hash equal: a fraction whose value is a Laurent
        # polynomial hashes like it (and like an int constant), and every
        # other value, whatever pair it is written with, shares one hash.
        if self.den.terms == {0: 1}:
            return hash(self.num)
        try:
            return hash(self.num.exact_div(self.den))
        except ValueError:
            return 0

    def __str__(self):
        if self.den.terms == {0: 1}:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"LaurentFraction({self})"


# --- ring-generic helpers ----------------------------------------------


def _ring_constant(x, c: int):
    """The int ``c`` as an element of the ring that ``x`` lives in."""
    if isinstance(x, Fraction):
        return Fraction(c)
    if isinstance(x, LaurentPoly):
        return LaurentPoly({0: c})
    if isinstance(x, ModInt):
        return ModInt(c, x.modulus)
    if isinstance(x, LaurentFraction):
        return LaurentFraction(c)
    if isinstance(x, int):
        return c
    raise TypeError(f"not a ring element: {type(x).__name__}")


def ring_zero(x):
    """The additive identity of the ring that ``x`` lives in."""
    return _ring_constant(x, 0)


def ring_one(x):
    """The multiplicative identity of the ring that ``x`` lives in."""
    return _ring_constant(x, 1)


def field_div(x, y):
    """Divide in a field-capable ring.

    Laurent polynomials are lifted into their fraction field; everything
    else divides directly.  Division by zero raises ``ZeroDivisionError``.
    """
    if isinstance(x, LaurentPoly) or isinstance(y, LaurentPoly):
        return LaurentFraction._coerce(x) / LaurentFraction._coerce(y)
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def exact_div(x, y):
    """Exact division inside an integral domain (used by Bareiss)."""
    if isinstance(x, LaurentPoly):
        return x.exact_div(y)
    if isinstance(x, int) and isinstance(y, int):
        q, r = divmod(x, y)
        if r:
            raise ValueError(f"{x} not divisible by {y}")
        return q
    return x / y


# --- named ring descriptors (parsing, printing, CLI) ---------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(\s*/\s*\d+)?$")


class RationalRing:
    def parse(self, text: str) -> Fraction:
        s = text.strip()
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"not a rational literal: {text!r}")
        try:
            return Fraction(s.replace(" ", ""))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def format(self, x) -> str:
        return str(x)


class LaurentRing:
    def parse(self, text: str) -> LaurentPoly:
        return parse_laurent(text)

    def format(self, x) -> str:
        return str(x)


#: The first 13 primes.  No composite below MAX_MODULUS is a strong
#: pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < MAX_MODULUS."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModIntRing:
    def __init__(self, modulus: int = DEFAULT_MODULUS):
        # Division needs a prime modulus: every nonzero residue is a unit.
        if modulus >= MAX_MODULUS:
            raise ValueError(f"modulus must be below {MAX_MODULUS}")
        if modulus == 2 or not _is_prime(modulus):
            raise ValueError("modulus must be an odd prime")
        self.modulus = modulus

    def parse(self, text: str) -> ModInt:
        s = text.strip()
        if not re.match(r"^[+-]?\d+$", s):
            raise ValueError(f"not an integer literal: {text!r}")
        return ModInt(int(s), self.modulus)

    def format(self, x) -> str:
        return str(x)


def ring_by_name(name: str, modulus: int | None = None):
    """Look up a ring descriptor by config name."""
    if name == "rational":
        return RationalRing()
    if name == "laurent":
        return LaurentRing()
    if name == "modint":
        return ModIntRing(modulus if modulus is not None else DEFAULT_MODULUS)
    raise ValueError(f"unknown ring {name!r}")

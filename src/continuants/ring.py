"""Exact coefficient rings.

Three interchangeable exact rings back everything in this package:

* big rationals -- the stdlib ``fractions.Fraction``,
* integer-coefficient Laurent polynomials in one variable ``q``
  (``LaurentPoly``),
* modular integers for benchmarking (``ModInt``, prime modulus below
  ``MAX_MODULUS``, checked by deterministic Miller-Rabin).

The three-term recurrence that runs on these values, for every ring, lives
in ``kernel``; ``_modint_ops`` here is the one ``ModInt`` op counter, which
``ModInt`` operations and the kernel both charge.

``LaurentFraction`` is the fraction field of ``LaurentPoly``: a normalized
numerator/denominator pair.  Normalization is by integer content, a power
of ``q`` (lowest denominator exponent becomes 0) and the denominator's
leading sign; no polynomial gcd or division is attempted, so equality
compares cross-multiplied products.

Elements of different rings never mix: arithmetic between them raises
``TypeError`` (``ValueError`` for ``ModInt`` values with different moduli).
All values are immutable and all operations pure.  ``LaurentPoly``,
``ModInt`` and ``LaurentFraction`` share the private base ``_Value``, which
refuses attribute assignment and deletion, so ``copy``, ``deepcopy`` and
``pickle`` rebuild a value through its constructor; so do ``_make`` and
``_replace`` of every ``Record``.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction
from types import MappingProxyType

#: Default benchmark modulus: the Mersenne prime 2^61 - 1.
DEFAULT_MODULUS = (1 << 61) - 1

_modint_ops = 0


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

    Copy, pickle, ``_make`` and ``_replace`` rebuild a record through its
    constructor, from the arguments that ``__getnewargs__`` maps its fields
    to, so each of them checks what the constructor checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*cls.__getnewargs__(tuple(iterable)))

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


#: Bits of the pieces that ``_int_text`` hands to ``Decimal`` whole.
_LEAF_BITS = 2048
#: Exact decimal arithmetic: no rounding below MAX_PREC digits, no overflow.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)


def _int_text(n: int) -> str:
    """Decimal text of the int ``n``, equal to ``str(n)`` at any length.

    ``str`` refuses ints past the interpreter's int-to-str digit limit
    (4,300 digits by default), and on 3.11 takes quadratic time.  Past the
    limit, ``|n|`` is split at the bit position ``_LEAF_BITS * 2^j`` (j one
    less each level), the two halves are converted the same way, and
    ``hi * 2^k + lo`` is rebuilt in exact ``decimal`` arithmetic, whose
    multiply is subquadratic; pieces of ``_LEAF_BITS`` bits or fewer
    become ``Decimal`` directly.  ``Decimal`` has no digit limit.  (Radix
    conversion by divide and conquer: Brent and Zimmermann, *Modern
    Computer Arithmetic*, 2010, section 1.7.)
    """
    try:
        return str(n)
    except ValueError:
        pass
    powers = [Decimal(1 << _LEAF_BITS)]  # powers[j] = 2^(_LEAF_BITS * 2^j)
    while _LEAF_BITS << len(powers) < n.bit_length():
        powers.append(_EXACT.multiply(powers[-1], powers[-1]))

    def convert(x: int, j: int) -> Decimal:  # needs 0 <= x < 2^(_LEAF_BITS * 2^(j+1))
        if x.bit_length() <= _LEAF_BITS:
            return Decimal(x)
        k = _LEAF_BITS << j
        return _EXACT.fma(convert(x >> k, j - 1), powers[j],
                          convert(x & ((1 << k) - 1), j - 1))

    return "-" * (n < 0) + str(convert(abs(n), len(powers) - 1))


def _fraction_text(x) -> str:
    """``str`` of a ``Fraction`` or an int, at any length: ``n`` or ``n/d``."""
    num = _int_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"


class _Value:
    """Base of the immutable ring values ``LaurentPoly``, ``ModInt`` and
    ``LaurentFraction``.

    Assignment and deletion of an attribute raise ``AttributeError``;
    constructors set their slots with ``object.__setattr__``.  ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a value through its constructor,
    called with its slots in order, and the repr is ``Name(text)``.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(_Value):
    """Finitely supported map from integer exponents to integer coefficients.

    The zero polynomial has an empty term map.  ``__init__`` takes a dict of
    int exponents to int coefficients and is the one place that drops zero
    coefficients, so arithmetic may hand it cancelled terms.  It is the
    one constructor: ``LaurentPoly({e: c})`` is c*q^e and ``LaurentPoly()``
    is zero.  ``terms`` is a read-only view of the term map.
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
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __reduce__(self):  # a mapping proxy does not pickle
        return LaurentPoly, (self.terms.copy(),)

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # The zero polynomial has no exponents: both raise ``ValueError``.
    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
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
        terms = self.terms.copy()
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
                body = _int_text(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{_int_text(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


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
        coeff = int(m.group("coeff") or 1)
        # One alternative matched: its exponent, else 1 after a bare q, else 0.
        var = m.group("var1") or m.group("var2")
        exp = int(m.group("exp1") or m.group("exp2") or (1 if var else 0))
        terms[exp] = terms.get(exp, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
        first = False
    return LaurentPoly(terms)


class ModInt(_Value):
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


class LaurentFraction(_Value):
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


class _RingDescriptor:
    """Descriptors compare and hash by value: same class, same state (the
    modulus of a ``ModIntRing``), so two loads of one config are equal,
    and print by value too: ``ModIntRing(97)``.  Like ring values they
    refuse attribute assignment and deletion; copy and pickle restore their
    state through the instance dict."""

    __setattr__ = __delattr__ = _Value.__setattr__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, vars(self).values()))})"

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), *vars(self).values()))


class RationalRing(_RingDescriptor):
    def parse(self, text: str) -> Fraction:
        s = text.strip()
        if not _RATIONAL_RE.match(s):
            raise ValueError(f"not a rational literal: {text!r}")
        try:
            return Fraction("".join(s.split()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def format(self, x) -> str:
        return _fraction_text(x)


class LaurentRing(_RingDescriptor):
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


class ModIntRing(_RingDescriptor):
    def __init__(self, modulus: int = DEFAULT_MODULUS):
        # Division needs a prime modulus: every nonzero residue is a unit.
        if modulus >= MAX_MODULUS:
            raise ValueError(f"modulus must be below {MAX_MODULUS}")
        if modulus == 2 or not _is_prime(modulus):
            raise ValueError("modulus must be an odd prime")
        object.__setattr__(self, "modulus", modulus)

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

"""q-deformed integers, rationals and Fibonacci numbers.

Follows the Morier-Genoud--Ovsienko convention: a positive rational r/s
with even-length regular continued fraction [a_1, ..., a_2n] deforms to

    [r/s]_q = [a_1]_q + q^(a_1) / ([a_2]_{q^-1} + q^(-a_2) / (...)),

with alternating q <-> q^-1 weights.  The quotient is computed exactly as
a ratio of two continuant polynomials over the Laurent ring: take

    a_p = [a_p]_{q^(sigma_p)},  b_p = q^(sigma_p * a_p),  c_p = -1,

with sigma_p = +1 for odd p and -1 for even p; then the deformed value is
K_{2n}(alpha_1) / K_{2n-1}(alpha_2), the pair one ``k_vector`` pass leaves.

The digit-list [1, 1, ..., 1] family gives the q-Fibonacci sequence
F_n(q) = K_{n-1}(alpha_1), which also satisfies the parity-split recurrence
F_{2m} = F_{2m-1} + q^-1 F_{2m-2}, F_{2m+1} = F_{2m} + q F_{2m-1}; as
period-2 data with t = 1 + q + q^-1, d = 1 it has the periodic closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .continuant import PeriodicAlpha, k_vector
from .ring import LaurentFraction, LaurentPoly, Record

QRational = LaurentFraction


class CFDigits(Record):
    """Even-length tuple of positive continued-fraction digits."""

    __slots__ = ()

    def __new__(cls, digits):
        self = super().__new__(cls, digits)
        if len(self) % 2 != 0 or not self:
            raise ValueError("digit list must be nonempty and of even length")
        if any(not isinstance(d, int) or d <= 0 for d in self):
            raise ValueError("all digits must be positive integers")
        return self

    def value(self) -> Fraction:
        """The classical rational these digits expand."""
        val = Fraction(self[-1])
        for d in reversed(self[:-1]):
            val = d + 1 / val
        return val


def q_integer(a: int, sign: int = 1) -> LaurentPoly:
    """[a]_q = 1 + q + ... + q^(a-1); sign = -1 substitutes q -> q^-1."""
    if a < 1:
        raise ValueError("q-integers are defined for a >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return LaurentPoly({sign * k: 1 for k in range(a)})


def cf_digits(r: int, s: int) -> CFDigits:
    """Even-length regular continued-fraction digits of r/s >= 1.

    The canonical Euclidean expansion is padded to even length by the
    final-digit split [..., a] -> [..., a - 1, 1].
    """
    if r < 1 or s < 1:
        raise ValueError("need positive r and s")
    if r < s:
        raise ValueError("need r/s >= 1")
    if math.gcd(r, s) != 1:
        raise ValueError(f"{r}/{s} is not in lowest terms")
    digits = []
    while s:
        digits.append(r // s)
        r, s = s, r % s
    if len(digits) % 2 != 0:
        if digits[-1] >= 2:
            digits[-1] -= 1
            digits.append(1)
        else:
            # Only r/s = 1 ends here: its expansion [1] admits no
            # even-length all-positive rewriting.
            raise ValueError("1/1 has no even-length expansion with positive digits")
    return CFDigits(digits)


def mgo_alpha(digits: CFDigits) -> PeriodicAlpha:
    """Coefficient sequences of the q-deformed continued fraction.

    Index p carries weight q^(+1) when p is odd and q^(-1) when p is even.
    """
    a_list = []
    b_list = []
    c_list = []
    for p, digit in enumerate(digits, start=1):
        sign = 1 if p % 2 == 1 else -1
        a_list.append(q_integer(digit, sign))
        b_list.append(LaurentPoly.monomial(1, sign * digit))
        c_list.append(LaurentPoly.constant(-1))
    return PeriodicAlpha(a_list, b_list, c_list, base=1)


def q_rational(digits: CFDigits) -> QRational:
    """[r/s]_q as a normalized continuant quotient K_{2n}(1) / K_{2n-1}(2)."""
    if not isinstance(digits, CFDigits):
        digits = CFDigits(digits)
    num, den = k_vector(mgo_alpha(digits), 1, len(digits))
    return QRational(num, den)


def q_fibonacci(n: int) -> LaurentPoly:
    """F_n(q) by the parity-split recurrence; F_1 = F_2 = 1, F_3 = 1 + q."""
    if n < 1:
        raise ValueError("q-Fibonacci numbers start at n = 1")
    f_prev = LaurentPoly.one()  # F_1
    if n == 1:
        return f_prev
    f_cur = LaurentPoly.one()  # F_2
    for k in range(3, n + 1):
        # q * F_{k-2} at odd k, q^-1 * F_{k-2} at even k.
        f_prev, f_cur = f_cur, f_cur + f_prev.shift(1 if k % 2 == 1 else -1)
    return f_cur


def q_fibonacci_closed(n: int) -> LaurentPoly:
    """F_n(q) = K_{n-1}(alpha_1) of the digits [1, 1] by the periodic closed form.

    The period has t = 1 + q + q^-1 and d = 1.  Writing n - 1 = 2m + j with
    j in {-1, 0} gives F_{2m} = S_{m-1}(t, 1) and F_{2m+1} =
    S_{m-1}(t, 1) * (1 + q) - S_{m-2}(t, 1).
    """
    from .periodic import closed_form_general  # qrat and qfib never load periodic

    if n < 1:
        raise ValueError("q-Fibonacci numbers start at n = 1")
    m, j = n // 2, n % 2 - 1
    return closed_form_general(mgo_alpha(CFDigits([1, 1])), 1 + j, m, j)

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
F_n(q) = K_{n-1}(alpha_1), read from one ``k_vector`` pass over the digits
[1, 1].  Their period matrix A = [[1 + q, q^-1], [1, q^-1]] has the constant
trace t = q^-1 + 1 + q and determinant d = 1, so one S pair S_k = S_k(t, 1)
gives F_{2m} = S_{m-1} and F_{2m+1} = S_m - q^-1 S_{m-1}.
"""

from __future__ import annotations

import math

from .chebyshev import scaled_u_pair
from .continuant import PeriodicAlpha, k_vector
from .ring import LaurentFraction, LaurentPoly, Record


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
        b_list.append(LaurentPoly({sign * digit: 1}))
        c_list.append(LaurentPoly({0: -1}))
    return PeriodicAlpha(a_list, b_list, c_list, base=1)


def q_rational(digits: CFDigits) -> LaurentFraction:
    """[r/s]_q as a normalized continuant quotient K_{2n}(1) / K_{2n-1}(2)."""
    if not isinstance(digits, CFDigits):
        digits = CFDigits(digits)
    num, den = k_vector(mgo_alpha(digits), 1, len(digits))
    return LaurentFraction(num, den)


def q_fibonacci(n: int) -> LaurentPoly:
    """F_n(q) = K_{n-1}(alpha_1) of the digits [1, 1]; F_1 = F_2 = 1, F_3 = 1 + q.

    One ``k_vector`` pass of length n - 1, which the three-term kernel runs
    on Kronecker-packed ints (``ring._packed_laurent``).
    """
    if n < 1:
        raise ValueError("q-Fibonacci numbers start at n = 1")
    return k_vector(mgo_alpha(CFDigits([1, 1])), 1, n - 1)[0]


def q_fibonacci_closed(n: int) -> LaurentPoly:
    """F_n(q) from one S pair of the period of the digits [1, 1].

    The period matrix A = [[1 + q, q^-1], [1, q^-1]] has trace
    t = q^-1 + 1 + q and determinant 1.  With S_k = S_k(t, 1) from one
    ``scaled_u_pair(n // 2, t, 1)`` pass, the top-left entry of
    A^m = S_m * I + S_{m-1} * (A - t * I) is F_{2m+1} = S_m - q^-1 * S_{m-1},
    and F_{2m} = S_{m-1}.
    """
    if n < 1:
        raise ValueError("q-Fibonacci numbers start at n = 1")
    s_m, s_m1 = scaled_u_pair(n // 2, LaurentPoly({-1: 1, 0: 1, 1: 1}), 1)
    return s_m - s_m1.shift(-1) if n % 2 else s_m1

"""Exact quaternion powers via Chebyshev values of the norm and real part.

Viewed as a 2x2 complex matrix, a quaternion x = a + bi + cj + dk has
trace 2a and determinant N = a^2 + b^2 + c^2 + d^2, both real, so the
Cayley-Hamilton power formula never leaves the rationals:

    x^n = (a*S_{n-1} - N*S_{n-2}) + (b*i + c*j + d*k) * S_{n-1},

with S_k = S_k(2a, N) the scaled Chebyshev values.  ``quat_power_naive``
is the repeated-multiplication oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chebyshev import scaled_u_pair


class Quaternion(namedtuple("Quaternion", "a b c d")):
    """a + b*i + c*j + d*k with exact rational components."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return super().__new__(cls, *(v if isinstance(v, Fraction) else Fraction(v)
                                      for v in (a, b, c, d)))

    @classmethod
    def _make(cls, iterable):  # ``_replace`` too: components become Fractions
        return cls(*iterable)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def norm_sq(self) -> Fraction:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return quat_mul(self, other)

    def __add__(self, other):
        return NotImplemented  # no tuple concatenation

    def __rmul__(self, other):
        return NotImplemented  # no tuple repetition

    def __str__(self):
        return f"{self.a},{self.b},{self.c},{self.d}"


ONE = Quaternion(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
I = Quaternion(Fraction(0), Fraction(1), Fraction(0), Fraction(0))
J = Quaternion(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
K = Quaternion(Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def quat_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Hamilton product (i^2 = j^2 = k^2 = ijk = -1)."""
    return Quaternion(
        x.a * y.a - x.b * y.b - x.c * y.c - x.d * y.d,
        x.a * y.b + x.b * y.a + x.c * y.d - x.d * y.c,
        x.a * y.c - x.b * y.d + x.c * y.a + x.d * y.b,
        x.a * y.d + x.b * y.c - x.c * y.b + x.d * y.a,
    )


def quat_power_naive(x: Quaternion, n: int) -> Quaternion:
    """x^n by repeated multiplication (reference oracle); x^0 = 1."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    result = ONE
    for _ in range(n):
        result = quat_mul(result, x)
    return result


def quat_power_cheb(x: Quaternion, n: int) -> Quaternion:
    """x^n through scaled Chebyshev values S_k(2a, |x|^2); x != 0 for n >= 1."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    if n == 0:
        return ONE
    if x.is_zero():
        raise ValueError("the closed form excludes the zero quaternion")
    norm = x.norm_sq()
    s1, s2 = scaled_u_pair(n - 1, 2 * x.a, norm)  # S_{n-1}, S_{n-2}
    return Quaternion(x.a * s1 - norm * s2, x.b * s1, x.c * s1, x.d * s1)

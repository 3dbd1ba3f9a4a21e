"""Exact quaternion powers via Chebyshev values of the norm and real part.

Viewed as a 2x2 complex matrix, a quaternion x = a + bi + cj + dk has
trace 2a and determinant N = a^2 + b^2 + c^2 + d^2, both real, so the
Cayley-Hamilton power formula never leaves the rationals:

    x^n = S_n + S_{n-1} * (x - 2a) = (S_n - a*S_{n-1}) + (b*i + c*j + d*k) * S_{n-1},

with S_k = S_k(2a, N), for every n >= 0 and every x, zero included.
``quat_power_naive`` is the repeated-multiplication oracle.  It clears
denominators once, runs the n Hamilton products on the integer quaternion
g*x (g the lcm of the component denominators) and divides each component
by g^n at the end, so no step reduces a gcd.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .chebyshev import scaled_u_pair
from .ring import Record


class Quaternion(Record, namedtuple("Quaternion", "a b c d")):
    """a + b*i + c*j + d*k with exact rational components."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return super().__new__(cls, *(v if isinstance(v, Fraction) else Fraction(v)
                                      for v in (a, b, c, d)))

    @classmethod
    def _make(cls, iterable):  # ``_replace`` too: components become Fractions
        return cls(*iterable)

    def norm_sq(self) -> Fraction:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return quat_mul(self, other)

    def __str__(self):
        return f"{self.a},{self.b},{self.c},{self.d}"


ONE = Quaternion(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
I = Quaternion(Fraction(0), Fraction(1), Fraction(0), Fraction(0))
J = Quaternion(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
K = Quaternion(Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def _hamilton(x, y) -> tuple:
    """Hamilton product of two component 4-tuples (i^2 = j^2 = k^2 = ijk = -1)."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        xa * ya - xb * yb - xc * yc - xd * yd,
        xa * yb + xb * ya + xc * yd - xd * yc,
        xa * yc - xb * yd + xc * ya + xd * yb,
        xa * yd + xb * yc - xc * yb + xd * ya,
    )


def quat_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Hamilton product (i^2 = j^2 = k^2 = ijk = -1)."""
    return Quaternion(*_hamilton(x, y))


def quat_power_naive(x: Quaternion, n: int) -> Quaternion:
    """x^n by repeated multiplication (reference oracle); x^0 = 1.

    The products run on the integer quaternion g*x, g the lcm of the
    component denominators, and one division by g^n ends the loop.
    """
    if n < 0:
        raise ValueError("nonnegative powers only")
    g = math.lcm(*(v.denominator for v in x))
    scaled = tuple(v.numerator * (g // v.denominator) for v in x)
    result = (1, 0, 0, 0)
    for _ in range(n):
        result = _hamilton(result, scaled)
    den = g ** n
    return Quaternion(*(Fraction(v, den) for v in result))


def quat_power_cheb(x: Quaternion, n: int) -> Quaternion:
    """x^n through scaled Chebyshev values S_k(2a, |x|^2)."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    s0, s1 = scaled_u_pair(n, 2 * x.a, x.norm_sq())  # S_n, S_{n-1}
    return Quaternion(s0 - x.a * s1, x.b * s1, x.c * s1, x.d * s1)

"""Exact quaternion powers via Chebyshev values of the norm and real part.

Viewed as a 2x2 complex matrix, a quaternion x = a + bi + cj + dk has
trace 2a and determinant N = a^2 + b^2 + c^2 + d^2, both real, so the
Cayley-Hamilton power formula never leaves the rationals:

    x^n = S_n + S_{n-1} * (x - 2a) = (S_n - a*S_{n-1}) + (b*i + c*j + d*k) * S_{n-1},

with S_k = S_k(2a, N), for every n >= 0 and every x, zero included.
``quat_power_naive`` is the repeated-multiplication oracle.  Both routes
clear denominators once: they run on the integer quaternion g*x (g the lcm
of the component denominators) and divide each component by g^n at the
end, so no step reduces a gcd.  For the closed form this is exact because
S_k(g*t, g^2*d) = g^k * S_k(t, d).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chebyshev import scaled_u_pair
from .kernel import _cleared
from .ring import Record, _fraction_text


class Quaternion(Record, namedtuple("Quaternion", "a b c d")):
    """a + b*i + c*j + d*k with exact rational components."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return super().__new__(cls, *(v if isinstance(v, Fraction) else Fraction(v)
                                      for v in (a, b, c, d)))

    def __str__(self):
        return ",".join(map(_fraction_text, self))


ONE = Quaternion(1, 0, 0, 0)


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
    """x^n by repeated multiplication (reference oracle); x^0 = 1."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    g, scaled = _cleared(x)
    result = (1, 0, 0, 0)
    for _ in range(n):
        result = _hamilton(result, scaled)
    den = g ** n
    return Quaternion(*(Fraction(v, den) for v in result))


def quat_power_cheb(x: Quaternion, n: int) -> Quaternion:
    """x^n through scaled Chebyshev values S_k(2a, |x|^2), on g*x."""
    if n < 0:
        raise ValueError("nonnegative powers only")
    g, (a, b, c, d) = _cleared(x)
    s0, s1 = scaled_u_pair(n, 2 * a, a * a + b * b + c * c + d * d)  # S_n, S_{n-1}
    den = g ** n
    return Quaternion(*(Fraction(v, den) for v in (s0 - a * s1, b * s1, c * s1, d * s1)))

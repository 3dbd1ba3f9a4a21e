"""2x2 matrices over an exact ring, with naive and Chebyshev fast powers.

The Cayley-Hamilton route expresses A^m through the scaled Chebyshev
values S_k = S_k(tr A, det A): A^m = S_m * I + S_{m-1} * (A - tr A * I)
for every m >= 0, since S_0 = 1 and S_{-1} = 0.  Because S_k(t, 0) = t^k,
the same code path covers singular matrices, where A^m = (tr A)^{m-1} * A
for m >= 1.
"""

from __future__ import annotations

from collections import namedtuple

from .chebyshev import scaled_u_pair
from .ring import Record, ring_one, ring_zero


class Mat2(Record, namedtuple("Mat2", "a b c d")):
    """Row-major 2x2 matrix; entries must share one ring."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def apply(self, v):
        """Multiply onto a 2-vector (pair)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __repr__(self):
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def mat_power_naive(a: Mat2, m: int) -> Mat2:
    """A^m by repeated multiplication (reference oracle); A^0 = I."""
    if m < 0:
        raise ValueError("nonnegative powers only")
    one, zero = ring_one(a.a), ring_zero(a.a)
    result = Mat2(one, zero, zero, one)
    for _ in range(m):
        result = result * a
    return result


def mat_power_binexp(a: Mat2, m: int) -> Mat2:
    """A^m by binary exponentiation from the leading bit of m; A^0 = I.

    The product starts from A itself, so m >= 1 takes
    m.bit_length() + popcount(m) - 2 multiplications.
    """
    if m < 0:
        raise ValueError("nonnegative powers only")
    if m == 0:
        one, zero = ring_one(a.a), ring_zero(a.a)
        return Mat2(one, zero, zero, one)
    result = a
    for bit in f"{m:b}"[1:]:
        result = result * result
        if bit == "1":
            result = result * a
    return result


def scaled_u_pair_binexp(m: int, t, d):
    """(S_m, S_{m-1}) read off a binary power of the companion matrix.

    The companion matrix C = [[t, -d], [1, 0]] is a transfer matrix with
    constant coefficients, so C^m = [[S_m, -d*S_{m-1}], [S_{m-1}, -d*S_{m-2}]];
    O(log m) ring ops, m >= 0.
    """
    power = mat_power_binexp(Mat2(t, -d, ring_one(t), ring_zero(t)), m)
    return power.a, power.c


def mat_power_cheb(a: Mat2, m: int) -> Mat2:
    """A^m via scaled Chebyshev values of the trace and determinant."""
    if m < 0:
        raise ValueError("nonnegative powers only")
    s0, s1 = scaled_u_pair(m, a.trace(), a.det())  # S_m, S_{m-1}
    return Mat2(s0 - s1 * a.d, s1 * a.b, s1 * a.c, s0 - s1 * a.a)

import random
from fractions import Fraction
from functools import reduce

from continuants import LaurentPoly, ModInt, PeriodicAlpha, Quaternion, ring_zero, u_coeffs
from continuants.chebyshev import scaled_u_pair

I, J, K = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    """Random small rational, biased toward integers, zeros included."""
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))


def rand_alpha(rng: random.Random, l: int, base: int = 1) -> PeriodicAlpha:
    return PeriodicAlpha(
        [rand_fraction(rng) for _ in range(l)],
        [rand_fraction(rng) for _ in range(l)],
        [rand_fraction(rng) for _ in range(l)],
        base=base,
    )


def rand_laurent(rng: random.Random, span: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[rng.randint(-span, span)] = rng.randint(-4, 4)
    return LaurentPoly({e: c for e, c in terms.items() if c})


def rand_modint(rng: random.Random, modulus: int) -> ModInt:
    return ModInt(rng.randrange(modulus), modulus)


def q_fibonacci_parity(n: int) -> LaurentPoly:
    """F_n(q) by the parity-split recurrence on dicts, an oracle for the packed
    kernel: F_1 = F_2 = 1, F_k = F_{k-1} + q^(+-1) F_{k-2}, with q at odd k."""
    f_prev = f_cur = LaurentPoly({0: 1})
    for k in range(3, n + 1):
        f_prev, f_cur = f_cur, f_cur + f_prev.shift(1 if k % 2 == 1 else -1)
    return f_cur


def scaled_u(m: int, t, d):
    """S_m(t, d), the first entry of ``scaled_u_pair``, and S_{-1} = 0."""
    return ring_zero(t) if m == -1 else scaled_u_pair(m, t, d)[0]


def complete_homogeneous(n: int, x, y):
    """h_n(x, y), the sum of the monomials x^i y^(n-i) for 0 <= i <= n."""
    return sum((x ** i * y ** (n - i) for i in range(n + 1)), 0 * x)


def pieri_check(n: int) -> bool:
    """Does 2x * U_n equal U_{n+1} + U_{n-1} exactly in coefficients?"""
    lower, u, upper = (LaurentPoly(dict(enumerate(u_coeffs(k)))) for k in (n - 1, n, n + 1))
    return 2 * LaurentPoly({1: 1}) * u == upper + lower


def cf_value(digits) -> Fraction:
    """The rational whose regular continued fraction is ``digits``."""
    return reduce(lambda v, d: d + 1 / v, reversed(digits[:-1]), Fraction(digits[-1]))


def evaluate_fraction(value, x) -> Fraction:
    """A ``LaurentFraction``'s value at q = x, exactly."""
    return Fraction(value.num.evaluate(x), value.den.evaluate(x))

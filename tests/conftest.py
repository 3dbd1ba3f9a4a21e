import random
from fractions import Fraction

from continuants import LaurentPoly, ModInt, PeriodicAlpha


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
    f_prev = f_cur = LaurentPoly.one()
    for k in range(3, n + 1):
        f_prev, f_cur = f_cur, f_cur + f_prev.shift(1 if k % 2 == 1 else -1)
    return f_cur

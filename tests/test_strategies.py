import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_fraction, rand_laurent, rand_modint
from continuants import PeriodicAlpha, continuant_rec
from continuants.ring import DEFAULT_MODULUS
from continuants.strategies import STRATEGIES, split

# Plain ints take the int branches of ring.exact_div (the oracle).
RINGS = {
    "int": lambda rng: rng.randint(-4, 4),
    "rational": rand_fraction,
    "laurent": rand_laurent,
    "modint": lambda rng: rand_modint(rng, DEFAULT_MODULUS),
}


def _alphas(ring: str, l: int, seed: int) -> list[PeriodicAlpha]:
    """Two random alphas with base 2, then one whose period determinant is 0."""
    rng = random.Random(seed)
    make = RINGS[ring]
    row = lambda: [make(rng) for _ in range(l)]
    alphas = [PeriodicAlpha(row(), row(), row(), base=2) for _ in range(2)]
    b = row()
    b[rng.randrange(l)] = b[0] * 0
    alphas.append(PeriodicAlpha(row(), b, row(), base=2))
    return alphas


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_every_strategy_equals_the_recurrence(ring, l):
    for alpha in _alphas(ring, l, seed=1000 * l + len(ring)):
        for p in range(alpha.base, alpha.base + l + 1):
            for n in range(-1, 3 * l + 3):
                expected = continuant_rec(alpha, p, n)
                for name, strategy in STRATEGIES.items():
                    value = strategy(alpha, p, n)
                    assert value == expected, (name, alpha, p, n)
                    assert type(value) is type(expected), (name, alpha, p, n)


# Small rationals with zero entries, so singular periods (d = 0) and zero
# pivots in the oracle's elimination occur.
ENTRY = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def periodic_data(draw):
    l = draw(st.integers(1, 4))
    row = st.lists(ENTRY, min_size=l, max_size=l)
    alpha = PeriodicAlpha(draw(row), draw(row), draw(row), base=draw(st.integers(-2, 2)))
    return alpha, draw(st.integers(-3, 6))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(periodic_data())
def test_every_strategy_equals_the_recurrence_on_drawn_data(data):
    alpha, p = data
    for n in range(-1, 4 * alpha.l + 3):
        expected = continuant_rec(alpha, p, n)
        for name, strategy in STRATEGIES.items():
            assert strategy(alpha, p, n) == expected, (name, n)


def test_table_names():
    assert list(STRATEGIES) == ["rec", "oracle", "transfer", "closed",
                                "closed-matpow", "matpow"]


def test_split_covers_the_offset_domain():
    for l in (1, 2, 3, 4):
        for n in range(-1, 5 * l):
            m, j = split(l, n)
            assert l * m + j == n and m >= 0 and -1 <= j <= l - 2
    for name, strategy in STRATEGIES.items():
        with pytest.raises(ValueError, match="n >= -1"):
            strategy(_alphas("rational", 2, 0)[0], 1, -2)


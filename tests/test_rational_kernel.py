"""The rational branch of the three-term kernel ``kernel._three_term``.

Tables of ``Fraction`` and int entries, at least one a ``Fraction``, run on
plain ints scaled by the lcm ``g`` of the denominators and become two
``Fraction`` values at the end.  They must equal what the per-step object
loop, restated here, returns over ``Fraction`` values.  All-int tables stay
on the object loop and return ints.
"""

import random
from fractions import Fraction

import pytest

from continuants.chebyshev import scaled_u_pair
from continuants.kernel import _three_term

STEPS = (0, 1, 2, 57)


def object_loop(a, b, c, steps):
    """x_k = a x_{k-1} - b c x_{k-2} on Fraction values, entry (k-1) % l at step k."""
    prev, cur = Fraction(0), Fraction(1)
    for k in range(steps):
        i = k % len(a)
        prev, cur = cur, a[i] * cur - b[i] * c[i] * prev
    return cur, prev


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def assert_matches_object_loop(a, b, c, steps):
    value = _three_term(a, b, c, steps)
    assert value == object_loop(a, b, c, steps)
    assert [type(x) for x in value] == [Fraction, Fraction]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_random_fraction_tables(l):
    rng = random.Random(50 + l)
    for _ in range(40):
        a, b, c = ([rand_fraction(rng) for _ in range(l)] for _ in range(3))
        for steps in STEPS:
            assert_matches_object_loop(a, b, c, steps)


@pytest.mark.parametrize("a, b, c", [
    ([Fraction(0)], [Fraction(1, 2)], [Fraction(3)]),                        # zero a
    ([Fraction(0), Fraction(2, 3)], [Fraction(5, 7), 1], [1, Fraction(-1, 4)]),
    ([Fraction(3, 2)], [Fraction(0)], [Fraction(5, 3)]),                     # d = 0
    ([Fraction(1, 3), Fraction(-2, 5)], [0, Fraction(7, 2)], [Fraction(1, 6), 0]),
    ([Fraction(-7, 4), Fraction(-1, 9)], [Fraction(-2, 3), -5], [Fraction(4, 5), -1]),
    ([Fraction(4, 2), Fraction(-9, 3)], [Fraction(6, 3), 1], [Fraction(5), 2]),  # integral
    ([3, Fraction(1, 2), -2], [1, 2, Fraction(-3, 8)], [-1, 4, 5]),          # int/Fraction mix
    ([2, 3], [Fraction(1, 5), 1], [5, 1]),                                   # int a, integral e
    ([Fraction(1, 2)], [3], [4]),
], ids=["zero-a", "zero-a-mixed", "zero-d", "zero-e-entries", "negative",
        "integral-fractions", "int-mix", "int-a", "int-e"])
def test_edge_tables(a, b, c):
    for steps in STEPS:
        assert_matches_object_loop(a, b, c, steps)


def test_d_table_without_c():
    rng = random.Random(9)
    for _ in range(40):
        t, d = rand_fraction(rng), rng.choice([rand_fraction(rng), 0, rng.randint(-4, 4)])
        for m in STEPS:
            value = scaled_u_pair(m, t, d)
            assert value == object_loop([t], [d], [1], m)
            assert [type(x) for x in value] == [Fraction, Fraction]


def test_all_int_tables_stay_on_the_object_path():
    a, b, c = [2, -3, 0], [1, 4, -2], [5, -1, 3]
    for steps in STEPS:
        value = _three_term(a, b, c, steps)
        assert value == object_loop(a, b, c, steps)
        assert [type(x) for x in value] == [int, int]
    assert [type(x) for x in scaled_u_pair(9, 3, -2)] == [int, int]

"""The three-term loop ``kernel._three_term`` behind ``continuant_rec`` and
``scaled_u_pair``.

On ``ModInt`` tables of one modulus it runs on raw ints, and must return
what a per-step object loop returns and charge the ModInt op counter
exactly what that loop counts: 4 per recurrence step (a*K, b*c, bc*K', the
subtraction) and 3 per S step (t*S, d*S', the subtraction).  The per-step
object loops are restated here as the reference.  Rational and Laurent
tables have branches of their own (``test_rational_kernel``,
``test_laurent_kernel``); every other table runs the object loop, which
forms each b*c product once per table entry.
"""

import random

import pytest

from conftest import rand_modint
from continuants import Mat2, ModInt, PeriodicAlpha, continuant_rec, mat_power_cheb, mat_power_naive
from continuants.chebyshev import scaled_u_pair
from continuants.ring import DEFAULT_MODULUS, modint_ops, reset_modint_ops

MODULI = (97, DEFAULT_MODULUS)


def object_rec(alpha, p, n):
    km1, k = alpha.zero(), alpha.one()
    for j in range(1, n + 1):
        idx = p + n - j
        km1, k = k, alpha.a_at(idx) * k - alpha.b_at(idx) * alpha.c_at(idx) * km1
    return k if n >= 0 else km1


def object_s_pair(m, t, d):
    prev, cur = ModInt(0, t.modulus), ModInt(1, t.modulus)
    for _ in range(m):
        prev, cur = cur, t * cur - d * prev
    return cur, prev


def counted(fn, *args):
    reset_modint_ops()
    value = fn(*args)
    return value, modint_ops()


def rand_alpha(rng, l, modulus, base=1):
    row = lambda: [rand_modint(rng, modulus) for _ in range(l)]
    return PeriodicAlpha(row(), row(), row(), base=base)


@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_rec_value_and_op_count(l, modulus):
    rng = random.Random(1000 * l + modulus % 1000)
    alpha = rand_alpha(rng, l, modulus, base=rng.randint(-3, 3))
    for p in range(alpha.base - l, alpha.base + 2 * l):
        for n in (-1, 0, 1, 2, 57):
            value, ops = counted(continuant_rec, alpha, p, n)
            expected, expected_ops = counted(object_rec, alpha, p, n)
            assert value == expected
            assert ops == expected_ops == 4 * max(n, 0)
            assert isinstance(value, ModInt) and value.modulus == modulus


@pytest.mark.parametrize("modulus", MODULI)
def test_s_pair_value_and_op_count(modulus):
    rng = random.Random(modulus)
    t, d = rand_modint(rng, modulus), rand_modint(rng, modulus)
    with pytest.raises(ValueError, match="m >= 0"):
        scaled_u_pair(-1, t, d)
    for m in (0, 1, 57):
        value, ops = counted(scaled_u_pair, m, t, d)
        assert value == object_s_pair(m, t, d)
        assert ops == 3 * m


def test_s_pair_modint_with_int_determinant_keeps_object_path():
    rng = random.Random(7)
    t = rand_modint(rng, DEFAULT_MODULUS)
    for m in (0, 1, 57):
        value, ops = counted(scaled_u_pair, m, t, 5)
        assert value == object_s_pair(m, t, ModInt(5, DEFAULT_MODULUS))
        assert ops == 3 * m


def test_rec_int_c_keeps_object_path_with_one_product_per_entry():
    # c is a plain int, so the tables run the object loop: the l products
    # b*c are ModInt ops formed once, then a*K, bc*K' and the subtraction.
    rng = random.Random(11)
    for l in (1, 2, 3):
        alpha = PeriodicAlpha([rand_modint(rng, 97) for _ in range(l)],
                              [rand_modint(rng, 97) for _ in range(l)],
                              [rng.randint(-5, 5) for _ in range(l)])
        for n in (1, 2, 9, 57):
            value, ops = counted(continuant_rec, alpha, 1, n)
            assert value == object_rec(alpha, 1, n)
            assert ops == l + 3 * n


@pytest.mark.parametrize("modulus", MODULI)
def test_mat_power_cheb_op_count(modulus):
    # trace 1, det 3, S_m pair 3m, four scalings, two subtractions.
    rng = random.Random(modulus + 1)
    mat = Mat2(*(rand_modint(rng, modulus) for _ in range(4)))
    for m in (0, 1, 2, 3, 57):
        value, ops = counted(mat_power_cheb, mat, m)
        assert value == mat_power_naive(mat, m)
        assert ops == 3 * m + 10


def test_rec_int_coefficients_keep_object_path():
    # b and c are plain ints, so b*c is not a ModInt op: 3 ops per step.
    alpha = PeriodicAlpha([ModInt(3, 97), ModInt(5, 97)], [2, 4], [7, -1])
    value, ops = counted(continuant_rec, alpha, 1, 9)
    assert value == object_rec(alpha, 1, 9)
    assert ops == 3 * 9


def test_mixed_moduli_still_raise():
    alpha = PeriodicAlpha([ModInt(3, 97), ModInt(5, 101)], [ModInt(1, 97)] * 2,
                          [ModInt(2, 97)] * 2)
    with pytest.raises(ValueError, match="mixed moduli"):
        continuant_rec(alpha, 1, 4)
    with pytest.raises(ValueError, match="mixed moduli"):
        scaled_u_pair(3, ModInt(3, 97), ModInt(5, 101))

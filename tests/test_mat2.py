import random

import pytest

from continuants import Mat2, mat_power_binexp, mat_power_cheb, mat_power_naive


def rand_mat(rng):
    return Mat2(*(rng.randint(-5, 5) for _ in range(4)))


def rand_singular(rng):
    # Rank <= 1: outer product of two integer vectors.
    u1, u2, v1, v2 = (rng.randint(-4, 4) for _ in range(4))
    return Mat2(u1 * v1, u1 * v2, u2 * v1, u2 * v2)


def test_mul_examples():
    ident = Mat2(1, 0, 0, 1)
    x = Mat2(3, -2, 5, 7)
    assert ident * x == x
    fib = Mat2(1, 1, 1, 0)
    assert fib * fib == Mat2(2, 1, 1, 1)
    rot = Mat2(0, 1, -1, 0)
    assert rot * rot == Mat2(-1, 0, 0, -1)


def test_power_naive_examples():
    fib = Mat2(1, 1, 1, 0)
    assert mat_power_naive(fib, 0) == Mat2(1, 0, 0, 1)
    assert mat_power_naive(fib, 5) == Mat2(8, 5, 5, 3)
    ones = Mat2(1, 1, 1, 1)
    assert mat_power_naive(ones, 3) == Mat2(4, 4, 4, 4)
    with pytest.raises(ValueError):
        mat_power_naive(fib, -1)


def test_power_cheb_examples():
    fib = Mat2(1, 1, 1, 0)
    assert mat_power_cheb(fib, 0) == Mat2(1, 0, 0, 1)
    assert mat_power_cheb(fib, 1) == fib
    assert mat_power_cheb(fib, 5) == Mat2(8, 5, 5, 3)
    ones = Mat2(1, 1, 1, 1)  # det = 0 branch
    assert mat_power_cheb(ones, 3) == Mat2(4, 4, 4, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        mat_power_cheb(fib, -1)


def test_power_strategies_agree_on_500_random_matrices():
    rng = random.Random(1001)
    matrices = [rand_mat(rng) for _ in range(450)] + [rand_singular(rng) for _ in range(50)]
    for mat in matrices:
        naive = Mat2(1, 0, 0, 1)
        for m in range(17):
            assert mat_power_cheb(mat, m) == naive
            assert mat_power_binexp(mat, m) == naive
            naive = naive * mat


def test_singular_branch_collapses_to_trace_powers():
    # When det A = 0, A^m = (tr A)^(m-1) * A; the S-polynomial path must
    # reproduce it without any case split.
    rng = random.Random(1002)
    for _ in range(100):
        mat = rand_singular(rng)
        assert mat.det() == 0
        t = mat.trace()
        for m in range(1, 9):
            k = t ** (m - 1)
            assert mat_power_cheb(mat, m) == Mat2(k * mat.a, k * mat.b, k * mat.c, k * mat.d)


def test_cayley_hamilton_at_m_2():
    rng = random.Random(1003)
    for _ in range(100):
        mat = rand_mat(rng)
        t, d = mat.trace(), mat.det()
        assert mat * mat == Mat2(t * mat.a - d, t * mat.b, t * mat.c, t * mat.d - d)


def test_trace_det_apply():
    mat = Mat2(2, 3, 5, 7)
    assert mat.trace() == 9
    assert mat.det() == -1
    assert mat.apply((1, 0)) == (2, 5)



def test_binexp_product_starts_from_the_matrix(monkeypatch):
    # One squaring per bit below the leading one and one multiplication by
    # A per further set bit: no identity * A product, and none at m = 0.
    fib = Mat2(1, 1, 1, 0)
    expected = [mat_power_naive(fib, m) for m in range(70)]
    calls = []
    multiply = Mat2.__mul__
    monkeypatch.setattr(Mat2, "__mul__", lambda x, y: calls.append(1) or multiply(x, y))
    for m in range(70):
        calls.clear()
        assert mat_power_binexp(fib, m) == expected[m]
        assert len(calls) == (m.bit_length() + bin(m).count("1") - 2 if m else 0), m

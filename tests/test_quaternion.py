import random
from fractions import Fraction

import pytest

from conftest import I, J, K
from continuants import Quaternion, quat_mul, quat_power_cheb, quat_power_naive, quaternion
from continuants.chebyshev import scaled_u
from continuants.quaternion import ONE

# Components with 50-digit numerators and denominators.
WIDE = Quaternion(*(Fraction(10 ** 50 + i, 10 ** 49 + 3 * i) for i in range(1, 5)))


def rand_quat(rng):
    return Quaternion(*(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2))) for _ in range(4)))


def norm_sq(x: Quaternion) -> Fraction:
    return sum(v * v for v in x)


def test_unit_relations():
    minus_one = Quaternion(-1, 0, 0, 0)
    assert quat_mul(I, I) == minus_one
    assert quat_mul(J, J) == minus_one
    assert quat_mul(K, K) == minus_one
    assert quat_mul(quat_mul(I, J), K) == minus_one
    assert quat_mul(I, J) == K
    assert quat_mul(J, I) == Quaternion(0, 0, 0, -1)  # noncommutative


def test_mul_examples():
    assert quat_mul(Quaternion(1, 1, 0, 0), Quaternion(1, -1, 0, 0)) == Quaternion(2, 0, 0, 0)


def test_power_naive_examples():
    assert quat_power_naive(rand_quat(random.Random(3)), 0) == ONE
    assert quat_power_naive(I, 2) == Quaternion(-1, 0, 0, 0)
    assert quat_power_naive(Quaternion(1, 1, 0, 0), 2) == Quaternion(0, 2, 0, 0)
    with pytest.raises(ValueError):
        quat_power_naive(I, -1)


def test_power_cheb_examples():
    x = Quaternion(3, -2, 1, 5)
    assert quat_power_cheb(x, 0) == ONE
    assert quat_power_cheb(x, 1) == x
    assert quat_power_cheb(I, 4) == ONE
    assert quat_power_cheb(Quaternion(1, 2, 3, 4), 5) == quat_power_naive(
        Quaternion(1, 2, 3, 4), 5)


def test_zero_quaternion_powers():
    # S_n(0, 0) = 0 for n >= 1, so the closed form needs no zero case.
    zero = Quaternion(0, 0, 0, 0)
    for n in range(13):
        assert quat_power_cheb(zero, n) == quat_power_naive(zero, n)
    with pytest.raises(ValueError):
        quat_power_cheb(zero, -1)


def test_power_strategies_agree_on_300_random_quaternions():
    rng = random.Random(2718)
    for _ in range(300):
        x = rand_quat(rng)
        naive = ONE
        for n in range(13):
            assert quat_power_cheb(x, n) == naive
            naive = quat_mul(naive, x)


def test_two_scalar_part_forms_agree():
    # The paper's a*S_{n-1}(2a, N) - N*S_{n-2}(2a, N) equals the S_n - a*S_{n-1}
    # of quat_power_cheb and (S_n(2a, N) - N*S_{n-2}(2a, N)) / 2, the Pieri
    # identity stated without square roots.
    rng = random.Random(2719)
    for _ in range(100):
        a = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        norm = Fraction(rng.randint(0, 9), rng.choice((1, 2)))
        for n in range(1, 13):
            lhs = a * scaled_u(n - 1, 2 * a, norm) - norm * scaled_u(n - 2, 2 * a, norm)
            rhs = (scaled_u(n, 2 * a, norm) - norm * scaled_u(n - 2, 2 * a, norm)) / 2
            assert lhs == rhs == scaled_u(n, 2 * a, norm) - a * scaled_u(n - 1, 2 * a, norm)


def test_norm_is_multiplicative_under_powers():
    rng = random.Random(2720)
    for _ in range(50):
        x = rand_quat(rng)
        for n in range(0, 8):
            assert norm_sq(quat_power_cheb(x, n)) == norm_sq(x) ** n


def test_power_cheb_runs_its_s_pair_on_ints(monkeypatch):
    # S_k(g*t, g^2*d) = g^k * S_k(t, d): the pair runs on the integer g*x.
    seen = []
    pair = quaternion.scaled_u_pair
    monkeypatch.setattr(quaternion, "scaled_u_pair",
                        lambda n, t, d: seen.append((type(t), type(d))) or pair(n, t, d))
    for x in (WIDE, Quaternion(Fraction(1, 2), 0, Fraction(-2, 3), 5), Quaternion(0, 0, 0, 0)):
        for n in (0, 1, 2, 7, 40):
            value = quat_power_cheb(x, n)
            assert value == quat_power_naive(x, n)
            assert [type(v) for v in value] == [Fraction] * 4
    assert set(seen) == {(int, int)}


def test_power_naive_matches_repeated_quat_mul():
    # The oracle runs on the integer quaternion g*x; restate the plain loop.
    rng = random.Random(2721)
    cases = [Quaternion(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
             for _ in range(40)]
    cases += [Quaternion(0, 0, 0, 0), Quaternion(3, -2, 0, 7),
              Quaternion(0, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))]
    for x in cases:
        expected = ONE
        for n in range(13):
            value = quat_power_naive(x, n)
            assert value == expected
            assert [type(v) for v in value] == [Fraction] * 4
            expected = quat_mul(expected, x)

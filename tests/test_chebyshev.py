import math
import random
from fractions import Fraction

import pytest

from conftest import (complete_homogeneous, pieri_check, rand_fraction, rand_laurent, rand_modint,
                      scaled_u)
from continuants import u_coeffs, u_coeffs_hypergeometric, u_genfun_coeff
from continuants import chebyshev, ring
from continuants.chebyshev import scaled_u_pair
from continuants.mat2 import scaled_u_pair_binexp

# Degrees whose packed S_n(x, 1) slots (1-norm F_{n+1}) are 48, 96 and 184
# bits wide, against 24 bits at n = 30.
WIDE_N = (64, 127, 255)


def test_boundary_values():
    assert u_coeffs(0) == [1]
    assert u_coeffs(-1) == []
    assert u_coeffs(-2) == [-1]
    with pytest.raises(ValueError):
        u_coeffs(-3)


def test_small_values():
    assert u_coeffs(1) == [0, 2]
    assert u_coeffs(2) == [-1, 0, 4]
    assert u_coeffs(3) == [0, -4, 0, 8]


def test_hypergeometric_examples():
    assert u_coeffs_hypergeometric(0) == [1]
    assert u_coeffs_hypergeometric(1) == [0, 2]
    assert u_coeffs_hypergeometric(5) == u_coeffs(5)
    with pytest.raises(ValueError):
        u_coeffs_hypergeometric(-1)


def test_genfun_examples():
    assert u_genfun_coeff(0, 8) == [1]
    assert u_genfun_coeff(1, 8) == [0, 2]
    assert u_genfun_coeff(6, 8) == u_coeffs(6)
    with pytest.raises(ValueError):
        u_genfun_coeff(5, 3)


def test_three_routes_agree_up_to_30():
    for n in range(31):
        rec = u_coeffs(n)
        assert rec == u_coeffs_hypergeometric(n)
        assert rec == u_genfun_coeff(n, 30)
    for n in WIDE_N:  # the hypergeometric sum is too slow at these degrees
        assert u_coeffs(n) == u_genfun_coeff(n, n)


def test_structural_invariants():
    for n in (*range(31), *WIDE_N):
        coeffs = u_coeffs(n)
        assert len(coeffs) == n + 1  # degree n
        assert coeffs[-1] == 2 ** n  # leading coefficient
        for k, c in enumerate(coeffs):
            if (n - k) % 2 == 1:
                assert c == 0  # parity: only x^k with k = n (mod 2) survive


def test_recurrence_is_one_kernel_pass_and_oracles_none(monkeypatch):
    # The two oracles must stay independent of the packed kernel that
    # u_coeffs runs on, and u_coeffs must not fall back to the object loop.
    passes, products = [], []

    def counting(*args):
        passes.append(args)
        return ring._three_term(*args)

    mul = ring.LaurentPoly.__mul__

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(chebyshev, "_three_term", counting)
    for n in (0, 1, 2, 7, 30, *WIDE_N):
        passes.clear()
        with monkeypatch.context() as m:
            m.setattr(ring.LaurentPoly, "__mul__", counting_mul)
            m.setattr(ring.LaurentPoly, "__rmul__", counting_mul)
            u_coeffs(n)
        assert len(passes) == 1 and products == [], n
    passes.clear()
    for n in range(13):
        u_coeffs_hypergeometric(n)
        u_genfun_coeff(n, 12)
    assert passes == []


def test_pieri_identity():
    for n in range(31):
        assert pieri_check(n)


def test_complete_homogeneous_examples():
    assert complete_homogeneous(0, Fraction(5), Fraction(-7)) == 1
    assert complete_homogeneous(2, Fraction(2), Fraction(3)) == 19
    assert complete_homogeneous(3, Fraction(1), Fraction(1)) == 4


def test_complete_homogeneous_telescoping_identity():
    rng = random.Random(31)
    pairs = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(50)]
    for n in range(31):
        for x, y in pairs:
            h = complete_homogeneous(n, x, y)
            assert (x - y) * h == x ** (n + 1) - y ** (n + 1)


def test_scaled_u_examples():
    t, d = Fraction(5), Fraction(3)
    assert scaled_u(-1, t, d) == 0
    assert scaled_u(0, t, d) == 1
    assert scaled_u(1, t, d) == t
    assert scaled_u(3, Fraction(2), Fraction(1)) == 4
    with pytest.raises(ValueError):
        scaled_u(-2, t, d)


@pytest.mark.parametrize("value", [rand_fraction, rand_laurent, lambda rng: rand_modint(rng, 97)],
                         ids=["rational", "laurent", "modint"])
def test_s_pair_routes_share_one_domain(value):
    # closed_form_general takes either route as its pair: both start at m = 0.
    rng = random.Random(41)
    t, d = value(rng), value(rng)
    for pair in (scaled_u_pair, scaled_u_pair_binexp):
        with pytest.raises(ValueError):
            pair(-1, t, d)
    for m in range(41):
        assert scaled_u_pair(m, t, d) == scaled_u_pair_binexp(m, t, d), m


def test_scaled_u_is_h_of_the_roots():
    # Choose the roots first; S_m(sum, product) must equal h_m(roots).
    rng = random.Random(47)
    pairs = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(50)]
    for rho_p, rho_m in pairs:
        t, d = rho_p + rho_m, rho_p * rho_m
        for m in range(21):
            assert scaled_u(m, t, d) == complete_homogeneous(m, rho_p, rho_m)


def test_scaled_u_degenerate_product():
    rng = random.Random(53)
    for _ in range(20):
        t = rand_fraction(rng)
        for m in range(11):
            assert scaled_u(m, t, Fraction(0)) == t ** m


def _u_float(n: int, x: float) -> float:
    # Forward recurrence in doubles; stable in the growth-dominated regime.
    prev, cur = 0.0, 1.0
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def test_scaled_u_matches_sqrt_form_in_floats():
    # d > 0 cases only: S_m(t, d) ~= d^(m/2) * U_m(t / (2 sqrt(d))).
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        t = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        d = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
        m = rng.randint(0, 20)
        exact = scaled_u(m, t, d)
        df = float(d)
        approx = df ** (m / 2) * _u_float(m, float(t) / (2.0 * math.sqrt(df)))
        assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-9)
        checked += 1

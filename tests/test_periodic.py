import random
from fractions import Fraction

import pytest

from conftest import rand_alpha
from continuants import (
    LaurentPoly,
    PeriodicAlpha,
    closed_form_general,
    closed_form_klm,
    closed_form_klm_minus1,
    continuant_det_oracle,
    continuant_rec,
    mat_power_cheb,
    period_trace_det,
    q_fibonacci,
    transfer_matrix,
)
from periodic_fixtures import fixture_l1, fixture_l2, fixture_l3

FIB = PeriodicAlpha([Fraction(1)], [Fraction(1)], [Fraction(-1)])


def qfib_alpha():
    return PeriodicAlpha(
        [LaurentPoly.one(), LaurentPoly.one()],
        [LaurentPoly.q(), LaurentPoly.monomial(1, -1)],
        [LaurentPoly.constant(-1), LaurentPoly.constant(-1)])


def test_klm_examples():
    assert closed_form_klm(FIB, 1, 0) == 1
    assert closed_form_klm(FIB, 1, 5) == 8
    alpha = qfib_alpha()
    assert closed_form_klm(alpha, 1, 2) == q_fibonacci(5)
    assert q_fibonacci(5) == LaurentPoly({-1: 1, 0: 1, 1: 2, 2: 1})
    with pytest.raises(ValueError):
        closed_form_klm(FIB, 1, -1)


def test_klm_minus1_examples():
    rng = random.Random(41)
    for l in (1, 2, 3):
        alpha = rand_alpha(rng, l)
        assert closed_form_klm_minus1(alpha, 1, 1) == continuant_rec(alpha, 2, l - 1)
    assert closed_form_klm_minus1(FIB, 1, 6) == 8  # K_5 = F_6
    assert closed_form_klm_minus1(qfib_alpha(), 1, 2) == q_fibonacci(4)
    assert closed_form_klm_minus1(FIB, 1, 0) == 0  # K_{-1}


def test_general_trivial_offsets():
    rng = random.Random(43)
    for l in (2, 3, 4):
        alpha = rand_alpha(rng, l)
        for m in range(0, 5):
            assert closed_form_general(alpha, 1, m, 0) == closed_form_klm(alpha, 1, m)
            assert closed_form_general(alpha, 1, m, -1) == closed_form_klm_minus1(alpha, 1, m)


def test_general_matches_oracle_l3():
    rng = random.Random(44)
    for _ in range(10):
        alpha = rand_alpha(rng, 3)
        value = closed_form_general(alpha, 1, 2, 1)
        assert value == continuant_det_oracle(alpha, 0, 7)  # base p - j = 0, n = 7


def test_general_domain():
    rng = random.Random(45)
    alpha = rand_alpha(rng, 2)
    with pytest.raises(ValueError):
        closed_form_general(alpha, 1, 2, 1)  # j > l - 2
    with pytest.raises(ValueError):
        closed_form_general(alpha, 1, 2, -2)
    with pytest.raises(ValueError):
        closed_form_general(alpha, 1, -1, 0)


def test_master_equivalence_sample():
    # A smaller copy of the acceptance corpus; the full run lives in
    # tests/test_acceptance.py.
    rng = random.Random(46)
    for l in (1, 2, 3, 4):
        for _ in range(20):
            alpha = rand_alpha(rng, l)
            for m in range(0, 5):
                for j in range(-1, l - 1):
                    closed = closed_form_general(alpha, 1, m, j)
                    rec = continuant_rec(alpha, 1 - j, l * m + j)
                    assert closed == rec
                    if m <= 3:
                        assert rec == continuant_det_oracle(alpha, 1 - j, l * m + j)


def test_period_power_is_concatenated_transfer():
    rng = random.Random(48)
    for l in (1, 2, 3, 4):
        for _ in range(10):
            alpha = rand_alpha(rng, l)
            period = transfer_matrix(alpha, 1, l)
            for m in range(0, 6):
                assert mat_power_cheb(period, m) == transfer_matrix(alpha, 1, l * m)


def test_period_trace_det_against_matrix():
    rng = random.Random(49)
    for l in (1, 2, 3, 4):
        alpha = rand_alpha(rng, l)
        t, d = period_trace_det(alpha, 1)
        mat = transfer_matrix(alpha, 1, l)
        assert t == mat.trace()
        assert d == mat.det()


def test_degenerate_period_determinant():
    # A zero in b kills det A_l; closed forms must still match.
    rng = random.Random(50)
    for l in (2, 3):
        values = [rand_alpha(rng, l) for _ in range(5)]
        for alpha in values:
            b = list(alpha.b)
            b[rng.randrange(l)] = Fraction(0)
            degenerate = PeriodicAlpha(alpha.a, b, alpha.c)
            t, d = period_trace_det(degenerate, 1)
            assert d == 0
            for m in range(0, 6):
                assert closed_form_klm(degenerate, 1, m) == continuant_rec(
                    degenerate, 1, l * m)


@pytest.mark.parametrize("fixture", [fixture_l1, fixture_l2, fixture_l3])
def test_small_period_fixtures(fixture):
    report = fixture()
    bad = [check for check in report if not check.ok]
    assert not bad, bad[:5]
    assert len(report) > 100

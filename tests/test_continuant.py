import os
import random
from fractions import Fraction

import pytest

from conftest import rand_alpha, rand_fraction, rand_laurent
from continuants import (
    LEIBNIZ_MAX_N,
    LaurentFraction,
    LaurentPoly,
    Mat2,
    ModInt,
    PeriodicAlpha,
    cf_eval,
    continuant_det_oracle,
    continuant_rec,
    det_bareiss,
    det_leibniz,
    k_vector,
    shift_check,
    transfer_matrix,
    transfer_products,
)
from continuants import continuant
from continuants.cli import load_config
from continuants.continuant import tridiagonal_matrix
from test_k_vector import RINGS


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _corpus(seed=77, per_l=50):
    rng = random.Random(seed)
    return [rand_alpha(rng, l) for l in (1, 2, 3, 4) for _ in range(per_l)]


FIB = PeriodicAlpha([Fraction(1)], [Fraction(1)], [Fraction(-1)])


def _zero_heavy(seed, entry, zero, count=60, n_max=6):
    """Square matrices with about half their entries zero: zero pivots, row
    swaps, rows that skip pivot columns, and singular matrices.  Each row is
    a ``{column: value}`` map that stores its diagonal and its nonzero
    entries."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        rows = [[entry(rng) if rng.random() < 0.5 else zero for _ in range(n)] for _ in range(n)]
        yield [{j: v for j, v in enumerate(row) if j == i or v != zero}
               for i, row in enumerate(rows)]


class TestPeriodicAlpha:
    def test_lookups_wrap_in_both_directions(self):
        alpha = PeriodicAlpha([1, 2, 3], [4, 5, 6], [7, 8, 9], base=1)
        assert [alpha.a_at(m) for m in (1, 2, 3, 4)] == [1, 2, 3, 1]
        assert alpha.a_at(-2) == alpha.a_at(-2 + 3)
        assert alpha.b_at(0) == 6  # one left of the base wraps to the end
        for m in range(-7, 8):
            assert alpha.a_at(m + 3) == alpha.a_at(m)
            assert alpha.b_at(m + 3) == alpha.b_at(m)
            assert alpha.c_at(m + 3) == alpha.c_at(m)

    def test_period_end_index_reduction(self):
        # b_{p+l-1} c_{p+l-1} = b_{p-1} c_{p-1} by periodicity.
        rng = random.Random(5)
        alpha = rand_alpha(rng, 3)
        for p in range(-2, 4):
            lhs = alpha.b_at(p + 2) * alpha.c_at(p + 2)
            assert lhs == alpha.b_at(p - 1) * alpha.c_at(p - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicAlpha([1, 2], [3], [4, 5])
        with pytest.raises(ValueError):
            PeriodicAlpha([], [], [])


class TestRecurrence:
    def test_conventions(self):
        assert continuant_rec(FIB, 1, -1) == 0
        assert continuant_rec(FIB, 1, 0) == 1
        rng = random.Random(11)
        alpha = rand_alpha(rng, 3)
        for p in range(1, 4):
            assert continuant_rec(alpha, p, 1) == alpha.a_at(p)
        with pytest.raises(ValueError):
            continuant_rec(FIB, 1, -2)

    def test_fibonacci_values(self):
        values = [continuant_rec(FIB, 1, n) for n in range(9)]
        assert values == [1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_matches_recurrence_definition(self):
        # K_n(p) = a_p K_{n-1}(p+1) - b_p c_p K_{n-2}(p+2), checked as stated.
        rng = random.Random(13)
        for _ in range(30):
            alpha = rand_alpha(rng, rng.randint(1, 4))
            p = rng.randint(-3, 3)
            for n in range(1, 9):
                direct = continuant_rec(alpha, p, n)
                recur = alpha.a_at(p) * continuant_rec(alpha, p + 1, n - 1) - alpha.b_at(
                    p
                ) * alpha.c_at(p) * continuant_rec(alpha, p + 2, n - 2)
                assert direct == recur


class TestDeterminantOracle:
    def test_small_examples(self):
        assert continuant_det_oracle(FIB, 1, 0) == 1
        assert continuant_det_oracle(FIB, 1, -1) == 0
        assert continuant_det_oracle(FIB, 1, 5) == 8
        alpha = PeriodicAlpha(
            [Fraction(2), Fraction(3)], [Fraction(5), Fraction(5)],
            [Fraction(7), Fraction(7)])
        assert continuant_det_oracle(alpha, 1, 2) == -29  # det [[2,5],[7,3]]

    def test_matrix_materialization(self):
        alpha = PeriodicAlpha([1, 2], [3, 4], [5, 6], base=1)
        rows = tridiagonal_matrix(alpha, 1, 4)
        assert rows == [
            {0: 1, 1: 3},
            {0: 5, 1: 2, 2: 4},
            {1: 6, 2: 1, 3: 3},
            {2: 5, 3: 2},
        ]

    def test_matrix_is_its_band(self):
        alpha = PeriodicAlpha([Fraction(0), Fraction(2)], [Fraction(3)] * 2, [Fraction(5)] * 2)
        for n in range(1, 9):
            rows = tridiagonal_matrix(alpha, 1, n)
            assert sum(map(len, rows)) == 3 * n - 2
            assert [sorted(row) for row in rows] == [
                [j for j in (i - 1, i, i + 1) if 0 <= j < n] for i in range(n)]
        assert rows[0] == {0: Fraction(0), 1: Fraction(3)}  # a zero diagonal is stored

    def test_oracle_compares_only_band_entries_with_zero(self, monkeypatch):
        """O(n) ``ModInt.__eq__`` calls, not one per cell of an n x n grid."""
        alpha = load_config(os.path.join(CONFIGS, "modint_l3.cfg")).to_alpha()
        calls = []
        eq = ModInt.__eq__

        def counted(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(ModInt, "__eq__", counted)
        n = 200
        value = continuant_det_oracle(alpha, alpha.base, n)
        assert len(calls) <= 10 * n
        monkeypatch.undo()
        assert value == continuant_rec(alpha, alpha.base, n)

    def test_oracle_equals_recurrence_on_corpus(self):
        for alpha in _corpus():
            for n in range(-1, 11):
                assert continuant_det_oracle(alpha, 1, n) == continuant_rec(alpha, 1, n)

    def test_bareiss_equals_leibniz_small(self):
        for alpha in _corpus(seed=78, per_l=10):
            for n in range(1, 7):
                rows = tridiagonal_matrix(alpha, 1, n)
                assert det_bareiss(rows) == det_leibniz(rows)

    def test_bareiss_equals_leibniz_dense(self):
        rng = random.Random(79)
        for _ in range(120):
            n = rng.randint(1, 5)
            rows = [dict(enumerate(rand_fraction(rng) for _ in range(n))) for _ in range(n)]
            assert det_bareiss(rows) == det_leibniz(rows)
        for rows in _zero_heavy(82, rand_fraction, Fraction(0)):
            assert det_bareiss(rows) == det_leibniz(rows)

    def test_bareiss_handles_zero_pivots(self):
        rows = [{0: Fraction(0), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(0)}]
        assert det_bareiss(rows) == -1
        rows = [
            {0: Fraction(0), 1: Fraction(2), 2: Fraction(0)},
            {0: Fraction(1), 1: Fraction(0), 2: Fraction(3)},
            {0: Fraction(0), 1: Fraction(4), 2: Fraction(0)},
        ]
        assert det_bareiss(rows) == det_leibniz(rows) == 0

    def test_bareiss_over_laurent_ring(self):
        rng = random.Random(80)
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [dict(enumerate(rand_laurent(rng, span=1) for _ in range(n)))
                    for _ in range(n)]
            assert det_bareiss(rows) == det_leibniz(rows)
        for rows in _zero_heavy(83, lambda r: rand_laurent(r, span=1), LaurentPoly.zero(),
                                count=25, n_max=5):
            assert det_bareiss(rows) == det_leibniz(rows)

    def test_bareiss_over_modint(self):
        rng = random.Random(81)
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [dict(enumerate(ModInt(rng.randrange(11), 11) for _ in range(n)))
                    for _ in range(n)]
            assert det_bareiss(rows) == det_leibniz(rows)
        for rows in _zero_heavy(84, lambda r: ModInt(r.randrange(1, 11), 11), ModInt(0, 11)):
            assert det_bareiss(rows) == det_leibniz(rows)

    def test_bareiss_exact_divisions_are_linear_on_tridiagonal_input(self, monkeypatch):
        """A row with no entry in the pivot column is not rescaled at that
        step; it catches up when next read.  So a tridiagonal matrix costs
        about 5n exact divisions, not one per untouched entry per step."""
        calls = []
        exact_div = continuant.exact_div

        def counted(x, y):
            calls.append(1)
            return exact_div(x, y)

        monkeypatch.setattr(continuant, "exact_div", counted)
        alpha = PeriodicAlpha([Fraction(1), Fraction(2), Fraction(3)], [Fraction(1)] * 3,
                              [Fraction(-1)] * 3)
        n = 200
        assert continuant_det_oracle(alpha, 1, n) == continuant_rec(alpha, 1, n)
        assert len(calls) <= 6 * n

    @pytest.mark.parametrize("det", [det_bareiss, det_leibniz])
    def test_empty_matrix_is_refused(self, det):
        with pytest.raises(ValueError, match="empty matrix"):
            det([])

    def test_leibniz_refuses_n_above_bound(self, monkeypatch):
        def no_enumeration(_):
            raise AssertionError("permutations enumerated before the size guard")

        monkeypatch.setattr(continuant, "permutations", no_enumeration)
        n = LEIBNIZ_MAX_N + 1
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError, match=f"n = {n} > LEIBNIZ_MAX_N = {LEIBNIZ_MAX_N}"):
            det_leibniz(rows)


class TestTransferMatrix:
    def test_single_factor(self):
        rng = random.Random(17)
        alpha = rand_alpha(rng, 2)
        mat = transfer_matrix(alpha, 1, 1)
        assert (mat.a, mat.b, mat.c, mat.d) == (
            alpha.a_at(1), -(alpha.b_at(1) * alpha.c_at(1)), Fraction(1), Fraction(0))

    def test_two_ones_factors(self):
        alpha = PeriodicAlpha(
            [Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(-1)])
        assert transfer_matrix(alpha, 1, 2) == Mat2(
            Fraction(2), Fraction(1), Fraction(1), Fraction(1))

    def test_entries_are_continuants(self):
        for alpha in _corpus(seed=83, per_l=15):
            p = 1
            for n in range(1, 11):
                mat = transfer_matrix(alpha, p, n)
                bc = alpha.b_at(p + n - 1) * alpha.c_at(p + n - 1)
                assert mat.a == continuant_rec(alpha, p, n)
                assert mat.b == -(bc * continuant_rec(alpha, p, n - 1))
                assert mat.c == continuant_rec(alpha, p + 1, n - 1)
                assert mat.d == -(bc * continuant_rec(alpha, p + 1, n - 2))

    def test_trace_and_det_identities(self):
        for alpha in _corpus(seed=84, per_l=15):
            p = 1
            for n in range(1, 11):
                mat = transfer_matrix(alpha, p, n)
                bc = alpha.b_at(p + n - 1) * alpha.c_at(p + n - 1)
                assert mat.trace() == continuant_rec(alpha, p, n) - bc * continuant_rec(
                    alpha, p + 1, n - 2)
                det = Fraction(1)
                for j in range(1, n + 1):
                    det *= alpha.b_at(p + j - 1) * alpha.c_at(p + j - 1)
                assert mat.det() == det

    def test_negative_factor_count_is_refused(self):
        with pytest.raises(ValueError, match="n >= 0"):
            transfer_matrix(FIB, 1, -1)

    def test_identity_at_zero_factors(self):
        assert transfer_matrix(FIB, 1, 0) == Mat2(
            Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def test_product_starts_from_the_first_factor(self, monkeypatch):
        # n factors take n - 1 multiplications: no identity * first factor.
        calls = []
        multiply = Mat2.__mul__
        monkeypatch.setattr(Mat2, "__mul__", lambda x, y: calls.append(1) or multiply(x, y))
        for alpha in _corpus(seed=86, per_l=2):
            for n in range(0, 9):
                calls.clear()
                transfer_matrix(alpha, 1, n)
                assert len(calls) == max(n - 1, 0), (alpha.l, n)

    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    def test_item_n_of_the_running_product(self, ring_name, monkeypatch):
        # transfer_products yields I, A_1, A_2, ...; reaching A_n extends the
        # product one factor at a time from the first factor.
        rng = random.Random(88)
        cases = []
        for l in (1, 2, 3, 4):
            alpha, p = RINGS[ring_name](rng, l), rng.randint(-3, 3)
            cases.append((alpha, p, [transfer_matrix(alpha, p, n) for n in range(3 * l + 4)]))
        calls = []
        multiply = Mat2.__mul__
        monkeypatch.setattr(Mat2, "__mul__", lambda x, y: calls.append(1) or multiply(x, y))
        for alpha, p, expected in cases:
            assert expected[0] == Mat2.identity_like(alpha.a[0])
            calls.clear()
            for n, (item, reference) in enumerate(zip(transfer_products(alpha, p), expected)):
                assert item == reference, (alpha.l, n)
                assert len(calls) == max(n - 1, 0), (alpha.l, n)


class TestShiftIdentity:
    def test_on_corpus(self):
        for alpha in _corpus(seed=85, per_l=8):
            for n in range(0, 9):
                for m in range(0, n + 1):
                    assert shift_check(alpha, 1, n, m)

    def test_specific_case(self):
        rng = random.Random(19)
        alpha = rand_alpha(rng, 3)
        assert shift_check(alpha, 1, 7, 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            shift_check(FIB, 1, 3, 4)


class TestContinuedFraction:
    def test_fibonacci_quotient(self):
        assert cf_eval(FIB, 1, 5) == Fraction(8, 5)
        assert cf_eval(FIB, 1, 1) == 1

    def test_all_twos(self):
        alpha = PeriodicAlpha(
            [Fraction(2), Fraction(2)], [Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(-1)])
        assert cf_eval(alpha, 1, 3) == Fraction(12, 5)
        assert continuant_rec(alpha, 1, 3) / continuant_rec(alpha, 2, 2) == Fraction(12, 5)

    def test_quotient_identity_cross_multiplied(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            l = rng.randint(1, 3)
            alpha = PeriodicAlpha(
                [rand_fraction(rng) for _ in range(l)],
                [rand_fraction(rng) for _ in range(l)],
                [Fraction(-1)] * l)
            for n in range(1, 8):
                try:
                    value = cf_eval(alpha, 1, n)
                except ZeroDivisionError:
                    continue
                assert value * continuant_rec(alpha, 2, n - 1) == continuant_rec(alpha, 1, n)
                checked += 1

    def test_laurent_ring_lifts_to_fractions(self):
        qfib = PeriodicAlpha(
            [LaurentPoly.one(), LaurentPoly.one()],
            [LaurentPoly.q(), LaurentPoly.monomial(1, -1)],
            [LaurentPoly.constant(-1), LaurentPoly.constant(-1)])
        value = cf_eval(qfib, 1, 4)
        expected = LaurentFraction(continuant_rec(qfib, 1, 4), continuant_rec(qfib, 2, 3))
        assert value == expected

    def test_int_tables_give_fractions(self):
        # Plain ints take the int branch of ring.field_div.
        rng = random.Random(78)
        checked = 0
        for l in (1, 2, 3):
            for _ in range(20):
                row = [rng.randint(-4, 4) for _ in range(l)]
                alpha = PeriodicAlpha([rng.randint(-4, 4) for _ in range(l)], row, [-1] * l)
                for n in range(2, 3 * l + 3):
                    try:
                        value = cf_eval(alpha, 1, n)
                    except ZeroDivisionError:
                        continue
                    assert type(value) is Fraction
                    assert value == Fraction(continuant_rec(alpha, 1, n),
                                             continuant_rec(alpha, 2, n - 1))
                    checked += 1
        assert checked >= 200

    def test_needs_one_level(self):
        with pytest.raises(ValueError, match="n >= 1"):
            cf_eval(FIB, 1, 0)

    def test_requires_c_equal_minus_one(self):
        alpha = PeriodicAlpha([Fraction(1)], [Fraction(1)], [Fraction(2)])
        with pytest.raises(ValueError):
            cf_eval(alpha, 1, 3)

    def test_zero_denominator_names_level(self):
        alpha = PeriodicAlpha(
            [Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(-1)])
        with pytest.raises(ZeroDivisionError, match="level 0"):
            cf_eval(alpha, 1, 2)


def test_k_vector_components():
    rng = random.Random(29)
    alpha = rand_alpha(rng, 2)
    vec = k_vector(alpha, 1, 4)
    assert vec.top == continuant_rec(alpha, 1, 4)
    assert vec.bottom == continuant_rec(alpha, 2, 3)


def test_forward_and_backward_recurrences_agree():
    # The scalar recurrence and the left-to-right transfer product walk the
    # index range in opposite directions; they must land on the same value.
    for alpha in _corpus(seed=86, per_l=10):
        for n in range(1, 9):
            assert transfer_matrix(alpha, 1, n).a == continuant_rec(alpha, 1, n)

import math
import random
from fractions import Fraction

import pytest

from conftest import cf_value, evaluate_fraction, q_fibonacci_parity
from continuants import (
    CFDigits,
    LaurentPoly,
    QRational,
    cf_digits,
    continuant_rec,
    mgo_alpha,
    parse_laurent,
    q_fibonacci,
    q_fibonacci_closed,
    q_integer,
    q_rational,
)


def test_q_integer_examples():
    assert q_integer(1, 1) == LaurentPoly.one()
    assert q_integer(3, 1) == parse_laurent("1 + q + q^2")
    assert q_integer(3, -1) == parse_laurent("1 + q^-1 + q^-2")
    with pytest.raises(ValueError):
        q_integer(0)
    with pytest.raises(ValueError):
        q_integer(2, 0)


def test_cf_digits_examples():
    assert list(cf_digits(8, 5)) == [1, 1, 1, 2]
    assert list(cf_digits(3, 1)) == [2, 1]
    # F_7/F_6 = 13/8 is the all-ones continued fraction of even length 6.
    assert list(cf_digits(13, 8)) == [1, 1, 1, 1, 1, 1]
    assert list(cf_digits(21, 13)) == [1, 1, 1, 1, 1, 2]
    assert list(cf_digits(7, 3)) == [2, 3]  # already even


def test_cf_digits_reconstruct_value():
    rng = random.Random(901)
    for _ in range(200):
        s = rng.randint(1, 60)
        r = rng.randint(s + 1, 200)
        g = math.gcd(r, s)
        r, s = r // g, s // g
        if r == s:
            continue
        digits = cf_digits(r, s)
        assert cf_value(digits) == Fraction(r, s)
        assert len(digits) % 2 == 0


def test_cf_digits_errors():
    with pytest.raises(ValueError):
        cf_digits(3, 5)  # r < s
    with pytest.raises(ValueError):
        cf_digits(6, 4)  # not coprime
    with pytest.raises(ValueError):
        cf_digits(1, 1)  # no even-length all-positive expansion
    with pytest.raises(ValueError):
        cf_digits(0, 1)


def test_cfdigits_validation():
    with pytest.raises(ValueError):
        CFDigits((1, 2, 3))
    with pytest.raises(ValueError):
        CFDigits((1, 0))
    with pytest.raises(ValueError):
        CFDigits(())


def test_mgo_alpha_structure():
    alpha = mgo_alpha(cf_digits(8, 5))  # digits [1, 1, 1, 2]
    assert alpha.a_at(1) == q_integer(1, 1)
    assert alpha.a_at(2) == q_integer(1, -1)
    assert alpha.a_at(4) == q_integer(2, -1)
    assert alpha.b_at(1) == LaurentPoly.q()
    assert alpha.b_at(4) == LaurentPoly.monomial(1, -2)
    assert alpha.c_at(3) == LaurentPoly.constant(-1)


def test_q_rational_two_ones():
    value = q_rational(CFDigits((1, 1)))
    assert value.num == parse_laurent("1 + q")
    assert value.den == LaurentPoly.one()


def test_q_rational_eight_fifths():
    value = q_rational(cf_digits(8, 5))
    assert evaluate_fraction(value, Fraction(1)) == Fraction(8, 5)
    # Denominator normalized: lowest exponent 0, positive leading sign.
    assert value.den.min_exp() == 0
    assert value.den.terms[value.den.max_exp()] > 0


def test_q_rational_specializes_at_q_equal_1():
    rng = random.Random(902)
    checked = 0
    while checked < 100:
        s = rng.randint(1, 40)
        r = rng.randint(s + 1, 120)
        if math.gcd(r, s) != 1:
            continue
        value = q_rational(cf_digits(r, s))
        assert evaluate_fraction(value, Fraction(1)) == Fraction(r, s)
        checked += 1


def classical_fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_q_fibonacci_initial_values():
    assert q_fibonacci(1) == LaurentPoly.one()
    assert q_fibonacci(2) == LaurentPoly.one()
    assert q_fibonacci(3) == parse_laurent("1 + q")
    assert q_fibonacci(4) == parse_laurent("q^-1 + 1 + q")
    assert q_fibonacci(5) == parse_laurent("q^-1 + 1 + 2*q + q^2")
    with pytest.raises(ValueError):
        q_fibonacci(0)


def test_q_fibonacci_is_a_continuant():
    # F_{2m+1} = K_{2m}(alpha_1) and F_{2m+2} = K_{2m+1}(alpha_2) for the
    # all-ones digit data.
    alpha = mgo_alpha(CFDigits((1, 1)))
    for m in range(0, 9):
        assert q_fibonacci_parity(2 * m + 1) == continuant_rec(alpha, 1, 2 * m)
        assert q_fibonacci_parity(2 * m + 2) == continuant_rec(alpha, 2, 2 * m + 1)


def test_q_fibonacci_closed_form_matches_recurrence():
    for n in range(1, 41):
        expected = q_fibonacci_parity(n)
        assert q_fibonacci_closed(n) == expected, f"n={n}"
        assert q_fibonacci(n) == expected, f"n={n}"
    with pytest.raises(ValueError):
        q_fibonacci_closed(0)


def test_q_fibonacci_family_of_q_rationals():
    # [F_{2n+1} / F_{2n}]_q = F_{2n+1}(q) / F_{2n}(q), as normalized pairs.
    for n in range(1, 9):
        r, s = classical_fib(2 * n + 1), classical_fib(2 * n)
        deformed = q_rational(cf_digits(r, s))
        direct = QRational(q_fibonacci(2 * n + 1), q_fibonacci(2 * n))
        assert deformed == direct
        assert deformed.num == direct.num and deformed.den == direct.den


def test_q_fibonacci_coefficients_observed_nonnegative():
    # Observed structural property, not a contract; if a counterexample
    # ever appears this should be demoted to a report.
    for n in range(1, 41):
        assert all(c > 0 for c in q_fibonacci(n).terms.values())


def test_q_rational_at_q1_equals_digit_value():
    digits = CFDigits((2, 3, 1, 4))  # 43/19 = 2 + 1/(3 + 1/(1 + 1/4))
    assert cf_digits(43, 19) == digits
    assert evaluate_fraction(q_rational(digits), Fraction(1)) == Fraction(43, 19)

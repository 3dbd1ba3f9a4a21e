import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import evaluate_fraction, rand_fraction, rand_laurent, rand_modint
from continuants import (
    LaurentFraction,
    LaurentPoly,
    ModInt,
    field_div,
    parse_laurent,
    ring_by_name,
    ring_one,
    ring_zero,
)
from continuants.qrational import q_fibonacci
from continuants.ring import (
    DEFAULT_MODULUS,
    MAX_MODULUS,
    _is_prime,
    modint_ops,
    reset_modint_ops,
)

MOD7 = 7


def _triples(rng, make, count=1000):
    return [(make(rng), make(rng), make(rng)) for _ in range(count)]


@pytest.mark.parametrize(
    "make,one,zero",
    [
        (rand_fraction, Fraction(1), Fraction(0)),
        (rand_laurent, LaurentPoly({0: 1}), LaurentPoly()),
        (lambda rng: rand_modint(rng, MOD7), ModInt(1, MOD7), ModInt(0, MOD7)),
    ],
    ids=["rational", "laurent", "modint"],
)
def test_ring_axioms_on_random_triples(make, one, zero):
    rng = random.Random(2024)
    for x, y, z in _triples(rng, make):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * one == x
        assert x + zero == x
        assert x + y == y + x
        assert x * y == y * x
        assert x - y == x + (-y)


def test_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert (parse_laurent("q + q^-1") * parse_laurent("q")) == parse_laurent("q^2 + 1")
    assert ModInt(5, 7) * ModInt(4, 7) == ModInt(6, 7)


def test_field_div_examples():
    assert field_div(Fraction(5, 6), Fraction(1, 3)) == Fraction(5, 2)
    quotient = field_div(parse_laurent("q^2 - 1"), parse_laurent("q - 1"))
    assert quotient == parse_laurent("q + 1")
    assert field_div(ModInt(3, 7), ModInt(5, 7)) == ModInt(2, 7)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        field_div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        field_div(ModInt(1, 7), ModInt(0, 7))
    with pytest.raises(ZeroDivisionError):
        LaurentFraction(LaurentPoly({0: 1}), LaurentPoly())


def test_rational_construction_reduces():
    x = Fraction(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert str(x) == "3/2"


def test_mixing_ring_instances_rejected():
    with pytest.raises(TypeError):
        Fraction(1, 2) + LaurentPoly({1: 1})
    with pytest.raises(TypeError):
        LaurentPoly({1: 1}) * Fraction(1, 2)
    with pytest.raises(ValueError):
        ModInt(1, 7) + ModInt(1, 11)
    with pytest.raises(TypeError):
        ModInt(1, 7) + LaurentPoly({1: 1})


@given(st.integers(-10, 10))
def test_laurent_q_power_shift_roundtrip(k):
    rng = random.Random(k)
    poly = rand_laurent(rng)
    shifted = poly * LaurentPoly({k: 1})
    assert shifted.exact_div(LaurentPoly({k: 1})) == poly
    assert poly.shift(k) == shifted


def test_laurent_exact_div():
    num = parse_laurent("q^2 - 1")
    assert num.exact_div(parse_laurent("q - 1")) == parse_laurent("q + 1")
    assert num.exact_div(parse_laurent("q + 1")) == parse_laurent("q - 1")
    with pytest.raises(ValueError):
        parse_laurent("q^2 + 1").exact_div(parse_laurent("q - 1"))
    with pytest.raises(ZeroDivisionError):
        num.exact_div(LaurentPoly())
    # divisibility must hold over the integers, not just the rationals
    with pytest.raises(ValueError):
        parse_laurent("q^2 - 1").exact_div(parse_laurent("2*q - 2"))


def test_laurent_evaluate_at_an_int_is_exact():
    """An int argument evaluates as a Fraction: a float sum would lose the
    1 here, and q-Fibonacci's negative exponents would turn q = 1 into floats."""
    assert LaurentPoly({-1: 10**20 + 1, 0: -10**20}).evaluate(1) == 1
    fib = q_fibonacci(200)
    value = fib.evaluate(1)
    assert isinstance(value, Fraction) and value == sum(fib.terms.values())
    assert LaurentPoly({-2: 3, 1: 1}).evaluate(2) == Fraction(11, 4)


def test_laurent_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})


@pytest.mark.parametrize("exponent", [2.5, 2.0, "3", Fraction(2)])
def test_laurent_rejects_non_integer_exponents(exponent):
    # Once coerced by int(): {2.5: 1} was q^2 and {"3": 4} was 4*q^3.
    with pytest.raises(TypeError):
        LaurentPoly({exponent: 1})


def test_laurent_parse_print_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        poly = rand_laurent(rng, span=5)
        assert parse_laurent(str(poly)) == poly


def test_laurent_parse_variants():
    assert parse_laurent("2q") == parse_laurent("2*q")
    assert parse_laurent("  1+2 * q +q^-1") == LaurentPoly({0: 1, 1: 2, -1: 1})
    assert parse_laurent("-q") == LaurentPoly({1: -1})
    assert parse_laurent("0") == LaurentPoly()
    with pytest.raises(ValueError):
        parse_laurent("q q")
    with pytest.raises(ValueError):
        parse_laurent("1 + * q")
    with pytest.raises(ValueError):
        parse_laurent("")


def test_laurent_canonical_printing_sorts_ascending():
    poly = LaurentPoly({2: 1, -1: 1, 0: 1, 1: 2})
    assert str(poly) == "q^-1 + 1 + 2*q + q^2"
    assert str(LaurentPoly({0: -3, 1: -1})) == "-3 - q"


def test_laurent_fraction_normal_form():
    frac = LaurentFraction(parse_laurent("2*q + 2"), parse_laurent("4*q^-1"))
    # denominator's lowest exponent is 0, contents coprime
    assert frac.den.min_exp() == 0
    assert frac.den.terms[frac.den.max_exp()] > 0
    import math

    assert math.gcd(frac.num.content(), frac.den.content()) == 1
    # value preserved: (2q + 2) / (4 q^-1) = (q^2 + q) / 2
    assert frac == LaurentFraction(parse_laurent("q^2 + q"), parse_laurent("2"))


def test_laurent_fraction_cross_multiplied_equality():
    lhs = LaurentFraction(parse_laurent("q^2 + 3*q + 2"), parse_laurent("q^2 + 5*q + 6"))
    rhs = LaurentFraction(parse_laurent("q + 1"), parse_laurent("q + 3"))
    assert lhs == rhs
    assert LaurentFraction(parse_laurent("q^2 - 1"), parse_laurent("q - 1")) == parse_laurent("q + 1")


def test_laurent_fraction_construction_never_divides(monkeypatch):
    from continuants.qrational import CFDigits, q_rational

    calls = []
    exact_div = LaurentPoly.exact_div
    monkeypatch.setattr(LaurentPoly, "exact_div",
                        lambda self, other: calls.append(other) or exact_div(self, other))
    value = q_rational(CFDigits([8, 9, 1, 2000, 2, 1, 52, 1]))
    q = LaurentPoly({1: 1})
    frac = LaurentFraction(q * q - 1, q - 1)
    assert calls == []
    # The polynomial-valued pair keeps its denominator, equals q + 1 and
    # hashes like it; only the hash divides.
    assert frac.den == q - 1 and frac == q + 1
    assert hash(frac) == hash(q + 1) and len(calls) == 1
    assert str(frac) == "(-1 + q^2) / (-1 + q)"
    assert value.den != LaurentPoly({0: 1})


def test_laurent_fraction_field_axioms():
    rng = random.Random(99)
    for _ in range(100):
        x = LaurentFraction(rand_laurent(rng), _nonzero(rng))
        y = LaurentFraction(rand_laurent(rng), _nonzero(rng))
        z = LaurentFraction(rand_laurent(rng), _nonzero(rng))
        assert (x + y) * z == x * z + y * z
        if not y.is_zero():
            assert (x / y) * y == x


def test_laurent_fraction_negation_subtraction_and_int_division():
    x = LaurentFraction(parse_laurent("q + 2"), parse_laurent("q^2 - 3"))
    y = parse_laurent("2*q^-1 - 1")
    for q in (Fraction(2), Fraction(3)):
        at = lambda v: evaluate_fraction(v, q)
        assert at(-x) == -at(x)
        assert at(x - y) == at(x) - y.evaluate(q)
        assert at(y - x) == y.evaluate(q) - at(x)
        assert at(5 - x) == 5 - at(x)
        assert at(7 / x) == 7 / at(x)


def test_laurent_poly_refuses_attribute_assignment():
    poly = parse_laurent("1 + q")
    with pytest.raises(AttributeError, match="immutable"):
        poly.terms = {}
    assert poly == parse_laurent("1 + q")


def _nonzero(rng):
    while True:
        poly = rand_laurent(rng)
        if not poly.is_zero():
            return poly


def test_ring_helpers():
    assert ring_zero(Fraction(3)) == 0
    assert ring_one(LaurentPoly({1: 1})) == LaurentPoly({0: 1})
    assert ring_one(ModInt(5, 7)) == ModInt(1, 7)
    assert ring_zero(7) == 0 and ring_one(7) == 1
    with pytest.raises(TypeError):
        ring_one("nope")


def test_ring_descriptors_parse_and_format():
    rational = ring_by_name("rational")
    assert rational.parse("6/4") == Fraction(3, 2)
    # The literal pattern admits any whitespace around the slash.
    assert rational.parse("3 / 4") == rational.parse("3/\t4") == rational.parse("3\t/ 4") == Fraction(3, 4)
    assert rational.format(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(ValueError):
        rational.parse("1.5")
    laurent = ring_by_name("laurent")
    assert laurent.parse("1 + q") == LaurentPoly({0: 1, 1: 1})
    modint = ring_by_name("modint", 97)
    assert modint.parse("-1") == ModInt(96, 97)
    with pytest.raises(ValueError):
        ring_by_name("float")


def test_modint_ring_refuses_composite_and_unproven_moduli():
    for modulus in (2, 4, 9, 561, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="odd prime"):
            ring_by_name("modint", modulus)
    # The smallest strong pseudoprime to all 13 bases is the bound itself.
    with pytest.raises(ValueError, match="below"):
        ring_by_name("modint", MAX_MODULUS)
    for modulus in (3, 97, DEFAULT_MODULUS, 2 ** 31 - 1):
        assert ring_by_name("modint", modulus).modulus == modulus


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]


def test_modint_inverse_and_pow():
    for v in range(1, 7):
        assert ModInt(v, 7) / ModInt(v, 7) == ModInt(1, 7)
    assert ModInt(3, 7) ** 6 == ModInt(1, 7)


@pytest.mark.parametrize("modulus", [7, 97, 1_000_000_007, DEFAULT_MODULUS])
def test_modint_division_matches_fermat_inverse(modulus):
    rng = random.Random(modulus)
    for _ in range(200):
        x, v = rng.randrange(modulus), rng.randrange(1, modulus)
        reset_modint_ops()
        quotient = ModInt(x, modulus) / ModInt(v, modulus)
        assert modint_ops() == 1
        assert quotient == ModInt(x * pow(v, modulus - 2, modulus), modulus)
    with pytest.raises(ZeroDivisionError):
        ModInt(1, modulus) / ModInt(modulus, modulus)


def test_equal_values_hash_equal():
    q = LaurentPoly({1: 1})
    values = [
        0, 1, 3, -2, 10,
        Fraction(0), Fraction(3), Fraction(-2), Fraction(1, 2),
        LaurentPoly(), LaurentPoly({0: 1}), LaurentPoly({0: 3}), LaurentPoly({0: -2}),
        q, LaurentPoly({-1: 1, 0: 3}),
        ModInt(0, 7), ModInt(3, 7), ModInt(10, 7), ModInt(3, 11),
        LaurentFraction(3), LaurentFraction(LaurentPoly()), LaurentFraction(q * (q + 1), q + 1),
        LaurentFraction(q + 1, q + 3), LaurentFraction(q * q + 3 * q + 2, q * q + 5 * q + 6),
    ]
    equal = [(x, y) for x in values for y in values if x is not y and x == y]
    # ModInt equals every int of its residue class (3 and 10 mod 7), which
    # no single hash can match; those are the only pairs left out.
    modint_int = [(x, y) for x, y in equal if isinstance(x, ModInt) != isinstance(y, ModInt)]
    assert all(isinstance(x, int) or isinstance(y, int) for x, y in modint_int)
    assert ModInt(3, 7) == 3 and ModInt(3, 7) == 10 and hash(3) != hash(10)
    for x, y in equal:
        if (x, y) not in modint_int:
            assert hash(x) == hash(y), (x, y)
    assert len({LaurentPoly({0: 3}), 3, LaurentFraction(3)}) == 1
    assert len({LaurentPoly(), 0, LaurentFraction(LaurentPoly())}) == 1
    assert len({ModInt(3, 7), ModInt(10, 7)}) == 1

    rng = random.Random(101)
    for _ in range(100):
        p, d = rand_laurent(rng), _nonzero(rng)
        assert LaurentFraction(p * d, d) == p and hash(LaurentFraction(p * d, d)) == hash(p)
        x = LaurentFraction(rand_laurent(rng), _nonzero(rng))
        y = LaurentFraction(_nonzero(rng), _nonzero(rng))
        assert (x / y) * y == x and hash((x / y) * y) == hash(x)


X7, Y7 = ModInt(5, MOD7), ModInt(4, MOD7)
MODINT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                    "__neg__", "__truediv__", "__pow__")


MODINT_OP_CASES = [
    ("__add__", lambda: X7 + Y7, 2), ("__add__", lambda: X7 + 4, 2),
    ("__radd__", lambda: 4 + X7, 2),
    ("__sub__", lambda: X7 - Y7, 1), ("__sub__", lambda: X7 - 4, 1),
    ("__rsub__", lambda: 4 - X7, 6),
    ("__mul__", lambda: X7 * Y7, 6), ("__mul__", lambda: X7 * 4, 6),
    ("__rmul__", lambda: 4 * X7, 6),
    ("__neg__", lambda: -X7, 2),
    ("__truediv__", lambda: X7 / Y7, 3), ("__truediv__", lambda: X7 / 4, 3),
    ("__pow__", lambda: X7 ** 3, 6),
]


def test_modint_op_cases_cover_every_operator():
    covered = {operator for operator, _, _ in MODINT_OP_CASES}
    assert covered == set(MODINT_OPERATORS) and covered <= set(vars(ModInt))


@pytest.mark.parametrize("operator,compute,expected", MODINT_OP_CASES,
                         ids=[case[0] for case in MODINT_OP_CASES])
def test_each_modint_operator_charges_one_op(operator, compute, expected):
    reset_modint_ops()
    assert compute() == ModInt(expected, MOD7)
    assert modint_ops() == 1


@pytest.mark.parametrize("compute,error", [
    (lambda: X7 + Fraction(1, 2), TypeError),
    (lambda: Fraction(1, 2) - X7, TypeError),
    (lambda: X7 * 1.5, TypeError),
    (lambda: 3 / X7, TypeError),
    (lambda: X7 ** -1, TypeError),
    (lambda: X7 ** 1.5, TypeError),
    (lambda: X7 / ModInt(0, MOD7), ZeroDivisionError),
    (lambda: X7 / 14, ZeroDivisionError),
    (lambda: X7 + ModInt(1, 11), ValueError),
    (lambda: X7 - ModInt(1, 11), ValueError),
    (lambda: X7 * ModInt(1, 11), ValueError),
    (lambda: X7 / ModInt(1, 11), ValueError),
])
def test_failed_modint_operations_charge_nothing(compute, error):
    reset_modint_ops()
    with pytest.raises(error):
        compute()
    assert modint_ops() == 0


def test_modint_comparison_hash_and_text_charge_nothing():
    reset_modint_ops()
    assert X7.__add__("5") is NotImplemented and X7.__pow__(-1) is NotImplemented
    assert X7 != Y7 and X7 == 12 and hash(X7) == hash(ModInt(12, MOD7))
    assert (str(X7), repr(X7)) == ("5", "ModInt(5, mod=7)")
    assert modint_ops() == 0

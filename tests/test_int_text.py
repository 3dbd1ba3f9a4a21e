"""Decimal text of long ints without the interpreter's int-to-str limit.

``ring._int_text`` must equal ``str`` on every int, at the default limit
of 4,300 digits and at the smallest one, 640, and every library value that
prints an int must print it in full at any length.  Each test lifts the
limit only to compute what ``str`` says, and restores it.
"""

import random
from fractions import Fraction

import pytest

from conftest import int_str_limit
from continuants import LaurentFraction, LaurentPoly, Quaternion, ring
from continuants.ring import RationalRing

_RNG = random.Random(20260)
_LEAF = 2048  # ring._LEAF_BITS
# Bit sizes on both sides of the leaf size, of the default limit (4,300
# digits is 14,284 bits) and of the 640-digit one (2,126 bits), and beyond.
_BITS = (_LEAF - 1, _LEAF, _LEAF + 1, 2126, 2127, 2 * _LEAF + 1,
         14_280, 14_284, 14_288, 20_000, 100_003)
CASES = [0, 1, -1]
for _bits in _BITS:
    _x = _RNG.getrandbits(_bits) | 1 << (_bits - 1)
    CASES += [_x, -_x]
for _k in (616, 617, 4299, 4300, 30_000):
    CASES += [sign * (10 ** _k + d) for d in (-1, 0, 1) for sign in (1, -1)]

BIG = 10 ** 4999 + 12_345  # 5,000 digits, prime to 3
with int_str_limit(0):
    EXPECTED = [str(x) for x in CASES]
    BIG_TEXT = str(BIG)


@pytest.fixture(params=[4300, 640], ids=["default-limit", "limit-640"])
def limit(request):
    with int_str_limit(request.param):
        yield


def test_int_text_equals_str(limit):
    assert ring._LEAF_BITS == _LEAF
    assert [ring._int_text(x) for x in CASES] == EXPECTED


def test_library_values_print_past_the_limit(limit):
    with pytest.raises(ValueError, match="Exceeds the limit"):
        str(BIG)
    poly = LaurentPoly({0: BIG, 2: -BIG, 3: 1})
    assert str(poly) == f"{BIG_TEXT} - {BIG_TEXT}*q^2 + q^3"
    fraction = LaurentFraction(LaurentPoly({-1: BIG}), LaurentPoly({0: 3, 1: 1}))
    assert str(fraction) == f"({BIG_TEXT}*q^-1) / (3 + q)"
    assert str(Quaternion(Fraction(BIG, 3), -BIG, 0, Fraction(1, 2))) == (
        f"{BIG_TEXT}/3,-{BIG_TEXT},0,1/2")
    assert RationalRing().format(Fraction(-2, BIG)) == f"-2/{BIG_TEXT}"
    assert RationalRing().format(Fraction(BIG)) == BIG_TEXT

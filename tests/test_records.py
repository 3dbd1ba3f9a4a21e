"""Immutable records are tuples whose constructor sets up every invariant.

A record compares and hashes equal to the plain tuple of its fields, and
copies and pickles to an equal record; ``_make`` and ``_replace`` build
through the constructor too.  Its fields cannot be reassigned, and tuple
ordering, concatenation and repetition are refused: they would otherwise
leak into the arithmetic of matrices and quaternions.
"""

import copy
import importlib
import operator
import pathlib
import pickle
from fractions import Fraction

import pytest

import continuants
from continuants import BenchReport, CFDigits, LaurentPoly, Mat2, PeriodicAlpha, Quaternion
from continuants.cli import load_config
from continuants.ring import Record

Q = Quaternion(1, 2, 3, 4)
M = Mat2(1, 2, 3, 4)
ALPHA = PeriodicAlpha([1, 2], [3, 4], [5, 6], base=0)

RECORDS = {
    "mat2": lambda: Mat2(1, 2, 3, 4),
    "periodic-alpha": lambda: PeriodicAlpha([1, 2], [3, 4], [5, 6], base=0),
    "quaternion": lambda: Quaternion(1, 2, 3, 4),
    "cf-digits": lambda: CFDigits([2, 3, 1, 4]),
    "bench-report": lambda: BenchReport("rec", 3, 2, 1500, 40, 7),
}

REFUSED = {
    "mat2-field": (lambda: setattr(M, "a", 0), AttributeError, None),
    "periodic-alpha-field": (lambda: setattr(ALPHA, "base", 1), AttributeError, None),
    "quaternion-field": (lambda: setattr(Q, "d", 0), AttributeError, None),
    "2*q": (lambda: 2 * Q, TypeError, "unsupported operand"),
    "q*q": (lambda: Q * Q, TypeError, "unsupported operand"),  # quat_mul is the product
    "q+q": (lambda: Q + Q, TypeError, "unsupported operand"),
    "3*m": (lambda: 3 * M, TypeError, "unsupported operand"),
    "m+m": (lambda: M + M, TypeError, "unsupported operand"),
    "m-m": (lambda: M - M, TypeError, "unsupported operand"),
    "periodic-alpha-replace-uneven": (lambda: ALPHA._replace(a=[1]), ValueError, "equal length"),
    "m<m": (lambda: M < Mat2(2, 0, 0, 0), TypeError, "unsupported operand"),
    "tuple<m": (lambda: (0,) < M, TypeError, "unsupported operand"),
}
ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
for _name, _make in RECORDS.items():
    REFUSED[f"tuple+{_name}"] = (lambda make=_make: (1,) + make(), TypeError, "unsupported operand")
    REFUSED[f"{_name}+{_name}"] = (lambda make=_make: make() + make(), TypeError, "unsupported operand")
    for _sym, _op in ORDERINGS.items():
        REFUSED[f"{_name}{_sym}{_name}"] = (lambda make=_make, op=_op: op(make(), make()),
                                              TypeError, "unsupported operand")


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    x, y = RECORDS[name](), RECORDS[name]()
    assert x is not y and x == y and hash(x) == hash(y)
    assert x == tuple(x) and hash(x) == hash(tuple(x))
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x) and clone == x


@pytest.mark.parametrize("name", REFUSED)
def test_records_refuse_assignment_and_tuple_arithmetic(name):
    op, exc, match = REFUSED[name]
    with pytest.raises(exc, match=match):
        op()


def test_replace_and_make_build_through_the_constructor():
    alpha = PeriodicAlpha([1], [2], [3])._replace(a=[1, 5], b=[2, 2], c=[3, 3])
    assert alpha == ((1, 5), (2, 2), (3, 3), 1, 2)
    assert alpha.a_at(2) == 5
    assert PeriodicAlpha._make([[1, 2], [3, 4], [5, 6], 0, 2]) == ALPHA
    for x in (Quaternion._make([1, 2, 3, 4]), Q._replace(b="1/2")):
        assert [type(v) for v in x] == [Fraction] * 4
    assert Q._replace(b="1/2") == (1, Fraction(1, 2), 3, 4)


def test_every_library_record_is_a_record():
    # One record idiom: ``ring.Record``, with a namedtuple for named fields.
    modules = [importlib.import_module(f"continuants.{path.stem}")
               for path in pathlib.Path(continuants.__file__).parent.glob("[!_]*.py")]
    records = {v for m in modules for v in vars(m).values() if isinstance(v, type)
               and issubclass(v, tuple) and v is not Record and v.__module__ == m.__name__}
    assert {r.__name__ for r in records} == {
        "AlphaConfig", "BenchReport", "CFDigits", "Mat2", "PeriodicAlpha", "Quaternion"}
    assert all(issubclass(r, Record) for r in records)
    assert [r.__name__ for r in records if not hasattr(r, "_fields")] == ["CFDigits"]


def test_parsed_config_is_immutable_and_hashable():
    cfg = load_config(str(pathlib.Path(__file__).parents[1] / "configs" / "modint_l3.cfg"))
    assert hash(cfg) == hash(tuple(cfg))
    assert [type(cfg.a), type(cfg.b), type(cfg.c)] == [tuple] * 3
    with pytest.raises(AttributeError):
        cfg.a.append(1)
    assert len(cfg.a) == cfg.l


def test_quaternion_components_become_fractions():
    x = Quaternion(1, 0.5, "1/3", 2)
    assert [type(v) for v in x] == [Fraction] * 4
    assert x == (1, Fraction(1, 2), Fraction(1, 3), 2)


def test_laurent_cancellation_stores_no_zero_coefficient():
    q = LaurentPoly({1: 1})
    assert ((1 + q) * (1 - q)).terms == {0: 1, 2: -1}
    assert (q + (-q)).terms == {}

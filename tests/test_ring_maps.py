"""Ring maps commute with the three-term recurrence, so the four branches of
``ring._three_term`` check each other.

Evaluation at q = 2 takes a Laurent table to a rational one, and q -> 123456789
modulo 2^61 - 1 takes it to a ``ModInt`` one.  ``k_vector`` on the mapped
table must equal ``k_vector`` on the Laurent table, mapped.  The Laurent side
runs Kronecker-packed, or on the object loop for a table too sparse to pack;
the rational side runs on scaled ints and the ``ModInt`` side on raw ints, so
the two sides share no big-number arithmetic.  Reduction modulo a prime that
divides no denominator takes a rational table to a ``ModInt`` one, and the
Laurent map commutes with every route of ``STRATEGIES`` too.
"""

import contextlib
import inspect
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from continuants import LaurentPoly, ModInt, PeriodicAlpha, k_vector
from continuants import ring
from continuants.cli import load_config
from continuants.ring import DEFAULT_MODULUS
from continuants.strategies import STRATEGIES

Q_MOD = 123456789
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
LAURENT_CONFIGS = ("laurent_l1.cfg", "laurent_l2_a2.cfg", "laurent_l2_nonmonic.cfg",
                   "laurent_l3.cfg", "qfib_l2.cfg")

# One line of each branch of ``_three_term``, which runs only on that branch.
_BRANCH_MARKERS = {
    "modint": "_modint_ops +=",
    "rational": "g = math.lcm(",
    "packed": "return packed",
    "object": "prev, cur = ring_zero(a[0]), ring_one(a[0])",
}


def at_two(x: LaurentPoly) -> Fraction:
    return sum((c * Fraction(2) ** e for e, c in x.terms.items()), Fraction(0))


def mod_p(x: LaurentPoly) -> ModInt:
    return ModInt(sum(c * pow(Q_MOD, e, DEFAULT_MODULUS) for e, c in x.terms.items()),
                  DEFAULT_MODULUS)


@contextlib.contextmanager
def branches_run(counts: Counter):
    """Count, per branch, the ``_three_term`` passes that take it."""
    source, first = inspect.getsourcelines(ring._three_term)
    lines = {first + i: name for name, marker in _BRANCH_MARKERS.items()
             for i, line in enumerate(source) if marker in line}
    assert sorted(lines.values()) == sorted(_BRANCH_MARKERS)  # one line per marker
    code = ring._three_term.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            counts[lines[frame.f_lineno]] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield
    finally:
        sys.settrace(previous)


def _entry(rng, stride):
    """At most 3 terms, exponents an offset plus multiples of ``stride``."""
    offset = rng.randint(-2, 2)
    return LaurentPoly({offset + stride * rng.randint(-3, 3): rng.randint(-4, 4)
                        for _ in range(rng.randint(0, 3))})


def _tables(seed, count=300):
    """Small Laurent tables: l <= 4, every fifth on stride 40."""
    rng = random.Random(seed)
    for i in range(count):
        l, stride = rng.randint(1, 4), 40 if i % 5 == 0 else 1
        yield (PeriodicAlpha(*([_entry(rng, stride) for _ in range(l)] for _ in "abc"),
                             base=rng.randint(-3, 3)),
               rng.randint(-5, 5), rng.randint(0, 25))


def _sparse_tables(seed, count=20):
    """Tables whose a entries are 1 + q + q^(1000 k), run for at most 12
    steps: too sparse to pack (longer passes fill the gaps)."""
    rng = random.Random(seed)
    for _ in range(count):
        l = rng.randint(1, 3)
        a = [LaurentPoly({0: 1, 1: 1, 1000 * rng.randint(1, 3): 1}) for _ in range(l)]
        yield (PeriodicAlpha(a, *([_entry(rng, 1) for _ in range(l)] for _ in "bc")),
               rng.randint(-5, 5), rng.randint(1, 12))


def _mapped(alpha, f):
    return PeriodicAlpha(*([f(x) for x in xs] for xs in (alpha.a, alpha.b, alpha.c)),
                         base=alpha.base)


def test_ring_maps_commute_with_every_kernel_branch():
    counts = Counter()
    mismatches = []
    with branches_run(counts):
        for maps, tables in (((at_two, mod_p), _tables(2201)),
                             ((mod_p,), _sparse_tables(2202))):  # q = 2: huge values
            for alpha, p, n in tables:
                pair = k_vector(alpha, p, n)
                for f in maps:
                    expected = tuple(map(f, pair))
                    if k_vector(_mapped(alpha, f), p, n) != expected:
                        mismatches.append((alpha, p, n, f.__name__))
    assert mismatches == []
    # Every dense table packs, every sparse one takes the object loop, and
    # each mapped table runs on its ring's raw ints.
    assert counts == {"packed": 300, "object": 20, "rational": 300, "modint": 320}


def _rational_tables(seed, count=200):
    """Small rational tables: l <= 4, denominators up to 200, so that some
    tables have a denominator divisible by 97."""
    rng = random.Random(seed)
    for _ in range(count):
        l = rng.randint(1, 4)
        yield (PeriodicAlpha(*([Fraction(rng.randint(-9, 9), rng.randint(1, 200))
                                for _ in range(l)] for _ in "abc"),
                             base=rng.randint(-3, 3)),
               rng.randint(-5, 5), rng.randint(0, 25))


def test_rational_to_modint_map_commutes_with_the_kernel():
    counts, skipped = Counter(), Counter()
    mismatches = []
    with branches_run(counts):
        for alpha, p, n in _rational_tables(2203):
            pair = k_vector(alpha, p, n)
            for modulus in (DEFAULT_MODULUS, 97):
                if any(x.denominator % modulus == 0 for x in (*alpha.a, *alpha.b, *alpha.c)):
                    skipped[modulus] += 1  # 1/97 has no image mod 97
                    continue

                def f(x):
                    return ModInt(x.numerator * pow(x.denominator, -1, modulus), modulus)

                if k_vector(_mapped(alpha, f), p, n) != tuple(map(f, pair)):
                    mismatches.append((alpha, p, n, modulus))
    assert mismatches == []
    assert skipped == {97: 11}
    assert counts == {"rational": 200, "modint": 389}


@pytest.mark.parametrize("config", LAURENT_CONFIGS)
def test_laurent_to_modint_map_commutes_with_every_strategy(config):
    alpha = load_config(os.path.join(CONFIGS, config)).to_alpha()
    assert isinstance(alpha.a[0], LaurentPoly)
    mapped = _mapped(alpha, mod_p)
    mismatches = [(name, p, n) for name, route in STRATEGIES.items()
                  for p in range(alpha.base, alpha.base + alpha.l) for n in range(-1, 13)
                  if mod_p(route(alpha, p, n)) != route(mapped, p, n)]
    assert mismatches == []

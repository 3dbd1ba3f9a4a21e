"""Every small table over F_2 and F_3 through every route.

The corner cases of the routes sit where entries vanish: a zero pivot that
forces a Bareiss row swap, a singular period (``d = 0``), a singular
matrix power.  Random tables hit them by chance; a small prime field
enumerates them all.  The tables are every table of period at most 3 over
F_2 and of period at most 2 over F_3, built from ``ModInt`` directly
(``ModIntRing`` refuses the modulus 2).  Every route of ``STRATEGIES`` must
agree with ``rec`` at every base of the period for n = -1 .. 2l + 1, and
every ``verify`` identity must hold on the F_3 tables.  Over F_5 every 2x2
matrix goes through the three matrix powers, and every ``(t, d)`` through
both S pairs, for 0 <= m <= 12.

The same route sweep over every table of period at most 2 over F_5
(15,750 tables, about a minute) is too slow for the test run; it runs as a
script::

    PYTHONPATH=src python tests/test_small_fields.py
"""

import sys
from collections import Counter
from itertools import product

from continuants import (
    Mat2,
    ModInt,
    PeriodicAlpha,
    mat_power_binexp,
    mat_power_cheb,
    mat_power_naive,
)
from continuants.chebyshev import scaled_u_pair
from continuants.mat2 import scaled_u_pair_binexp
from continuants.strategies import STRATEGIES, run_verify

FIELDS = ((2, 3), (3, 2))  # (prime, largest period)


def _tables(prime, l):
    """Every period-l table over F_prime: prime^(3l) of them."""
    field = [ModInt(x, prime) for x in range(prime)]
    for entries in product(field, repeat=3 * l):
        yield PeriodicAlpha(entries[:l], entries[l:2 * l], entries[2 * l:])


def route_sweep(fields):
    """Every route against ``rec`` on every table of ``fields``, pairs
    (prime, largest period): returns (tables, route calls, mismatches)."""
    tables = calls = 0
    mismatches = []
    for prime, longest in fields:
        for l in range(1, longest + 1):
            for alpha in _tables(prime, l):
                tables += 1
                for p in range(l):
                    for n in range(-1, 2 * l + 2):
                        expected = STRATEGIES["rec"](alpha, p, n)
                        for name, route in STRATEGIES.items():
                            calls += 1
                            if route(alpha, p, n) != expected:
                                mismatches.append((alpha, p, n, name))
    return tables, calls, mismatches


def test_every_route_agrees_with_rec_on_every_small_table():
    # 2^3 + 2^6 + 2^9 tables over F_2 and 3^3 + 3^6 over F_3; every route
    # at each of (l bases) x (2l + 3 lengths) per table.
    assert route_sweep(FIELDS) == (1340, 150_606, [])


def test_verify_passes_on_every_f3_table():
    statuses = Counter()
    failures = []
    for l in (1, 2):
        for alpha in _tables(3, l):
            for name, status, detail in run_verify(alpha, 4, 2):
                statuses[status] += 1
                if status == "FAIL":
                    failures.append((alpha, name, detail))
    assert failures == []
    # 756 tables, six identities each; the continued-fraction quotient
    # applies only where every c = -1 (90 tables) and skips elsewhere.
    assert statuses == {"PASS": 5 * 756 + 90, "SKIP": 756 - 90}


F5 = [ModInt(x, 5) for x in range(5)]
POWERS = range(13)  # 0 <= m <= 12


def test_every_f5_matrix_power_agrees():
    matrices = [Mat2(*entries) for entries in product(F5, repeat=4)]
    mismatches = [(mat, m) for mat in matrices for m in POWERS
                  if not mat_power_naive(mat, m) == mat_power_binexp(mat, m)
                  == mat_power_cheb(mat, m)]
    assert mismatches == []
    assert (len(matrices), len(matrices) * len(POWERS)) == (625, 8125)


def test_every_f5_s_pair_agrees():
    cases = [(m, t, d) for t, d in product(F5, repeat=2) for m in POWERS]
    assert [case for case in cases
            if scaled_u_pair(*case) != scaled_u_pair_binexp(*case)] == []
    assert len(cases) == 325


if __name__ == "__main__":
    tables, calls, mismatches = route_sweep([(5, 2)])
    print(f"F_5, period <= 2: {tables} tables, {calls} route calls, "
          f"{len(mismatches)} mismatches")
    # 5^3 + 5^6 tables; every route at (l bases) x (2l + 3 lengths) per table.
    if (tables, calls, mismatches) != (15_750, 1_316_250, []):
        sys.exit(f"expected 15750 tables, 1316250 calls and no mismatch; "
                 f"first mismatches: {mismatches[:5]}")

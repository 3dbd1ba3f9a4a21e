"""Every small table over F_2 and F_3 through every route.

The corner cases of the routes sit where entries vanish: a zero pivot that
forces a Bareiss row swap, a singular period (``d = 0``), a singular
matrix power.  Random tables hit them by chance; a small prime field
enumerates them all.  The tables are every table of period at most 3 over
F_2 and of period at most 2 over F_3, built from ``ModInt`` directly
(``ModIntRing`` refuses the modulus 2).  Every route of ``STRATEGIES`` must
agree with ``rec`` at every base of the period for n = -1 .. 2l + 1, and
every ``verify`` identity must hold on the F_3 tables.
"""

from collections import Counter
from itertools import product

from continuants import ModInt, PeriodicAlpha
from continuants.strategies import STRATEGIES, run_verify

FIELDS = ((2, 3), (3, 2))  # (prime, largest period)


def _tables(prime, l):
    """Every period-l table over F_prime: prime^(3l) of them."""
    field = [ModInt(x, prime) for x in range(prime)]
    for entries in product(field, repeat=3 * l):
        yield PeriodicAlpha(entries[:l], entries[l:2 * l], entries[2 * l:])


def test_every_route_agrees_with_rec_on_every_small_table():
    tables = calls = 0
    mismatches = []
    for prime, longest in FIELDS:
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
    assert mismatches == []
    # 2^3 + 2^6 + 2^9 tables over F_2 and 3^3 + 3^6 over F_3; every route
    # at each of (l bases) x (2l + 3 lengths) per table.
    assert (tables, calls) == (1340, 150_606)


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

"""Benchmark harness: four K_{lm} strategies over the ModInt ring.

The strategies are ``rec``, ``transfer``, ``closed`` and ``closed-matpow``
from :data:`continuants.strategies.STRATEGIES` (all must agree exactly).
ModInt is the benchmark ring so operation counts reflect algorithmic
structure, not bignum growth; rational continuants grow exponentially.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import strategies
from .continuant import PeriodicAlpha
from .ring import ModInt, modint_ops, reset_modint_ops


class BenchReport(NamedTuple):
    strategy: str
    l: int
    m: int
    ns: int
    ops: int
    digest: int

    def csv_row(self) -> str:
        return f"{self.strategy},{self.l},{self.m},{self.ns},{self.ops},{self.digest}"


STRATEGIES = {name: strategies.STRATEGIES[name]
              for name in ("rec", "transfer", "closed", "closed-matpow")}


def run_bench(alpha: PeriodicAlpha, m_list: list[int]) -> list[BenchReport]:
    """Evaluate K_{lm} by every strategy for each m; ValueError if digests disagree."""
    if not isinstance(alpha.a[0], ModInt):
        raise TypeError("benchmarks run over the ModInt ring")
    if any(m < 0 for m in m_list):  # before the first strategy runs
        raise ValueError("need m >= 0")
    reports: list[BenchReport] = []
    for m in m_list:
        digests = {}
        for name, strategy in STRATEGIES.items():
            reset_modint_ops()
            t0 = time.perf_counter_ns()
            value = strategy(alpha, alpha.base, alpha.l * m)
            elapsed = time.perf_counter_ns() - t0
            reports.append(
                BenchReport(name, alpha.l, m, elapsed, modint_ops(), value.value)
            )
            digests[name] = value.value
        if len(set(digests.values())) != 1:
            raise ValueError(f"strategy digests disagree at m={m}: {digests}")
    return reports


def render_table(reports: list[BenchReport]) -> str:
    header = f"{'strategy':<15} {'l':>3} {'m':>9} {'time_ns':>12} {'ops':>10}  digest"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.strategy:<15} {r.l:>3} {r.m:>9} {r.ns:>12} {r.ops:>10}  {r.digest}"
        )
    return "\n".join(lines)

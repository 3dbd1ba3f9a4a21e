"""Specialized period-1/2/3 closed forms, written square-root-free.

``fixture_l1`` / ``fixture_l2`` / ``fixture_l3`` re-verify them on random
rational data against the recurrence and the transfer matrix.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from continuants import (
    PeriodicAlpha,
    closed_form_klm,
    continuant_rec,
    scaled_u,
    transfer_matrix,
)
from continuants.chebyshev import scaled_u_pair


@dataclass
class FixtureCheck:
    name: str
    ok: bool
    detail: str = ""


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def _check(report: list[FixtureCheck], name: str, lhs, rhs) -> None:
    ok = lhs == rhs
    report.append(FixtureCheck(name, ok, "" if ok else f"{lhs} != {rhs}"))


def fixture_l1(rng: random.Random | None = None, trials: int = 20, m_max: int = 6):
    """Period-1 closed form: K_m = S_m(a, bc), i.e. a*S_{m-1} - bc*S_{m-2}.

    With bc = 0 this degenerates to K_m = a^m.
    """
    rng = rng or random.Random(0x11)
    report: list[FixtureCheck] = []
    cases = [
        (_rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng))
        for _ in range(trials)
    ]
    cases.append((Fraction(3), Fraction(0), _rand_fraction(rng)))  # bc = 0
    cases.append((Fraction(-2), _rand_fraction(rng), Fraction(0)))
    for a, b, c in cases:
        alpha = PeriodicAlpha([a], [b], [c])
        bc = b * c
        for m in range(m_max + 1):
            km = continuant_rec(alpha, 1, m)
            _check(report, f"l1 K_{m} = S_{m}(a, bc) [a={a} b={b} c={c}]",
                   km, scaled_u(m, a, bc))
            _check(report, f"l1 K_{m} = closed_form_klm [a={a} b={b} c={c}]",
                   km, closed_form_klm(alpha, 1, m))
            if bc == 0 and m >= 1:
                _check(report, f"l1 degenerate K_{m} = a^{m}", km, a ** m)
    return report


def fixture_l2(rng: random.Random | None = None, trials: int = 15, m_max: int = 5):
    """Period-2 closed forms with t = a1*a2 - b1*c1 - b2*c2, d = b1*c1*b2*c2."""
    rng = rng or random.Random(0x22)
    report: list[FixtureCheck] = []
    cases = [tuple(_rand_fraction(rng) for _ in range(6)) for _ in range(trials)]
    degenerate = list(_rand_fraction(rng) for _ in range(6))
    degenerate[3] = Fraction(0)  # b2 = 0 makes det A_2 vanish
    cases.append(tuple(degenerate))
    for a1, a2, b1, b2, c1, c2 in cases:
        alpha = PeriodicAlpha([a1, a2], [b1, b2], [c1, c2])
        t = a1 * a2 - b1 * c1 - b2 * c2
        d = b1 * c1 * b2 * c2
        tag = f"[{a1},{a2};{b1},{b2};{c1},{c2}]"
        for p in (1, 2):
            k2p = a1 * a2 - alpha.b_at(p) * alpha.c_at(p)
            for m in range(1, m_max + 1):
                s1, s2 = scaled_u_pair(m - 1, t, d)
                _check(report, f"l2 K_{2 * m}(p={p}) m={m} {tag}",
                       continuant_rec(alpha, p, 2 * m), s1 * k2p - d * s2)
                _check(report, f"l2 K_{2 * m - 1}(p={p + 1}) m={m} {tag}",
                       continuant_rec(alpha, p + 1, 2 * m - 1),
                       s1 * alpha.a_at(p + 1))
                if d == 0:
                    _check(report, f"l2 degenerate K_{2 * m}(p={p}) m={m} {tag}",
                           continuant_rec(alpha, p, 2 * m), t ** (m - 1) * k2p)
                    _check(report,
                           f"l2 degenerate K_{2 * m - 1}(p={p + 1}) m={m} {tag}",
                           continuant_rec(alpha, p + 1, 2 * m - 1),
                           t ** (m - 1) * alpha.a_at(p + 1))
    return report


def fixture_l3(rng: random.Random | None = None, trials: int = 12, m_max: int = 4):
    """Period-3 closed forms and the explicit one-period transfer matrix."""
    rng = rng or random.Random(0x33)
    report: list[FixtureCheck] = []
    cases = [tuple(_rand_fraction(rng) for _ in range(9)) for _ in range(trials)]
    degenerate = list(_rand_fraction(rng) for _ in range(9))
    degenerate[5] = Fraction(0)  # b3 = 0
    cases.append(tuple(degenerate))
    for vals in cases:
        a1, a2, a3, b1, b2, b3, c1, c2, c3 = vals
        alpha = PeriodicAlpha([a1, a2, a3], [b1, b2, b3], [c1, c2, c3])
        t = a1 * a2 * a3 - a1 * b2 * c2 - a2 * b3 * c3 - a3 * b1 * c1
        d = b1 * c1 * b2 * c2 * b3 * c3
        tag = f"[{','.join(map(str, vals))}]"
        for p in (1, 2, 3):
            aP = alpha.a_at
            bP = alpha.b_at
            cP = alpha.c_at
            k3p = a1 * a2 * a3 - aP(p + 2) * bP(p) * cP(p) - aP(p) * bP(p + 1) * cP(p + 1)
            expected = (
                k3p,
                -aP(p) * aP(p + 1) * bP(p + 2) * cP(p + 2)
                + bP(p) * cP(p) * bP(p + 2) * cP(p + 2),
                aP(p + 1) * aP(p + 2) - bP(p + 1) * cP(p + 1),
                -aP(p + 1) * bP(p + 2) * cP(p + 2),
            )
            mat = transfer_matrix(alpha, p, 3)
            _check(report, f"l3 A_3 entries p={p} {tag}",
                   (mat.a, mat.b, mat.c, mat.d), expected)
            for m in range(1, m_max + 1):
                s1, s2 = scaled_u_pair(m - 1, t, d)
                k3m = continuant_rec(alpha, p, 3 * m)
                k3m_minus = continuant_rec(alpha, p + 1, 3 * m - 1)
                _check(report, f"l3 K_{3 * m}(p={p}) m={m} {tag}",
                       k3m, s1 * k3p - d * s2)
                _check(report, f"l3 K_{3 * m - 1}(p={p + 1}) m={m} {tag}",
                       k3m_minus,
                       s1 * (aP(p + 1) * aP(p + 2) - bP(p + 1) * cP(p + 1)))
                _check(report, f"l3 K_{3 * m + 1}(p={p - 1}) m={m} {tag}",
                       continuant_rec(alpha, p - 1, 3 * m + 1),
                       aP(p - 1) * k3m - bP(p - 1) * cP(p - 1) * k3m_minus)
    return report

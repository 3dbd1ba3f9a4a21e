"""Every route to K_n, named once, and the cross-strategy verification suite.

``STRATEGIES[name](alpha, p, n)`` is K_n(alpha_p) for n >= -1; all entries
must agree exactly:

* ``rec``            three-term recurrence, O(n) ring ops
* ``oracle``         Bareiss determinant of the dense n x n matrix (oracle,
                     O(n^2) cells; keep it off the hot path)
* ``transfer``       binary power of the one-period transfer matrix,
                     O(l + log n) matrix multiplications
* ``closed``         Chebyshev closed form with the S pair from its own
                     linear recurrence, O(l + n/l) ring ops
* ``closed-matpow``  same closed form, with the S pair read off a binary
                     power of the companion matrix, O(l + log n) ring ops
* ``matpow``         Chebyshev (Cayley-Hamilton) power of the one-period
                     transfer matrix, O(l + n/l) ring ops

The periodic routes (all but ``rec`` and ``oracle``) write n = l*m + j
with -1 <= j <= l - 2 (``periodic.split``), build the column
(K_{lm}, K_{lm-1}) and end in the one offset step
``periodic.offset_step``: j = -1 reads the K_{lm-1} entry, j = 0 the
K_{lm} entry, and j >= 1 applies the first row of A_j.  Entries call
through this module's globals, so rebinding an imported name here reaches
the table.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, islice

from .continuant import (
    PeriodicAlpha,
    cf_eval,
    continuant_det_oracle,
    continuant_rec,
    k_vector,
    shift_check,
    transfer_matrix,
)
from .mat2 import Mat2, mat_power_binexp, mat_power_cheb, scaled_u_pair_binexp
from .periodic import closed_form_general, offset_step, split


def _closed_form(alpha: PeriodicAlpha, p: int, n: int, pair=None):
    m, j = split(alpha.l, n)
    return closed_form_general(alpha, p + j, m, j, pair)


def _period_power(alpha: PeriodicAlpha, p: int, n: int, power):
    """K_n(alpha_p): the offset step on the first column of A_l(alpha_{p+j})^m."""
    m, j = split(alpha.l, n)
    period = power(transfer_matrix(alpha, p + j, alpha.l), m)
    return offset_step(alpha, p + j, j, (period.a, period.c).__getitem__)


STRATEGIES = {
    "rec": lambda alpha, p, n: continuant_rec(alpha, p, n),
    "oracle": lambda alpha, p, n: continuant_det_oracle(alpha, p, n),
    "transfer": lambda alpha, p, n: _period_power(alpha, p, n, mat_power_binexp),
    "closed": lambda alpha, p, n: _closed_form(alpha, p, n),
    "closed-matpow": lambda alpha, p, n: _closed_form(alpha, p, n, scaled_u_pair_binexp),
    "matpow": lambda alpha, p, n: _period_power(alpha, p, n, mat_power_cheb),
}


# --- cross-strategy verification --------------------------------------------


class _NotApplicable(Exception):
    """Raised by an identity whose precondition the data does not meet."""


_SKIPPED = object()


def _recurrence_oracle(alpha, n_max, m_max):
    for p in range(alpha.base, alpha.base + alpha.l):
        for n in range(-1, n_max + 1):
            rec = STRATEGIES["rec"](alpha, p, n)
            orc = STRATEGIES["oracle"](alpha, p, n)
            yield None if rec == orc else f"p={p} n={n}: rec={rec} oracle={orc}"


def _closed_recurrence(alpha, n_max, m_max):
    base, l = alpha.base, alpha.l
    for m in range(m_max + 1):
        for j in range(-1, l - 1):
            closed = STRATEGIES["closed"](alpha, base - j, l * m + j)
            rec = STRATEGIES["rec"](alpha, base - j, l * m + j)
            yield None if closed == rec else f"m={m} j={j}: closed={closed} rec={rec}"


def _shift(alpha, n_max, m_max):
    for n in range(0, min(n_max, 6) + 1):
        for m in range(0, n + 1):
            yield None if shift_check(alpha, alpha.base, n, m) else f"n={n} m={m}"


def _factor_products(alpha, p):
    """A_1(p), A_2(p), ...: each transfer product extends the last by one factor."""
    return accumulate((transfer_matrix(alpha, i, 1) for i in count(p)), Mat2.__mul__)


def _trace_det(alpha, n_max, m_max):
    base = alpha.base
    top1, bottom1 = k_vector(alpha, base, 0)  # K_{n-1}(base), K_{n-2}(base+1) at n = 1
    for n, mat in zip(range(1, n_max + 1), _factor_products(alpha, base)):
        bc = alpha.b_at(base + n - 1) * alpha.c_at(base + n - 1)
        top, bottom = k_vector(alpha, base, n)  # K_n(base), K_{n-1}(base+1)
        det = bc if n == 1 else det * bc  # prod b c over base .. base+n-1
        ok = mat == (top, -(bc * top1), bottom, -(bc * bottom1)) and mat.det() == det
        yield None if ok else f"n={n}"
        top1, bottom1 = top, bottom


def _cf_quotient(alpha, n_max, m_max):
    neg_one = -alpha.one()
    if any(c != neg_one for c in alpha.c):
        raise _NotApplicable("requires every c = -1")
    base = alpha.base
    for n in range(1, n_max + 1):
        try:
            quotient = cf_eval(alpha, base, n)
        except ZeroDivisionError:
            yield _SKIPPED
            continue
        num, den = k_vector(alpha, base, n)
        yield None if quotient * den == num else f"n={n}"


def _matpow_periods(alpha, n_max, m_max):
    base, l = alpha.base, alpha.l
    period = transfer_matrix(alpha, base, l)
    # A_{lm}(base): the empty product at m = 0, then every l-th running product.
    references = chain([transfer_matrix(alpha, base, 0)],
                       islice(_factor_products(alpha, base), l - 1, None, l))
    for m, reference in zip(range(m_max + 1), references):
        yield None if mat_power_cheb(period, m) == reference else f"m={m}"


_IDENTITIES = {
    "recurrence=oracle": _recurrence_oracle,
    "closed=recurrence": _closed_recurrence,
    "shift": _shift,
    "trace/det": _trace_det,
    "cf-quotient": _cf_quotient,
    "matpow-periods": _matpow_periods,
}


def _tally(name: str, cases) -> tuple[str, str, str]:
    failures = []
    total = skipped = 0
    try:
        for outcome in cases:
            total += 1
            if outcome is _SKIPPED:
                skipped += 1
            elif outcome is not None:
                failures.append(outcome)
    except _NotApplicable as exc:
        return name, "SKIP", str(exc)
    if failures:
        return name, "FAIL", f"{len(failures)}/{total} cases; first: {failures[0]}"
    if skipped == total:
        return name, "SKIP", "no applicable cases"
    return name, "PASS", f"{total} cases" + (f", {skipped} skipped" if skipped else "")


#: Largest ``n_max`` and ``m_max`` the suite accepts: its time grows about 8x
#: per doubling of n_max (the dense oracles) and quadratically in m_max.
VERIFY_MAX = 64


def run_verify(alpha: PeriodicAlpha, n_max: int = 8, m_max: int = 4):
    """Cross-strategy agreement suite; returns (identity, status, detail) rows.

    Each identity yields one outcome per case: ``None`` for a pass, a
    detail string for a failure, or a skip (the continued-fraction quotient
    needs every c = -1 and nonvanishing intermediate denominators).
    ``n_max`` and ``m_max`` below 0 or above ``VERIFY_MAX`` raise
    ``ValueError``: a negative size would check no case and pass.
    """
    for name, value in (("n_max", n_max), ("m_max", m_max)):
        if value < 0:
            raise ValueError(f"verify refuses {name} = {value} < 0")
        if value > VERIFY_MAX:
            raise ValueError(f"verify refuses {name} = {value} > VERIFY_MAX = {VERIFY_MAX}")
    return [_tally(name, identity(alpha, n_max, m_max))
            for name, identity in _IDENTITIES.items()]

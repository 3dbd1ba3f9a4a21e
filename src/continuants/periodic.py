"""Closed forms for continuants of l-periodic coefficient sequences.

For period l, trace t = tr A_l and determinant d = det A_l of the
one-period transfer matrix, the continuants at multiples of the period
collapse to scaled Chebyshev values:

    K_{lm}(p)     = S_{m-1}(t, d) * K_l(p) - d * S_{m-2}(t, d)
    K_{lm-1}(p+1) = S_{m-1}(t, d) * K_{l-1}(p+1)

The general index n = lm + j, -1 <= j <= l - 2 (``split``), takes one
offset step (``offset_step``) from that column: the first row of
A_j(p-j) gives

    K_{lm+j}(p-j) = K_j(p-j) * K_{lm}(p) - b_{p-1} c_{p-1} K_{j-1}(p-j)
                    * K_{lm-1}(p+1),

and j = -1 reads the K_{lm-1} entry.  The matrix-power strategies end in
the same step.  Because S_k(t, 0) = t^k, one code path serves both the
invertible and the singular transfer-matrix cases.
"""

from __future__ import annotations

from .chebyshev import scaled_u_pair
from .continuant import PeriodicAlpha, k_vector, transfer_matrix


def period_trace_det(alpha: PeriodicAlpha, p: int):
    """(tr A_l, det A_l) for one period starting at p.

    The trace comes from the actual one-period transfer matrix; the
    determinant is the product of all -b*c factor determinants, i.e.
    prod b_{p+j} c_{p+j} over the period.
    """
    t = transfer_matrix(alpha, p, alpha.l).trace()
    d = alpha.b_at(p) * alpha.c_at(p)
    for j in range(1, alpha.l):
        d = d * (alpha.b_at(p + j) * alpha.c_at(p + j))
    return t, d


def offset_step(alpha: PeriodicAlpha, p: int, j: int, column):
    """K_{lm+j}(alpha_{p-j}) from the column (K_{lm}(alpha_p), K_{lm-1}(alpha_{p+1})).

    ``column(i)`` returns entry i, so only the entries read are computed:
    j = -1 reads the K_{lm-1} entry, j = 0 the K_{lm} entry, and j >= 1
    applies the first row of A_j(alpha_{p-j}), which is
    (K_j(p-j), -b_{p-1} c_{p-1} K_{j-1}(p-j)).
    """
    if j < 1:
        return column(-j)
    row = transfer_matrix(alpha, p - j, j)
    return row.a * column(0) + row.b * column(1)


def _closed(alpha: PeriodicAlpha, p: int, m: int, j: int, pair):
    """K_{lm+j}(alpha_{p-j}) for j >= -1 from one trace/det and one S pair.

    ``pair(k, t, d)`` returns (S_k, S_{k-1}); it is the only part that
    differs between the linear and the logarithmic closed forms.  One
    ``k_vector`` pass gives both K_l(p) and K_{l-1}(p+1); at m = 0 a
    zero-step pass gives the column (1, 0) in the ring the tables run in.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return offset_step(alpha, p, j, k_vector(alpha, p, 0).__getitem__)
    t, d = period_trace_det(alpha, p)
    s1, s2 = pair(m - 1, t, d)  # S_{m-1}, S_{m-2}
    kl, kl_minus1 = k_vector(alpha, p, alpha.l)
    return offset_step(alpha, p, j, lambda i: s1 * kl_minus1 if i else s1 * kl - d * s2)


def closed_form_klm(alpha: PeriodicAlpha, p: int, m: int):
    """K_{lm}(alpha_p) in O(l + m) ring operations; m = 0 gives K_0 = 1."""
    return _closed(alpha, p, m, 0, scaled_u_pair)


def closed_form_klm_minus1(alpha: PeriodicAlpha, p: int, m: int):
    """K_{lm-1}(alpha_{p+1}) = S_{m-1} * K_{l-1}(alpha_{p+1}); m = 0 gives 0."""
    return _closed(alpha, p, m, -1, scaled_u_pair)


def check_offset(l: int, m: int, j: int) -> None:
    """Raise ValueError unless -1 <= j <= l - 2 and m >= 0."""
    if not -1 <= j <= l - 2:
        raise ValueError(f"j must lie in -1..{l - 2}, got {j}")
    if m < 0:
        raise ValueError("need m >= 0")


def split(l: int, n: int) -> tuple[int, int]:
    """(m, j) with n = l*m + j and -1 <= j <= l - 2."""
    if n < -1:
        raise ValueError("continuants are defined for n >= -1")
    m = (n + 1) // l
    return m, n - l * m


def closed_form_general(alpha: PeriodicAlpha, p: int, m: int, j: int, pair=None):
    """K_{lm+j}(alpha_{p-j}) for -1 <= j <= l - 2: closed form, then ``offset_step``.

    ``pair`` computes (S_k, S_{k-1}) and defaults to the linear
    recurrence ``scaled_u_pair``.
    """
    check_offset(alpha.l, m, j)
    return _closed(alpha, p, m, j, pair or scaled_u_pair)

"""Closed forms for continuants of l-periodic coefficient sequences.

For period l, trace t = tr A_l and determinant d = det A_l of the
one-period transfer matrix, the continuants at multiples of the period
collapse to scaled Chebyshev values:

    K_{lm}(p)     = S_{m-1}(t, d) * K_l(p) - d * S_{m-2}(t, d)
    K_{lm-1}(p+1) = S_{m-1}(t, d) * K_{l-1}(p+1)

and for -1 <= j <= l - 2 the general index lm + j is the bilinear
combination

    K_{lm+j}(p-j) = K_j(p-j) * K_{lm}(p) - b_{p-1} c_{p-1} K_{j-1}(p-j)
                    * K_{lm-1}(p+1),

where at j = -1 the whole product -b_{p-1} c_{p-1} K_{-2} is replaced by
the ring unit (never by dividing).  Because S_k(t, 0) = t^k, one code path
serves both the invertible and the singular transfer-matrix cases.
"""

from __future__ import annotations

from .chebyshev import scaled_u_pair
from .continuant import PeriodicAlpha, continuant_rec, k_vector, transfer_matrix


def period_trace_det(alpha: PeriodicAlpha, p: int):
    """(tr A_l, det A_l) for one period starting at p.

    The trace comes from the actual one-period transfer matrix; the
    determinant is the product of all -b*c factor determinants, i.e.
    prod b_{p+j} c_{p+j} over the period.
    """
    t = transfer_matrix(alpha, p, alpha.l).trace()
    d = alpha.one()
    for j in range(alpha.l):
        d = d * (alpha.b_at(p + j) * alpha.c_at(p + j))
    return t, d


def _closed(alpha: PeriodicAlpha, p: int, m: int, j: int, pair):
    """K_{lm+j}(alpha_{p-j}) for j >= -1 from one trace/det and one S pair.

    ``pair(k, t, d)`` returns (S_k, S_{k-1}); it is the only part that
    differs between the linear and the logarithmic closed forms.  For
    j >= 0 one ``k_vector`` pass gives both K_l(p) and K_{l-1}(p+1).
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return continuant_rec(alpha, p - j, j)
    t, d = period_trace_det(alpha, p)
    s1, s2 = pair(m - 1, t, d)  # S_{m-1}, S_{m-2}
    if j == -1:
        # The -b_{p-1} c_{p-1} K_{-2} product is the ring unit by
        # convention, so only the K_{lm-1} term survives.
        return s1 * continuant_rec(alpha, p + 1, alpha.l - 1)
    kl, kl_minus1 = k_vector(alpha, p, alpha.l)
    klm = s1 * kl - d * s2
    if j == 0:
        return klm
    klm_minus1 = s1 * kl_minus1
    bc = alpha.b_at(p - 1) * alpha.c_at(p - 1)
    return (continuant_rec(alpha, p - j, j) * klm
            - bc * continuant_rec(alpha, p - j, j - 1) * klm_minus1)


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


def closed_form_general(alpha: PeriodicAlpha, p: int, m: int, j: int, pair=None):
    """K_{lm+j}(alpha_{p-j}) for -1 <= j <= l - 2 via the bilinear form.

    ``pair`` computes (S_k, S_{k-1}) and defaults to the linear
    recurrence ``scaled_u_pair``.
    """
    check_offset(alpha.l, m, j)
    return _closed(alpha, p, m, j, pair or scaled_u_pair)

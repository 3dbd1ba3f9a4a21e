"""Exact continuant polynomials and their Chebyshev closed forms.

Continuants (determinants of tridiagonal matrices) computed four ways over
exact rings, with the periodic-coefficient closed forms, q-deformed
rationals and exact quaternion powers built on top.
"""

from .bench import BenchReport, run_bench
from .chebyshev import (
    complete_homogeneous,
    pieri_check,
    scaled_u,
    u_coeffs,
    u_coeffs_hypergeometric,
    u_genfun_coeff,
)
from .continuant import (
    ORACLE_MAX_N,
    PeriodicAlpha,
    cf_eval,
    continuant_det_oracle,
    continuant_rec,
    det_bareiss,
    det_leibniz,
    k_vector,
    shift_check,
    transfer_matrix,
)
from .mat2 import Mat2, mat_power_binexp, mat_power_cheb, mat_power_naive
from .periodic import (
    closed_form_general,
    closed_form_klm,
    closed_form_klm_minus1,
    period_trace_det,
)
from .qrational import (
    CFDigits,
    QRational,
    cf_digits,
    mgo_alpha,
    q_fibonacci,
    q_fibonacci_closed,
    q_integer,
    q_rational,
)
from .quaternion import Quaternion, quat_mul, quat_power_cheb, quat_power_naive
from .ring import (
    DEFAULT_MODULUS,
    LaurentFraction,
    LaurentPoly,
    ModInt,
    Rational,
    field_div,
    parse_laurent,
    ring_by_name,
    ring_one,
    ring_zero,
)

__all__ = [
    "BenchReport", "run_bench",
    "complete_homogeneous", "pieri_check", "scaled_u", "u_coeffs",
    "u_coeffs_hypergeometric", "u_genfun_coeff",
    "ORACLE_MAX_N", "PeriodicAlpha", "cf_eval", "continuant_det_oracle",
    "continuant_rec", "det_bareiss", "det_leibniz", "k_vector",
    "shift_check", "transfer_matrix",
    "Mat2", "mat_power_binexp", "mat_power_cheb", "mat_power_naive",
    "closed_form_general", "closed_form_klm", "closed_form_klm_minus1",
    "period_trace_det",
    "CFDigits", "QRational", "cf_digits", "mgo_alpha", "q_fibonacci",
    "q_fibonacci_closed", "q_integer", "q_rational",
    "Quaternion", "quat_mul", "quat_power_cheb", "quat_power_naive",
    "DEFAULT_MODULUS", "LaurentFraction", "LaurentPoly", "ModInt", "Rational",
    "field_div", "parse_laurent", "ring_by_name", "ring_one", "ring_zero",
]

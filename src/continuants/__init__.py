"""Exact continuant polynomials and their Chebyshev closed forms.

Continuants (determinants of tridiagonal matrices) computed four ways over
exact rings, with the periodic-coefficient closed forms, q-deformed
rationals and exact quaternion powers built on top.

The package surface is lazy (PEP 562): ``from continuants import X``
imports only the submodule that defines ``X``, so the command-line front
end pays start-up only for the modules a subcommand runs.
"""

from importlib import import_module

# Public name -> defining submodule.
_EXPORTS = {
    "bench": ("BenchReport", "run_bench"),
    "chebyshev": ("u_coeffs", "u_coeffs_hypergeometric", "u_genfun_coeff"),
    "continuant": ("LEIBNIZ_MAX_N", "ORACLE_MAX_N", "PeriodicAlpha", "cf_eval",
                   "continuant_det_oracle", "continuant_rec", "det_bareiss",
                   "det_leibniz", "k_vector", "shift_check", "transfer_matrix",
                   "transfer_products"),
    "mat2": ("Mat2", "mat_power_binexp", "mat_power_cheb", "mat_power_naive"),
    "periodic": ("closed_form_general", "closed_form_klm", "closed_form_klm_minus1",
                 "period_trace_det"),
    "qrational": ("CFDigits", "cf_digits", "mgo_alpha", "q_fibonacci", "q_fibonacci_closed",
                  "q_integer", "q_rational"),
    "quaternion": ("Quaternion", "quat_mul", "quat_power_cheb", "quat_power_naive"),
    "strategies": ("VERIFY_MAX",),
    "ring": ("DEFAULT_MODULUS", "LaurentFraction", "LaurentPoly", "ModInt", "field_div",
             "parse_laurent", "ring_by_name", "ring_one", "ring_zero"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Chebyshev polynomials of the second kind, exactly.

Three independent routes compute U_n: the three-term recurrence (primary,
one ``scaled_u_pair`` pass of the ring kernel), the terminating Gauss
hypergeometric sum, and truncated inversion of the generating function
1 / (1 - 2xu + u^2).  All three do their arithmetic on ``LaurentPoly``
values in x; a polynomial is returned as its integer coefficient list in
ascending degree, the zero polynomial as the empty list.

``scaled_u_pair`` is the square-root-free workhorse used everywhere else:
for a trace t and determinant d it evaluates (S_m(t, d), S_{m-1}(t, d)),
where S_m is the bivariate polynomial satisfying
S_m = t*S_{m-1} - d*S_{m-2} with S_{-1} = 0, S_0 = 1.  Whenever
d = rho_plus * rho_minus and t = rho_plus + rho_minus, S_m equals the
complete homogeneous symmetric polynomial h_m(rho_plus, rho_minus), i.e.
d^(m/2) * U_m(t / (2*sqrt(d))) without ever forming the square root.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import LaurentPoly, _three_term

_X = LaurentPoly({1: 1})


def _coeffs(p: LaurentPoly) -> list[int]:
    return [p.coeff(k) for k in range(max(p.terms, default=-1) + 1)]


def u_coeffs(n: int) -> list[int]:
    """Coefficients of U_n(x) from one kernel pass, since U_n(x) = S_n(2x, 1).

    The pass computes S_n(x, 1) = sum s_k x^k; U_n has the coefficients
    s_k * 2^k, so each s_k is shifted left by k bits.  S_n(x, 1) has
    1-norm F_{n+1} (packed slots of about 0.69n bits) where S_n(2x, 1) has
    a Pell number (about 1.27n bits), so the shift beats running the
    factor 2 through the pass.

    Boundary values: U_0 = 1, U_{-1} = 0, U_{-2} = -1.
    """
    if n < -2:
        raise ValueError("U_n is defined for n >= -2")
    if n < 0:
        return [-1] if n == -2 else []
    return [c << k for k, c in enumerate(_coeffs(scaled_u_pair(n, _X, 1)[0]))]


def _pochhammer(a, m: int):
    p = Fraction(1)
    for i in range(m):
        p *= a + i
    return p


def u_coeffs_hypergeometric(n: int) -> list[int]:
    """U_n(x) from the terminating 2F1(-n, n+2; 3/2; (1-x)/2) sum.

    The Pochhammer (-n)_k terms carry the alternating signs; the (3/2)_k
    denominators cancel, so each term's coefficient of (1 - x)^k, scaled
    by n + 1, must be integral.
    """
    if n < 0:
        raise ValueError("hypergeometric form needs n >= 0")
    total, power = LaurentPoly(), LaurentPoly({0: 1})  # power = (1 - x)^k
    for k in range(n + 1):
        c = (
            (n + 1)
            * _pochhammer(-n, k)
            * _pochhammer(n + 2, k)
            / (_pochhammer(1, k) * _pochhammer(Fraction(3, 2), k) * 2 ** k)
        )
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} of (1 - x)^{k} in U_{n}")
        total += c.numerator * power
        power *= 1 - _X
    return _coeffs(total)


def u_genfun_coeff(n: int, max_deg: int) -> list[int]:
    """Coefficient of u^n in the truncated series inverse of 1 - 2xu + u^2.

    Generic power-series inversion over the polynomial ring in x: with
    A(u) = sum A_i u^i, A_0 = 1, the inverse B satisfies B_0 = 1 and
    B_k = -sum_{i>=1} A_i B_{k-i}.
    """
    if not 0 <= n <= max_deg:
        raise ValueError("need 0 <= n <= max_deg")
    a = [1, -2 * _X, 1]
    b = [LaurentPoly({0: 1})]
    for k in range(1, max_deg + 1):
        terms = (a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        b.append(-sum(terms, LaurentPoly()))
    return _coeffs(b[n])


def scaled_u_pair(m: int, t, d):
    """(S_m, S_{m-1}) in one pass, m >= 0: the continuant with a = t and bc = d.

    Any exact ring works; S_{-1} = 0 is the pair's second entry at m = 0.
    """
    if m < 0:
        raise ValueError("the S pair (S_m, S_{m-1}) is defined for m >= 0")
    return _three_term([t], [d], None, m)


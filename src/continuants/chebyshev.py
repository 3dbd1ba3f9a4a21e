"""Chebyshev polynomials of the second kind, exactly.

Polynomials in x are dense integer coefficient lists in ascending degree;
the zero polynomial is the empty list.  Three independent routes compute
U_n: the three-term recurrence (primary), the terminating Gauss
hypergeometric sum, and truncated inversion of the generating function
1 / (1 - 2xu + u^2).

``scaled_u`` is the square-root-free workhorse used everywhere else: for a
trace t and determinant d it evaluates S_m(t, d), the bivariate polynomial
satisfying S_m = t*S_{m-1} - d*S_{m-2} with S_{-1} = 0, S_0 = 1.  Whenever
d = rho_plus * rho_minus and t = rho_plus + rho_minus, S_m equals the
complete homogeneous symmetric polynomial h_m(rho_plus, rho_minus), i.e.
d^(m/2) * U_m(t / (2*sqrt(d))) without ever forming the square root.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import _three_term, ring_one, ring_zero


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_add(p: list, q: list) -> list:
    out = list(p) + [0] * (len(q) - len(p)) if len(q) > len(p) else list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def u_coeffs(n: int) -> list[int]:
    """Coefficients of U_n(x) by the recurrence U_{k+1} = 2x*U_k - U_{k-1}.

    Boundary values: U_0 = 1, U_{-1} = 0, U_{-2} = -1.
    """
    if n < -2:
        raise ValueError("U_n is defined for n >= -2")
    if n == -2:
        return [-1]
    if n == -1:
        return []
    prev, cur = [], [1]  # U_{-1}, U_0
    for _ in range(n):
        nxt = [0] + [2 * c for c in cur]
        prev, cur = cur, _poly_add(nxt, [-c for c in prev])
    return cur


def _pochhammer(a, m: int):
    p = Fraction(1)
    for i in range(m):
        p *= a + i
    return p


def u_coeffs_hypergeometric(n: int) -> list[int]:
    """U_n(x) from the terminating 2F1(-n, n+2; 3/2; (1-x)/2) sum.

    The Pochhammer (-n)_k terms carry the alternating signs; the (3/2)_k
    denominators cancel, so the result must be integral.
    """
    if n < 0:
        raise ValueError("hypergeometric form needs n >= 0")
    total = [Fraction(0)] * (n + 1)
    zk = [Fraction(1)]  # ((1 - x) / 2)^k
    for k in range(n + 1):
        c = (
            _pochhammer(-n, k)
            * _pochhammer(n + 2, k)
            / (_pochhammer(1, k) * _pochhammer(Fraction(3, 2), k))
        )
        for i, z in enumerate(zk):
            total[i] += c * z
        zk = _poly_mul(zk, [Fraction(1, 2), Fraction(-1, 2)])
    coeffs = [(n + 1) * c for c in total]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} in U_{n}")
        out.append(int(c))
    return _trim(out)


def u_genfun_coeff(n: int, max_deg: int) -> list[int]:
    """Coefficient of u^n in the truncated series inverse of 1 - 2xu + u^2.

    Generic power-series inversion over the polynomial ring in x: with
    A(u) = sum A_i u^i, A_0 = 1, the inverse B satisfies B_0 = 1 and
    B_k = -sum_{i>=1} A_i B_{k-i}.
    """
    if not 0 <= n <= max_deg:
        raise ValueError("need 0 <= n <= max_deg")
    a = [[1], [0, -2], [1]]  # 1, -2x, 1
    b = [[1]]
    for k in range(1, max_deg + 1):
        acc: list = []
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = _poly_add(acc, _poly_mul(a[i], b[k - i]))
        b.append([-c for c in acc])
    return b[n]


def complete_homogeneous(n: int, x, y):
    """h_n(x, y) = sum of all monomials x^i y^j with i + j = n."""
    if n < 0:
        raise ValueError("h_n needs n >= 0")
    one = ring_one(x)
    xpow = [one]
    ypow = [one]
    for _ in range(n):
        xpow.append(xpow[-1] * x)
        ypow.append(ypow[-1] * y)
    total = ring_zero(x)
    for i in range(n + 1):
        total = total + xpow[i] * ypow[n - i]
    return total


def scaled_u(m: int, t, d):
    """S_m(t, d): the scaled Chebyshev recurrence S_m = t*S_{m-1} - d*S_{m-2}.

    S_{-1} = 0 and S_0 = 1; any exact ring works.
    """
    return scaled_u_pair(m, t, d)[0]


def scaled_u_pair(m: int, t, d):
    """(S_m, S_{m-1}) in one pass: the continuant with a = t and bc = d."""
    if m < -1:
        raise ValueError("S_m is defined for m >= -1")
    if m == -1:
        return ring_zero(t), None
    return _three_term([t], [d], None, m)


def pieri_check(n: int) -> bool:
    """Does 2x * U_n equal U_{n+1} + U_{n-1} exactly in coefficients?"""
    if n < 0:
        raise ValueError("pieri_check needs n >= 0")
    lhs = _poly_mul([0, 2], u_coeffs(n))
    rhs = _poly_add(u_coeffs(n + 1), u_coeffs(n - 1))
    return lhs == rhs

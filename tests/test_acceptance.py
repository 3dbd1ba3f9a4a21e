"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s``); every tolerance is pinned here.  All checks are exact ring
equalities except the one double-precision spot check, which is pinned at
1e-9 relative tolerance.
"""

import math
import random
import time
from fractions import Fraction

from conftest import (
    I,
    J,
    K,
    complete_homogeneous,
    evaluate_fraction,
    pieri_check,
    q_fibonacci_parity,
    rand_alpha,
    rand_fraction,
    rand_modint,
)
from continuants import (
    Mat2,
    PeriodicAlpha,
    QRational,
    cf_digits,
    cf_eval,
    closed_form_general,
    continuant_det_oracle,
    continuant_rec,
    mat_power_cheb,
    q_fibonacci,
    q_fibonacci_closed,
    q_rational,
    quat_mul,
    quat_power_cheb,
    Quaternion,
    run_bench,
    scaled_u,
    shift_check,
    transfer_matrix,
    u_coeffs,
    u_coeffs_hypergeometric,
    u_genfun_coeff,
)
from continuants.ring import DEFAULT_MODULUS, LaurentPoly, parse_laurent


def _report(name):
    """Print one ACCEPTANCE PASS/FAIL line per criterion."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            elapsed = time.monotonic() - start
            suffix = f" ({detail}, {elapsed:.1f}s)" if detail else f" ({elapsed:.1f}s)"
            print(f"ACCEPTANCE PASS: {name}{suffix}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@_report("master equivalence: closed = recurrence = Bareiss oracle")
def test_master_equivalence():
    start = time.monotonic()
    rng = random.Random(0xA11CE)
    cases = 0
    for l in (1, 2, 3, 4):
        for _ in range(100):
            alpha = rand_alpha(rng, l)
            for m in range(0, 7):
                for j in range(-1, l - 1):
                    closed = closed_form_general(alpha, 1, m, j)
                    rec = continuant_rec(alpha, 1 - j, l * m + j)
                    oracle = continuant_det_oracle(alpha, 1 - j, l * m + j)
                    assert closed == rec == oracle, (alpha, m, j)
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"master equivalence took {elapsed:.1f}s (budget 60s)"
    return f"{cases} cases"


@_report("Chebyshev triple agreement, Pieri and boundary values")
def test_chebyshev_triple_agreement():
    assert u_coeffs(0) == [1]
    assert u_coeffs(-1) == []
    assert u_coeffs(-2) == [-1]
    for n in range(31):
        rec = u_coeffs(n)
        assert rec == u_coeffs_hypergeometric(n), f"hypergeometric mismatch at n={n}"
        assert rec == u_genfun_coeff(n, 30), f"generating-function mismatch at n={n}"
        assert pieri_check(n), f"Pieri fails at n={n}"
    return "n <= 30"


@_report("square-root-free bridge: S_m(t, d) = h_m of the roots")
def test_scaled_chebyshev_bridge():
    rng = random.Random(0xB0B)
    pairs = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(50)]
    for rho_p, rho_m in pairs:
        t, d = rho_p + rho_m, rho_p * rho_m
        for m in range(21):
            assert scaled_u(m, t, d) == complete_homogeneous(m, rho_p, rho_m)
    # Double-precision spot check of the literal sqrt form, det > 0 only.
    def u_float(n, x):
        prev, cur = 0.0, 1.0
        for _ in range(n):
            prev, cur = cur, 2.0 * x * cur - prev
        return cur

    for _ in range(40):
        t = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        d = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
        m = rng.randint(0, 20)
        exact = float(scaled_u(m, t, d))
        df = float(d)
        approx = df ** (m / 2) * u_float(m, float(t) / (2.0 * math.sqrt(df)))
        assert math.isclose(exact, approx, rel_tol=1e-9, abs_tol=1e-9), (t, d, m)
    return "50 exact pairs, 40 float spot checks"


@_report("matrix-power lemma: Chebyshev = naive, singular branch included")
def test_matrix_power_lemma():
    rng = random.Random(0xC0DE)
    matrices = [Mat2(*(rng.randint(-5, 5) for _ in range(4))) for _ in range(400)]
    for _ in range(100):
        u1, u2, v1, v2 = (rng.randint(-4, 4) for _ in range(4))
        matrices.append(Mat2(u1 * v1, u1 * v2, u2 * v1, u2 * v2))
    for mat in matrices:
        naive = Mat2(1, 0, 0, 1)
        for m in range(17):
            assert mat_power_cheb(mat, m) == naive, (mat, m)
            naive = naive * mat
    singular = 0
    while singular < 100:
        u1, u2, v1, v2 = (rng.randint(-4, 4) for _ in range(4))
        mat = Mat2(u1 * v1, u1 * v2, u2 * v1, u2 * v2)
        assert mat.det() == 0
        t = mat.trace()
        for m in range(1, 17):
            k = t ** (m - 1)
            assert mat_power_cheb(mat, m) == Mat2(k * mat.a, k * mat.b, k * mat.c, k * mat.d)
        singular += 1
    return "500 matrices m <= 16, 100 singular"


@_report("lemma identities: entries, trace/det, shift, CF quotient")
def test_lemma_identities():
    rng = random.Random(0xFACE)
    corpus = [rand_alpha(rng, l) for l in (1, 2, 3, 4) for _ in range(50)]
    for alpha in corpus:
        p = 1
        for n in range(1, 11):
            mat = transfer_matrix(alpha, p, n)
            bc = alpha.b_at(p + n - 1) * alpha.c_at(p + n - 1)
            assert mat.a == continuant_rec(alpha, p, n)
            assert mat.b == -(bc * continuant_rec(alpha, p, n - 1))
            assert mat.c == continuant_rec(alpha, p + 1, n - 1)
            assert mat.d == -(bc * continuant_rec(alpha, p + 1, n - 2))
            assert mat.trace() == continuant_rec(alpha, p, n) - bc * continuant_rec(
                alpha, p + 1, n - 2)
            det = Fraction(1)
            for jj in range(1, n + 1):
                det *= alpha.b_at(p + jj - 1) * alpha.c_at(p + jj - 1)
            assert mat.det() == det
        for n in range(0, 11):
            for m in range(0, n + 1):
                assert shift_check(alpha, p, n, m)
    # Continued-fraction quotient, cross-multiplied, on c = -1 data.
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        l = rng.randint(1, 4)
        alpha = PeriodicAlpha(
            [rand_fraction(rng) for _ in range(l)],
            [rand_fraction(rng) for _ in range(l)],
            [Fraction(-1)] * l)
        for n in range(1, 11):
            try:
                value = cf_eval(alpha, 1, n)
            except ZeroDivisionError:
                continue
            assert value * continuant_rec(alpha, 2, n - 1) == continuant_rec(alpha, 1, n)
            checked += 1
    assert checked >= 100
    return "200 alphas, n <= 10"


@_report("q-Fibonacci: printed values, closed form, q-rational family, q = 1")
def test_q_fibonacci_criterion():
    assert q_fibonacci(1) == LaurentPoly.one()
    assert q_fibonacci(2) == LaurentPoly.one()
    assert q_fibonacci(3) == parse_laurent("1 + q")
    for n in range(1, 41):
        assert q_fibonacci_closed(n) == q_fibonacci_parity(n), f"closed form fails at n={n}"

    def fib(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    for n in range(1, 9):
        deformed = q_rational(cf_digits(fib(2 * n + 1), fib(2 * n)))
        direct = QRational(q_fibonacci(2 * n + 1), q_fibonacci(2 * n))
        assert deformed == direct
        assert deformed.num == direct.num and deformed.den == direct.den

    rng = random.Random(0xDEED)
    checked = 0
    while checked < 100:
        s = rng.randint(1, 50)
        r = rng.randint(s + 1, 150)
        if math.gcd(r, s) != 1:
            continue
        assert evaluate_fraction(q_rational(cf_digits(r, s)), Fraction(1)) == Fraction(r, s)
        checked += 1
    return "closed n <= 40, family n <= 8, 100 specializations"


@_report("quaternion powers: Chebyshev = naive, unit relations")
def test_quaternion_criterion():
    minus_one = Quaternion(-1, 0, 0, 0)
    assert quat_mul(I, I) == minus_one
    assert quat_mul(J, J) == minus_one
    assert quat_mul(K, K) == minus_one
    assert quat_mul(quat_mul(I, J), K) == minus_one
    rng = random.Random(0xFEED)
    for _ in range(300):
        x = Quaternion(*(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2)))
                         for _ in range(4)))
        naive = Quaternion(1, 0, 0, 0)
        for n in range(13):
            assert quat_power_cheb(x, n) == naive, (x, n)
            naive = quat_mul(naive, x)
    return "300 quaternions, n <= 12"


@_report("bench sanity: digest agreement and sub-linear log strategies")
def test_bench_criterion():
    start = time.monotonic()
    rng = random.Random(0xBEEF)
    alpha = PeriodicAlpha(
        [rand_modint(rng, DEFAULT_MODULUS) for _ in range(3)],
        [rand_modint(rng, DEFAULT_MODULUS) for _ in range(3)],
        [rand_modint(rng, DEFAULT_MODULUS) for _ in range(3)])
    reports = run_bench(alpha, [10, 10 ** 3, 10 ** 5])  # asserts digest agreement
    by_m = {}
    for report in reports:
        by_m.setdefault(report.m, {})[report.strategy] = report
    for m, per in by_m.items():
        assert len({r.digest for r in per.values()}) == 1
    assert by_m[10 ** 5]["transfer"].ops < by_m[10 ** 5]["rec"].ops
    # Doubling m must cost at most a constant number of matrix multiplies.
    doubling = run_bench(alpha, [2 ** k for k in range(8, 15)])
    for name in ("transfer", "closed-matpow"):
        ops = [r.ops for r in doubling if r.strategy == name]
        deltas = [b - a for a, b in zip(ops, ops[1:])]
        assert all(delta <= 40 for delta in deltas), (name, ops)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"bench criterion took {elapsed:.1f}s (budget 30s)"
    return "m in {10, 10^3, 10^5}"

"""Output checks: every command's stdout against a different library route.

The CLI computes each value by the strategy named on its command line; the
checker recomputes it another way, in-process, from the config values kept
by the generator (not from the config text):

* ``periodic`` and ``continuant`` (all rings, all strategies): K_n from a
  binary power of the one-period transfer matrix times the leftover
  factors, O(log n) matrix products (``mat_power_binexp``);
* ``periodic --verify``: the same value on the first line and on every
  ``PASS`` line;
* ``verify``: no ``FAIL``, and every identity that always applies passes;
* ``bench --csv``: every strategy's digest at each m equals the reference;
* ``qfib``: ``q_fibonacci_closed`` (Chebyshev route, not the recurrence);
* ``qrat``: the printed fraction equals the bottom-up continued-fraction
  value, is in normal form, and evaluates to r/s at q = 1;
* ``quatpow``: binary Hamilton powering.

Each check compares exact text or exact ring values.  A check returns
``None`` when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from continuants.continuant import PeriodicAlpha, cf_eval, transfer_matrix
from continuants.mat2 import mat_power_binexp
from continuants.qrational import CFDigits, mgo_alpha, q_fibonacci_closed
from continuants.quaternion import ONE, Quaternion, quat_mul
from continuants.ring import LaurentFraction, LaurentPoly, ModInt, parse_laurent

from workloads import MODULUS, Command, Spec, Workload

VERIFY_IDENTITIES = ("recurrence=oracle", "closed=recurrence", "shift",
                     "trace/det", "cf-quotient", "matpow-periods")


def alpha_of(spec: Spec) -> PeriodicAlpha:
    conv = {
        "modint": lambda v: ModInt(v, MODULUS),
        "rational": Fraction,
        "laurent": LaurentPoly,
    }[spec.ring]
    row = lambda xs: [conv(x) for x in xs]
    return PeriodicAlpha(row(spec.a), row(spec.b), row(spec.c), base=spec.p)


def k_by_period_power(alpha: PeriodicAlpha, p: int, n: int):
    """K_n(alpha_p) = top-left of A_l(p)^(n // l) * A_(n % l)(p)."""
    if n == -1:
        return alpha.zero()
    q, r = divmod(n, alpha.l)
    power = mat_power_binexp(transfer_matrix(alpha, p, alpha.l), q)
    return (power * transfer_matrix(alpha, p, r)).a


def quat_power_binary(x: Quaternion, n: int) -> Quaternion:
    result, base = ONE, x
    while n:
        if n & 1:
            result = quat_mul(result, base)
        base = quat_mul(base, base)
        n >>= 1
    return result


def _euclid_digits(r: int, s: int) -> list[int]:
    digits = []
    while s:
        digits.append(r // s)
        r, s = s, r % s
    if len(digits) % 2:
        digits[-1] -= 1
        digits.append(1)
    return digits


def _expect_text(text: str):
    return lambda out: None if out == text else f"expected {text[:60]!r}..."


class Checker:
    """Builds one expectation per distinct command and applies it to outputs."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._alphas = {name: alpha_of(spec) for name, spec in workload.specs.items()}
        self._cache: dict[str, object] = {}

    def check(self, cmd: Command, stdout: str) -> str | None:
        key = cmd.label()
        if key not in self._cache:
            self._cache[key] = getattr(self, f"_expect_{cmd.sub}")(cmd)
        return self._cache[key](stdout)

    def _value(self, cmd: Command):
        alpha = self._alphas[cmd.cfg]
        p = self.workload.specs[cmd.cfg].p
        if cmd.sub == "continuant":
            return k_by_period_power(alpha, p, cmd.params["n"])
        j = cmd.params["j"] or 0
        return k_by_period_power(alpha, p - j, alpha.l * cmd.params["m"] + j)

    def _expect_continuant(self, cmd):
        return _expect_text(f"{self._value(cmd)}\n")

    def _expect_periodic(self, cmd):
        v = self._value(cmd)
        text = f"{v}\n"
        if cmd.params["verify"]:
            text += "".join(f"PASS {s} = {v}\n"
                            for s in ("closed", "rec", "oracle", "matpow"))
        return _expect_text(text)

    def _expect_chebyshev(self, cmd):
        assert cmd.params["n"] == 0
        return _expect_text("[1]\n")

    def _expect_verify(self, cmd):
        def check(out: str):
            rows = [line.split(" ", 2) for line in out.splitlines()]
            names = tuple(r[1].rstrip(":") for r in rows if len(r) > 1)
            if names != VERIFY_IDENTITIES:
                return f"identities {names}"
            for (status, name, _), ident in zip(rows, VERIFY_IDENTITIES):
                allowed = ("PASS", "SKIP") if ident == "cf-quotient" else ("PASS",)
                if status not in allowed:
                    return f"{ident}: {status}"
            return None
        return check

    def _expect_bench(self, cmd):
        alpha = self._alphas[cmd.cfg]
        p = self.workload.specs[cmd.cfg].p
        want = {m: str(k_by_period_power(alpha, p, alpha.l * m))
                for m in cmd.params["m_list"]}
        strategies = ("rec", "transfer", "closed", "closed-matpow")

        def check(out: str):
            lines = out.splitlines()
            if not lines or lines[0] != "strategy,l,m,ns,ops,digest":
                return "bad csv header"
            rows = [line.split(",") for line in lines[1:]]
            expected = [(s, str(alpha.l), str(m), want[m])
                        for m in cmd.params["m_list"] for s in strategies]
            got = [(r[0], r[1], r[2], r[5]) for r in rows if len(r) == 6]
            if got != expected or len(rows) != len(expected):
                return "bench digests disagree with reference"
            if not all(r[3].isdigit() and r[4].isdigit() for r in rows):
                return "non-integer ns/ops column"
            return None
        return check

    def _expect_qfib(self, cmd):
        return _expect_text(f"{q_fibonacci_closed(cmd.params['n'])}\n")

    def _expect_quatpow(self, cmd):
        x = Quaternion(*cmd.params["q"])
        return _expect_text(f"{quat_power_binary(x, cmd.params['n'])}\n")

    def _expect_qrat(self, cmd):
        r, s = cmd.params["r"], cmd.params["s"]
        digits = _euclid_digits(r, s)
        value = cf_eval(mgo_alpha(CFDigits(tuple(digits))), 1, len(digits))

        def check(out: str):
            lines = out.splitlines()
            if len(lines) != 3 or lines[0] != f"digits: {digits}":
                return "digits line"
            if not (lines[1].startswith("numerator: ")
                    and lines[2].startswith("denominator: ")):
                return "layout"
            num = parse_laurent(lines[1].split(": ", 1)[1])
            den = parse_laurent(lines[2].split(": ", 1)[1])
            if den.is_zero() or LaurentFraction(num, den) != value:
                return "value differs from the continued-fraction route"
            if (den.min_exp() != 0 or den.coeff(den.max_exp()) < 0
                    or math.gcd(num.content(), den.content()) != 1):
                return "not in normal form"
            if Fraction(num.evaluate(1), den.evaluate(1)) != Fraction(r, s):
                return "q = 1 does not give r/s"
            return None
        return check

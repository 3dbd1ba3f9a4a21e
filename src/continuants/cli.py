"""Batch command-line front end.

Subcommands: continuant, periodic, qrat, qfib, quatpow, chebyshev, bench,
verify.  Coefficient data comes from small key=value config files (grammar
in docs/config.md); all output is canonical and deterministic, so golden
files stay byte-stable.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple

from .ring import RationalRing, Record, _int_text, ring_by_name

# Each subcommand handler imports the library modules it runs when it runs,
# so a command loads only those (tests/test_startup.py pins the sets).
# Handlers read the names off their modules at call time, so rebinding a
# library function in its module reaches the CLI too.


class ConfigError(ValueError):
    """Raised for malformed config files; the message names line and field."""


class AlphaConfig(Record, namedtuple("AlphaConfig", "ring l p a b c spec")):
    """Parsed coefficient config: ring name, period, base, the parsed
    coefficient arrays and the ring descriptor that parsed them."""

    __slots__ = ()

    def to_alpha(self) -> PeriodicAlpha:
        from .continuant import PeriodicAlpha

        return PeriodicAlpha(self.a, self.b, self.c, base=self.p)


_REQUIRED_KEYS = ("ring", "l", "p", "a", "b", "c")

# The STRATEGIES entries each subcommand offers; `periodic --verify` prints
# its entries in this order.
CONTINUANT_STRATEGIES = ("oracle", "rec", "transfer")
PERIODIC_STRATEGIES = ("closed", "rec", "oracle", "matpow")

# Largest size each command accepts; above it the command refuses before
# any work.  The README lists each bound's time and memory.  qrat bounds
# the sum of the continued-fraction digits of r/s, the degree of [r/s]_q,
# and (digit sum + 1) * bit_length(r), which bounds its output bits: the
# coefficients of [r/s]_q are positive and at most r.
CHEBYSHEV_MAX_N = 4_000
QFIB_MAX_N = 3_000
QUATPOW_MAX_N = 10_000
QRAT_MAX_DIGIT_SUM = 80_000
QRAT_MAX_OUTPUT_BITS = 4_640_058


def parse_config(text: str) -> AlphaConfig:
    """Parse key=value config text into a validated AlphaConfig."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _REQUIRED_KEYS + ("modulus",):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")

    def int_field(key: str) -> int:
        lineno, value = entries[key]
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: field {key!r} must be an integer") from None

    ring = entries["ring"][1]
    if ring not in ("rational", "laurent", "modint"):
        raise ConfigError(f"line {entries['ring'][0]}: unknown ring {ring!r}")
    l = int_field("l")
    if l < 1:
        raise ConfigError(f"line {entries['l'][0]}: field 'l' must be >= 1")
    p = int_field("p")
    modulus = int_field("modulus") if "modulus" in entries else None
    if modulus is not None and ring != "modint":
        raise ConfigError(
            f"line {entries['modulus'][0]}: 'modulus' only applies to ring=modint")

    arrays = {}
    for key in ("a", "b", "c"):
        lineno, value = entries[key]
        if not (value.startswith("[") and value.endswith("]")):
            raise ConfigError(f"line {lineno}: field {key!r} must be a [..] array")
        items = [s.strip() for s in value[1:-1].split(",")] if value[1:-1].strip() else []
        if len(items) != l:
            raise ConfigError(
                f"line {lineno}: field {key!r} has {len(items)} elements, expected l={l}")
        arrays[key] = items

    try:
        spec = ring_by_name(ring, modulus)
    except ValueError as exc:  # only an explicit modulus can be refused
        raise ConfigError(f"line {entries['modulus'][0]}: field 'modulus': {exc}") from None
    for key in ("a", "b", "c"):
        lineno, _ = entries[key]
        for i, item in enumerate(arrays[key]):
            try:
                arrays[key][i] = spec.parse(item)
            except ValueError as exc:
                raise ConfigError(
                    f"line {lineno}: field {key!r}[{i}]: {exc}") from None
    return AlphaConfig(ring, l, p, *(tuple(arrays[key]) for key in "abc"), spec)


def load_config(path: str) -> AlphaConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_config(fh.read())


# --- subcommand handlers ---------------------------------------------------


def _cmd_continuant(args) -> int:
    from .strategies import STRATEGIES

    cfg = load_config(args.config)
    alpha = cfg.to_alpha()
    print(cfg.spec.format(STRATEGIES[args.strategy](alpha, cfg.p, args.n)))
    return 0


def _cmd_periodic(args) -> int:
    from .periodic import check_offset
    from .strategies import STRATEGIES

    cfg = load_config(args.config)
    alpha = cfg.to_alpha()
    # Plain K_{lm} without --j; an explicit --j has the -1 <= j <= l-2 domain.
    j = 0 if args.j is None else args.j
    if args.j is not None:
        check_offset(alpha.l, args.m, j)
    elif args.m < 0:
        raise ValueError("need m >= 0")
    n = alpha.l * args.m + j
    # Every route runs once before anything prints; the oracle runs first,
    # so above ORACLE_MAX_N its refusal comes before any other work.
    names = PERIODIC_STRATEGIES if args.verify else (args.strategy,)
    values = {name: STRATEGIES[name](alpha, cfg.p - j, n)
              for name in sorted(names, key="oracle".__ne__)}
    value = values[args.strategy]
    print(cfg.spec.format(value))
    if not args.verify:
        return 0
    status = 0
    for name in PERIODIC_STRATEGIES:
        ok = values[name] == value
        print(f"{'PASS' if ok else 'FAIL'} {name} = {cfg.spec.format(values[name])}")
        if not ok:
            status = 1
    return status


def _cmd_qrat(args) -> int:
    from .qrational import cf_digits, q_rational

    digits = cf_digits(args.r, args.s)
    if sum(digits) > QRAT_MAX_DIGIT_SUM:
        raise ValueError(f"qrat refuses digit sum = {sum(digits)} > "
                         f"QRAT_MAX_DIGIT_SUM = {QRAT_MAX_DIGIT_SUM}")
    bits = (sum(digits) + 1) * args.r.bit_length()
    if bits > QRAT_MAX_OUTPUT_BITS:
        raise ValueError(f"qrat refuses (digit sum + 1) * bit_length(r) = {bits} > "
                         f"QRAT_MAX_OUTPUT_BITS = {QRAT_MAX_OUTPUT_BITS}")
    value = q_rational(digits)
    print(f"digits: {list(digits)}")
    print(f"numerator: {value.num}")
    print(f"denominator: {value.den}")
    return 0


def _cmd_qfib(args) -> int:
    from .qrational import q_fibonacci

    if args.n > QFIB_MAX_N:
        raise ValueError(f"qfib refuses n = {args.n} > QFIB_MAX_N = {QFIB_MAX_N}")
    print(q_fibonacci(args.n))
    return 0


def _cmd_quatpow(args) -> int:
    from .quaternion import Quaternion, quat_power_cheb, quat_power_naive

    if args.n > QUATPOW_MAX_N:
        raise ValueError(f"quatpow refuses n = {args.n} > QUATPOW_MAX_N = {QUATPOW_MAX_N}")
    parts = args.q.split(",")
    if len(parts) != 4:
        raise ValueError("--q expects four comma-separated rationals a,b,c,d")
    x = Quaternion(*map(RationalRing().parse, parts))
    value = quat_power_cheb(x, args.n)
    if value != quat_power_naive(x, args.n):
        raise ValueError("Chebyshev and naive quaternion powers disagree")
    print(value)
    return 0


def _cmd_chebyshev(args) -> int:
    from .chebyshev import u_coeffs

    if args.n > CHEBYSHEV_MAX_N:
        raise ValueError(f"chebyshev refuses n = {args.n} > CHEBYSHEV_MAX_N = {CHEBYSHEV_MAX_N}")
    print(f"[{', '.join(map(_int_text, u_coeffs(args.n)))}]")
    return 0


def _cmd_bench(args) -> int:
    from .bench import render_table, run_bench

    m_list = [int(s) for s in args.m_list.split(",") if s.strip()]
    if not m_list:  # an empty table would check nothing
        raise ValueError("bench refuses an --m-list with no sizes")
    cfg = load_config(args.config)
    if cfg.ring != "modint":
        raise ValueError("bench configs must use ring=modint")
    reports = run_bench(cfg.to_alpha(), m_list)
    if args.csv:
        print("strategy,l,m,ns,ops,digest")
        for r in reports:
            print(r.csv_row())
    else:
        print(render_table(reports))
    return 0


def _cmd_verify(args) -> int:
    from .strategies import run_verify

    cfg = load_config(args.config)
    alpha = cfg.to_alpha()
    results = run_verify(alpha, n_max=args.n_max, m_max=args.m_max)
    status = 0
    for name, outcome, detail in results:
        print(f"{outcome} {name}: {detail}")
        if outcome == "FAIL":
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continuants",
        description="Exact continuants, Chebyshev closed forms, q-rationals "
                    "and quaternion powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cont = sub.add_parser("continuant", help="evaluate K_n for a config")
    p_cont.add_argument("--config", required=True)
    p_cont.add_argument("--n", type=int, required=True)
    p_cont.add_argument("--strategy", choices=CONTINUANT_STRATEGIES, default="rec")
    p_cont.set_defaults(func=_cmd_continuant)

    p_per = sub.add_parser("periodic", help="evaluate K_{lm+j} closed forms")
    p_per.add_argument("--config", required=True)
    p_per.add_argument("--m", type=int, required=True)
    p_per.add_argument("--j", type=int, default=None,
                       help="offset in -1..l-2; omit for plain K_{lm}")
    p_per.add_argument("--strategy", choices=PERIODIC_STRATEGIES, default="closed")
    p_per.add_argument("--verify", action="store_true",
                       help="also check all strategies agree")
    p_per.set_defaults(func=_cmd_periodic)

    p_qrat = sub.add_parser("qrat", help="q-deformation of a rational r/s")
    p_qrat.add_argument("--r", type=int, required=True)
    p_qrat.add_argument("--s", type=int, required=True)
    p_qrat.set_defaults(func=_cmd_qrat)

    p_qfib = sub.add_parser("qfib", help="q-Fibonacci polynomial F_n(q)")
    p_qfib.add_argument("--n", type=int, required=True)
    p_qfib.set_defaults(func=_cmd_qfib)

    p_quat = sub.add_parser("quatpow", help="exact quaternion power")
    p_quat.add_argument("--q", required=True,
                        help="components a,b,c,d, each p or p/q; write --q=-1,... "
                             "when a is negative")
    p_quat.add_argument("--n", type=int, required=True)
    p_quat.set_defaults(func=_cmd_quatpow)

    p_cheb = sub.add_parser("chebyshev", help="coefficients of U_n(x)")
    p_cheb.add_argument("--n", type=int, required=True)
    p_cheb.set_defaults(func=_cmd_chebyshev)

    p_bench = sub.add_parser("bench", help="compare evaluation strategies")
    p_bench.add_argument("--config", required=True, help="a ring=modint config")
    p_bench.add_argument("--m-list", required=True, help="comma-separated m values")
    p_bench.add_argument("--csv", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_ver = sub.add_parser("verify", help="cross-strategy agreement suite")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--n-max", type=int, default=8)
    p_ver.add_argument("--m-max", type=int, default=4)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

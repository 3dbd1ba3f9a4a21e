"""Seeded workload generators for the CLI benchmark.

A workload is a list of config files (text) plus one *pass*: a list of
``continuants`` CLI commands that the benchmark replays in a closed loop.
Everything is derived from ``random.Random(f"{workload}:{seed}")``, so the
same seed always gives the same configs and the same command list.

Each config also keeps its coefficients as Python values (``Spec``) so the
output checker can rebuild the data with library constructors instead of
going through the CLI's config parser.

Sizes are normalised per slot (for example ``l * m`` is held near a target
for ``periodic --strategy rec``, and rational lengths are scaled by the
measured bit growth of the config), so that different seeds put a similar
amount of work into a pass and the run-to-run spread stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

MODULUS = (1 << 61) - 1

#: Wall-clock cap for one CLI command; a command that hits it is a failure.
CMD_TIMEOUT_S = 20.0

# Size guards for defects that are known and deliberately left in the
# program.  The generators stay inside these limits; the defects themselves
# are not hidden (every strategy named here is still exercised).
GUARDS = {
    "periodic_matpow_max_m": (
        40_000,
        "periodic --strategy matpow is O(m): mat_power_cheb uses the linear "
        "scaled_u_pair, so m = 10**18 never returns",
    ),
    "bench_max_m": (
        2_000,
        "bench runs rec and closed (both linear in m) at every m of --m-list",
    ),
    "periodic_verify_max_lm": (
        40,
        "periodic --verify builds a dense (l*m)^2 oracle matrix; laurent "
        "l=3, m=200 was still running after 100 s",
    ),
    "oracle_max_n": (
        30,
        "continuant --strategy oracle materialises a dense n x n matrix",
    ),
    "rational_max_bits": (
        12_000,
        "Python refuses int-to-str conversion above 4300 digits (~14,000 bits), "
        "so the CLI exits with an error when a printed rational is larger",
    ),
    "qrat_max_digit": (
        12,
        "qrat cost explodes with large continued-fraction digits; "
        "1000000007/123456789 takes 2.6 s in-process",
    ),
    "quatpow_max_n": (
        1_000,
        "quatpow always runs the O(n) naive Hamilton cross-check; "
        "negative components must be passed as --q=... (argparse rejects "
        "'--q -5/3,...')",
    ),
}


def guard(name: str) -> int:
    return GUARDS[name][0]


@dataclass
class Spec:
    """One coefficient config as Python values (int, Fraction or dict)."""

    ring: str
    a: list
    b: list
    c: list
    p: int = 1

    @property
    def l(self) -> int:
        return len(self.a)

    def text(self) -> str:
        fmt = {"modint": str, "rational": str, "laurent": laurent_text}[self.ring]
        row = lambda xs: "[" + ", ".join(fmt(x) for x in xs) + "]"
        return (f"ring = {self.ring}\nl = {self.l}\np = {self.p}\n"
                f"a = {row(self.a)}\nb = {row(self.b)}\nc = {row(self.c)}\n")


@dataclass
class Command:
    """One CLI invocation: subcommand, optional config name, options."""

    sub: str
    cfg: str | None = None
    opts: tuple = ()
    params: dict = field(default_factory=dict)

    def argv(self, cfg_dir: str | None = None) -> list[str]:
        out = [self.sub]
        if self.cfg is not None:
            path = self.cfg if cfg_dir is None else f"{cfg_dir}/{self.cfg}"
            out += ["--config", path]
        return out + list(self.opts)

    def label(self) -> str:
        return " ".join(self.argv())


@dataclass
class Workload:
    name: str
    seed: int
    specs: dict[str, Spec]
    commands: list[Command]

    def config_files(self) -> dict[str, str]:
        return {name: spec.text() for name, spec in self.specs.items()}


#: The interleaved start-up probe: a no-op CLI command.
NOOP = Command("chebyshev", None, ("--n", "0"), {"n": 0})


def laurent_text(terms: dict) -> str:
    parts = []
    for e in sorted(terms):
        c = terms[e]
        mag = abs(c)
        var = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


# --- shared pieces --------------------------------------------------------


def _interleave(groups: list[list[Command]]) -> list[Command]:
    """Round-robin over command groups, so any prefix of a pass has the mix."""
    out = []
    for i in range(max(len(g) for g in groups)):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def _periodic(cfg: str, m: int, strategy: str, j: int | None = None,
              verify: bool = False) -> Command:
    opts = ["--m", str(m), "--strategy", strategy]
    if j is not None:
        opts += ["--j", str(j)]
    if verify:
        opts.append("--verify")
    return Command("periodic", cfg, tuple(opts),
                   {"m": m, "j": j, "strategy": strategy, "verify": verify})


def _continuant(cfg: str, n: int, strategy: str) -> Command:
    return Command("continuant", cfg, ("--n", str(n), "--strategy", strategy),
                   {"n": n, "strategy": strategy})


def _bench(cfg: str, m_list: list[int]) -> Command:
    assert max(m_list) <= guard("bench_max_m")
    return Command("bench", cfg, ("--m-list", ",".join(map(str, m_list)), "--csv"),
                   {"m_list": m_list})


def _qfib(n: int) -> Command:
    return Command("qfib", None, ("--n", str(n)), {"n": n})


def _qrat_from_digits(digits: list[int]) -> Command:
    assert len(digits) % 2 == 0 and max(digits) <= guard("qrat_max_digit")
    val = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        val = d + 1 / val
    r, s = val.numerator, val.denominator
    return Command("qrat", None, ("--r", str(r), "--s", str(s)), {"r": r, "s": s})


def _quatpow(q: tuple, n: int) -> Command:
    assert n <= guard("quatpow_max_n")
    text = ",".join(str(x) for x in q)
    return Command("quatpow", None, (f"--q={text}", "--n", str(n)), {"q": q, "n": n})


def _random_j(rng: random.Random, l: int) -> int:
    return rng.randint(-1, l - 2)


def _small_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _probe_modint_spec(rng: random.Random) -> Spec:
    mk = lambda: rng.randrange(1, MODULUS)
    return Spec("modint", [mk(), mk()], [mk(), mk()], [mk(), mk()])


# Small commands that give every traced layer a little work on workloads
# that otherwise never reach it, so no per-layer time reads as a constant 0.
def _probe_qfib(rng):
    return _qfib(rng.randint(10, 16))


def _probe_qrat(rng):
    # A last digit >= 2 keeps the denominator off 1, so exact division runs.
    return _qrat_from_digits([rng.randint(1, 3), rng.randint(2, 3)])


def _probe_quatpow(rng):
    return _quatpow(tuple(_small_frac(rng) for _ in range(4)), rng.randint(4, 8))


def _probe_bench(cfg):
    return lambda rng: _bench(cfg, [rng.randint(2, 9), rng.randint(10, 40)])


# --- modint-periodic --------------------------------------------------------


def _modint_periodic(rng: random.Random) -> tuple[dict, list]:
    specs = {}
    for l in (1, 2, 3, 4):
        mk = lambda: rng.randrange(0, MODULUS)
        c = [MODULUS - 1] * l if rng.random() < 0.5 else [mk() for _ in range(l)]
        specs[f"m{l}.cfg"] = Spec("modint", [mk() for _ in range(l)],
                                  [mk() for _ in range(l)], c)
    names = list(specs)
    lcfg = lambda name: specs[name].l
    verify = [Command("verify", name) for name in names]
    closed = [_periodic(name, rng.randint(8_000, 30_000), "closed") for name in names]
    rec = [_periodic(name, rng.randint(28_000, 36_000) // lcfg(name), "rec")
           for name in names]
    matpow = [
        _periodic(name, rng.randint(10_000, 25_000), "matpow",
                  _random_j(rng, lcfg(name)) if lcfg(name) > 1 else None)
        for name in names
    ]
    with_j = [
        _periodic(names[1], rng.randint(8_000, 30_000), "closed", _random_j(rng, 2)),
        _periodic(names[3], rng.randint(28_000, 36_000) // 4, "rec", _random_j(rng, 4)),
    ]
    transfer = [_continuant(rng.choice(names), rng.randint(8_000, 12_000), "transfer")
                for _ in range(2)]
    bench = [_bench(rng.choice(names), sorted(rng.sample(range(5, 1_000), 3)))
             for _ in range(2)]
    probes = [_probe_qfib(rng), _probe_qrat(rng), _probe_quatpow(rng)]
    for cmd in matpow:
        assert cmd.params["m"] <= guard("periodic_matpow_max_m")
    return specs, _interleave([verify, closed, rec, matpow, with_j + transfer,
                               bench + probes])


# --- rational part --------------------------------------------------------------


def _rational_sizes(spec: Spec, n_max: int = 4_000, every: int = 100) -> dict:
    """Exact (numerator bits, denominator bits) of the reduced K_n(1) at every
    ``every``-th n.

    Runs the recurrence on integers scaled by L^n, where L clears every
    denominator of a and b*c, and reduces only at the checkpoints.
    """
    l = spec.l
    bc = [spec.b[i] * spec.c[i] for i in range(l)]
    big_l = math.lcm(*(x.denominator for x in spec.a + bc))
    a = [int(x * big_l) for x in spec.a]
    e = [int(x * big_l * big_l) for x in bc]
    km1, k, scale = 0, 1, 1
    sizes = {}
    for j in range(1, n_max + 1):
        km1, k = k, a[(j - 1) % l] * k - e[(j - 2) % l] * km1
        scale *= big_l
        if j % every == 0:
            g = math.gcd(k, scale)
            sizes[j] = (abs(k // g).bit_length(), (scale // g).bit_length())
    return sizes


def _longest(sizes: dict, max_bits: int, max_work: float = math.inf) -> int:
    """Largest checkpoint n such that K_n and every earlier checkpoint fit in
    ``max_bits``, and the summed numerator plus denominator bits of K_1..K_n
    (a proxy for the cost of an O(n) evaluation) stay within ``max_work``."""
    best, work, prev = 0, 0, 0
    for n in sorted(sizes):
        num_bits, den_bits = sizes[n]
        work += (num_bits + den_bits) * (n - prev)
        prev = n
        if max(num_bits, den_bits) > max_bits or work > max_work:
            break
        best = n
    return best


def _quat_bits_per_power(q: tuple, steps: int = 16) -> float:
    a, b, c, d = q
    x = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(steps):
        w, i, j, k = x
        x = (w * a - i * b - j * c - k * d, w * b + i * a + j * d - k * c,
             w * c - i * d + j * a + k * b, w * d + i * c - j * b + k * a)
    bits = max(v.numerator.bit_length() + v.denominator.bit_length() for v in x)
    return max(1.0, bits / steps)


def _clamp(x: float, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, round(x))))


def _rational_part(rng: random.Random) -> tuple[dict, list]:
    """Rational configs and command groups: long products, quatpow, oracles."""
    specs = {}
    for l in (1, 2, 3, 4):
        row = lambda: [_small_frac(rng) for _ in range(l)]
        specs[f"r{l}.cfg"] = Spec("rational", row(), row(), row())
    names = list(specs)
    # Long commands stop where the summed size of K_1..K_n reaches a work
    # target, so a fast-growing config gets a shorter n and every seed does
    # similar work; printed values stay under the int-to-str limit.
    sizes = {name: _rational_sizes(specs[name]) for name in names}
    max_bits = guard("rational_max_bits")
    long_n = lambda name, work: max(1_000, _longest(sizes[name], max_bits, work))
    transfer = [_continuant(name, long_n(name, 2.5e7), "transfer") for name in names]
    rec = [_continuant(name, long_n(name, 3.0e7), "rec") for name in names]
    # The closed form steps S_k once per period, and S_k is about as long as
    # K_{lk}: its work is about the recurrence's work up to n = l*m over l.
    hundreds = lambda name: min(1_000, _longest(sizes[name], max_bits // 2,
                                                4e6 * specs[name].l * rng.uniform(0.9, 1.1)
                                                ) // specs[name].l)
    closed = [_periodic(name, hundreds(name), "closed") for name in names]
    matpow = [
        _periodic(name, hundreds(name), "matpow",
                  _random_j(rng, specs[name].l) if specs[name].l > 1 else None)
        for name in (names[1], names[3])
    ]
    max_lm = guard("periodic_verify_max_lm")
    pverify = [
        _periodic(name, rng.randint(4, max_lm // specs[name].l), "closed", verify=True)
        for name in (names[0], names[2])
    ]
    verify = [Command("verify", name) for name in names]
    quat = []
    for _ in range(3):
        q = tuple(_small_frac(rng) for _ in range(4))
        # Naive powering costs about rate * n^2 / 2 bit-steps.
        n = math.sqrt(2 * 3.6e6 / _quat_bits_per_power(q))
        quat.append(_quatpow(q, _clamp(n, 300, guard("quatpow_max_n"))))
    return specs, [verify, transfer, closed + matpow, rec, pverify + quat]


# --- Laurent part ---------------------------------------------------------------


def _laurent_poly(rng: random.Random, max_terms: int, lo: int, hi: int) -> dict:
    exps = rng.sample(range(lo, hi + 1), rng.randint(1, max_terms))
    return {e: rng.choice((-1, 1)) * rng.randint(1, 3) for e in exps}


def _laurent_work(spec: Spec, n_max: int = 2_000) -> tuple[dict, float]:
    """Estimated term pairs multiplied by the recurrence up to K_n, for every
    n, and the ratio of the closed form's work per period to the
    recurrence's.

    The degree span of K_k follows from a max-plus recurrence on the
    exponent bounds; its term count is taken as span / g + 1, where g is the
    gcd of the exponent steps the coefficients can produce.  Once per period
    the closed form multiplies S_k (about as long as K_{lk}) by the period
    trace, which is about as long as K_l, and by the period determinant.  The estimate costs O(n) integer
    operations.
    """
    l = spec.l
    bc_exps = [{eb + ec for eb in b for ec in c} for b, c in zip(spec.b, spec.c)]
    a_exps = [e for a in spec.a for e in a]
    base = a_exps[0]
    g = math.gcd(*(e - base for e in a_exps),
                 *(e - 2 * base for es in bc_exps for e in es)) or 1
    bc_lo, bc_hi = [min(es) for es in bc_exps], [max(es) for es in bc_exps]
    bc_terms = [len(b) * len(c) for b, c in zip(spec.b, spec.c)]
    terms = lambda bounds: (bounds[1] - bounds[0]) // g + 1
    prev, cur = None, (0, 0)  # (lo, hi) of K_{k-2}, K_{k-1}
    work, total = {}, 0
    for k in range(1, n_max + 1):
        i = (k - 1) % l
        a = spec.a[i]
        lo, hi = min(a) + cur[0], max(a) + cur[1]
        total += len(a) * terms(cur)
        if prev is not None:
            j = (k - 2) % l
            lo, hi = min(lo, bc_lo[j] + prev[0]), max(hi, bc_hi[j] + prev[1])
            total += bc_terms[j] * terms(prev)
        prev, cur = cur, (lo, hi)
        work[k] = total
        if k == l:
            trace_terms = terms(cur)
    d_exps = {0}
    for es in bc_exps:
        d_exps = {x + y for x in d_exps for y in es}
    per_period = sum(len(a) for a in spec.a) + sum(bc_terms)
    return work, (trace_terms + len(d_exps)) / per_period


def _laurent_part(rng: random.Random) -> tuple[dict, list]:
    """Laurent configs and command groups: qfib, qrat, periodic, oracles."""
    specs = {}
    for l in (1, 2, 3):
        a = [_laurent_poly(rng, 3, -2, 2) for _ in range(l)]
        b = [_laurent_poly(rng, 2, -2, 2) for _ in range(l)]
        c = [{0: -1} if rng.random() < 0.5 else _laurent_poly(rng, 1, -1, 1)
             for _ in range(l)]
        specs[f"L{l}.cfg"] = Spec("laurent", a, b, c)
    names = list(specs)
    # Hold the estimated work of each O(n) evaluation near a target, so
    # every seed does similar work.
    est = {name: _laurent_work(specs[name]) for name in names}

    def m_for(name: str, strategy: str) -> int:
        work, closed_ratio = est[name]
        l = specs[name].l
        scale = 1.0 if strategy == "rec" else closed_ratio
        target = 1.5e5 * rng.uniform(0.9, 1.1)
        return max(20, max(n for n, w in work.items() if w * scale <= target) // l)

    periodic = {
        strategy: [
            _periodic(name, m_for(name, strategy), strategy,
                      _random_j(rng, specs[name].l)
                      if strategy != "closed" and specs[name].l > 1 and rng.random() < 0.5
                      else None)
            for name in names
        ]
        for strategy in ("closed", "rec", "matpow")
    }
    # qfib does not depend on any config, so its cost is the same for every
    # seed; it is the heaviest command of the pass, which keeps the tail
    # percentile steady.
    qfib = [_qfib(round(n * rng.uniform(0.98, 1.02))) for n in (650, 700, 750)]
    qrat = [
        _qrat_from_digits([rng.randint(1, guard("qrat_max_digit")) for _ in range(length)])
        for length in (2, 4, 6, 8)
    ]
    verify = [Command("verify", name) for name in names]
    # Bareiss on the dense matrix multiplies about n^2 * work(n) / 3 term pairs.
    oracle_n = lambda name: max(n for n in range(8, 25)
                                if n * n * est[name][0][n] <= 4.5e5 * rng.uniform(0.9, 1.1))
    oracle = [_continuant(name, oracle_n(name), "oracle") for name in rng.sample(names, 2)]
    for cmd in oracle:
        assert cmd.params["n"] <= guard("oracle_max_n")
    return specs, [periodic["closed"] + periodic["matpow"], qfib + qrat, verify,
                   periodic["rec"] + oracle]


# --- exact-growth ---------------------------------------------------------------


def _exact_growth(rng: random.Random) -> tuple[dict, list]:
    """Rational and Laurent commands in one pass: value growth is the cost."""
    rational_specs, rational_groups = _rational_part(rng)
    laurent_specs, laurent_groups = _laurent_part(rng)
    specs = {**rational_specs, **laurent_specs,
             "probe_modint.cfg": _probe_modint_spec(rng)}
    probes = [_probe_bench("probe_modint.cfg")(rng)]
    return specs, _interleave(rational_groups + laurent_groups + [probes])


GENERATORS = {
    "modint-periodic": _modint_periodic,
    "exact-growth": _exact_growth,
}


def generate(name: str, seed: int) -> Workload:
    """The configs and one pass of commands for workload ``name``."""
    if name not in GENERATORS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    rng = random.Random(f"{name}:{seed}")
    specs, commands = GENERATORS[name](rng)
    return Workload(name, seed, specs, commands)

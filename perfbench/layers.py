"""Traced in-process replay: per-layer self time and counts.

The tracer wraps public functions and methods of the ``continuants``
modules from the outside; the program's sources are not changed.  A name
brought in with ``from .x import y`` is a separate binding in every module
that imported it, so each wrapped function is replaced in *every* loaded
``continuants`` module that holds it (``scaled_u_pair`` lives in
``chebyshev``, ``mat2``, ``periodic``, ``qrational`` and ``quaternion``).

Self time of a span is its duration minus the time of the wrapped calls
made inside it.  Ring operations that are wrapped (``ModInt`` arithmetic,
``LaurentPoly`` multiply and exact division, ``LaurentFraction``
arithmetic) are therefore charged to ``ring.*``; ``Fraction`` arithmetic
and ``LaurentPoly`` addition are not wrapped and stay in the caller's self
time.  ``Mat2`` multiplies are counted but not timed, so they stay in the
self time of the function that multiplies (``transfer_matrix`` or a
``mat_power_*``).

Spans of the layers above the ring (one per wrapped call) are kept in
memory and written out at the end of a run; ring operations are only
aggregated.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import defaultdict

from continuants import bench, chebyshev, cli, continuant, mat2, periodic
from continuants import qrational, quaternion, ring

# Per-layer metric -> (unit, end-to-end metrics it should move, workloads
# where it does the work, workloads where it should do little or none).
# "exact-growth (rational)" and "(Laurent)" name the two halves of that pass.
_M, _E = "modint-periodic", "exact-growth"
_R, _L = "exact-growth (rational)", "exact-growth (Laurent)"
LAYER_METRICS = {
    "ring.modint_ops": ("count", "cmds_per_s cmd_tail_ms", _M, _E),
    "ring.modint_ns_per_op": ("ns", "cmds_per_s cmd_tail_ms", _M, _E),
    "chebyshev.scaled_u_steps": ("count", "cmds_per_s cmd_tail_ms", f"{_M}, {_R}", _L),
    "chebyshev.scaled_u_ms": ("ms", "cmds_per_s cmd_tail_ms", f"{_M}, {_R}", _L),
    "mat2.mul_calls": ("count", "cmd_tail_ms", _M, _L),
    "mat2.power_ms": ("ms", "cmd_tail_ms", _M, _L),
    "continuant.rec_steps": ("count", "cmds_per_s", f"{_M}, {_R}", ""),
    "continuant.rec_ms": ("ms", "cmds_per_s", f"{_M}, {_R}", ""),
    "continuant.transfer_factors": ("count", "cmd_tail_ms", _R, _L),
    "continuant.transfer_ms": ("ms", "cmd_tail_ms", _R, _L),
    "continuant.oracle_max_n": ("count", "cmd_p50_ms", f"{_R} (periodic --verify); all via verify", ""),
    "continuant.oracle_ms": ("ms", "cmd_p50_ms", f"{_R} (periodic --verify); all via verify", ""),
    "periodic.trace_det_ms": ("ms", "cmd_p50_ms", _M, ""),
    "periodic.closed_ms": ("ms", "cmd_p50_ms", _M, ""),
    "ring.laurent_mul_calls": ("count", "cmds_per_s cmd_tail_ms", _L, f"{_M}, {_R}"),
    "ring.laurent_mul_term_pairs": ("count", "cmds_per_s cmd_tail_ms", _L, f"{_M}, {_R}"),
    "ring.laurent_mul_ms": ("ms", "cmds_per_s cmd_tail_ms", _L, f"{_M}, {_R}"),
    "ring.laurent_fraction_ms": ("ms", "cmd_tail_ms", f"{_L} (qrat, oracle)", _M),
    "ring.laurent_exact_div_ms": ("ms", "cmd_tail_ms", f"{_L} (qrat, oracle)", _M),
    "qrational.q_rational_ms": ("ms", "cmd_tail_ms", _L, _M),
    "qrational.q_fibonacci_ms": ("ms", "cmd_tail_ms", _L, _M),
    "quaternion.naive_ms": ("ms", "cmd_tail_ms", _R, _M),
    "quaternion.cheb_ms": ("ms", "cmd_tail_ms", _R, _M),
    "bench.run_bench_ms": ("ms", "cmd_tail_ms", _M, _E),
    "cli.import_ms": ("ms", "startup_ms cmd_p50_ms", "all", ""),
    "cli.parse_ms": ("ms", "startup_ms cmd_p50_ms", "all", ""),
    "cli.format_ms": ("ms", "cmd_tail_ms", f"{_L} (qfib prints up to ~120 KB)", ""),
    "cli.out_bytes": ("bytes", "cmd_tail_ms", _L, ""),
    "ring.max_bits": ("bits", "none (context: growth drives cost)", _E, ""),
    "ring.max_laurent_span": ("count", "none (context: growth drives cost)", _L, ""),
    "trace.overhead_pct": ("%", "none", "all", ""),
}

COUNT_METRICS = ("ring.modint_ops", "chebyshev.scaled_u_steps", "mat2.mul_calls",
                 "continuant.rec_steps", "continuant.transfer_factors",
                 "continuant.oracle_max_n", "ring.laurent_mul_calls",
                 "ring.laurent_mul_term_pairs", "cli.out_bytes", "ring.max_bits",
                 "ring.max_laurent_span")

_MODINT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__pow__")
_FRACTION_OPS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__")


def _terms(x) -> int:
    return len(x.terms) if isinstance(x, ring.LaurentPoly) else 1


class Tracer:
    """Installs timing wrappers and accumulates self time, counts and spans."""

    def __init__(self, keep_spans: bool = True):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.command = -1
        # Each frame: [time of wrapped children in ns, span id or None].
        self._stack: list[list] = [[0, None]]
        self._undo: list[tuple] = []
        self._modint_acc = 0

    # --- wrapping ---------------------------------------------------------

    def _timed(self, key: str, fn, on_call=None, span: bool = False):
        stack, self_ns = self._stack, self.self_ns
        spans, clock = self.spans, time.perf_counter_ns
        keep = span and self.keep_spans

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            frame = [0, None]
            if keep:
                frame[1] = len(spans)
                spans.append([key, stack[-1][1], self.command, 0, 0])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[key] += dt - frame[0]
                stack[-1][0] += dt
                if keep:
                    spans[frame[1]][3:] = [t0, t0 + dt]

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every continuants module holding it."""
        for name, module in list(sys.modules.items()):
            if name != "continuants" and not name.startswith("continuants."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _fn(self, fn, key, on_call=None):
        self._patch_function(fn, self._timed(key, fn, on_call, span=True))

    def _method(self, cls, attr, key, on_call=None, span=False):
        self._patch_attr(cls, attr, self._timed(key, cls.__dict__[attr], on_call, span))

    def install(self) -> None:
        counts = self.counts

        def add(key, n):
            counts[key] += n

        def at_least(key, v):
            counts[key] = max(counts[key], v)

        # ring: ModInt (counts come from the program's own modint_ops()).
        for op in _MODINT_OPS:
            self._method(ring.ModInt, op, "ring.modint")
        original_reset = ring.reset_modint_ops

        def reset_and_keep():
            self._modint_acc += ring.modint_ops()
            original_reset()

        self._patch_function(original_reset, reset_and_keep)

        # ring: Laurent polynomials and fractions.
        def on_mul(x, y):
            counts["ring.laurent_mul_calls"] += 1
            counts["ring.laurent_mul_term_pairs"] += _terms(x) * _terms(y)

        for op in ("__mul__", "__rmul__"):
            self._method(ring.LaurentPoly, op, "ring.laurent_mul", on_mul)
        self._method(ring.LaurentPoly, "exact_div", "ring.laurent_exact_div")
        for op in _FRACTION_OPS:
            self._method(ring.LaurentFraction, op, "ring.laurent_fraction")

        # kernels and strategies.
        self._fn(chebyshev.scaled_u_pair, "chebyshev.scaled_u",
                 lambda m, *_: add("chebyshev.scaled_u_steps", max(m, 0)))
        self._patch_attr(mat2.Mat2, "__mul__",
                         self._counted("mat2.mul_calls", mat2.Mat2.__dict__["__mul__"]))
        for fn in (mat2.mat_power_cheb, mat2.mat_power_binexp, mat2.mat_power_naive):
            self._fn(fn, "mat2.power")
        self._fn(continuant.continuant_rec, "continuant.rec",
                 lambda alpha, p, n: add("continuant.rec_steps", max(n, 0)))
        self._fn(continuant.transfer_matrix, "continuant.transfer",
                 lambda alpha, p, n: add("continuant.transfer_factors", max(n, 0)))
        self._fn(continuant.continuant_det_oracle, "continuant.oracle",
                 lambda alpha, p, n: at_least("continuant.oracle_max_n", n))
        self._fn(periodic.period_trace_det, "periodic.trace_det")
        for fn in (periodic.closed_form_klm, periodic.closed_form_klm_minus1,
                   periodic.closed_form_general):
            self._fn(fn, "periodic.closed")
        self._fn(qrational.q_rational, "qrational.q_rational")
        for fn in (qrational.q_fibonacci, qrational.q_fibonacci_closed):
            self._fn(fn, "qrational.q_fibonacci")
        self._fn(quaternion.quat_power_naive, "quaternion.naive")
        self._fn(quaternion.quat_power_cheb, "quaternion.cheb")
        self._fn(bench.run_bench, "bench.run_bench")

        # cli: argv and config parsing.
        original_build = cli.build_parser
        timed_parse = lambda fn: self._timed("cli.parse", fn, span=True)

        def build_parser():
            parser = original_build()
            parser.parse_args = timed_parse(parser.parse_args)
            return parser

        self._patch_function(original_build, timed_parse(build_parser))
        self._fn(cli.load_config, "cli.parse")
        self._fn(cli.parse_config, "cli.parse")
        self._method(cli.AlphaConfig, "to_alpha", "cli.parse", span=True)

        # cli: output formatting, recording the size of every printed value.
        def laurent_size(x):
            if x.terms:
                at_least("ring.max_laurent_span", x.max_exp() - x.min_exp())
                at_least("ring.max_bits", max(abs(c).bit_length() for c in x.terms.values()))

        def fraction_bits(*xs):
            at_least("ring.max_bits", max(max(abs(x.numerator).bit_length(),
                                          x.denominator.bit_length()) for x in xs))

        self._method(ring.LaurentPoly, "__str__", "cli.format", laurent_size)
        self._method(ring.RationalRing, "format", "cli.format",
                     lambda _self, x: fraction_bits(x))
        self._method(ring.ModIntRing, "format", "cli.format",
                     lambda _self, x: at_least("ring.max_bits", x.value.bit_length()))
        self._method(ring.LaurentRing, "format", "cli.format")
        self._method(quaternion.Quaternion, "__str__", "cli.format",
                     lambda q: fraction_bits(q.a, q.b, q.c, q.d))
        self._method(bench.BenchReport, "csv_row", "cli.format")
        self._fn(bench.render_table, "cli.format")
        cli.print = self._timed("cli.format", print)
        self._undo.append((cli, "print", None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # --- results ----------------------------------------------------------

    def finish_modint_count(self) -> None:
        self.counts["ring.modint_ops"] = self._modint_acc + ring.modint_ops()

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``cli.import_ms`` and
        ``trace.overhead_pct``, which need runs of their own."""
        out = {name: self.self_ns[name[:-len("_ms")]] / 1e6
               for name, (unit, *_) in LAYER_METRICS.items()
               if unit == "ms" and name != "cli.import_ms"}
        ops = self.counts["ring.modint_ops"]
        out["ring.modint_ns_per_op"] = self.self_ns["ring.modint"] / ops if ops else 0.0
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        return out


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this command, as a traceback would
            traceback.print_exc()
            code = 1
    return code or 0, out.getvalue()


def replay(commands, cfg_dir: str, tracer: Tracer | None = None):
    """Run one pass in-process; returns (wall seconds, [(code, stdout)])."""
    results = []
    if tracer is not None:
        ring.reset_modint_ops()
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = i
            code, stdout = run_in_process(cmd.argv(cfg_dir))
            # bench prints its own timings, so its byte count is not a count.
            if tracer is not None and cmd.sub != "bench":
                tracer.counts["cli.out_bytes"] += len(stdout.encode())
            results.append((code, stdout))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish_modint_count()
            tracer.uninstall()
    return wall, results


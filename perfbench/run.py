"""Layered CLI benchmark for ``continuants``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload modint-periodic --seed 1 --seconds 55 --trace 0

``--trace 0`` replays the workload's commands as real ``continuants`` CLI
processes in a closed loop (one client, one child process at a time),
interleaving a no-op command (``chebyshev --n 0``) after every
``WORK_PER_NOOP`` workload commands to sample start-up.  After the timed
phase every output is checked against an independent library route
(``check.py``) and the end-to-end metrics are printed.

``--trace 1`` replays one pass of the same commands in-process, alternating
untraced and traced passes, and prints the per-layer metrics (``layers.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record of the run (tail percentile
and sample count, fail ratio, host-noise record, failures) is written to
``perfbench/work/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

WORK_PER_NOOP = 3
SETUP_REPEATS = 3
IMPORT_REPEATS = 7

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


# --- host-noise record (stored beside the metrics, never used to scale them)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "calibration_ms": calibration_ms()}


# --- running CLI commands -----------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, str]:
    """Run one CLI command; returns (seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "continuants.cli", *argv],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=workloads.CMD_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, ""
    return time.perf_counter() - t0, code, out


def setup(name: str, seed: int, cfg_dir: Path, env: dict):
    """Generate the workload, write its configs and warm up the CLI."""
    wl = workloads.generate(name, seed)
    if cfg_dir.exists():
        shutil.rmtree(cfg_dir)
    cfg_dir.mkdir(parents=True)
    for fname, text in wl.config_files().items():
        (cfg_dir / fname).write_text(text, encoding="utf-8")
    # Warm-up only; a command that fails here fails again, and is counted,
    # in the measured phase.
    first_verify = next(c for c in wl.commands if c.sub == "verify")
    for cmd in (workloads.NOOP, first_verify):
        run_cli(cmd.argv(), cfg_dir, env)
    return wl


def failed_outputs(checker, outputs) -> list[str]:
    """One line per (command, exit code, stdout) that exited nonzero or whose
    output fails its check."""
    failures = []
    for cmd, code, out in outputs:
        reason = f"exit {code}" if code != 0 else checker.check(cmd, out)
        if reason:
            failures.append(f"{cmd.label()}: {reason}")
    return failures


def tail_percentile(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile that leaves at least ten samples above it."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(pct * n / 100) - 1], pct


# --- the two modes ------------------------------------------------------------


def end_to_end(args, cfg_dir: Path, env: dict, record: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = setup(args.workload, args.seed, cfg_dir, env)
        setups.append(time.perf_counter() - t0)

    import check
    checker = check.Checker(wl)
    cmds = wl.commands
    runs, noops, timeline = [], [], []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        at = time.perf_counter() - t_start
        if i % (WORK_PER_NOOP + 1) == 0:
            noops.append(run_cli(workloads.NOOP.argv(), cfg_dir, env))
            timeline.append((round(at, 3), -1, round(noops[-1][0] * 1e3, 3)))
        else:
            cmd = cmds[len(runs) % len(cmds)]
            runs.append((cmd, *run_cli(cmd.argv(), cfg_dir, env)))
            timeline.append((round(at, 3), (len(runs) - 1) % len(cmds),
                             round(runs[-1][1] * 1e3, 3)))
        i += 1
    wall = time.perf_counter() - t_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    work_failures = failed_outputs(checker, [(cmd, code, out) for cmd, _, code, out in runs])
    failures = work_failures + failed_outputs(
        checker, [(workloads.NOOP, code, out) for _, code, out in noops])

    attempted = len(runs) + len(noops)
    work_times = [dt for _, dt, _, _ in runs]
    tail, pct = tail_percentile(work_times)
    noop_time = sum(dt for dt, _, _ in noops)
    metrics = {
        "cmd_p50_ms": (statistics.median(work_times) * 1e3, "ms"),
        "cmd_tail_ms": (tail * 1e3, "ms"),
        "cmds_per_s": ((len(runs) - len(work_failures)) / (wall - noop_time), "1/s"),
        "startup_ms": (statistics.median(dt for dt, _, _ in noops) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    record.update({
        "tail_percentile": pct,
        "samples": {"commands": len(runs), "noops": len(noops),
                    "distinct_commands": len(cmds)},
        "fail_ratio": len(failures) / attempted,
        "setup_samples_s": setups,
        "timed_wall_s": wall,
        "commands": [c.label() for c in cmds],
        "timeline": timeline,
    })
    return finish(attempted, failures, metrics, record)


def traced(args, cfg_dir: Path, env: dict, record: dict) -> dict:
    t_begin = time.perf_counter()
    wl = setup(args.workload, args.seed, cfg_dir, env)
    imports = []
    probe = "import time; t = time.perf_counter_ns(); import continuants.cli; " \
            "print(time.perf_counter_ns() - t)"
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cfg_dir,
                             capture_output=True, text=True, check=True).stdout
        imports.append(int(out) / 1e6)

    import check
    import layers
    checker = check.Checker(wl)
    cmds = wl.commands
    failures, attempted = [], 0
    plain_walls, traced_walls, layer_runs = [], [], []
    tracer_kept = None
    while True:
        t_pair = time.perf_counter()
        plain_wall, plain_out = layers.replay(cmds, str(cfg_dir))
        tracer = layers.Tracer(keep_spans=tracer_kept is None)
        traced_wall, traced_out = layers.replay(cmds, str(cfg_dir), tracer)
        outputs = [(cmd, code, out)
                   for cmd, (code, out) in zip(cmds + cmds, plain_out + traced_out)]
        attempted += len(outputs)
        failures += failed_outputs(checker, outputs)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        layer_runs.append(tracer.layer_metrics())
        tracer_kept = tracer_kept or tracer
        pair_s = time.perf_counter() - t_pair
        if time.perf_counter() - t_begin + pair_s > args.seconds:
            break

    counts = {k: layer_runs[0][k] for k in layers.COUNT_METRICS}
    metrics = {}
    for key, (unit, *_rest) in layers.LAYER_METRICS.items():
        if key in counts:
            metrics[key] = (counts[key], unit)
        elif key in layer_runs[0]:
            metrics[key] = (statistics.median(r[key] for r in layer_runs), unit)
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    record.update({
        "passes": len(layer_runs),
        "counts_repeat": all({k: r[k] for k in counts} == counts for r in layer_runs),
        "plain_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "layer_map": {k: {"unit": v[0], "moves": v[1], "work_on": v[2],
                          "little_on": v[3]}
                      for k, v in layers.LAYER_METRICS.items()},
    })
    spans_path = WORK / "runs" / f"{record['id']}.spans.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "command", "start_ns", "end_ns"],
                   "commands": [c.label() for c in cmds],
                   "spans": tracer_kept.spans}, fh)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return finish(attempted, failures, metrics, record)


def finish(attempted: int, failures: list[str], metrics: dict, record: dict) -> dict:
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    record["failures"] = failures
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "continuants" / "cli.py").is_file():
        print(f"error: no continuants sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    cfg_dir = WORK / run_id
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    env = child_env()
    record = {
        "id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"python": platform.python_version(), "cpu": cpu_model(),
                 "nproc": os.cpu_count(), "before": host_snapshot()},
        "guards": {k: {"limit": v[0], "reason": v[1]}
                   for k, v in workloads.GUARDS.items()},
    }
    try:
        mode = traced if args.trace else end_to_end
        result = mode(args, cfg_dir, env, record)
    finally:
        shutil.rmtree(cfg_dir, ignore_errors=True)
    record["host"]["after"] = host_snapshot()
    record["result"] = result
    with open(WORK / "runs" / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"host": record["host"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

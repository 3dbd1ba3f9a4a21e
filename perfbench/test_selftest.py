"""Self-tests of the benchmark itself (not of the library).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_commands_and_configs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [c.label() for c in a.commands] == [c.label() for c in b.commands]
    assert a.config_files() == b.config_files()
    other = workloads.generate(name, 8)
    assert (a.config_files(), [c.label() for c in a.commands]) != \
        (other.config_files(), [c.label() for c in other.commands])


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_stay_inside_guards(name):
    for seed in range(5):
        for cmd in workloads.generate(name, seed).commands:
            p = cmd.params
            if cmd.sub == "bench":
                assert max(p["m_list"]) <= workloads.guard("bench_max_m")
            if cmd.sub == "periodic" and p["strategy"] == "matpow":
                assert p["m"] <= workloads.guard("periodic_matpow_max_m")
            if cmd.sub == "periodic" and p["verify"]:
                assert p["m"] <= workloads.guard("periodic_verify_max_lm")
            if cmd.sub == "continuant" and p["strategy"] == "oracle":
                assert p["n"] <= workloads.guard("oracle_max_n")
            if cmd.sub == "quatpow":
                assert p["n"] <= workloads.guard("quatpow_max_n")
                assert cmd.opts[0].startswith("--q=")


def _run_main(argv, monkeypatch=None, corrupt=None):
    """Run the benchmark in this process; returns its parsed result line."""
    out = io.StringIO()
    if corrupt is not None:
        real = run.run_cli

        def patched(cli_argv, cwd, env):
            dt, code, stdout = real(cli_argv, cwd, env)
            return corrupt(cli_argv, dt, code, stdout)

        monkeypatch.setattr(run, "run_cli", patched)
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_corrupted_output_counts_as_failure(monkeypatch):
    seen = set()

    def corrupt(argv, dt, code, stdout):
        # Flip the last digit of the first periodic output of the timed phase.
        if argv[0] == "periodic" and not seen and stdout:
            seen.add(tuple(argv))
            digit = stdout.rstrip()[-1]
            stdout = stdout.rstrip()[:-1] + ("1" if digit != "1" else "2") + "\n"
        return dt, code, stdout

    result = _run_main(["--workload", "modint-periodic", "--seed", "3",
                        "--seconds", "3", "--trace", "0"], monkeypatch, corrupt)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == \
        (result["attempted"] - 1) / result["attempted"]


def test_timeout_counts_as_failure(monkeypatch):
    def time_out(argv, dt, code, stdout):
        return (dt, -1, "") if argv[0] == "verify" else (dt, code, stdout)

    result = _run_main(["--workload", "exact-growth", "--seed", "3",
                        "--seconds", "2", "--trace", "0"], monkeypatch, time_out)
    assert result["failed"] >= 1


def test_wrappers_reach_every_binding_and_come_off():
    from continuants import chebyshev, mat2, periodic, qrational, quaternion
    holders = (chebyshev, mat2, periodic, qrational, quaternion)
    original = chebyshev.scaled_u_pair
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(m.scaled_u_pair is not original for m in holders)
        assert all(m.scaled_u_pair.__wrapped__ is original for m in holders)
    finally:
        tracer.uninstall()
    assert all(m.scaled_u_pair is original for m in holders)


def _traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = result["metrics"]
    assert set(metrics) == set(layers.LAYER_METRICS)
    return {k: metrics[k]["value"] for k in layers.COUNT_METRICS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert first["cli.out_bytes"] > 0 and first["ring.max_bits"] > 0


def test_refuses_to_run_without_sources():
    bare = BENCH_DIR / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-growth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)

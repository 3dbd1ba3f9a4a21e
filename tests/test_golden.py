"""Golden CLI outputs: every shipped config, byte for byte.

``tests/golden/<config>.json`` maps each command line (config omitted) to
``[exit code, stdout, stderr]``.  The commands cover ``continuant`` for
every strategy, ``periodic`` for every strategy with and without each
in-domain ``--j``, ``periodic --verify`` and ``verify``.

``tests/golden/bench.json`` holds ``bench --csv`` for every ``modint``
config with the ``ns`` column masked, so it pins the digests and the
ring-op counts of every bench strategy.

After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import glob
import io
import json
import os
import sys

import pytest

from continuants.cli import load_config, main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(TESTS), "configs", "*.cfg")))


def golden_commands(l: int) -> list[list[str]]:
    cmds = []
    for strategy in ("oracle", "rec", "transfer"):
        for n in (-1, 0, 1, 5, 9):
            cmds.append(["continuant", "--n", str(n), "--strategy", strategy])
    for strategy in ("closed", "rec", "oracle", "matpow"):
        for m in (0, 1, 5):
            base = ["periodic", "--m", str(m), "--strategy", strategy]
            cmds.append(base)
            cmds.extend(base + ["--j", str(j)] for j in range(-1, l - 1))
    cmds.append(["periodic", "--m", "3", "--verify"])
    cmds.append(["verify"])
    return cmds


def run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def record(path: str) -> dict:
    l = load_config(path).l
    return {" ".join(cmd): run_cli([cmd[0], "--config", path, *cmd[1:]])
            for cmd in golden_commands(l)}


BENCH_GOLDEN = os.path.join(GOLDEN, "bench.json")
BENCH_M_LIST = "0,1,7,300"
MODINT_CONFIGS = [p for p in CONFIGS if os.path.basename(p).startswith("modint_")]


def record_bench(path: str) -> list:
    """``bench --csv`` on ``path`` with the timing column replaced by ``-``."""
    code, out, err = run_cli(["bench", "--config", path, "--m-list", BENCH_M_LIST, "--csv"])
    rows = [line.split(",") for line in out.splitlines()]
    for row in rows[1:]:
        row[3] = "-"
    return [code, "".join(",".join(row) + "\n" for row in rows), err]


def golden_path(path: str) -> str:
    return os.path.join(GOLDEN, os.path.basename(path)[:-len(".cfg")] + ".json")


@pytest.mark.parametrize("path", CONFIGS, ids=[os.path.basename(p) for p in CONFIGS])
def test_cli_output_matches_golden(path):
    with open(golden_path(path), encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = record(path)
    assert list(actual) == list(expected)
    diffs = [cmd for cmd in expected if actual[cmd] != expected[cmd]]
    assert not diffs, [(cmd, expected[cmd], actual[cmd]) for cmd in diffs[:3]]


@pytest.mark.parametrize("path", MODINT_CONFIGS,
                         ids=[os.path.basename(p) for p in MODINT_CONFIGS])
def test_bench_output_matches_golden(path):
    with open(BENCH_GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert record_bench(path) == expected[os.path.basename(path)]


def write_golden(path: str, rows: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in rows.items()) + "\n}\n")
    print(f"{path}: {len(rows)} entries")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.makedirs(GOLDEN, exist_ok=True)
    for cfg in CONFIGS:
        write_golden(golden_path(cfg), record(cfg))
    write_golden(BENCH_GOLDEN, {os.path.basename(cfg): record_bench(cfg)
                                for cfg in MODINT_CONFIGS})

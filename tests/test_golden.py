"""Golden CLI outputs: every shipped config, byte for byte.

``tests/golden/<config>.json`` maps each command line (config omitted) to
``[exit code, stdout, stderr]``.  The commands cover ``continuant`` for
every strategy, ``periodic`` for every strategy with and without each
in-domain ``--j``, ``periodic --verify`` and ``verify``.

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


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.makedirs(GOLDEN, exist_ok=True)
    for cfg in CONFIGS:
        rows = record(cfg)
        with open(golden_path(cfg), "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in rows.items()) + "\n}\n")
        print(f"{golden_path(cfg)}: {len(rows)} commands")

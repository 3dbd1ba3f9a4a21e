"""Import budget of the CLI: each subcommand loads only the modules it runs.

Every command runs in a fresh interpreter, which then lists the
``continuants.*`` and ``dataclasses`` entries of ``sys.modules``.
"""

import os
import subprocess
import sys

import pytest

import continuants

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
MODINT_CFG = os.path.join(REPO, "configs", "modint_l3.cfg")

PROBE = """\
import sys
from continuants.cli import main
code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("continuants.") or m == "dataclasses"]
sys.stderr.write(" ".join(sorted(loaded)) + "\\n")
sys.exit(code)
"""

# Modules no modint periodic/continuant/verify command executes.
UNUSED = {"continuants.qrational", "continuants.quaternion", "continuants.bench",
          "dataclasses"}


def run_fresh(code: str, *argv: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; returns its stderr."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def loaded_after(*argv: str) -> set:
    return set(run_fresh(PROBE, *argv).splitlines()[-1].split())


def test_noop_command_loads_only_cli_ring_and_chebyshev():
    assert loaded_after("chebyshev", "--n", "0") == {
        "continuants.cli", "continuants.ring", "continuants.chebyshev"}


@pytest.mark.parametrize("argv", [
    ["periodic", "--m", "40", "--strategy", "closed"],
    ["periodic", "--m", "40", "--strategy", "rec", "--j", "1"],
    ["periodic", "--m", "40", "--strategy", "matpow", "--verify"],
    ["continuant", "--n", "40", "--strategy", "transfer"],
    ["continuant", "--n", "40", "--strategy", "oracle"],
    ["verify"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_modint_commands_skip_unused_modules(argv):
    loaded = loaded_after(argv[0], "--config", MODINT_CFG, *argv[1:])
    assert "continuants.strategies" in loaded
    assert not loaded & UNUSED


def test_modint_bench_skips_dataclasses():
    loaded = loaded_after("bench", "--config", MODINT_CFG, "--m-list", "3", "--csv")
    assert "continuants.bench" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["qrat", "--r", "13", "--s", "5"],
    ["qfib", "--n", "9"],
], ids=lambda argv: argv[0])
def test_q_commands_load_no_periodic_module(argv):
    # q_fibonacci_closed imports continuants.periodic only when it runs.
    assert loaded_after(*argv) == {f"continuants.{m}" for m in (
        "cli", "ring", "chebyshev", "mat2", "continuant", "qrational")}


@pytest.mark.parametrize("argv", [
    ["qrat", "--r", "13", "--s", "5"],
    ["qfib", "--n", "9"],
    ["quatpow", "--q", "1,-1/2,2,0", "--n", "5"],
], ids=lambda argv: argv[0])
def test_record_commands_skip_dataclasses(argv):
    assert "dataclasses" not in loaded_after(*argv)


def test_all_resolves_name_by_name():
    probe = """\
import sys
import continuants
assert not [m for m in sys.modules if m.startswith("continuants.")]
for name in continuants.__all__:
    getattr(continuants, name)
namespace = {}
exec("from continuants import *", namespace)
assert all(namespace[name] is getattr(continuants, name) for name in continuants.__all__)
assert set(continuants.__all__) <= set(dir(continuants))
"""
    run_fresh(probe)
    with pytest.raises(AttributeError):
        continuants.no_such_name

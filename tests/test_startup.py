"""Import budget of the CLI: each subcommand loads only the modules it runs.

Every command runs in a fresh interpreter, which then lists the
``continuants.*``, ``dataclasses`` and ``typing`` entries of ``sys.modules``.
The interpreter runs with ``-S``: ``site`` runs the ``.pth`` files in
``site-packages``, which may import modules of their own (one that imports
certifi brings in ``typing``), and those would hide what the library itself
imports.
"""

import functools
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
loaded = [m for m in sys.modules
          if m.startswith("continuants.") or m in ("dataclasses", "typing")]
sys.stderr.write(" ".join(sorted(loaded)) + "\\n")
sys.exit(code)
"""

# Modules no modint periodic/continuant/verify command executes.
UNUSED = {"continuants.qrational", "continuants.quaternion", "continuants.bench",
          "dataclasses"}

MODINT_COMMANDS = [
    ["periodic", "--m", "40", "--strategy", "closed"],
    ["periodic", "--m", "40", "--strategy", "rec", "--j", "1"],
    ["periodic", "--m", "40", "--strategy", "matpow", "--verify"],
    ["continuant", "--n", "40", "--strategy", "transfer"],
    ["continuant", "--n", "40", "--strategy", "oracle"],
    ["verify"],
]
MODINT_BENCH = ["bench", "--config", MODINT_CFG, "--m-list", "3", "--csv"]
Q_COMMANDS = [["qrat", "--r", "13", "--s", "5"], ["qfib", "--n", "9"]]
RECORD_COMMANDS = Q_COMMANDS + [["quatpow", "--q", "1,-1/2,2,0", "--n", "5"]]


def with_config(argv: list) -> list:
    return [argv[0], "--config", MODINT_CFG, *argv[1:]]


def command_id(argv: list) -> str:
    return "-".join(a.lstrip("-") for a in argv if not a.endswith(".cfg"))


def run_fresh(code: str, *argv: str) -> str:
    """Run ``code`` in a new interpreter on this checkout; returns its stderr."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


@functools.lru_cache(maxsize=None)  # each command runs once for all the tests below
def loaded_after(*argv: str) -> frozenset:
    return frozenset(run_fresh(PROBE, *argv).splitlines()[-1].split())


def test_noop_command_loads_only_cli_ring_and_chebyshev():
    assert loaded_after("chebyshev", "--n", "0") == {
        "continuants.cli", "continuants.ring", "continuants.kernel", "continuants.chebyshev"}


@pytest.mark.parametrize("argv", MODINT_COMMANDS, ids=command_id)
def test_modint_commands_skip_unused_modules(argv):
    loaded = loaded_after(*with_config(argv))
    assert "continuants.strategies" in loaded
    assert not loaded & UNUSED


def test_modint_bench_skips_dataclasses():
    loaded = loaded_after(*MODINT_BENCH)
    assert "continuants.bench" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", Q_COMMANDS, ids=lambda argv: argv[0])
def test_q_commands_load_no_periodic_module(argv):
    # Neither command runs a periodic strategy; q_fibonacci_closed reads its S pair
    # from chebyshev, so no q route imports continuants.periodic.
    assert loaded_after(*argv) == {f"continuants.{m}" for m in (
        "cli", "ring", "kernel", "chebyshev", "mat2", "continuant", "qrational")}


@pytest.mark.parametrize("argv", RECORD_COMMANDS, ids=lambda argv: argv[0])
def test_record_commands_skip_dataclasses(argv):
    assert "dataclasses" not in loaded_after(*argv)


@pytest.mark.parametrize("argv", [
    ["chebyshev", "--n", "0"], *map(with_config, MODINT_COMMANDS), MODINT_BENCH,
    *RECORD_COMMANDS,
], ids=command_id)
def test_no_command_loads_typing(argv):
    # Every record is a ``ring.Record`` namedtuple, so nothing needs ``typing``.
    assert "typing" not in loaded_after(*argv)


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

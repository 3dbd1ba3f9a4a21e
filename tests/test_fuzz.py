"""Config and CLI fuzzing: no input ends in a traceback.

Any text handed to ``parse_config`` gives an ``AlphaConfig`` or raises
``ConfigError``.  Random well-formed configs run through the evaluation
commands exit 0, or exit 1 with exactly one ``error:`` line on stderr; a
strategy disagreement (``FAIL`` with exit 1 and no ``error:`` line) fails
the test too.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import given, settings, strategies as st

from continuants import LaurentPoly
from continuants.cli import AlphaConfig, ConfigError, main, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(CONFIGS.glob("*.cfg"))]

FUZZ = settings(derandomize=True, max_examples=250, deadline=None)

# --- config text -------------------------------------------------------------

KEYS = st.sampled_from(["ring", "l", "p", "a", "b", "c", "modulus", "ring ", "x", ""])
VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["rational", "laurent", "modint", "0", "1", "-2", "3", "97", "15",
                     "[]", "[1]", "[1, 2]", "[1/0]", "[q, q^-1]", "[2q^ -1]", "[1,]",
                     "1" * 5000, "[" + "9" * 5000 + "]"]))
LINE = st.one_of(st.text(max_size=20), st.builds("{} = {}".format, KEYS, VALUES))


@st.composite
def mutated_config(draw):
    """A shipped config with a few short spans replaced by config-ish text."""
    text = draw(st.sampled_from(CONFIG_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.text("0123456789-+/*^q[],=# \nlpabc", max_size=3)) + text[j:]
    return text


@FUZZ
@given(st.one_of(st.text(), st.lists(LINE, max_size=9).map("\n".join), mutated_config()))
def test_any_text_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, AlphaConfig)


# --- well-formed configs through the CLI ------------------------------------

ELEMENTS = {
    "rational": st.builds(lambda n, d: str(n) if d == 1 else f"{n}/{d}",
                          st.integers(-4, 4), st.integers(1, 3)),
    "laurent": st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)
                 .map(lambda terms: str(LaurentPoly(terms))),
    "modint": st.integers(-10**6, 10**6).map(str),
}


@st.composite
def config_text(draw):
    ring = draw(st.sampled_from(sorted(ELEMENTS)))
    l = draw(st.integers(1, 4))
    lines = [f"ring = {ring}", f"l = {l}", f"p = {draw(st.integers(-3, 3))}"]
    if ring == "modint" and draw(st.booleans()):
        lines.append(f"modulus = {draw(st.sampled_from([3, 5, 7, 97, 2**61 - 1]))}")
    row = st.lists(ELEMENTS[ring], min_size=l, max_size=l)
    lines += [f"{key} = [{', '.join(draw(row))}]" for key in "abc"]
    draw(st.randoms()).shuffle(lines)
    return "\n".join(lines) + "\n"


def _opt(draw, flag, values):
    return [flag, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def command(draw):
    sub = draw(st.sampled_from(["continuant", "periodic", "verify", "bench"]))
    if sub == "continuant":
        return [sub, "--n", str(draw(st.integers(-2, 14))),
                "--strategy", draw(st.sampled_from(["oracle", "rec", "transfer"]))]
    if sub == "periodic":
        return [sub, "--m", str(draw(st.integers(-1, 5))),
                "--strategy", draw(st.sampled_from(["closed", "rec", "oracle", "matpow"])),
                *_opt(draw, "--j", st.integers(-2, 3)),
                *(["--verify"] if draw(st.booleans()) else [])]
    if sub == "verify":
        return [sub, "--n-max", str(draw(st.integers(0, 5))),
                "--m-max", str(draw(st.integers(0, 3)))]
    m_list = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    return [sub, "--m-list", ",".join(map(str, m_list)), "--csv"]


@FUZZ
@given(config_text(), command())
def test_well_formed_configs_exit_cleanly(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--config", str(path), *argv[1:]])
    errors = err.getvalue().splitlines()
    if code == 0:
        assert errors == []
    else:
        assert code == 1 and len(errors) == 1 and errors[0].startswith("error: "), (
            text, argv, out.getvalue(), errors)

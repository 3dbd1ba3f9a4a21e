"""``k_vector`` is the one recurrence pass for a continuant pair.

One ``kernel._three_term`` pass of length n leaves (K_n(p), K_{n-1}(p+1));
``continuant_rec`` reads its top entry, and every caller that needs both
entries (``q_rational``, the closed form's one-period pair, the ``verify``
identities) reads them from one pass.  The kernel is called only from
``k_vector`` and ``scaled_u_pair``, so counting its calls in ``continuant``
and ``chebyshev`` counts every pass a command makes.
"""

import os
import random
import sys
from fractions import Fraction

import pytest

from conftest import q_fibonacci_parity, rand_alpha, rand_laurent, rand_modint
from continuants import ModInt, PeriodicAlpha, closed_form_general, continuant_rec, k_vector
from continuants import chebyshev, cli, continuant, kernel, strategies
from continuants.mat2 import Mat2
from continuants.qrational import q_fibonacci_closed
from continuants.ring import LaurentPoly, modint_ops, reset_modint_ops
from test_startup import run_fresh

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _modint_alpha(rng, l):
    return PeriodicAlpha(*([rand_modint(rng, 97) for _ in range(l)] for _ in "abc"))


def _laurent_alpha(rng, l):
    return PeriodicAlpha(*([rand_laurent(rng) for _ in range(l)] for _ in "abc"))


RINGS = {"rational": rand_alpha, "laurent": _laurent_alpha, "modint": _modint_alpha}


@pytest.mark.parametrize("argv, passes", [
    (["verify", "--config", "modint_l3.cfg"], 142),
    (["verify", "--config", "laurent_l3.cfg"], 150),
    (["qrat", "--r", "1393", "--s", "985"], 1),
    (["periodic", "--config", "rational_l4_basic.cfg", "--m", "3", "--j", "2"], 2),
    (["bench", "--config", "modint_l3.cfg", "--m-list", "1,2", "--csv"], 8),
], ids=["verify-modint", "verify-laurent", "qrat", "periodic-j2", "bench"])
def test_kernel_passes_per_command(argv, passes, monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel._three_term(*args)

    monkeypatch.setattr(continuant, "_three_term", counting)
    monkeypatch.setattr(chebyshev, "_three_term", counting)
    argv = [os.path.join(CONFIGS, a) if a.endswith(".cfg") else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == passes


@pytest.mark.parametrize("config, products", [
    ("modint_l3.cfg", 79), ("laurent_l3.cfg", 79), ("rational_l4_basic.cfg", 113),
])
def test_verify_mat2_products_per_config(config, products, monkeypatch, capsys):
    # trace/det and matpow-periods read their references off one running
    # transfer product, extended factor by factor from its first factor.
    calls = []
    mul = Mat2.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    assert cli.main(["verify", "--config", os.path.join(CONFIGS, config)]) == 0
    capsys.readouterr()
    assert len(calls) == products


@pytest.mark.parametrize("config", sorted(f for f in os.listdir(CONFIGS) if f.endswith(".cfg")))
def test_verify_oracle_runs_per_config(config, monkeypatch, capsys):
    # recurrence=oracle runs the oracle once per p in the period and per n in
    # -1..8; no other identity runs it.
    calls = []
    oracle = strategies.continuant_det_oracle

    def counting(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(strategies, "continuant_det_oracle", counting)
    path = os.path.join(CONFIGS, config)
    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()
    assert len(calls) == 10 * cli.load_config(path).l


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_closed_form_makes_two_passes_and_no_continuant_rec_call(ring_name, monkeypatch):
    # One S pair and one one-period k_vector pass at every offset j (a
    # zero-step pass for the column (1, 0) at m = 0); the offset step reads
    # A_j, so no continuant_rec pass is left.
    alpha = RINGS[ring_name](random.Random(74), 4)
    cases = [(m, j) for m in range(4) for j in range(-1, 3)]
    expected = {(m, j): continuant_rec(alpha, 1 - j, 4 * m + j) for m, j in cases}
    passes, rec_calls = [], []

    def counting(*args):
        passes.append(args)
        return kernel._three_term(*args)

    def counting_rec(*args):
        rec_calls.append(args)
        return continuant_rec(*args)

    monkeypatch.setattr(continuant, "_three_term", counting)
    monkeypatch.setattr(chebyshev, "_three_term", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("continuants.") and vars(module).get("continuant_rec") is continuant_rec:
            monkeypatch.setattr(module, "continuant_rec", counting_rec)
    for m, j in cases:
        passes.clear()
        assert closed_form_general(alpha, 1, m, j) == expected[m, j], (m, j)
        assert len(passes) == (1 if m == 0 else 2), (m, j)
    assert rec_calls == []


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_k_vector_is_the_recurrence_pair(ring_name):
    rng = random.Random(71)
    for l in range(1, 5):
        alpha = RINGS[ring_name](rng, l)
        for p in range(alpha.base, alpha.base + l):
            for n in range(3 * l + 3):
                expected = (continuant_rec(alpha, p, n), continuant_rec(alpha, p + 1, n - 1))
                assert k_vector(alpha, p, n) == expected, (l, p, n)


def test_k_vector_charges_one_pass():
    alpha = _modint_alpha(random.Random(72), 3)
    for n in range(10):
        reset_modint_ops()
        k_vector(alpha, 1, n)
        assert modint_ops() == 4 * n


def test_negative_lengths():
    alpha = _modint_alpha(random.Random(73), 2)
    with pytest.raises(ValueError):
        k_vector(alpha, 1, -1)
    zero = continuant_rec(alpha, 1, -1)
    assert type(zero) is ModInt and zero == 0 and zero.modulus == 97
    rational = PeriodicAlpha([Fraction(1, 2), 3], [Fraction(2), 1], [Fraction(-1, 3)] * 2)
    assert type(continuant_rec(rational, 1, -1)) is Fraction


def test_q_fibonacci_closed_matches_the_recurrence():
    for n in range(1, 301):
        assert q_fibonacci_closed(n) == q_fibonacci_parity(n), n


def test_q_fibonacci_closed_reads_one_s_pair(monkeypatch):
    passes, products = [], []

    def counting(*args):
        passes.append(args)
        return kernel._three_term(*args)

    def counted(name, mul):
        def wrapped(self, other):
            products.append(name)
            return mul(self, other)
        return wrapped

    monkeypatch.setattr(continuant, "_three_term", counting)
    monkeypatch.setattr(chebyshev, "_three_term", counting)
    monkeypatch.setattr(Mat2, "__mul__", counted("Mat2", Mat2.__mul__))
    for op in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, op, counted("LaurentPoly", getattr(LaurentPoly, op)))
    for n in (1, 2, 7, 700):
        passes.clear()
        q_fibonacci_closed(n)
        assert len(passes) == 1, n
    assert products == []
    probe = """\
import sys
from continuants.qrational import q_fibonacci_closed
q_fibonacci_closed(9)
sys.stderr.write(str("continuants.periodic" in sys.modules))
"""
    assert run_fresh(probe) == "False"
    for n in (0, -1):
        with pytest.raises(ValueError, match="start at n = 1"):
            q_fibonacci_closed(n)

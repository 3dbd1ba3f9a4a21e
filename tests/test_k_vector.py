"""``k_vector`` is the one recurrence pass for a continuant pair.

One ``ring._three_term`` pass of length n leaves (K_n(p), K_{n-1}(p+1));
``continuant_rec`` reads its top entry, and every caller that needs both
entries (``q_rational``, the closed form's one-period pair, the ``verify``
identities) reads them from one pass.  The kernel is called only from
``k_vector`` and ``scaled_u_pair``, so counting its calls in ``continuant``
and ``chebyshev`` counts every pass a command makes.
"""

import os
import random
from fractions import Fraction

import pytest

from conftest import q_fibonacci_parity, rand_alpha, rand_laurent, rand_modint
from continuants import ModInt, PeriodicAlpha, continuant_rec, k_vector
from continuants import chebyshev, cli, continuant, ring
from continuants.qrational import q_fibonacci_closed
from continuants.ring import modint_ops, reset_modint_ops

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _modint_alpha(rng, l):
    return PeriodicAlpha(*([rand_modint(rng, 97) for _ in range(l)] for _ in "abc"))


def _laurent_alpha(rng, l):
    return PeriodicAlpha(*([rand_laurent(rng) for _ in range(l)] for _ in "abc"))


RINGS = {"rational": rand_alpha, "laurent": _laurent_alpha, "modint": _modint_alpha}


@pytest.mark.parametrize("argv, passes", [
    (["verify", "--config", "modint_l3.cfg"], 157),
    (["verify", "--config", "laurent_l3.cfg"], 165),
    (["qrat", "--r", "1393", "--s", "985"], 1),
    (["periodic", "--config", "rational_l4_basic.cfg", "--m", "3", "--j", "2"], 4),
    (["bench", "--m-list", "1,2", "--csv"], 8),
], ids=["verify-modint", "verify-laurent", "qrat", "periodic-j2", "bench"])
def test_kernel_passes_per_command(argv, passes, monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return ring._three_term(*args)

    monkeypatch.setattr(continuant, "_three_term", counting)
    monkeypatch.setattr(chebyshev, "_three_term", counting)
    argv = [os.path.join(CONFIGS, a) if a.endswith(".cfg") else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == passes


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
    for n in range(1, 61):
        assert q_fibonacci_closed(n) == q_fibonacci_parity(n), n

"""The Laurent branch of the three-term kernel ``ring._three_term``.

Tables of ``LaurentPoly`` and int entries, at least one a ``LaurentPoly``,
run on Kronecker-packed ints when their exponent support is dense on its
stride: each value is one Python int with a ``W``-bit signed slot per
exponent ``lo_k + g i``, ``W`` comes from a 1-norm bound on the two
results, and each step's exponent floor keeps every shift non-negative.
Sparse tables, whose empty slots would cost more than the object loop's
terms, stay on the object loop.  Either path must equal what dict
arithmetic gives: the one-period ``transfer_matrix`` product (``Mat2`` over
``LaurentPoly``), whose first column is the ``k_vector`` pair, and an int
recurrence on constant tables whose values reach the 1-norm bound exactly,
so a slot one bit too narrow for the sign fails.  No packed pass calls
``LaurentPoly.__mul__``.
"""

import hashlib

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from continuants import LaurentPoly, PeriodicAlpha, k_vector, transfer_matrix
from continuants.chebyshev import scaled_u_pair
from continuants.cli import main
from continuants import ring
from continuants.ring import _packed_laurent, _three_term, parse_laurent

FUZZ = settings(derandomize=True, max_examples=200, deadline=None)

# Negative exponents, signed coefficients and the zero polynomial (empty map).
LAURENT = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(LaurentPoly)
ENTRY = st.one_of(LAURENT, LAURENT, st.integers(-3, 3))
STEPS = st.integers(0, 40)
# Far-apart exponents: strides above 1, and supports too sparse to pack.
SPARSE = st.dictionaries(st.sampled_from([-10**6, -300, -2, 0, 1, 3, 500, 10**5, 10**6]),
                         st.integers(-5, 5), max_size=3).map(LaurentPoly)


def has_laurent(*xs):
    return any(isinstance(x, LaurentPoly) for x in xs)


@st.composite
def laurent_alphas(draw, entry=ENTRY):
    l = draw(st.integers(1, 4))
    a, b, c = ([draw(entry) for _ in range(l)] for _ in "abc")
    assume(has_laurent(*a, *b, *c))
    return PeriodicAlpha(a, b, c)


def first_column(alpha, p, n):
    """(K_n(p), K_{n-1}(p+1)) from the dict-arithmetic transfer product."""
    m = transfer_matrix(alpha, p, n)
    return m.a, m.c


@FUZZ
@given(alpha=laurent_alphas(), offset=st.integers(0, 3), n=STEPS)
@example(alpha=PeriodicAlpha([0, LaurentPoly({1: 2})], [LaurentPoly({-3: 1}), 2], [1, -1]),
         offset=0, n=40)                                                   # zero a_k
@example(alpha=PeriodicAlpha([LaurentPoly({-2: -3, 0: 1})], [LaurentPoly()], [LaurentPoly({1: 1})]),
         offset=0, n=40)                                                   # zero b_k
@example(alpha=PeriodicAlpha([LaurentPoly({-1: 1}), 1], [LaurentPoly({2: -1}), 1], [0, -1]),
         offset=1, n=39)                                                   # zero c_k
@example(alpha=PeriodicAlpha([0], [LaurentPoly({0: 2})], [0]), offset=0, n=40)  # x_k = 0
def test_k_vector_matches_transfer_matrix(alpha, offset, n):
    p = alpha.base + offset
    value = k_vector(alpha, p, n)
    assert value == first_column(alpha, p, n)
    assert [type(x) for x in value] == [LaurentPoly, LaurentPoly]


@FUZZ
@given(alpha=laurent_alphas(st.one_of(SPARSE, LAURENT, st.integers(-3, 3))),
       n=st.integers(0, 20))
@example(alpha=PeriodicAlpha([LaurentPoly({10**6: 1, 1: 1})], [1], [1]), n=20)  # object loop
@example(alpha=PeriodicAlpha([LaurentPoly({10**5: 1, 0: 1})], [1], [1]), n=20)  # stride 10^5
@example(alpha=PeriodicAlpha([LaurentPoly({1: 1, -1: 1})], [-1], [1]), n=20)    # stride 2
def test_sparse_and_strided_tables_match_transfer_matrix(alpha, n):
    value = k_vector(alpha, alpha.base, n)
    assert value == first_column(alpha, alpha.base, n)
    assert [type(x) for x in value] == [LaurentPoly, LaurentPoly]


@FUZZ
@given(t=ENTRY, d=ENTRY, m=STEPS)
@example(t=LaurentPoly({-1: 1, 0: 1, 1: 1}), d=1, m=40)                    # q-Fibonacci period
@example(t=LaurentPoly({-1: 1, 1: -2}), d=-1, m=40)
@example(t=3, d=LaurentPoly({-2: 1, 0: -1}), m=40)
def test_s_pair_on_int_mixed_tables(t, d, m):
    assume(has_laurent(t, d))
    value = scaled_u_pair(m, t, d)
    assert value == first_column(PeriodicAlpha([t], [d], [1]), 1, m)
    assert [type(x) for x in value] == [LaurentPoly, LaurentPoly]


@pytest.mark.parametrize("a, e, s", [
    (-3, -5, 0), (3, -5, 0),        # x_k = +-3 x_{k-1} + 5 x_{k-2}
    (-3, -5, 1), (3, -5, -1),       # the same on monomials: a q^s, e q^2s
    (-255, 0, 0), (255, 0, 2),      # zero e; |x_1| = 255 fills 8 bits
    (-1, -1, 0), (1, -1, -1),       # Fibonacci, with and without signs
])
def test_constant_tables_reach_the_bound(a, e, s):
    """|x_k| equals the 1-norm bound N_k, so a slot without a sign bit fails."""
    table_a, table_e = [LaurentPoly({s: a})], [LaurentPoly({2 * s: e})]
    x_prev, x, n_prev, n = 0, 1, 0, 1
    for steps in range(41):
        assert abs(x) == n
        expected = LaurentPoly({steps * s: x}), LaurentPoly({(steps - 1) * s: x_prev})
        assert _three_term(table_a, table_e, None, steps) == expected, steps
        x_prev, x = x, a * x - e * x_prev
        n_prev, n = n, abs(a) * n + abs(e) * n_prev


def scaled(t: LaurentPoly, g: int) -> LaurentPoly:
    """t(q^g)."""
    return LaurentPoly({g * x: c for x, c in t.terms.items()})


@pytest.mark.parametrize("g", [2, 7, 10**5, 10**9])
def test_strided_tables_pack_on_the_stride(g):
    """a = q^g + 1 packs one slot per exponent g i, as q + 1 does, and gives
    the q + 1 values at q^g; a slot per exponent would take about g W bits."""
    a, e = [parse_laurent("q + 1")], [LaurentPoly({0: 1})]
    sparse_a = [scaled(a[0], g)]
    packed = _packed_laurent(sparse_a, e, 100)
    assert packed is not None
    assert packed == tuple(scaled(x, g) for x in _three_term(a, e, None, 100))


@pytest.mark.parametrize("text, packs", [
    ("q^1000000 + q", False),           # about n^2 / 2 terms spread over n 10^6 exponents
    ("q^100000 + q^3 + 1", False),
    ("q + q^-1", True),                # stride 2
    ("-3*q^-2 + 3 - 3*q^2", True),     # dense, as every shipped config is
    ("q^20 + q", True),                # clusters of nearby terms
])
def test_sparse_support_stays_on_the_object_loop(text, packs):
    """The path follows the exponent support, and both give the same values."""
    a, e = [parse_laurent(text)], [LaurentPoly({0: 1})]
    packed = _packed_laurent(a, e, 60)
    assert (packed is not None) == packs
    assert _three_term(a, e, None, 60) == first_column(PeriodicAlpha(a, e, [1]), 1, 60)


def test_stride_pre_pass_reads_each_entrys_floor_once(monkeypatch):
    """The stride is the gcd of exponent differences from each entry's floor,
    which is found once per entry: an entry of 10^4 terms costs one ``min``
    over its terms, not one per term.  The entry still packs."""
    n, steps = 10**4, 2
    a, e = [LaurentPoly(dict.fromkeys(range(n), 1))], [LaurentPoly({0: 1})]
    calls = []

    def counted_min(*args, **kwargs):
        calls.append(1)
        return min(*args, **kwargs)

    monkeypatch.setattr(ring, "min", counted_min, raising=False)
    packed = _packed_laurent(a, e, steps)
    assert len(calls) <= 2 * len(a) + steps  # each entry's floors, and one per step
    square = {k: min(k + 1, 2 * n - 1 - k) for k in range(2 * n - 1)}  # [n]_q^2
    square[0] -= 1
    assert packed == (LaurentPoly(square), a[0])


def test_laurent_passes_never_call_laurent_mul(monkeypatch):
    """Every product is a shift-and-add on packed ints, for every length; a
    sparse table's object loop is what calls ``LaurentPoly.__mul__``."""
    calls = []
    mul = LaurentPoly.__mul__

    def counted_mul(self, other):
        calls.append(1)
        return mul(self, other)

    q = LaurentPoly({1: 1})
    t, d = q + LaurentPoly({0: 2}), q.shift(-2) - LaurentPoly({0: 1})
    alpha = PeriodicAlpha([t, 3, q.shift(-1)], [d, q, 2], [q, -1, LaurentPoly({0: -1})])
    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted_mul)
    for m in range(41):
        scaled_u_pair(m, t, d)
        scaled_u_pair(m, t, 1)
        k_vector(alpha, 1, m)
        k_vector(alpha, 2, m)
    assert calls == []
    scaled_u_pair(3, parse_laurent("q^1000000 + q"), 1)
    assert len(calls) == 2 * 3  # the object loop's t*S and d*S' per step


#: The exact-growth benchmark's seed-1 ``L1.cfg``.
L1_CFG = """ring = laurent
l = 1
p = 1
a = [-3*q^-2 + 3 - 3*q^2]
b = [-1]
c = [2*q^-1]
"""


@pytest.mark.parametrize("argv, digest", [
    (["qfib", "--n", "741"],
     "9df112e231a93e3aabf2866b765ac10c090408984ff9219da1ad6d8ac71572c0"),
    (["periodic", "--config", "L1.cfg", "--m", "141", "--strategy", "rec"],
     "f4a6e79c8354d76a36ac4ac2b113e3383eb0f7f21f23f5f71b4473d8de9dc544"),
], ids=["qfib-741", "periodic-rec-L1-141"])
def test_benchmark_size_outputs_are_pinned(argv, digest, tmp_path, capsys):
    """sha256 of stdout, recorded from the dict-arithmetic loops before packing."""
    cfg = tmp_path / "L1.cfg"
    cfg.write_text(L1_CFG, encoding="utf-8")
    assert main([str(cfg) if x == "L1.cfg" else x for x in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

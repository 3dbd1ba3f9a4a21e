"""Continuant polynomials of periodic coefficient data.

A continuant K_n is the determinant of the n x n tridiagonal matrix with
diagonal a_p..a_{p+n-1}, superdiagonal b_p..b_{p+n-2} and subdiagonal
c_p..c_{p+n-2}, extended by K_{-1} = 0, K_0 = 1.  Four routes compute it:

* ``continuant_det_oracle`` builds the matrix's band and runs fraction-free
  Bareiss elimination (structurally independent of the cofactor
  recurrence it validates; ``det_leibniz`` is a brute-force second oracle
  for small sizes),
* ``k_vector`` runs the three-term recurrence
  K_n = a_p K_{n-1}(shifted) - b_p c_p K_{n-2}(shifted twice) iteratively,
  one pass giving (K_n(p), K_{n-1}(p+1)); ``continuant_rec`` reads K_n,
* ``transfer_products`` is the one running product of the 2x2 factors
  L(a, -bc) = [[a, -bc], [1, 0]], each product encoding four consecutive
  continuants; ``transfer_matrix`` reads its item n,
* the closed forms for periodic data live in :mod:`continuants.periodic`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, count, islice, permutations

from .kernel import _three_term
from .mat2 import Mat2
from .ring import Record, exact_div, field_div, ring_one, ring_zero


class PeriodicAlpha(Record, namedtuple("PeriodicAlpha", "a b c base l")):
    """Period-l triple of coefficient arrays with a base index.

    Lookups wrap: ``a_at(m)`` returns ``a[(m - base) % l]``, so the
    sequences are l-periodic over all integers, negative included.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, base: int = 1):
        a, b, c = tuple(a), tuple(b), tuple(c)
        if not a or len(a) != len(b) or len(a) != len(c):
            raise ValueError("a, b, c must be nonempty lists of equal length")
        return super().__new__(cls, a, b, c, base, len(a))

    def __getnewargs__(self):  # copy, pickle and ``_make`` rebuild through __new__
        return self[:4]

    def a_at(self, m: int):
        return self.a[(m - self.base) % self.l]

    def b_at(self, m: int):
        return self.b[(m - self.base) % self.l]

    def c_at(self, m: int):
        return self.c[(m - self.base) % self.l]

    def one(self):
        return ring_one(self.a[0])

    def zero(self):
        return ring_zero(self.a[0])

    def __repr__(self):
        return (f"PeriodicAlpha(a={list(self.a)}, b={list(self.b)}, "
                f"c={list(self.c)}, base={self.base})")


def continuant_rec(alpha: PeriodicAlpha, p: int, n: int):
    """K_n with base index p by the three-term recurrence, O(n) ring ops.

    The first entry of ``k_vector(alpha, p, n)``; K_{-1}(p) = 0 is the second
    entry of ``k_vector(alpha, p - 1, 0)``, in the ring the tables run in.
    """
    if n < -1:
        raise ValueError("continuants are defined for n >= -1")
    return k_vector(alpha, p, n)[0] if n >= 0 else k_vector(alpha, p - 1, 0)[1]


def k_vector(alpha: PeriodicAlpha, p: int, n: int) -> tuple:
    """(K_n(alpha_p), K_{n-1}(alpha_{p+1})) from one recurrence pass, O(n) ring ops.

    Step j computes K_j(base p + n - j) = a*K_{j-1} - b*c*K_{j-2}; the last
    two steps leave the pair.  K_{-2} is undefined, so n >= 0.
    """
    if n < 0:
        raise ValueError("k_vector needs n >= 0")
    # Step j reads index p + n - j: walk the period backwards from p + n - 1.
    top = p + n - 1 - alpha.base
    backward = lambda xs: [xs[(top - i) % alpha.l] for i in range(alpha.l)]
    return _three_term(backward(alpha.a), backward(alpha.b), backward(alpha.c), n)


def tridiagonal_matrix(alpha: PeriodicAlpha, p: int, n: int) -> list[dict]:
    """The n x n tridiagonal matrix T_n(alpha_p) as its band, 3n - 2 cells.

    Row i is the ``{column: value}`` map of its band entries.  The diagonal
    entry is stored even when zero, so ``rows[0][0]`` names the ring.
    """
    rows = [{i: alpha.a_at(p + i)} for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = alpha.b_at(p + i)
        rows[i + 1][i] = alpha.c_at(p + i)
    return rows


def det_bareiss(rows: list[dict]):
    """Fraction-free Bareiss determinant over an exact integral domain.

    Each row is a ``{column: value}`` map; absent entries are zero, and the
    stored ``rows[0][0]`` names the ring.  Step k, with pivot ``p_k = m_kk``
    (a row swap finds a nonzero one) and ``p_{-1} = 1``, sets
    ``m_ij <- (m_ij p_k - m_ik m_kj) / p_{k-1}`` for i, j > k.  Only rows
    with an entry in column k are updated: any other row would just be
    scaled by ``p_k / p_{k-1}``.  Those factors telescope to
    ``p_{k-1} / p_s`` for a row last brought to ``p_s``, so the row keeps
    ``s`` and catches up, one multiply and one ``exact_div`` per entry,
    when it is next read: as pivot row, as eliminated row or as the final
    entry.  A swap carries the index with the row.  A tridiagonal matrix
    thus costs O(n) exact divisions; the algorithm stays fully general.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no ring to supply det = 1")
    zero = ring_zero(rows[0][0])
    m = [{j: v for j, v in r.items() if v != zero} for r in rows]
    pivots = [ring_one(rows[0][0])]  # p_{-1}, p_0, ...: step k divides by pivots[k]
    at = [0] * n  # row i is scaled to pivots[at[i]]
    sign_flip = False

    def caught_up(i, k):
        if at[i] != k:
            m[i] = {j: exact_div(v * pivots[k], pivots[at[i]]) for j, v in m[i].items()}
            at[i] = k
        return m[i]

    for k in range(n - 1):
        if k not in m[k]:
            i = next((i for i in range(k + 1, n) if k in m[i]), None)
            if i is None:
                return zero
            m[k], m[i], at[k], at[i] = m[i], m[k], at[i], at[k]
            sign_flip = not sign_flip
        rk = caught_up(k, k)
        pivot, prev = rk.pop(k), pivots[k]
        for i in range(k + 1, n):
            if k in m[i]:
                ri = caught_up(i, k)
                mik = ri.pop(k)
                row = {}
                for j in ri.keys() | rk.keys():
                    v = exact_div(ri.get(j, zero) * pivot - mik * rk.get(j, zero), prev)
                    if v != zero:
                        row[j] = v
                m[i], at[i] = row, k + 1
        pivots.append(pivot)
    result = caught_up(n - 1, n - 1).get(n - 1, zero)
    return -result if sign_flip else result


#: Largest n ``det_leibniz`` accepts: it enumerates n! permutations, each
#: with O(n^2) inversion counting, so n = 9 is 362,880 terms.
LEIBNIZ_MAX_N = 9


def det_leibniz(rows: list[dict]):
    """Determinant by the full n!-term Leibniz sum (second oracle, n <= LEIBNIZ_MAX_N).

    Rows are ``{column: value}`` maps, as ``det_bareiss`` takes them.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix has no ring to supply det = 1")
    if n > LEIBNIZ_MAX_N:
        raise ValueError(f"the Leibniz oracle refuses n = {n} > LEIBNIZ_MAX_N = {LEIBNIZ_MAX_N}")
    zero = ring_zero(rows[0][0])
    total = zero
    for perm in permutations(range(n)):
        # Parity by counting inversions.
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        term = ring_one(rows[0][0])
        for i in range(n):
            v = rows[i].get(perm[i], zero)
            if v == zero:
                term = zero
                break
            term = term * v
        if term == zero:
            continue
        total = total + term if inv % 2 == 0 else total - term
    return total


#: Largest n the oracle accepts.  It stores the 3n - 2 cells of the band and
#: makes O(n) ring operations on them, but its entries grow with n.  At
#: n = 500 (CPython 3.11, shared 2-vCPU x86 host, in-process, median of 5)
#: ``rational_l3_basic.cfg`` takes 41 ms and ``modint_l3.cfg`` 41 ms, with
#: allocation peaks of 0.37 and 0.34 MiB; ``laurent_l3.cfg`` takes about 48 s
#: (one run) with a 17.7 MiB peak, since its entries grow to degree n.
ORACLE_MAX_N = 500


def continuant_det_oracle(alpha: PeriodicAlpha, p: int, n: int):
    """K_n as a Bareiss determinant of the tridiagonal band, n <= ORACLE_MAX_N."""
    if n < -1:
        raise ValueError("continuants are defined for n >= -1")
    if n > ORACLE_MAX_N:
        raise ValueError(f"the oracle refuses n = {n} > ORACLE_MAX_N = {ORACLE_MAX_N}")
    if n == -1:
        return alpha.zero()
    if n == 0:
        return alpha.one()
    return det_bareiss(tridiagonal_matrix(alpha, p, n))


def transfer_products(alpha: PeriodicAlpha, p: int):
    """A_0(p), A_1(p), A_2(p), ...: left-to-right products of the factors
    [[a_i, -b_i c_i], [1, 0]], i >= p, each the last times one factor.

    A_0 is the identity (empty product), which keeps the shift identity
    uniform at m = 0; the products then start from the first factor, so
    reaching A_n costs n - 1 multiplications.
    """
    one, zero = alpha.one(), alpha.zero()
    yield Mat2(one, zero, zero, one)
    yield from accumulate((Mat2(alpha.a_at(i), -(alpha.b_at(i) * alpha.c_at(i)), one, zero)
                           for i in count(p)), Mat2.__mul__)


def transfer_matrix(alpha: PeriodicAlpha, p: int, n: int) -> Mat2:
    """Left-to-right product of the n factors [[a_i, -b_i c_i], [1, 0]], i >= p.

    Item n of ``transfer_products``: the product starts from the first
    factor, so n factors cost n - 1 multiplications; n = 0 yields the
    identity (empty product), which keeps the shift identity uniform at
    m = 0.
    """
    if n < 0:
        raise ValueError("transfer_matrix needs n >= 0")
    return next(islice(transfer_products(alpha, p), n, None))


def shift_check(alpha: PeriodicAlpha, p: int, n: int, m: int) -> bool:
    """Check k_{n+1}(p) == A_m(p) * k_{n+1-m}(p+m), all via the recurrence."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return k_vector(alpha, p, n + 1) == transfer_matrix(alpha, p, m).apply(
        k_vector(alpha, p + m, n + 1 - m))


def cf_eval(alpha: PeriodicAlpha, p: int, n: int):
    """Evaluate a_p + b_p/(a_{p+1} + b_{p+1}/(... + b_{p+n-2}/a_{p+n-1})).

    Requires every c to equal -1 (the continued-fraction specialization)
    and a field-capable ring; the value equals K_n(p) / K_{n-1}(p+1).
    Raises ``ZeroDivisionError`` naming the level of any vanishing
    intermediate denominator.
    """
    if n < 1:
        raise ValueError("cf_eval needs n >= 1")
    neg_one = -alpha.one()
    if any(c != neg_one for c in alpha.c):
        raise ValueError("cf_eval requires every c to be -1")
    value = alpha.a_at(p + n - 1)
    for i in range(n - 2, -1, -1):
        try:
            tail = field_div(alpha.b_at(p + i), value)
        except ZeroDivisionError:
            raise ZeroDivisionError(
                f"zero denominator at continued-fraction level {i}"
            ) from None
        value = alpha.a_at(p + i) + tail
    return value

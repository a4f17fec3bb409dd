"""Chebyshev's table in integer pairs against the Fraction table it replaced.

``_fraction_chebyshev`` and ``_fraction_pi_at_zero`` are verbatim copies of
the routines that kept alpha_k, beta_k, the row scales and q_j as Fractions.
The pair table must give the same integer rows and, entry for entry, the
same rationals, each pair in lowest terms with a positive denominator.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import MomentSequence, NegativeEntryError, TwoSidedMomentSequence
from treeshift.moments import _chebyshev, _pi_at_zero
from treeshift.rationals import ONE, ZERO


def _fraction_chebyshev(t, n: int):
    den = math.lcm(*(x.denominator for x in t))
    # a row -1 of (1, 0, 0, ...) with scale 1 makes the first step the general one
    row0 = [x.numerator * (den // x.denominator) for x in t]
    rows, dens = [[1] + [0] * len(t), row0], [1, Fraction(den)]
    alpha, beta = [], []
    while len(rows) <= n + 1 and rows[-1][0] > 0:
        v, u = rows[-2:]   # u0 v0 D_k sigma_{k+1,l} = u0 v0 u_{l+1} - (u1 v0 - v1 u0) u_l - u0^2 v_l
        a, b, c = u[0] * v[0], u[1] * v[0] - v[1] * u[0], u[0] * u[0]
        alpha.append(Fraction(b, a))
        beta.append(Fraction(u[0], v[0]) * dens[-2] / dens[-1])
        nxt = [a * y - b * x - c * z for x, y, z in zip(u[1:], u[2:], v[2:])]
        g = math.gcd(*nxt) or 1
        rows.append([x // g for x in nxt])
        dens.append(a * dens[-1] / g)
    return rows[1:], dens[1:], alpha, beta


def _fraction_pi_at_zero(table, n: int) -> list:
    _, _, alpha, beta = table
    q = [ZERO, ONE]   # q_{-1}, q_0, q_1, ...
    for a, b in zip(alpha[:n], beta):
        q.append(a * q[-1] - b * q[-2])
    return q[2:]


def quarters(lo, hi):
    return st.integers(lo, hi).map(lambda k: Fraction(k, 4))


@st.composite
def shaped_prefixes(draw):
    """(shape, t_0..t_N): moments of a measure with more atoms than the form's order
    ("definite"), with at most N // 2 atoms, perhaps one at 0 ("finite_rank"), a definite
    prefix with t_{2k} lowered past h_k ("negative_pivot"), or rationals of either sign."""
    shape = draw(st.sampled_from(("definite", "finite_rank", "negative_pivot", "arbitrary")))
    N = draw(st.integers(2 if shape == "finite_rank" else 0, 14))
    if shape == "arbitrary":
        return shape, draw(st.lists(st.one_of(st.just(ZERO), quarters(-12, 12)),
                                    min_size=N + 1, max_size=N + 1))
    rank = draw(st.integers(1, max(1, N // 2))) if shape == "finite_rank" else N // 2 + 1
    where = draw(st.lists(quarters(1, 40), min_size=rank, max_size=rank, unique=True))
    if shape == "finite_rank" and draw(st.booleans()):
        where[0] = ZERO
    mass = draw(st.lists(st.integers(1, 16).map(lambda k: Fraction(k, 8)), min_size=rank, max_size=rank))
    t = [sum(w * x ** j for x, w in zip(where, mass)) for j in range(N + 1)]
    if shape == "negative_pivot":
        # lowering t_{2k} by d lowers h_k by d and leaves h_0..h_{k-1} alone
        k = draw(st.integers(0, N // 2))
        rows, dens = _fraction_chebyshev(t, N // 2)[:2]
        t[2 * k] -= rows[k][0] / dens[k] + Fraction(draw(st.integers(1, 9)), 16)
    return shape, t


@given(shaped_prefixes(), st.integers(0, 9))
@settings(max_examples=400, deadline=None)
def test_pair_table_matches_the_fraction_table(case, extra):
    shape, t = case
    N = len(t) - 1
    n = (N + extra % 2) // 2   # the rows that (t_{i+j}) or (t_{i+j+1}) reads
    rows, dens, alpha, beta = _chebyshev(t, n)
    ref_rows, ref_dens, ref_alpha, ref_beta = _fraction_chebyshev(t, n)
    assert rows == ref_rows
    assert len(dens) == len(ref_dens) and len(alpha) == len(ref_alpha) and len(beta) == len(ref_beta)
    pairs = list(alpha) + list(beta) + list(dens)
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in pairs)
    assert [Fraction(*x) for x in alpha] == ref_alpha
    assert [Fraction(*x) for x in beta] == ref_beta
    # an all-zero row (a finite-rank stop) has no meaningful scale, and nothing reads it
    assert [Fraction(*d) for d, row in zip(dens, rows) if any(row)] == \
        [d for d, row in zip(ref_dens, rows) if any(row)]
    q, ref_q = _pi_at_zero((rows, dens, alpha, beta), n), _fraction_pi_at_zero(
        (ref_rows, ref_dens, ref_alpha, ref_beta), n)
    assert all(y > 0 and math.gcd(x, y) == 1 for x, y in q)
    assert [Fraction(*x) for x in q] == ref_q
    if shape == "definite":
        assert all(row[0] > 0 for row in rows[:N // 2 + 1])
    elif shape == "finite_rank":
        assert rows[-1][0] == 0 and not any(rows[-1])
    elif shape == "negative_pivot":
        assert rows[-1][0] < 0


def _fraction_first_negative(values, lo=0, strict=False):
    """(index, value) of the first entry the Fraction comparison rejects, or None."""
    for i, v in enumerate(values):
        if (v <= 0 if strict else v < 0):
            return lo + i, v
    return None


entries = st.one_of(quarters(-6, 6), st.just(ZERO), st.floats(-3, 3, allow_nan=False),
                    st.just(0.0), st.just(-0.0), st.integers(-3, 3))


@given(st.lists(entries, min_size=1, max_size=8), st.integers(-7, 0))
@settings(max_examples=400, deadline=None)
def test_sequence_validation_reads_signs_like_fraction_comparison(values, lo):
    want = _fraction_first_negative(values)
    if want is None:
        seq = MomentSequence(tuple(values))
        assert seq.exact == all(isinstance(v, Fraction) for v in values)
    else:
        with pytest.raises(NegativeEntryError) as err:
            MomentSequence(tuple(values))
        assert (err.value.index, err.value.value) == want and type(err.value.value) is type(want[1])
    lo = max(lo, 1 - len(values))
    want = _fraction_first_negative(values, lo, strict=True)
    if want is None:
        assert TwoSidedMomentSequence(lo, tuple(values)).exact == all(isinstance(v, Fraction) for v in values)
    else:
        with pytest.raises(NegativeEntryError) as err:
            TwoSidedMomentSequence(lo, tuple(values))
        assert (err.value.index, err.value.value) == want and "strictly positive" in str(err.value)

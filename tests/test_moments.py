import importlib.util
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from unittest import mock
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    MeasureRecoveryError,
    MomentSequence,
    NegativeEntryError,
    TwoSidedMomentSequence,
    WindowTooSmallError,
    ZeroEntryError,
    carleman_partial_sum,
    determinacy_verdict,
    moments_of,
    recover_atomic_measure,
    represent,
    stieltjes_check,
    two_sided_stieltjes_check,
)
from treeshift import moments
from treeshift.moments import (
    _chebyshev,
    _form_violation,
    _pi_at_zero,
    _qd_columns,
    _shifted_proven,
    _wall_det,
    _window_proven,
    _witness_from_indices,
    det_exact,
    hankel_matrix,
    psd_violation_exact,
)
from conftest import DELTA1, random_measure


def seq(*values):
    return MomentSequence.coerce(values)


class TestStieltjesCheck:
    def test_all_ones_consistent(self):
        v = stieltjes_check(seq(1, 1, 1, 1, 1))
        assert v.kind == "consistent"
        assert v.upto == 4

    def test_1212_violated_with_witness(self):
        v = stieltjes_check(seq(1, 2, 1, 2))
        assert v.violated
        assert v.witness.order == 1
        assert v.witness.det == -3
        assert v.witness.entries == ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))

    def test_shifted_form_catches_1121(self):
        v = stieltjes_check(seq(1, 1, 2, 1))
        assert v.violated
        assert v.witness.kind == "hankel_shifted"
        assert v.witness.det == -3

    def test_uniform_density_moments(self):
        v = stieltjes_check(seq("1", "1/2", "1/3", "1/4", "1/5"))
        assert v.kind == "consistent"

    def test_negative_entry_raises(self):
        with pytest.raises(NegativeEntryError):
            stieltjes_check([1, -1, 1])

    def test_hilbert_exact_high_order(self):
        values = [Fraction(1, n + 1) for n in range(13)]
        v = stieltjes_check(values)
        assert v.kind == "consistent"
        assert v.upto == 12

    def test_float_mode(self):
        v = stieltjes_check([1.0, 2.0, 1.0, 2.0], mode="float")
        assert v.violated
        assert v.witness.min_eigenvalue < 0

    def test_float_mode_names_an_entry_beyond_float_range(self):
        # a ValueError naming the entry, as the document loader gives, not an OverflowError
        t = [1, 1, 2, 10 ** 400]
        with pytest.raises(ValueError, match=r"^t_3 does not fit a float$"):
            stieltjes_check(t, mode="float")
        with pytest.raises(ValueError, match=r"^t_3 does not fit a float$"):
            recover_atomic_measure(t, 2, mode="float")
        ts = TwoSidedMomentSequence(-1, (Fraction(10 ** 400), Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(ValueError, match=r"^t_-1 does not fit a float$"):
            two_sided_stieltjes_check(ts, mode="float")

    def test_zero_measure_moments(self):
        v = stieltjes_check(seq(1, 0, 0, 0, 0))
        assert v.kind == "consistent"

    def test_soundness_on_random_measures(self):
        rng = random.Random(3)
        for _ in range(30):
            mu = random_measure(rng)
            values = [moments_of(mu, n) for n in range(11)]
            assert not stieltjes_check(values).violated

    def test_reciprocal_moments_order_160_consistent(self):
        # Beta(1, 1) moments: the qd rhombus is positive, and Chebyshev's table proves
        # both forms positive definite in O(N^2)
        values = [Fraction(1, n + 1) for n in range(161)]
        assert _rhombus_positive(values) and _window_proven(values)
        v = stieltjes_check(values)
        assert v.kind == "consistent"
        assert v.upto == 160

    def test_monotone_refutation(self):
        base = [Fraction(1), Fraction(2), Fraction(1), Fraction(2)]
        assert stieltjes_check(base).violated
        for tail in ([1], [100, 100], [Fraction(1, 7)] * 5):
            extended = base + [Fraction(x) for x in tail]
            assert stieltjes_check(extended).violated


class TestTwoSided:
    def test_constant_ones(self):
        ts = TwoSidedMomentSequence.from_map({n: Fraction(1) for n in range(-5, 6)})
        v = two_sided_stieltjes_check(ts, 5)
        assert v.kind == "consistent"
        assert v.shifts_checked == tuple(range(6))

    def test_geometric(self):
        ts = TwoSidedMomentSequence.from_map({n: Fraction(2) ** n for n in range(-5, 6)})
        assert two_sided_stieltjes_check(ts, 5).kind == "consistent"

    def test_embedded_bad_pattern(self):
        values = {-1: Fraction(1), 0: Fraction(1), 1: Fraction(2), 2: Fraction(1), 3: Fraction(2)}
        ts = TwoSidedMomentSequence.from_map(values)
        v = two_sided_stieltjes_check(ts, 1)
        assert v.violated
        assert v.witness.two_sided_shift is not None

    def test_window_too_small(self):
        ts = TwoSidedMomentSequence.from_map({n: Fraction(1) for n in range(-2, 3)})
        with pytest.raises(WindowTooSmallError):
            two_sided_stieltjes_check(ts, 5)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(NegativeEntryError):
            TwoSidedMomentSequence.from_map({-1: Fraction(1), 0: Fraction(0), 1: Fraction(1)})


class TestRecovery:
    def test_two_atoms(self):
        m = recover_atomic_measure(seq("1", "5/2", "17/2", "65/2"), 2)
        assert m.atoms == ((Fraction(1), Fraction(1, 2)), (Fraction(4), Fraction(1, 2)))

    def test_rank_one(self):
        m = recover_atomic_measure(seq(1, 1, 1, 1), 2)
        assert m.atoms == DELTA1.atoms

    def test_no_representing_measure(self):
        # H_2 = [[1, 2], [2, 1]] is indefinite: its second pivot is h_1 = 1 - 4
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(seq(1, 2, 1, 2), 2)
        assert exc.value.reason == "negative_mass"
        assert "h_1 = -3 < 0" in str(exc.value)

    def test_three_atoms_with_bound_two(self):
        mu = AtomicMeasure.from_atoms([(1, "1/3"), (2, "1/3"), (3, "1/3")])
        values = [moments_of(mu, n) for n in range(6)]
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(values, 2)
        assert exc.value.reason == "rank_deficient"

    def test_atom_at_zero(self):
        m = recover_atomic_measure(seq(1, 0, 0, 0), 2)
        assert m.atoms == ((Fraction(0), Fraction(1)),)

    def test_needs_enough_moments(self):
        with pytest.raises(ValueError):
            recover_atomic_measure(seq(1, 1, 1), 2)

    def test_float_mode_roundtrip(self):
        mu = AtomicMeasure.from_atoms([(0.5, 0.25), (3.0, 0.75)])
        values = [float(moments_of(mu, n)) for n in range(6)]
        m = recover_atomic_measure(values, 3, mode="float")
        assert len(m.atoms) == 2
        assert math.isclose(float(m.atoms[0][0]), 0.5, rel_tol=1e-7)
        assert math.isclose(float(m.atoms[1][1]), 0.75, rel_tol=1e-7)

    def test_exact_roundtrip_randomized(self):
        rng = random.Random(11)
        for _ in range(25):
            mu = random_measure(rng)
            values = [moments_of(mu, n) for n in range(2 * len(mu.atoms))]
            rec = recover_atomic_measure(values, len(mu.atoms))
            assert rec.atoms == mu.atoms

    def test_large_prime_constant_term_is_bounded(self):
        # kernel polynomial x^2 - a x + b with b = 10**24 + 7 and two irrational roots:
        # divisor enumeration of b would need 10**12 trial divisions; the exact route
        # proves the measure and rounds both atoms to floats
        script = (
            "from fractions import Fraction as F\n"
            "from treeshift import MeasureRecoveryError, recover_atomic_measure\n"
            "a, b = 3 * 10 ** 12, 10 ** 24 + 7\n"
            "t = [F(1), F(a, 2)]\n"
            "while len(t) < 6:\n"
            "    t.append(a * t[-1] - b * t[-2])\n"
            "try:\n"
            "    rec = recover_atomic_measure(t, 3)\n"
            "    print(len(rec.atoms), 'exact' if rec.is_exact() else 'floating')\n"
            "except MeasureRecoveryError as exc:\n"
            "    print(exc.reason)\n"
        )
        import treeshift

        src = str(Path(treeshift.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "2 floating"

    def test_large_coefficient_roots_are_exact(self):
        # the integer kernel polynomial (4 x - 5)(10**5 x - 10**11 - 3) has a constant term
        # above 5 * 10**11, far past any divisor search, yet both roots are rational
        mu = AtomicMeasure.from_atoms([("5/4", "1/4"), (Fraction(10 ** 11 + 3, 10 ** 5), "3/4")])
        values = [moments_of(mu, n) for n in range(4)]
        rec = recover_atomic_measure(values, 2)
        assert rec.is_exact()
        assert rec.atoms == mu.atoms

    def test_repeated_location_is_rank_deficient(self):
        # the kernel polynomial of H_2 = [[1, 2], [2, 3]] is (x - 1)^2, a repeated location;
        # H_2 is nonsingular but indefinite (h_1 = 3 - 4), which already rules out every measure
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(seq(1, 2, 3, 4), 2)
        assert exc.value.reason == "negative_mass"
        assert "h_1 = -1 < 0" in str(exc.value)

    def test_gauss_legendre_prefixes(self):
        # t_n = 1/(n+1) for n < 2 count are the moments of the count-point Gauss-Legendre
        # rule on [0, 1]: positive masses at irrational nodes in (0, 1)
        import numpy as np

        for count in (20, 30):
            rec = recover_atomic_measure([Fraction(1, n + 1) for n in range(2 * count)], count)
            nodes, weights = np.polynomial.legendre.leggauss(count)
            assert len(rec.atoms) == count and not rec.is_exact()
            for (x, w), wx, ww in zip(rec.atoms, (nodes + 1) / 2, weights / 2):
                assert abs(x - wx) <= 1e-12 and abs(w - ww) <= 1e-12

    def test_five_atoms_with_bound_four(self):
        mu = AtomicMeasure.from_atoms([("2/5", 3), ("3/2", "3/4"), ("16/7", "1/2"),
                                       ("28/3", "3/4"), (39, 4)])
        values = [moments_of(mu, n) for n in range(12)]
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(values, 4)
        assert exc.value.reason == "rank_deficient"
        assert "disagree at order 8" in str(exc.value)
        assert represent(values, 4) is None

    def test_represent_checks_whole_prefix(self):
        mu = AtomicMeasure.from_atoms([(1, "1/2"), (4, "1/2")])
        values = [moments_of(mu, n) for n in range(8)]
        assert represent(values, 2).atoms == mu.atoms
        values[-1] += 1
        assert represent(values, 2) is None


class TestCarleman:
    def test_all_ones(self):
        assert carleman_partial_sum(seq(*([1] * 11)), 10) == pytest.approx(10.0)

    def test_factorial_squared(self):
        values = [Fraction(math.factorial(n)) ** 2 for n in range(5)]
        s = carleman_partial_sum(values, 4)
        expected = 1 + 2 ** -0.5 + 6 ** (-1 / 3) + 24 ** -0.25
        assert s == pytest.approx(expected, rel=1e-12)
        assert s == pytest.approx(2.710, abs=1e-3)

    def test_fast_growth_stays_bounded(self):
        values = [Fraction(4) ** (n * n) for n in range(31)]
        s = carleman_partial_sum(values, 30)
        assert s < 1.0  # terms are 2**-n

    def test_zero_entry(self):
        with pytest.raises(ZeroEntryError):
            carleman_partial_sum(seq(1, 1, 0, 1), 3)


class TestDeterminacy:
    def test_atomic_measure(self):
        v = determinacy_verdict(AtomicMeasure.from_atoms([(1, "1/2"), (4, "1/2")]))
        assert v.kind == "determinate_exact"

    def test_prefix_evidence(self):
        v = determinacy_verdict(seq(*([1] * 51)))
        assert v.kind == "carleman_evidence"
        assert v.partial_sum == pytest.approx(50.0)
        assert v.terms == 50

    def test_weak_evidence_reported_honestly(self):
        values = [Fraction(4) ** (n * n) for n in range(20)]
        v = determinacy_verdict(values)
        assert v.kind == "carleman_evidence"
        assert v.partial_sum < 1.0

    def test_vanishing_entries(self):
        v = determinacy_verdict(seq(1, 0, 0))
        assert v.kind == "unknown"


@given(st.lists(st.fractions(min_value=0, max_value=100, max_denominator=20), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_violation_is_stable_under_extension(values):
    verdict = stieltjes_check(values)
    if verdict.violated:
        assert stieltjes_check(list(values) + [Fraction(1)]).violated


@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_det_and_solve_agree_by_cramers_rule(n, rnd):
    a = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    b = [Fraction(rnd.randint(-4, 4)) for _ in range(n)]
    det = det_exact(a)
    if det == 0:
        return
    # Cramer's rule with det_exact solves A x = b
    x = [det_exact([row[:i] + [bi] + row[i + 1:] for row, bi in zip(a, b)]) / det for i in range(n)]
    assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b


# -- the quotient-difference pass against the elimination ----------------------------


def quarters(lo, hi):
    return st.integers(lo, hi).map(lambda k: Fraction(k, 4))


eighths = st.integers(1, 16).map(lambda k: Fraction(k, 8))


@st.composite
def rational_prefixes(draw):
    """t_0..t_N: moments of a measure with enough atoms (plain) or few (atomic),
    with one entry perturbed, with zeros, or arbitrary nonnegative rationals."""
    N = draw(st.integers(min_value=0, max_value=12))
    shape = draw(st.sampled_from(("plain", "atomic", "perturbed", "zeros", "arbitrary")))
    if shape == "arbitrary":
        return draw(st.lists(quarters(0, 20), min_size=N + 1, max_size=N + 1))
    rank = draw(st.integers(1, max(1, N // 2))) if shape == "atomic" else N // 2 + 2
    where = draw(st.lists(quarters(0, 20), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(N + 1)]
    if shape == "perturbed":
        i = draw(st.integers(0, N))
        t[i] = max(Fraction(0), t[i] + Fraction(draw(st.integers(-18, 18)), 9))
    elif shape == "zeros":
        for i in draw(st.sets(st.integers(0, N), min_size=1)):
            t[i] = Fraction(0)
    return t


def _forms(values):
    N = len(values) - 1
    return (("hankel", 0, N // 2 + 1), ("hankel_shifted", 1, (N - 1) // 2 + 1))


def _eliminate_both_forms(values, shift=None):
    """The witness the elimination alone finds in (t_{i+j}), then (t_{i+j+1}), or None."""
    for kind, offset, size in _forms(values):
        matrix = hankel_matrix(values, offset, size)
        bad = psd_violation_exact(matrix)
        if bad is not None:
            return _witness_from_indices(kind, values, offset, bad, shift)
    return None


def _rhombus_positive(t):
    """t_0 > 0 and every entry of the whole qd rhombus of t_0..t_N positive."""
    cols = list(_qd_columns(t))
    return t[0] > 0 and len(cols) == len(t) - 1 and all(p > 0 for col in cols for p, _ in col)


@given(rational_prefixes())
@settings(max_examples=150, deadline=None)
def test_qd_pass_iff_leading_minors_positive(values):
    # every c_j > 0 exactly when both forms are positive definite (Wall 1948), the
    # property that lets _wall_det take a leading minor's determinant from the rhombus
    minors = [det_exact(hankel_matrix(values, offset, k))
              for _, offset, size in _forms(values) for k in range(1, size + 1)]
    assert _rhombus_positive(values) == all(d > 0 for d in minors)


@given(rational_prefixes())
@settings(max_examples=150, deadline=None)
def test_stieltjes_check_matches_elimination(values):
    verdict = stieltjes_check(values)
    witness = _eliminate_both_forms(tuple(values))
    assert verdict.kind == ("violated" if witness else "consistent")
    assert verdict.witness == witness


@st.composite
def two_sided_windows(draw):
    """t_{-K}..t_N of an atomic measure on (0, inf), one entry possibly rescaled."""
    K = draw(st.integers(0, 4))
    N = draw(st.integers(0, 8))
    rank = draw(st.integers(1, 5))
    where = draw(st.lists(quarters(1, 16), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    values = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(-K, N + 1)]
    i = draw(st.integers(0, K + N))
    values[i] *= draw(st.sampled_from((Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))))
    return TwoSidedMomentSequence(-K, tuple(values))


@given(two_sided_windows())
@settings(max_examples=100, deadline=None)
def test_two_sided_check_matches_per_shift_elimination(ts):
    K = -ts.lo
    verdict = two_sided_stieltjes_check(ts)
    for k in range(K + 1):
        witness = _eliminate_both_forms(ts.shifted(k).values, shift=k)
        if witness is not None:
            break
    assert verdict.witness == witness
    assert verdict.kind == ("violated" if witness else "consistent")
    assert verdict.shifts_checked == tuple(range(k + 1))


def _full_schur_violation(matrix):
    """psd_violation_exact's diagonal-pivoting elimination, updating every entry."""
    idx = list(range(len(matrix)))
    a = [list(row) for row in matrix]
    pivots = []
    while idx:
        m = len(idx)
        for r in range(m):
            if a[r][r] < 0:
                return tuple(sorted(pivots + [idx[r]]))
        p = next((r for r in range(m) if a[r][r] > 0), None)
        if p is None:
            for r in range(m):
                for c in range(r + 1, m):
                    if a[r][c] != 0:
                        return tuple(sorted(pivots + [idx[r], idx[c]]))
            return None
        keep = [r for r in range(m) if r != p]
        a = [[a[r][c] - a[r][p] * a[c][p] / a[p][p] for c in keep] for r in keep]
        pivots.append(idx[p])
        idx = [idx[r] for r in keep]
    return None


@given(rational_prefixes(), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_symmetric_schur_update_matches_full_update(values, offset):
    size = (len(values) - offset + 1) // 2
    matrix = hankel_matrix(values, offset, size)
    assert psd_violation_exact(matrix) == _full_schur_violation(matrix)


# -- finite-rank proofs, diagonal-first exits, window rhombus, symmetric determinant --


@st.composite
def finite_rank_prefixes(draw):
    """Moments t_0..t_N of a measure with 1..N//2 atoms, perhaps one at 0, and that prefix
    with one entry past the first 2 * atoms nudged up or down (or None)."""
    N = draw(st.integers(min_value=2, max_value=14))
    rank = draw(st.integers(1, N // 2))
    where = draw(st.lists(quarters(1, 20), min_size=rank, max_size=rank, unique=True))
    if draw(st.booleans()):
        where[0] = Fraction(0)
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(N + 1)]
    nudged = None
    if 2 * rank <= N and draw(st.booleans()):
        nudged = list(t)
        i = draw(st.integers(2 * rank, N))
        nudged[i] = max(Fraction(0), nudged[i] + Fraction(draw(st.sampled_from((-3, -1, 1, 3))), 64))
    return t, nudged


def _without_elimination():
    """Make any call of psd_violation_exact by stieltjes_check fail the test."""
    return mock.patch.object(moments, "psd_violation_exact",
                             side_effect=AssertionError("the elimination ran"))


@given(finite_rank_prefixes())
@settings(max_examples=150, deadline=None)
def test_finite_rank_proof_matches_elimination(case):
    t, nudged = case
    # an exact atomic prefix stops Chebyshev's table at h_rank = 0 with sigma_rank zero
    # through t_N, and the table proves both forms PSD from the recurrence of pi_rank,
    # with no elimination
    rows = _chebyshev(t, (len(t) + 1) // 2)[0]
    assert rows[-1][:1] == [0] and not any(rows[-1])
    with _without_elimination():
        assert stieltjes_check(t).kind == "consistent"
    assert _eliminate_both_forms(t) is None
    if nudged is not None:
        verdict = stieltjes_check(nudged)
        witness = _eliminate_both_forms(tuple(nudged))
        assert verdict.kind == ("violated" if witness else "consistent")
        assert verdict.witness == witness


def small_symmetric_matrices(max_size=6):
    """Symmetric matrices of small rationals, with many zeros (zero diagonals included)."""
    entry = st.one_of(st.just(Fraction(0)), quarters(-8, 8))
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda upper, n=n: _symmetric_from_upper(n, upper)))


def _symmetric_from_upper(n, upper):
    a = [[None] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(it)
    return a


@given(small_symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_diagonal_first_exit_matches_full_steps(matrix):
    assert psd_violation_exact(matrix) == _full_schur_violation(matrix)


@st.composite
def full_rank_windows(draw):
    """t_{-W}..t_N of a measure with more atoms than the window resolves (or fewer),
    perhaps with a lighter mirror of its lowest atom below 0 (a Hamburger window),
    one entry possibly rescaled or the last one nudged, and a K in 0..W."""
    W = draw(st.integers(0, 5))
    N = draw(st.integers(0, 8))
    rank = draw(st.integers(1, 10))
    where = draw(st.lists(quarters(1, 24), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    if draw(st.booleans()):
        low, w = min(zip(where, mass))
        where.append(-low)
        mass.append(w / 2)
    values = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(-W, N + 1)]
    if draw(st.booleans()):
        i = draw(st.integers(0, W + N))
        values[i] *= draw(st.sampled_from((Fraction(1), Fraction(1, 3), Fraction(3, 2))))
    else:   # past a finite-rank form's last entry: only the other form sees it
        values[-1] += draw(st.sampled_from((Fraction(-1, 64), Fraction(1, 64))))
        assume(values[-1] > 0)
    return TwoSidedMomentSequence(-W, tuple(values)), draw(st.integers(0, W))


@given(full_rank_windows())
@settings(max_examples=300, deadline=None)
def test_window_rhombus_matches_per_shift_loop(case):
    # the window's table proof must claim only windows whose every shift the
    # elimination passes, and the check must agree with the elimination shift by shift
    ts, K = case
    verdict = two_sided_stieltjes_check(ts, K)
    for k in range(K + 1):
        one = stieltjes_check(ts.shifted(k))
        witness = _eliminate_both_forms(ts.shifted(k).values, shift=k)
        assert one.witness == (None if witness is None else replace(witness, two_sided_shift=None))
        if witness is not None:
            break
    assert verdict.witness == witness
    assert verdict.kind == ("violated" if witness else "consistent")
    assert verdict.shifts_checked == tuple(range(k + 1))
    if _window_proven(ts.shifted(K).values):
        assert witness is None


def test_window_rhombus_decides_a_positive_definite_window():
    # Beta(13, 2) moments on [0, 1] with their negative moments down to t_{-10}:
    # every shift is positive definite, so the one table of (t_{-10}, ...) decides the window
    p, q = Fraction(13), Fraction(2)
    values = [Fraction(1)]
    for k in range(30):
        values.append(values[-1] * (p + k) / (p + q + k))
    neg = [Fraction(1)]
    for j in range(1, 11):
        neg.append(neg[-1] * (p + q - j) / (p - j))
    ts = TwoSidedMomentSequence(-10, tuple(neg[:0:-1] + values))
    assert _window_proven(ts.shifted(10).values)
    with mock.patch.object(moments, "_violation", side_effect=AssertionError("a shift was checked")):
        verdict = two_sided_stieltjes_check(ts)
    assert verdict.kind == "consistent"
    assert verdict.shifts_checked == tuple(range(11))


def test_window_stopped_at_a_zero_pivot_is_refused_on_its_table():
    # atoms 1/2 and 3 (masses 1 and 2) with t_0 raised by 10^-6: the longest shift's
    # table stops at h_2 = 0 with a nonzero sigma row, which refuses the window proof
    # without the O(r n^2) elimination; the per-shift loop then finds the witness
    K = 60
    values = [Fraction(1, 2) ** n + 2 * Fraction(3) ** n for n in range(-K, 21)]
    values[K] += Fraction(1, 10 ** 6)
    ts = TwoSidedMomentSequence(-K, tuple(values))
    longest = ts.shifted(K).values
    rows = _chebyshev(longest, (len(longest) + 1) // 2)[0]
    assert len(rows) == 3 and rows[2][0] == 0 and any(rows[2])
    with _without_elimination():
        assert not _window_proven(longest)
    verdict = two_sided_stieltjes_check(ts, K)
    assert (verdict.kind, verdict.shifts_checked) == ("violated", (0, 1))
    w = verdict.witness
    assert (w.kind, w.indices, w.two_sided_shift) == ("hankel", (0, 1, 2), 1)
    assert w.det == Fraction(-700000433, 8000000000000)


def _bareiss_det(matrix):
    """sympy's Bareiss determinant, or None when sympy is not installed."""
    if importlib.util.find_spec("sympy") is None:
        return None
    import sympy

    return Fraction(str(sympy.Matrix(matrix).det(method="bareiss")))


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="the reference needs sympy")
@given(small_symmetric_matrices(max_size=7))
@settings(max_examples=200, deadline=None)
def test_det_exact_matches_bareiss(matrix):
    assert det_exact(matrix) == _bareiss_det(matrix)


def test_det_exact_on_hankel_witnesses():
    # the 1/(n+1) Hankel form of order 9 (det = c_9^4 / c_18, c_n = prod_{i<n} i!),
    # a zero leading pivot, and a negative 2 x 2 minor
    hilbert = hankel_matrix([Fraction(1, n + 1) for n in range(17)], 0, 9)
    c = [math.prod(math.factorial(i) for i in range(n)) for n in range(19)]
    assert det_exact(hilbert) == Fraction(c[9] ** 4, c[18])
    assert det_exact([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert _witness_from_indices("hankel", [1, 2, 1], 0, (0, 1)).det == -3


def test_odd_stop_needs_a_recurrence_without_constant_term():
    # t_3 = 0: the table proves (t_{i+j}) positive definite (h_0, h_1 > 0), but
    # q_2 = pi_2(0) < 0 makes det (t_{i+j+1}) = det H_2 * q_2 < 0, so the table proves
    # nothing about the shifted form, nor the window, and the prefix is violated
    t = [Fraction(9, 2), Fraction(9), Fraction(54), Fraction(0)]
    bad, table = _form_violation(t, 2)
    assert bad is None and all(row[0] > 0 for row in table[0][:2])
    assert _pi_at_zero(table, 2)[-1][0] < 0   # an integer pair p / q, q > 0
    assert not _shifted_proven(table, 3) and not _window_proven(t)
    verdict = stieltjes_check(t)
    assert verdict.violated and verdict.witness == _eliminate_both_forms(t)


# -- one Chebyshev table per check: Schur sums, pi_j(0) signs, Wall's determinant ----------


@st.composite
def table_prefixes(draw):
    """t_0..t_N: arbitrary; atomic with one entry perturbed, perhaps with an atom at 0;
    atomic with an entry past 2 * rank moved (a zero pivot with a nonzero sigma row),
    perhaps t_0 = 0; or any of these at odd N."""
    shape = draw(st.sampled_from(("arbitrary", "perturbed", "atom_at_0", "zero_pivot")))
    N = draw(st.integers(0, 13))
    if draw(st.booleans()):
        N |= 1
    if shape == "arbitrary":
        return draw(st.lists(quarters(0, 12), min_size=N + 1, max_size=N + 1))
    rank = draw(st.integers(1, N // 2 + 2))
    where = draw(st.lists(quarters(1, 16), min_size=rank, max_size=rank, unique=True))
    if shape == "atom_at_0":
        where[0] = Fraction(0)
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(N + 1)]
    if shape == "zero_pivot" and 2 * rank < N:
        i = draw(st.integers(2 * rank + 1, N))
        t[i] = max(Fraction(0), t[i] + Fraction(draw(st.sampled_from((-3, -1, 1, 3))), 64))
        if draw(st.booleans()):
            t[0] = Fraction(0)
    elif shape != "zero_pivot" and draw(st.booleans()):
        i = draw(st.integers(0, N))
        t[i] = max(Fraction(0), t[i] + Fraction(draw(st.integers(-18, 18)), 9))
    return t


@given(table_prefixes())
@settings(max_examples=300, deadline=None)
def test_table_decides_each_form_like_the_elimination(values):
    N = len(values) - 1
    for kind, offset, size in _forms(values)[:1 + (N >= 1)]:
        matrix = hankel_matrix(values, offset, size)
        want = psd_violation_exact(matrix)
        assert _form_violation(values[offset:])[0] == want
        if want is not None:
            sub = [[matrix[r][c] for c in want] for r in want]
            det = _witness_from_indices(kind, values, offset, want).det
            assert det == det_exact(sub) and _bareiss_det(sub) in (None, det)


@given(table_prefixes())
@settings(max_examples=300, deadline=None)
def test_pi_at_zero_signs_prove_the_shifted_form(values):
    N = len(values) - 1
    assume(N >= 1)
    proven = _shifted_proven(_chebyshev(values, (N + 1) // 2), N)
    if proven:
        assert psd_violation_exact(hankel_matrix(values, 1, (N + 1) // 2)) is None
    minors = [det_exact(hankel_matrix(values, offset, k))
              for _, offset, size in _forms(values) for k in range(1, size + 1)]
    if all(d > 0 for d in minors):
        assert proven


@given(finite_rank_prefixes())
@settings(max_examples=150, deadline=None)
def test_atomic_prefixes_are_proven_on_one_table(case):
    t, _ = case
    N = len(t) - 1
    assert _form_violation(t)[0] is None
    assert _shifted_proven(_chebyshev(t, (N + 1) // 2), N)


@given(finite_rank_prefixes(), st.sampled_from((-3, -1, 1, 3)))
@settings(max_examples=150, deadline=None)
def test_an_entry_past_a_form_leaves_its_proof_alone(case, step):
    # the last entry t_N lies in (t_{i+j}) for even N and in (t_{i+j+1}) for odd N;
    # moving it must not stop the other form's finite-rank proof
    t, _ = case
    N = len(t) - 1
    t[N] = max(Fraction(0), t[N] + Fraction(step, 64))
    if N % 2:
        with _without_elimination():
            assert _form_violation(t)[0] is None
    else:
        assert _shifted_proven(_chebyshev(t, N // 2), N)


def small_hankel_sequences(max_order=6, zeros=True):
    """s_0..s_{2k-2} of small rationals of either sign, with many zeros (or none)."""
    entry = st.one_of(st.just(Fraction(0)), quarters(-8, 8)) if zeros else quarters(-8, 8).filter(bool)
    return st.integers(1, max_order).flatmap(
        lambda k: st.lists(entry, min_size=2 * k - 1, max_size=2 * k - 1))


@given(small_hankel_sequences())
@settings(max_examples=300, deadline=None)
def test_wall_det_matches_det_exact(s):
    det = _wall_det(s)
    assert det is None or det == det_exact(hankel_matrix(s, 0, (len(s) + 1) // 2))


def test_wall_det_through_negative_entries_and_zero_divisors():
    # a rhombus with negative entries goes through; a zero e entry stops it, and the
    # witness determinant then comes from det_exact
    s = [Fraction(x) for x in (5, 1, 5, 2, 1, 2, 4)]
    assert sum(p < 0 for col in _qd_columns(s) for p, _ in col) >= 3
    assert _wall_det(s) == det_exact(hankel_matrix(s, 0, 4)) == -316
    s = [Fraction(x) for x in (1, 1, 1, 0, 1)]
    assert _wall_det(s) is None
    matrix = hankel_matrix(s, 0, 3)
    assert _witness_from_indices("hankel", s, 0, (0, 1, 2)).det == det_exact(matrix) == -1
    with mock.patch.object(moments, "det_exact", side_effect=AssertionError):
        assert _witness_from_indices("hankel", [1, 2, 1], 0, (0, 1)).det == -3
    # a zero at the end of an e column divides nothing, so the columns go on past it
    s = [Fraction(x) for x in (-2, -2, 1, 1, 1)]
    cols = list(_qd_columns(s))
    assert len(cols) == 4 and cols[1][-1] == (0, 1)   # e_1^(2) = 0
    with mock.patch.object(moments, "det_exact", side_effect=AssertionError):
        assert _wall_det(s) == -9
    assert det_exact(hankel_matrix(s, 0, 3)) == -9


def _lowered(n, k):
    t = [Fraction(1, j + 1) for j in range(n + 1)]
    t[k] -= Fraction(1, 10 ** 9)
    return t


@pytest.mark.parametrize("t, kind, size", [
    ([1, 2, 1], "hankel", 2),                                             # the first step
    (_lowered(40, 36), "hankel", 14),                                     # a Schur-diagonal minor
    ([Fraction(1, n + 1) + Fraction(1, 10) * Fraction(-1, 2) ** n for n in range(41)],
     "hankel_shifted", 2),                                                # the shifted form
])
def test_exact_witness_reads_only_its_minor(t, kind, size):
    # the witness minor is read from the sequence by index, so no Hankel matrix of the
    # whole form is built: at depth 10^4 that matrix took seconds and hundreds of MB
    want = stieltjes_check(t).witness
    assert (want.kind, len(want.indices)) == (kind, size)
    with mock.patch.object(moments, "hankel_matrix", side_effect=AssertionError("whole form built")):
        assert stieltjes_check(t).witness == want


@pytest.mark.parametrize("mass, loc, indices, det", [
    (Fraction(1, 10), Fraction(-1, 2), (0, 1), Fraction(-31, 1440)),
    (Fraction(1, 100), Fraction(-1, 10), (0, 1, 2, 3, 4),
     Fraction(-3485157869, 168031584000000000000000)),
])
def test_shifted_witness_after_a_positive_definite_form(mass, loc, indices, det):
    # 1/(n+1) to N = 160 plus a small atom below 0: (t_{i+j}) is positive definite
    # (a Hamburger prefix), (t_{i+j+1}) is not
    t = [Fraction(1, n + 1) + mass * loc ** n for n in range(161)]
    verdict = stieltjes_check(t)
    assert verdict.witness.kind == "hankel_shifted"
    assert verdict.witness.indices == indices
    assert verdict.witness.det == det == det_exact(hankel_matrix(t, 1, len(indices)))


# -- integer-pair loops against the Fraction loops they replaced ----------------------


def _fraction_qd_rhombus(t):
    """moments._qd_rhombus as it was in Fractions, kept verbatim as the reference."""
    prev: list = []   # anti-diagonal d - 1
    for d in range(1, len(t)):
        if not t[d - 1] or not all(prev[1::2]):
            return
        cur: list = []
        for i in range(d):
            if i == 0:
                x = t[d] / t[d - 1]
            elif i % 2:   # e_k^(n) = q_k^(n+1) - q_k^(n) + e_{k-1}^(n+1)
                x = cur[i - 1] - prev[i - 1]
                if i > 1:
                    x += prev[i - 2]
            else:         # q_{k+1}^(n) = q_k^(n+1) e_k^(n+1) / e_k^(n)
                x = prev[i - 2] * cur[i - 1] / prev[i - 1]
            cur.append(x)
        yield cur
        prev = cur


def _fraction_schur_scan(t, table):
    """The Schur-diagonal scan that ended _form_violation, in Fractions, kept verbatim
    as the reference; None when the table did not stop at a negative pivot."""
    n = (len(t) + 1) // 2
    rows, dens = table[:2]
    K = next((k for k, row in enumerate(rows[:n]) if row[0] <= 0), None)
    if K is None or rows[K][0] == 0:
        return None
    diag = list(t[0:2 * n - 1:2])
    for j in range(1, K + 1):
        row = rows[j - 1]
        scale = row[0] * Fraction(*dens[j - 1])   # sigma_{j-1,r}^2 / h_{j-1} = row[r-j+1]^2 / scale
        for r in range(j, n):
            diag[r] -= row[r - j + 1] ** 2 / scale
            if diag[r] < 0:
                return (*range(j), r)
    raise AssertionError(f"h_{K} < 0 but no Schur complement diagonal is negative")


def _by_column(diags):
    """The reference's anti-diagonals as columns: entry i of anti-diagonal d is column i, row d - 1 - i,
    each as the pair (numerator, denominator)."""
    cols: dict = {}
    for d, diag in enumerate(diags, 1):
        for i, x in enumerate(diag):
            cols.setdefault(i, {})[d - 1 - i] = (x.numerator, x.denominator)
    return cols


@given(st.one_of(small_hankel_sequences(max_order=8), small_hankel_sequences(max_order=8, zeros=False)))
@settings(max_examples=400, deadline=None)
def test_integer_rhombus_matches_the_fraction_rhombus(s):
    # column by column, entry for entry, in lowest terms with a positive denominator; the
    # columns fill the rhombus exactly when the anti-diagonals do (no zero divisor), and
    # where either stops, the entries both reached agree
    got, want = list(_qd_columns(s)), list(_fraction_qd_rhombus(s))
    whole = len(s) - 1
    assert (len(got) == whole) == (len(want) == whole)
    ref = _by_column(want)
    if len(want) == whole:
        assert got == [[ref[m][n] for n in range(whole - m)] for m in range(whole)]
    for m, col in enumerate(got):
        for n, pair in enumerate(col):
            assert ref.get(m, {}).get(n, pair) == pair
    assert _wall_det(s) == (None if len(want) < whole else
                            det_exact(hankel_matrix(s, 0, (len(s) + 1) // 2)))


_SCALED_DOWN = (tuple(Fraction(k, 64) for k in (1, 3, 7, 15, 31, 63))
                + tuple(1 - Fraction(1, 10 ** e) for e in range(1, 7)))


def _scaled_down_prefix(N, where, mass, i, factor):
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(N + 1)]
    t[i] *= factor
    return t


@st.composite
def schur_prefixes(draw):
    """t_0..t_N (N = 4..16) of a measure with more atoms than the form resolves, one entry
    t_i (i >= 2) scaled down: the table often stops at h_K < 0 with K < n - 1, and the
    witness then lies in a column r > K, or comes at a step j < K."""
    N = draw(st.integers(4, 16))
    rank = draw(st.integers(N // 2 + 1, N // 2 + 3))
    where = draw(st.lists(quarters(1, 63), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    return _scaled_down_prefix(N, where, mass, draw(st.integers(2, N)), draw(st.sampled_from(_SCALED_DOWN)))


def _scan_agrees(t):
    """Assert that _form_violation's scan returns the Fraction scan's witness; that witness."""
    bad, table = _form_violation(t)
    want = None if table is None else _fraction_schur_scan(t, table)
    if want is not None:
        assert bad == want
    return want


@given(st.one_of(rational_prefixes(), schur_prefixes()))
@settings(max_examples=300, deadline=None)
def test_integer_schur_scan_matches_the_fraction_scan(values):
    _scan_agrees(values)


def _top_minor_negative(N):
    """1/(n+1) to an even N with t_N moved halfway between its last two Schur values,
    so that only the top leading minor is negative (the benchmark's deep violations)."""
    t = [Fraction(1, j + 1) for j in range(N + 1)]
    n = N // 2
    h = [det_exact(hankel_matrix(t, 0, k)) for k in range(n - 1, n + 2)]
    rows = [*range(n - 1), n]
    last = h[2] / h[1]
    before = det_exact([[t[r + c] for c in rows] for r in rows]) / h[0]
    t[N] -= (last + before) / 2
    return t


def _zero_schur_entry():
    """1/(n+1) to N = 12 with t_8 lowered until the entry r = 4 after two pivots is exactly 0:
    the scan meets that zero at j = 2 and its witness {0, 1, 2, 4} at j = 3."""
    t = [Fraction(1, j + 1) for j in range(13)]
    a, b, c, x, y = t[0], t[1], t[2], t[4], t[5]
    t[8] = (c * x * x - 2 * b * x * y + a * y * y) / (a * c - b * b)
    return t


@pytest.mark.parametrize("t, want", [
    (_lowered(40, 36), (*range(13), 18)),
    (_lowered(60, 50), (*range(15), 25)),
    (_lowered(100, 90), (*range(19), 45)),
    (_top_minor_negative(12), tuple(range(7))),
    (_top_minor_negative(20), tuple(range(11))),
    (_top_minor_negative(30), tuple(range(16))),
    (_zero_schur_entry(), (0, 1, 2, 4)),
], ids=["lowered-40", "lowered-60", "lowered-100", "top-12", "top-20", "top-30", "zero-entry"])
def test_integer_schur_scan_on_deep_witnesses(t, want):
    # each witness comes from the scan past j = 1, which the first step does not reach
    assert _scan_agrees(t) == want


# -- violated paths: the column scan, and a window from its shift K - 1 ----------------


def test_column_scan_reaches_later_columns_and_earlier_steps():
    # the same prefixes from a fixed seed, so that every shape of witness is met: at
    # (j, r) = (K, K), at r = K after a step j < K, and in a column r > K (then j < K)
    rng = random.Random(5)
    shapes = set()
    for _ in range(300):
        N = rng.randint(4, 16)
        rank = rng.randint(N // 2 + 1, N // 2 + 3)
        where = [Fraction(x, 4) for x in rng.sample(range(1, 64), rank)]
        mass = [Fraction(rng.randint(1, 16), 8) for _ in where]
        t = _scaled_down_prefix(N, where, mass, rng.randint(2, N), rng.choice(_SCALED_DOWN))
        want = _scan_agrees(t)
        if want is not None:
            K = next(k for k, row in enumerate(_form_violation(t)[1][0]) if row[0] <= 0)
            j, r = len(want) - 1, want[-1]
            assert r >= K and j <= K
            shapes.add((j < K, r > K))
    assert shapes == {(False, False), (True, False), (True, True)}


def _per_shift_check(ts, K=None, mode="auto", tol=moments.DEFAULT_PSD_TOL):
    """two_sided_stieltjes_check as it was before the proof of shift K - 1, kept verbatim
    as the reference."""
    if K is None:
        K = -ts.lo
    if K < 0:
        raise ValueError(f"window must be nonnegative, got {K}")
    if K > -ts.lo:
        raise WindowTooSmallError(-ts.lo, K)
    if moments.resolve_mode(ts.exact, mode) == "exact" and _window_proven(ts.shifted(K).values):
        return moments.StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(range(K + 1)))
    for k in range(K + 1):
        shift = ts.shifted(k)
        values, arith = shift.values, moments.resolve_mode(shift.exact, mode)
        if arith == "float":   # name an entry beyond float range by its window index
            values = tuple(moments.to_float(v, f"t_{n}") for n, v in enumerate(values, -k))
        witness = moments._violation(values, arith, tol, shifted=k == 0)
        if witness is not None:
            witness = replace(witness, two_sided_shift=k)
            return moments.StieltjesVerdict(kind="violated", upto=ts.hi, witness=witness,
                                            shifts_checked=tuple(range(k + 1)))
    return moments.StieltjesVerdict(kind="consistent", upto=ts.hi, shifts_checked=tuple(range(K + 1)))


def _violated_window(where, mass, K, N, shape, m=None):
    """t_{-K}..t_N of the measure, violated at shift m (t_{-m} t_{-m+2} < t_{-m+1}^2):
    shift 0 for "bottom", K for "top" and "unproven"; "unproven" also raises t_N, which
    keeps every form PSD but stops the table's proof of a finite-rank shift K - 1."""
    values = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(-K, N + 1)]
    if shape == "unproven":
        values[-1] += Fraction(1, 64)
    i = K - (m if m is not None else 0 if shape == "bottom" else K)
    values[i] = values[i + 1] ** 2 / (2 * values[i + 2])
    return TwoSidedMomentSequence(-K, tuple(values))


@st.composite
def violated_windows(draw):
    """A window violated at shift K after a proven shift K - 1 ("top"), at shift 0
    ("bottom"), at a shift m with 0 < m < K ("mid"), or at shift K after a shift K - 1
    that passes unproven ("unproven"); the shape and the violated shift."""
    shape = draw(st.sampled_from(("top", "bottom", "mid", "unproven")))
    K, N = draw(st.integers(2 if shape == "mid" else 1, 5)), draw(st.integers(2, 8))
    m = draw(st.integers(1, K - 1)) if shape == "mid" else 0 if shape == "bottom" else K
    rank = draw(st.integers(1, (K + N - 1) // 2)) if shape == "unproven" else (K + N) // 2 + 2
    where = draw(st.lists(quarters(1, 24), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    return _violated_window(where, mass, K, N, shape, m), m


@given(violated_windows(), st.sampled_from(("exact", "float")))
@settings(max_examples=300, deadline=None)
def test_window_from_shift_k_minus_1_matches_the_per_shift_loop(case, mode):
    ts, m = case
    verdict = two_sided_stieltjes_check(ts, mode=mode)
    assert verdict == _per_shift_check(ts, mode=mode)
    if mode == "exact":
        assert verdict.violated and verdict.witness.two_sided_shift == m


@pytest.mark.parametrize("shape, checked, proofs", [("top", 2, 2), ("bottom", 1, 1), ("unproven", 5, 2)])
def test_window_checks_only_the_shifts_it_must(shape, checked, proofs):
    # atoms 1/2, 3/2, 3 and 5 (masses 1, 1/2, 2, 1), or only 1/2 and 3 when unproven, with
    # t_{-4}..t_8: shift 0's witness stops the loop before any proof of shift 3, a proven
    # shift 3 leaves shift 4 alone to check after shift 0, and an unproven shift 3 sends
    # the loop through every shift
    K, N = 4, 8
    where, mass = [Fraction(1, 2), Fraction(3, 2), Fraction(3), Fraction(5)], [1, Fraction(1, 2), 2, 1]
    if shape == "unproven":
        where, mass = where[::2], mass[::2]
    ts = _violated_window(where, mass, K, N, shape)
    assert _window_proven(ts.shifted(K - 1).values) == (shape == "top")
    with mock.patch.object(moments, "_violation", wraps=moments._violation) as spy, \
            mock.patch.object(moments, "_window_proven", wraps=moments._window_proven) as proof:
        verdict = two_sided_stieltjes_check(ts)
    assert (spy.call_count, proof.call_count) == (checked, proofs)
    assert verdict == _per_shift_check(ts)
    shift = 0 if shape == "bottom" else K
    assert verdict.shifts_checked == tuple(range(shift + 1))
    assert (verdict.witness.indices, verdict.witness.two_sided_shift) == ((0, 1), shift)


# -- atomic recovery on Chebyshev's table ----------------------------------------------


def _pair_moments(b, c, n):
    """r^j + r'^j for j < n, where r and r' are the roots of x^2 + b x + c (Newton's identities)."""
    p = [Fraction(2), Fraction(-b)]
    while len(p) < n:
        p.append(-b * p[-1] - c * p[-2])
    return p[:n]


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), min_size=1, max_size=5),
       st.one_of(st.none(), st.tuples(st.integers(-30, -1), st.integers(1, 200))),
       st.lists(eighths, min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_rational_roots_are_the_linear_factors(factors, quadratic, mass):
    # atoms at rational nodes come back exactly; a Gauss pair (mass 1/2 each) at the
    # positive roots of an irreducible x^2 + b x + c makes every atom the nearest float
    nodes = sorted({Fraction(p, q) for p, q in factors})
    atoms = list(zip(nodes, mass))
    m = len(atoms) + (2 if quadratic else 0)
    t = [sum(w * x ** n for x, w in atoms) for n in range(2 * m + 2)]
    if quadratic is not None:
        b, c = quadratic
        disc = b * b - 4 * c
        assume(disc > 0 and math.isqrt(disc) ** 2 != disc)
        t = [x + y / 2 for x, y in zip(t, _pair_moments(b, c, len(t)))]
        hi = (-b + math.sqrt(disc)) / 2
        atoms += [(c / hi, 0.5), (hi, 0.5)]   # c / hi: the smaller root without cancellation
    rec = recover_atomic_measure(t, m)
    if quadratic is None:
        assert rec.atoms == tuple(atoms)
    else:
        assert not rec.is_exact()
        want = sorted((float(x), float(w)) for x, w in atoms)
        assert len(rec.atoms) == len(want)
        for (x, w), (wx, ww) in zip(rec.atoms, want):
            assert math.isclose(x, wx, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(w, ww, rel_tol=1e-12)
    try:
        import sympy
    except ImportError:
        return
    x = sympy.Symbol("x")
    poly = sympy.prod([x - sympy.Rational(r.numerator, r.denominator) for r in nodes])
    if quadratic is not None:
        poly *= x ** 2 + b * x + c
    found = sympy.Poly(poly, x).real_roots()
    assert [float(r) for r in found] == pytest.approx([float(s) for s, _ in rec.atoms],
                                                      rel=1e-12, abs=1e-12)


def test_splitting_mod_small_primes_is_not_enough():
    # d = 1 + 2*3*5*...*29 is 1 mod each of those primes, so x^2 - d splits mod every one
    # of them, yet sqrt(d) is irrational: only exact facts decide these prefixes
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    d = 1 + math.prod(primes)
    assert math.isqrt(d) ** 2 != d
    # 3/2 (mass 1/2) and a Gauss pair at a +- sqrt(d) > 0 (mass 1/4 each): float atoms
    a = math.isqrt(d) + 1
    pair = _pair_moments(-2 * a, a * a - d, 8)
    rec = recover_atomic_measure([Fraction(3, 2) ** n / 2 + p / 4 for n, p in enumerate(pair)], 3)
    assert not rec.is_exact()
    want = [((a * a - d) / (a + math.sqrt(d)), 0.25), (1.5, 0.5), (a + math.sqrt(d), 0.25)]
    assert [float(v) for atom in rec.atoms for v in atom] == pytest.approx(
        [v for atom in want for v in atom], rel=1e-12)
    # the pair at -sqrt(d) and sqrt(d) instead: one node is proven to lie below 0
    pair = _pair_moments(0, -d, 8)
    with pytest.raises(MeasureRecoveryError) as exc:
        recover_atomic_measure([Fraction(3, 2) ** n / 2 + p / 4 for n, p in enumerate(pair)], 3)
    assert exc.value.reason == "negative_location"
    assert "1 of 3 locations below 0" in str(exc.value)


def test_mass_halfway_between_two_floats_settles():
    # masses 1/2 + 2**-54 at 13 -+ sqrt(2) lie exactly halfway between two floats, so the ends
    # of a node's interval never round to one mass; past the bit limit the right end decides
    mass = Fraction(1, 2) + Fraction(1, 2 ** 54)
    rec = recover_atomic_measure([mass * p for p in _pair_moments(-26, 167, 4)], 2)
    assert [x for x, _ in rec.atoms] == pytest.approx([13 - math.sqrt(2), 13 + math.sqrt(2)], rel=1e-15)
    assert {w for _, w in rec.atoms} <= {0.5, 0.5 + 2 ** -53}


def _cramer(a, b):
    det = det_exact(a)
    return [det_exact([row[:i] + [bi] + row[i + 1:] for row, bi in zip(a, b)]) / det
            for i in range(len(a))]


def _replaced_recovery(t, m):
    """The exact route the table replaced, with exact roots: ("exact", atoms),
    ("float", None) for an accepted measure with an irrational node, or ("reject", reason).

    The rank is the number of leading minors of H_m with det_exact != 0; the kernel
    coefficients c solve H_rank c = (t_rank, ..., t_{2 rank - 1}); sympy finds the
    kernel's roots; rational roots get masses from the Vandermonde system, and the
    measure must reproduce every moment, which for irrational roots is the kernel
    recurrence t_{j + rank} = sum_l c_l t_{j + l}.
    """
    import sympy

    rank = next((k for k in range(m) if det_exact(hankel_matrix(t, 0, k + 1)) == 0), m)
    if rank == 0:
        return ("reject", "rank_deficient") if any(t) else ("exact", ())
    c = _cramer(hankel_matrix(t, 0, rank), t[rank:2 * rank])
    x = sympy.Symbol("x")
    kernel = sympy.Poly([1] + [-sympy.Rational(ci.numerator, ci.denominator) for ci in reversed(c)], x)
    roots = kernel.all_roots()
    if all(r.is_rational for r in roots):
        roots = sorted(Fraction(int(r.p), int(r.q)) for r in roots)
        if roots[0] < 0:
            return "reject", "negative_location"
        if len(set(roots)) < rank:
            return "reject", "rank_deficient"
        masses = _cramer([[r ** i for r in roots] for i in range(rank)], list(t[:rank]))
        if min(masses) <= 0:
            return "reject", "negative_mass"
        if any(sum(w * r ** n for r, w in zip(roots, masses)) != t[n] for n in range(len(t))):
            return "reject", "rank_deficient"
        return "exact", tuple(zip(roots, masses))
    if not all(r.is_real for r in roots):
        return "reject", "nonreal_roots"
    if any(r < 0 for r in roots):
        return "reject", "negative_location"
    if any(t[j + rank] != sum(cl * tl for cl, tl in zip(c, t[j:j + rank]))
           for j in range(len(t) - rank)):
        return "reject", "rank_deficient"
    return "float", None


@st.composite
def recovery_cases(draw):
    """(t_0..t_N, m): moments of up to m + 1 atoms (one may lie below 0), perhaps with a
    Gauss pair at a +- sqrt(b), perhaps with one entry nudged, or arbitrary entries."""
    m = draw(st.integers(1, 4))
    N = draw(st.integers(2 * m - 1, 2 * m + 3))
    shape = draw(st.sampled_from(("atomic", "nudged", "pair", "arbitrary")))
    if shape == "arbitrary":
        return draw(st.lists(quarters(0, 20), min_size=N + 1, max_size=N + 1)), m
    rank = draw(st.integers(1, m + 1))
    where = draw(st.lists(quarters(-4, 24), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(N + 1)]
    if shape == "pair":
        a, b = draw(st.integers(1, 12)), draw(st.sampled_from((2, 3, 5, 6, 7)))
        t = [x + y / 2 for x, y in zip(t, _pair_moments(-2 * a, a * a - b, N + 1))]
    if shape == "nudged":
        i = draw(st.integers(0, N))
        t[i] += Fraction(draw(st.sampled_from((-3, -1, 1, 3))), 64)
    assume(min(t) >= 0)
    return t, m


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="the reference needs sympy")
@given(recovery_cases())
@settings(max_examples=300, deadline=None)
def test_table_recovery_matches_the_replaced_route(case):
    t, m = case
    try:
        got = recover_atomic_measure(t, m)
    except MeasureRecoveryError as exc:
        got = exc
    minors = [Fraction(1)] + [det_exact(hankel_matrix(t, 0, k)) for k in range(1, m + 1)]
    j = next((k for k in range(m) if minors[k + 1] <= 0), None)
    if j is not None and minors[j + 1] < 0:
        # h_j = det H_{j+1} / det H_j < 0 after positive ones: no positive measure at all
        assert isinstance(got, MeasureRecoveryError) and got.reason == "negative_mass"
        assert f"h_{j} = {minors[j + 1] / minors[j]} < 0" in str(got)
        return
    # otherwise H_rank is positive definite, and both routes decide alike
    kind, ref = _replaced_recovery(t, m)
    if kind == "reject":
        assert isinstance(got, MeasureRecoveryError) and got.reason == ref
    else:
        assert not isinstance(got, Exception), got
        assert got.is_exact() == (kind == "exact")
        if kind == "exact":
            assert got.atoms == ref


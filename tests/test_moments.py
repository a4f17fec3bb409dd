import math
import os
import random
import subprocess
import sys
from dataclasses import replace
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
from treeshift.moments import (
    _finite_rank_consistent,
    _leading_pivots,
    _qd_positive,
    _qd_stop,
    _rational_roots_monic,
    _splits_mod,
    _symmetric_det,
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
        # Beta(1, 1) moments: the quotient-difference pass decides them in O(N^2)
        values = [Fraction(1, n + 1) for n in range(161)]
        assert _qd_positive(values)
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
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(seq(1, 2, 1, 2), 2)
        assert exc.value.reason == "negative_location"

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
        # gives up on the first root and leaves the measure to the floating fallback
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
        # H_2 = [[1, 2], [2, 3]] is nonsingular, but the kernel polynomial is (x - 1)^2
        assert _rational_roots_monic([Fraction(1), Fraction(-2), Fraction(1)]) == [1, 1]
        with pytest.raises(MeasureRecoveryError) as exc:
            recover_atomic_measure(seq(1, 2, 3, 4), 2)
        assert exc.value.reason == "rank_deficient"
        assert "repeated atom locations" in str(exc.value)

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
    from treeshift.moments import det_exact, solve_exact

    a = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    b = [Fraction(rnd.randint(-4, 4)) for _ in range(n)]
    det = det_exact(a)
    if det == 0:
        with pytest.raises(ValueError):
            solve_exact(a, b)
        return
    x = solve_exact(a, b)
    for i in range(n):
        a_i = [row[:i] + [bi] + row[i + 1:] for row, bi in zip(a, b)]
        assert x[i] == det_exact(a_i) / det


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
            return _witness_from_indices(kind, matrix, bad, shift)
    return None


@given(rational_prefixes())
@settings(max_examples=150, deadline=None)
def test_qd_pass_iff_leading_minors_positive(values):
    minors = [det_exact(hankel_matrix(values, offset, k))
              for _, offset, size in _forms(values) for k in range(1, size + 1)]
    assert _qd_positive(values) == all(d > 0 for d in minors)


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


@given(finite_rank_prefixes())
@settings(max_examples=150, deadline=None)
def test_finite_rank_proof_matches_elimination(case):
    t, nudged = case
    # an exact atomic prefix is proven by the terminating S-fraction and its recurrence
    stop = _qd_stop(t)
    assert stop is not None and stop[1] == 0
    assert _finite_rank_consistent(t, stop[0])
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
    one entry possibly rescaled, and a K in 0..W."""
    W = draw(st.integers(0, 5))
    N = draw(st.integers(0, 8))
    rank = draw(st.integers(1, 10))
    where = draw(st.lists(quarters(1, 24), min_size=rank, max_size=rank, unique=True))
    mass = draw(st.lists(eighths, min_size=rank, max_size=rank))
    values = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(-W, N + 1)]
    i = draw(st.integers(0, W + N))
    values[i] *= draw(st.sampled_from((Fraction(1), Fraction(1), Fraction(1, 3), Fraction(3, 2))))
    return TwoSidedMomentSequence(-W, tuple(values)), draw(st.integers(0, W))


@given(full_rank_windows())
@settings(max_examples=150, deadline=None)
def test_window_rhombus_matches_per_shift_loop(case):
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


def test_window_rhombus_decides_a_positive_definite_window():
    # Beta(13, 2) moments on [0, 1] with their negative moments down to t_{-10}:
    # every shift is positive definite, so the one pass over (t_{-10}, ...) decides the window
    p, q = Fraction(13), Fraction(2)
    values = [Fraction(1)]
    for k in range(30):
        values.append(values[-1] * (p + k) / (p + q + k))
    neg = [Fraction(1)]
    for j in range(1, 11):
        neg.append(neg[-1] * (p + q - j) / (p - j))
    ts = TwoSidedMomentSequence(-10, tuple(neg[:0:-1] + values))
    assert _qd_positive(ts.shifted(10).values)
    verdict = two_sided_stieltjes_check(ts)
    assert verdict.kind == "consistent"
    assert verdict.shifts_checked == tuple(range(11))


@given(small_symmetric_matrices(max_size=7))
@settings(max_examples=200, deadline=None)
def test_symmetric_det_matches_det_exact(matrix):
    det = _symmetric_det(matrix)
    assert det == det_exact(matrix)
    try:
        import sympy
    except ImportError:
        return
    assert det == Fraction(str(sympy.Matrix(matrix).det(method="bareiss")))


def test_symmetric_det_on_hankel_witnesses():
    # the 1/(n+1) Hankel forms, with a zero leading pivot and a negative 2 x 2 minor
    hilbert = hankel_matrix([Fraction(1, n + 1) for n in range(17)], 0, 9)
    assert _symmetric_det(hilbert) == det_exact(hilbert) > 0
    assert _symmetric_det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert _witness_from_indices("hankel", [[1, 2], [2, 1]], (0, 1)).det == -3


def test_odd_stop_needs_a_recurrence_without_constant_term():
    # the pass stops at t_3 = 0 (anti-diagonal 3); the order-2 recurrence through t_0..t_3
    # holds trivially but has c_0 != 0, so it proves nothing, and the prefix is violated
    t = [Fraction(9, 2), Fraction(9), Fraction(54), Fraction(0)]
    assert _qd_stop(t) == (3, 0)
    assert not _finite_rank_consistent(t, 3)
    verdict = stieltjes_check(t)
    assert verdict.violated and verdict.witness == _eliminate_both_forms(t)


# -- exact root isolation -----------------------------------------------------------


def _poly_mul(p, q):
    """Product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 40)), min_size=1, max_size=6),
       st.one_of(st.none(), st.tuples(st.integers(-12, 12), st.integers(-30, 30))))
@settings(max_examples=200, deadline=None)
def test_rational_roots_are_the_linear_factors(factors, quadratic):
    roots = sorted(Fraction(p, q) for p, q in factors)
    poly = [Fraction(1)]
    for r in roots:
        poly = _poly_mul(poly, [-r, 1])
    if quadratic is not None:   # times x^2 + b x + c, irreducible over Q
        b, c = quadratic
        disc = b * b - 4 * c
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        poly = _poly_mul(poly, [c, b, 1])
    assert _rational_roots_monic(poly) == (None if quadratic else roots)
    try:
        import sympy
    except ImportError:
        return
    coeffs = [sympy.Rational(v.numerator, v.denominator) for v in reversed(poly)]
    found = sympy.roots(sympy.Poly(coeffs, sympy.Symbol("x")), filter="Q")
    assert sorted(Fraction(str(r)) for r, k in found.items() for _ in range(k)) == roots


def test_splitting_mod_small_primes_is_not_enough():
    # d = 1 + 2*3*5*...*29 is 1 mod each of those primes, so (x - 3/2)(x^2 - d) and
    # (x - 3/2)(x^2 + d - 2) split mod every one of them, the ones the early exit tries
    # included; only the Sturm chain tells that sqrt(d) is irrational and that the
    # roots of x^2 + d - 2 are not real
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    d = 1 + math.prod(primes)
    assert math.isqrt(d) ** 2 != d
    for quadratic in ([-d, 0, 1], [d - 2, 0, 1]):
        poly = _poly_mul([Fraction(-3, 2), 1], quadratic)
        assert all(_splits_mod([int(2 * c) for c in poly], ell) for ell in primes)
        assert _rational_roots_monic(poly) is None
    poly = _poly_mul([Fraction(-3, 2), 1], [Fraction(-9, 4), 0, 1])
    assert _rational_roots_monic(poly) == [Fraction(-3, 2), Fraction(3, 2), Fraction(3, 2)]
    assert not _splits_mod([-2, 0, 1], 5)   # x^2 - 2 has no root mod 5


@given(rational_prefixes())
@settings(max_examples=200, deadline=None)
def test_leading_pivot_count_is_the_hankel_rank(values):
    size = (len(values) - 1) // 2 + 1
    want = next((k for k in range(1, size + 1)
                 if det_exact(hankel_matrix(values, 0, k)) == 0), size + 1) - 1
    assert len(_leading_pivots(hankel_matrix(values, 0, size))) == want

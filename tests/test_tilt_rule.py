"""The tilt rule against the formulas it replaced.

Every s^n-weighted measure of the one-branching-vertex construction is now
``AtomicMeasure.tilted(n, mass)`` of a branch measure or of the mixture
sum_i e_i mu_i, plus ``with_defect`` at the root.  Each ``*_formula`` below is
a verbatim copy of an inline formula that the rule replaced; the tests
require the same exact atoms.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    MassExceedsOneError,
    build_branch_tree_system,
    child_measure_from_parent,
    make_branch_shift,
    parent_measure_from_child,
    root_measure_from_branches,
)
from treeshift.measures import mixture
from treeshift.rationals import ONE, ZERO, as_scalar, mul0

# few locations, so that atoms of different branch measures often coincide
LOCATIONS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
POSITIVE = st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9)


@st.composite
def measures(draw, zero_atom=False, probability=False):
    locs = draw(st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=4, unique=True))
    if zero_atom and draw(st.booleans()):
        locs.append(ZERO)
    masses = draw(st.lists(POSITIVE, min_size=len(locs), max_size=len(locs)))
    if probability:
        total = sum(masses)
        masses = [m / total for m in masses]
    return AtomicMeasure.from_atoms(zip(locs, masses))


# -- verbatim copies of the replaced formulas ------------------------------------------


def chain_formula(rep, k, tk):
    """certify_unilateral: the chain system at depth k."""
    return AtomicMeasure.from_atoms(
        (s, w * s ** k / tk) for s, w in rep.atoms if s != 0 or k == 0
    )


def stem_formula(branch_measures, entry_sq, l, P):
    """build_branch_tree_system: the body at stem vertex l."""
    return AtomicMeasure.from_atoms((s, P * e * w * s ** (-(l + 1)))
                                    for e, bmu in zip(entry_sq, branch_measures) for s, w in bmu.atoms)


def root_formula(mus, entry_weight_sq, left_weight_sq, eps=None):
    """root_measure_from_branches after its validation."""
    kappa = len(left_weight_sq)
    P = ONE
    for sq in left_weight_sq:
        P = P * as_scalar(sq)
    atoms = []
    for mu, e in zip(mus, entry_weight_sq):
        e = as_scalar(e)
        for s, w in mu.atoms:
            atoms.append((s, mul0(P * e, w * s ** (-(kappa + 1)))))
    body = AtomicMeasure.from_atoms(atoms)
    total = body.total_mass()
    if eps is None:
        defect = 1 - total
        if defect < 0:
            raise MassExceedsOneError(total)
    else:
        defect = as_scalar(eps)
        if total + defect != 1:
            raise MassExceedsOneError(total + defect)
    if defect != 0:
        return AtomicMeasure.from_atoms(list(body.atoms) + [(ZERO, defect)])
    return body


def parent_formula(mu, lam):
    """parent_measure_from_child after its validation."""
    inv = mu.moment(-1)
    atoms = [(s, lam * w / s) for s, w in mu.atoms]
    defect = 1 - lam * inv
    if defect != 0:
        atoms.append((ZERO, defect))
    return AtomicMeasure.from_atoms(atoms)


def child_formula(rho, lam):
    """child_measure_from_parent after its validation."""
    atoms = [(s, s * w / lam) for s, w in rho.atoms if s != 0]
    return AtomicMeasure.from_atoms(atoms)


def probp_rhs_formula(entry_sq, branch_measures, P, a):
    """certify_branch_tree_root_measure: the rhs of probp at location a."""
    rhs = ZERO
    for e, mu in zip(entry_sq, branch_measures):
        rhs = rhs + mul0(e, mu.mass_at(a) / a)
    return P * rhs


# -- the rule against each formula -------------------------------------------------------


@given(measures(zero_atom=True), st.integers(-6, 8), st.one_of(st.just(ZERO), POSITIVE))
@settings(max_examples=200, deadline=None)
def test_tilt_is_mass_times_s_to_the_n_over_m_n(mu, n, mass):
    assume(n >= 0 or not mu.has_zero_atom())
    norm = mu.moment(n)
    want = AtomicMeasure.from_atoms((s, mass * w * s ** n / norm) for s, w in mu.atoms if s or n <= 0)
    assert mu.tilted(n, mass) == want


@given(measures(zero_atom=True, probability=True), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_chain_system(rep, k):
    # an atom at 0 stays at k = 0 and drops at k >= 1
    assert rep.tilted(k) == chain_formula(rep, k, rep.moment(k))


@given(st.lists(st.tuples(measures(), st.one_of(st.just(ZERO), POSITIVE)), min_size=1, max_size=3),
       st.integers(0, 6), POSITIVE)
@settings(max_examples=150, deadline=None)
def test_stem_measures(branches, l, P):
    mus, entry_sq = zip(*branches)
    mix = mixture(mus, entry_sq)
    assert mix.tilted(-(l + 1), P * mix.moment(-(l + 1))) == stem_formula(mus, entry_sq, l, P)


@given(st.lists(st.tuples(measures(probability=True), POSITIVE), min_size=1, max_size=3),
       st.lists(st.fractions(min_value=Fraction(1, 9), max_value=2, max_denominator=9), min_size=1, max_size=4),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_root_measure_with_defect(branches, left_sq, pin_defect):
    mus, entry_sq = zip(*branches)
    try:
        want = root_formula(mus, entry_sq, left_sq)
    except MassExceedsOneError:
        want = MassExceedsOneError
    try:
        got = root_measure_from_branches(mus, entry_sq, left_sq)
    except MassExceedsOneError:
        got = MassExceedsOneError
    assert got == want
    if pin_defect and want is not MassExceedsOneError:
        eps = want.mass_at(ZERO)
        assert root_measure_from_branches(mus, entry_sq, left_sq, eps=eps) == root_formula(mus, entry_sq, left_sq, eps)


@given(measures(probability=True), st.fractions(min_value=Fraction(1, 9), max_value=1, max_denominator=9))
@settings(max_examples=150, deadline=None)
def test_parent_and_child_transforms(mu, scale):
    lam = scale / mu.moment(-1)   # lam * m_{-1} = scale <= 1
    rho = parent_measure_from_child(mu, lam)
    assert rho == parent_formula(mu, lam)
    assert child_measure_from_parent(rho, lam) == child_formula(rho, lam)


@given(measures(zero_atom=True, probability=True))
@settings(max_examples=100, deadline=None)
def test_child_transform_drops_the_atom_at_zero(rho):
    lam = rho.moment(1)
    assume(lam > 0)
    assert child_measure_from_parent(rho, lam) == child_formula(rho, lam)


@given(st.lists(st.tuples(measures(), st.one_of(st.just(ZERO), POSITIVE)), min_size=1, max_size=3),
       measures(zero_atom=True), POSITIVE)
@settings(max_examples=150, deadline=None)
def test_probp_right_hand_sides(branches, nu, P):
    mus, entry_sq = zip(*branches)
    mix = mixture(mus, entry_sq)
    stem = mix.tilted(-1, P * mix.moment(-1))
    locations = {s for s, _ in nu.atoms if s != 0}
    for mu in mus:
        locations.update(s for s, _ in mu.atoms)
    for a in sorted(locations):
        assert stem.mass_at(a) == probp_rhs_formula(entry_sq, mus, P, a)


@st.composite
def branch_instances(draw):
    """Branch data whose stem equalities hold, with the last stem weight scaled by at most 1."""
    kappa = draw(st.integers(1, 3))
    mus = draw(st.lists(measures(probability=True), min_size=2, max_size=3))
    raw = draw(st.lists(POSITIVE, min_size=len(mus), max_size=len(mus)))
    total = sum(r * mu.moment(-1) for r, mu in zip(raw, mus))
    entry = [r / total for r in raw]   # the entry-sum equality
    left, P_prev = [], ONE
    for l in range(1, kappa + 1):
        P_l = 1 / sum(e * mu.moment(-(l + 1)) for e, mu in zip(entry, mus))
        left.append(P_l / P_prev)
        P_prev = P_l
    left[-1] *= draw(st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8))
    return mus, entry, left


@given(branch_instances())
@settings(max_examples=40, deadline=None)
def test_built_stem_measures(instance):
    mus, entry, left = instance
    kappa = len(left)
    shift = make_branch_shift(len(mus), kappa, mus, entry, left)
    system = build_branch_tree_system(shift, mus, depth=kappa + 1)
    P = ONE
    for l in range(kappa + 1):
        body = stem_formula(mus, entry, l, P)
        eps = 1 - body.total_mass() if l == kappa else ZERO
        want = AtomicMeasure.from_atoms(list(body.atoms) + [(ZERO, eps)]) if eps != 0 else body
        assert system.mu[-l] == want and system.eps_at(-l) == eps
        if l < kappa:
            P = P * left[l]
    assert system.mu[-kappa] == root_formula(mus, entry, left)

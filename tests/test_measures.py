import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    INF,
    AtomicMeasure,
    MassExceedsOneError,
    NotInDomainError,
    NotNormalizableError,
    ZeroAtomError,
    child_measure_from_parent,
    moments_of,
    parent_measure_from_child,
    root_measure_from_branches,
)
from treeshift.measures import moment_ratio_rule
from conftest import DELTA1, DELTA2, random_measure

HALF = Fraction(1, 2)


def test_atoms_merge_and_sort():
    mu = AtomicMeasure.from_atoms([(2, HALF), (1, Fraction(1, 4)), ("2/1", HALF)])
    assert mu.atoms == ((Fraction(1), Fraction(1, 4)), (Fraction(2), Fraction(1)))


def test_negative_location_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([(-1, 1)])


def test_moments_point_mass():
    for n in (-3, -1, 0, 1, 5):
        assert moments_of(DELTA1, n) == 1


def test_inverse_moment():
    mu = AtomicMeasure.from_atoms([(1, HALF), (4, HALF)])
    assert moments_of(mu, -1) == Fraction(5, 8)


def test_zero_atom_blows_up_negative_moments():
    mu = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
    assert moments_of(mu, -1) == INF
    assert moments_of(mu, 0) == 1
    assert moments_of(mu, 2) == HALF


class TestUpwardTransform:
    def test_identity_on_point_mass_at_one(self):
        assert parent_measure_from_child(DELTA1, 1).atoms == DELTA1.atoms

    def test_point_mass_at_two_gains_defect(self):
        rho = parent_measure_from_child(DELTA2, 1)
        assert rho.atoms == ((Fraction(0), HALF), (Fraction(2), HALF))

    def test_domain_bound(self):
        with pytest.raises(NotInDomainError):
            parent_measure_from_child(DELTA2, 4)  # 4 * 1/2 = 2 > 1

    def test_zero_atom_rejected(self):
        mu = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        with pytest.raises(ZeroAtomError):
            parent_measure_from_child(mu, 1)


class TestDownwardTransform:
    def test_inverse_of_upward_example(self):
        rho = AtomicMeasure.from_atoms([(0, HALF), (2, HALF)])
        assert child_measure_from_parent(rho, 1).atoms == DELTA2.atoms

    def test_identity_on_point_mass_at_one(self):
        assert child_measure_from_parent(DELTA1, 1).atoms == DELTA1.atoms

    def test_weight_three(self):
        out = child_measure_from_parent(AtomicMeasure.point_mass(3), 3)
        assert out.atoms == ((Fraction(3), Fraction(1)),)

    def test_first_moment_mismatch(self):
        with pytest.raises(NotNormalizableError):
            child_measure_from_parent(DELTA1, 2)


class TestRoundTrip:
    def test_reference_pair(self):
        mu = AtomicMeasure.from_atoms([(1, HALF), (4, HALF)])
        lam = Fraction(3, 2)  # 3/2 * 5/8 < 1
        rho = parent_measure_from_child(mu, lam)
        assert child_measure_from_parent(rho, lam).atoms == mu.atoms

    def test_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            mu = random_measure(rng)
            inv = moments_of(mu, -1)
            lam = Fraction(rng.randint(1, 7), rng.randint(8, 16)) / inv
            rho = parent_measure_from_child(mu, lam)
            assert rho.is_probability()
            assert child_measure_from_parent(rho, lam).atoms == mu.atoms
            for n in range(1, 8):
                assert moments_of(rho, n) == lam * moments_of(mu, n - 1)

    @given(st.integers(1, 30), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_moment_intertwining(self, num, den):
        loc = Fraction(num, den)
        mu = AtomicMeasure.point_mass(loc)
        lam = min(Fraction(1), loc)  # lam * 1/loc <= 1
        rho = parent_measure_from_child(mu, lam)
        assert moments_of(rho, 0) == 1
        for n in range(1, 6):
            assert moments_of(rho, n) == lam * moments_of(mu, n - 1)


class TestRootMeasure:
    def test_reference_instance(self):
        nu = root_measure_from_branches([DELTA1, DELTA2], [HALF, 1], [1])
        assert nu.atoms == (
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1), HALF),
            (Fraction(2), Fraction(1, 4)),
        )

    def test_single_branch_no_defect(self):
        nu = root_measure_from_branches([DELTA1], [1], [1])
        assert nu.atoms == DELTA1.atoms

    def test_mass_overflow(self):
        with pytest.raises(MassExceedsOneError):
            root_measure_from_branches([DELTA1, DELTA2], [HALF, 1], [2])

    def test_explicit_defect_must_balance(self):
        with pytest.raises(MassExceedsOneError):
            root_measure_from_branches([DELTA1, DELTA2], [HALF, 1], [1], eps=Fraction(1, 2))

    def test_explicit_defect_accepted_when_exact(self):
        nu = root_measure_from_branches([DELTA1, DELTA2], [HALF, 1], [1], eps=Fraction(1, 4))
        assert nu.mass_at(0) == Fraction(1, 4)


class TestMeasureEquality:
    def test_exact_equality(self):
        # from_atoms merges coincident atoms and sorts them, so equal measures have equal atoms
        a = AtomicMeasure.from_atoms([(1, HALF), (2, HALF)])
        b = AtomicMeasure.from_atoms([(2, HALF), (1, HALF)])
        assert a.atoms == b.atoms
        c = AtomicMeasure.from_atoms([(1, HALF), (2, Fraction(1, 3)), (2, Fraction(1, 6))])
        assert a.atoms == c.atoms


class TestMomentRatioRule:
    def test_products_telescope_to_moments(self):
        from treeshift.measures import moment_ratio_rule

        mu = AtomicMeasure.from_atoms([(1, Fraction(1, 3)), (3, Fraction(2, 3))])
        rule = moment_ratio_rule(mu)
        prod = Fraction(1)
        for n in range(1, 8):
            prod *= rule(n + 1)
            assert prod == mu.moment(n)
        assert rule(3) is rule(3)  # cached

    def test_vanishing_moment_raises(self):
        from treeshift import ZeroMomentError
        from treeshift.measures import moment_ratio_rule

        # exact and float measures whose moments of order >= 1 (and m_0, for the zero measure) vanish;
        # the error names the index that m_{j-1} / m_{j-2} names: the numerator's when it vanishes
        for mu in (AtomicMeasure.from_atoms([(1, 0)]), AtomicMeasure.point_mass(0),
                   AtomicMeasure(((0.0, 1.0),)), AtomicMeasure(((1.5, 0.0),))):
            for j in (2, 3, 6):
                want = j - 1 if mu.moment(j - 1) == 0 else j - 2
                with pytest.raises(ZeroMomentError) as exc:
                    moment_ratio_rule(mu)(j)
                assert exc.value.order == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=9),
                    min_size=1, max_size=3, unique=True),
           st.lists(st.integers(1, 9), min_size=3, max_size=3), st.booleans(), st.integers(2, 30))
    def test_ratio_is_the_moment_quotient(self, locations, raw, as_float, j):
        # locations with denominators above 1, so the power sums' L is not 1; float measures by the quotient
        masses = [Fraction(r, sum(raw[:len(locations)])) for r in raw[:len(locations)]]
        atoms = [(float(s), float(w)) if as_float else (s, w) for s, w in zip(locations, masses)]
        mu = AtomicMeasure(tuple(sorted(atoms)))
        got = moment_ratio_rule(mu)(j)
        assert type(got) is (float if as_float else Fraction)
        assert got == mu.moment(j - 1) / mu.moment(j - 2)

    def test_document_rules_and_synthesis_agree(self):
        from treeshift import make_branch_shift, make_tree_eta_kappa
        from treeshift.instance import parse_weights

        mu = AtomicMeasure.from_atoms([(1, HALF), (Fraction(5, 2), HALF)])
        doc = {"map": {"(1,1)": {"sq": "1/2"}, "(2,1)": {"sq": "1/2"}},
               "rules": [{"branch": i, "formula": "ratio_of_moments",
                          "measure": {"atoms": [["1", "1/2"], ["5/2", "1/2"]]}} for i in (1, 2)]}
        parsed = parse_weights(doc, "$.weights", make_tree_eta_kappa(2, 0), as_float=False)
        synthesized = make_branch_shift(2, 0, [mu, mu], [HALF, HALF])
        for v in [(i, j) for i in (1, 2) for j in range(1, 9)]:
            assert parsed.sq(v) == synthesized.sq(v)


def _parent_float_moment(atoms, n):
    """The moment loop of float measures, atom by atom, as the reports have always rendered it."""
    if n < 0 and any(s == 0 for s, _ in atoms):
        return INF
    total = Fraction(0)
    for s, w in atoms:
        if n == 0:
            total = total + w
        elif s == 0:
            continue
        else:
            total = total + w * s ** n
    return total


small_rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 9))


@st.composite
def exact_atom_lists(draw):
    """1-6 input atoms, perhaps one at 0 and perhaps at coincident locations."""
    locs = draw(st.lists(small_rationals, min_size=1, max_size=6))
    if draw(st.booleans()):
        locs[draw(st.integers(0, len(locs) - 1))] = Fraction(0)
    if len(locs) > 1 and draw(st.booleans()):
        locs[-1] = locs[0]
    return [(s, draw(small_rationals)) for s in locs]


@given(exact_atom_lists(), st.lists(st.integers(-5, 80), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_power_sum_table_matches_direct_sums(pairs, orders):
    # the table extends in whatever order the moments are asked for
    mu = AtomicMeasure.from_atoms(pairs)
    has_zero = any(s == 0 for s, _ in pairs)
    for n in orders:
        want = INF if n < 0 and has_zero else sum(w * s ** n for s, w in pairs)
        assert moments_of(mu, n) == want
    if not has_zero:
        rule = moment_ratio_rule(mu)
        prod = Fraction(1)
        for n in range(1, 21):
            prod *= rule(n + 1)
            assert prod == sum(w * s ** n for s, w in pairs) / sum(w for _, w in pairs)


@given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 20.0)), st.floats(0.01, 5.0)),
                min_size=1, max_size=6),
       st.lists(st.integers(-5, 80), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_float_moments_sum_atom_by_atom(pairs, orders):
    mu = AtomicMeasure.from_atoms(pairs)
    for n in orders:
        got, want = mu.moment(n), _parent_float_moment(mu.atoms, n)
        assert repr(got) == repr(want)


def test_tilted_measures_rescale_exactly():
    mu = AtomicMeasure.from_atoms([(Fraction(1, 3), Fraction(1, 4)), (2, Fraction(3, 4)), (5, 0)])
    for n in range(6):
        tilted = mu.tilted(n)
        norm = mu.moment(n)
        assert tilted == AtomicMeasure.from_atoms((s, w * s ** n / norm) for s, w in mu.atoms)
    floats = AtomicMeasure.from_atoms([(0.001, 0.5), (3.0, 0.5)])
    # a mass that underflows is dropped, as from_atoms drops it
    assert floats.tilted(200).atoms == AtomicMeasure.from_atoms(
        (s, w * s ** 200 / floats.moment(200)) for s, w in floats.atoms).atoms
    assert len(floats.tilted(200).atoms) == 1


def test_mass_lookup_across_scalar_types():
    mu = AtomicMeasure.from_atoms([(Fraction(1, 2), Fraction(1, 4)), (2, Fraction(3, 4))])
    assert mu.mass_at(0.5) == mu.mass_at("1/2") == mu.mass_at(Fraction(1, 2)) == Fraction(1, 4)
    assert mu.mass_at(2) == mu.mass_at(2.0) == Fraction(3, 4)
    assert mu.mass_at(3) == 0 and not mu.has_zero_atom()
    assert AtomicMeasure.from_atoms([(0.0, 1.0)]).mass_at(0) == 1.0

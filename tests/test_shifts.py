import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    WeightSystem,
    WeightedShift,
    WeightUndefinedError,
    ZeroWeightError,
    build_tree,
    make_branch_shift,
    make_tree_eta_kappa,
    moment_sequence,
    moments_of,
    synthesize_weights_from_measures,
)
from treeshift.rationals import ZERO
from treeshift.trees import KAPPA_INF
from conftest import DELTA1, DELTA2, edge_trees

HALF = Fraction(1, 2)


def chain_shift(*sqs):
    """Finite rooted chain 0 -> 1 -> ... with the given squared weights."""
    edges = [(i, i + 1) for i in range(len(sqs))]
    tree = build_tree(edges)
    return WeightedShift(tree, WeightSystem.from_sq_map({i + 1: sq for i, sq in enumerate(sqs)}))


class TestMomentSequence:
    def test_isometry_chain(self, ones_chain):
        t = moment_sequence(ones_chain, 0, 5)
        assert t.values == (Fraction(1),) * 6

    def test_balanced_branch(self):
        shift = make_branch_shift(2, 0, [DELTA1, DELTA1], [HALF, HALF])
        t = moment_sequence(shift, 0, 3)
        assert t.values == (Fraction(1),) * 4

    def test_mixture_instance(self, kappa0_shift):
        t = moment_sequence(kappa0_shift, 0, 3)
        assert t.values == (Fraction(1), Fraction(3, 4), Fraction(1), Fraction(3, 2))

    def test_path_sum_recursion(self):
        rng = random.Random(5)
        sqs = {}
        tree = make_tree_eta_kappa(3, 1)
        shift = WeightedShift(
            tree,
            WeightSystem.from_rule(
                lambda v: sqs.setdefault(v, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            ),
        )
        N = 5
        for u in (-1, 0, (1, 1), (2, 2)):
            t_u = moment_sequence(shift, u, N)
            kids = tree.children(u)
            child_seqs = {c: moment_sequence(shift, c, N - 1) for c in kids}
            for n in range(N - 1):
                assert t_u[n + 1] == sum(shift.sq(c) * child_seqs[c][n] for c in kids)

    def test_chain_weight_products(self):
        shift = chain_shift(Fraction(2), Fraction(3), Fraction(5))
        t = moment_sequence(shift, 0, 3)
        assert t.values == (Fraction(1), Fraction(2), Fraction(6), Fraction(30))

    def test_branch_vertex_identity(self, a3_shift):
        # t_{n+1} at the branching vertex equals the weighted branch moments
        t = moment_sequence(a3_shift, 0, 6)
        for n in range(6):
            expected = HALF * moments_of(DELTA1, n) + 1 * moments_of(DELTA2, n)
            assert t[n + 1] == expected

    def test_finite_tree_truncates_to_zero(self):
        shift = chain_shift(Fraction(2))
        t = moment_sequence(shift, 0, 3)
        assert t.values == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))


@given(edge_trees(), st.data())
def test_moment_sequence_matches_depth_first_path_sums(edges, data):
    """t_n sums the path products to the depth-n vertices; a depth-first walk meets them in the same order."""
    tree = build_tree(edges)
    floats = data.draw(st.booleans())
    weight = st.floats(0.125, 8.0) if floats else st.fractions(Fraction(1, 9), 9, max_denominator=9)
    sq = {c: data.draw(weight) for _, c in edges}
    children = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    u = data.draw(st.sampled_from(tree.vertices))
    N = data.draw(st.integers(0, 8))
    want = [ZERO] * (N + 1)

    def visit(v, n, p):
        want[n] = want[n] + p
        if n < N:
            for c in children.get(v, ()):
                visit(c, n + 1, p * sq[c])

    visit(u, 0, Fraction(1))
    got = moment_sequence(WeightedShift(tree, WeightSystem.from_sq_map(sq)), u, N).values
    assert got == tuple(want)
    assert [type(x) for x in got] == [type(x) for x in want]


class TestSynthesis:
    def test_point_mass_gives_unit_ray(self, a3_shift):
        for j in range(2, 8):
            assert a3_shift.sq((1, j)) == 1

    def test_point_mass_at_two_gives_sq_two(self, a3_shift):
        for j in range(2, 8):
            assert a3_shift.sq((2, j)) == 2

    def test_mixture_ratios(self):
        mu = AtomicMeasure.from_atoms([(1, HALF), (4, HALF)])
        shift = make_branch_shift(2, 0, [mu, DELTA1], [HALF, HALF])
        # moments 1, 5/2, 17/2, 65/2 -> ratios 5/2, 17/5, 65/17
        assert shift.sq((1, 2)) == Fraction(5, 2)
        assert shift.sq((1, 3)) == Fraction(17, 5)
        assert shift.sq((1, 4)) == Fraction(65, 17)

    def test_moments_reproduced_by_products(self):
        mu = AtomicMeasure.from_atoms([(1, "1/2"), (4, "1/2")])
        shift = make_branch_shift(2, 0, [mu, DELTA1], [HALF, HALF])
        prod = Fraction(1)
        for n in range(1, 8):
            prod *= shift.sq((1, n + 1))
            assert prod == moments_of(mu, n)

    def test_entry_and_stem_weights_settable(self, a3_shift):
        assert a3_shift.sq((1, 1)) == HALF
        assert a3_shift.sq((2, 1)) == 1
        assert a3_shift.sq(0) == 1

    def test_rejects_zero_atom_measure(self):
        bad = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        tree = make_tree_eta_kappa(2, 0)
        with pytest.raises(ValueError):
            synthesize_weights_from_measures(tree, [bad, DELTA1], [HALF, HALF])

    def test_rejects_non_probability(self):
        bad = AtomicMeasure.from_atoms([(1, 2)])
        tree = make_tree_eta_kappa(2, 0)
        with pytest.raises(ValueError):
            synthesize_weights_from_measures(tree, [bad, DELTA1], [HALF, HALF])

    def test_needs_generated_family(self):
        tree = build_tree([(0, 1), (1, 2)])
        from treeshift import WrongTreeShapeError

        with pytest.raises(WrongTreeShapeError):
            synthesize_weights_from_measures(tree, [DELTA1], [1])


class TestWeightSystems:
    def test_zero_weight_rejected_by_default(self):
        ws = WeightSystem.from_sq_map({1: 0})
        with pytest.raises(ZeroWeightError):
            ws.sq(1)

    @pytest.mark.parametrize("value", [Fraction(-1, 3), -1, -0.5])
    def test_negative_rule_value_rejected(self, value):
        ws = WeightSystem.from_rule(lambda v: value)
        with pytest.raises(ValueError, match="squared weight at 1 is negative"):
            ws.sq(1)

    @pytest.mark.parametrize("value", [Fraction(0), 0, 0.0])
    def test_zero_rule_value_rejected(self, value):
        ws = WeightSystem.from_rule(lambda v: value)
        with pytest.raises(ZeroWeightError):
            ws.sq(1)

    def test_positive_fraction_returned_as_is(self):
        value = Fraction(7, 3)
        assert WeightSystem.from_rule(lambda v: value).sq(1) is value
        assert WeightSystem.from_rule(lambda v: 2).sq(1) == Fraction(2)

    def test_missing_weight_on_finite_tree(self):
        tree = build_tree([(0, 1), (1, 2)])
        with pytest.raises(WeightUndefinedError):
            WeightedShift(tree, WeightSystem.from_sq_map({1: Fraction(1)}))

    def test_one_lookup_order(self):
        # table, then the ray measure at (i, j >= 2), then the default, then the rule
        mu = AtomicMeasure.from_atoms([(1, HALF), (3, HALF)])   # moments 1, 2, 5, 14
        ws = WeightSystem({(1, 3): 7, 5: 3}, {1: mu}, default=HALF, rule=lambda v: 9)
        assert [ws.sq(v) for v in [(1, 3), 5, (1, 2), (1, 4), (1, 1), (2, 2), -4]] == [
            7, 3, 2, Fraction(14, 5), HALF, HALF, HALF]
        assert WeightSystem({5: 3}, {1: mu}, rule=lambda v: 9).sq((2, 2)) == 9
        assert ws.domain is None and WeightSystem({5: 3}).domain == {5}
        with pytest.raises(WeightUndefinedError):
            WeightSystem({5: 3}, {1: mu}).sq((1, 1))

    @pytest.mark.parametrize("build, v", [
        (lambda: WeightSystem({(1, 1): 0}, {1: DELTA2}, default=1), (1, 1)),
        (lambda: WeightSystem({}, {1: DELTA2}, default=0), (2, 2)),
        (lambda: WeightSystem({}, {1: DELTA2}, rule=lambda v: 0), (2, 2)),
        (lambda: make_branch_shift(2, 1, [DELTA1, DELTA2], [HALF, 0], [1]).weights, (2, 1)),
        (lambda: make_branch_shift(2, 1, [DELTA1, DELTA2], [HALF, 1], [0]).weights, 0),
        (lambda: make_branch_shift(2, KAPPA_INF, [DELTA1, DELTA2], [HALF, 1], lambda j: 0).weights, -3),
    ], ids=["table", "default", "rule", "entry", "stem", "stem-rule"])
    def test_zero_weight_rejected_on_every_path(self, build, v):
        # the shifts are injective: no constructor lets a zero weight through
        with pytest.raises(ZeroWeightError):
            build().sq(v)

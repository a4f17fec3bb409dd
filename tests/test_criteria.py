import random
from fractions import Fraction

import pytest

from treeshift import (
    AtomicMeasure,
    CaseMismatchError,
    ConsistentSystem,
    HasRootError,
    NotAChainError,
    PremiseViolatedError,
    Verdict,
    WeightSystem,
    WeightedShift,
    WrongTreeShapeError,
    ZeroWeightError,
    branch_frame,
    build_branch_tree_system,
    build_tree,
    certify_bilateral,
    certify_branch_tree,
    certify_branch_tree_root_measure,
    certify_unilateral,
    consistency_at,
    make_bilateral_chain,
    make_branch_shift,
    make_tree_eta_kappa,
    make_unilateral_chain,
    moment_sequence,
    moments_of,
    necessary_checks_determinate,
    reduce_rootless,
    root_measure_equivalence_roundtrip,
    root_measure_from_branches,
    synthesize_weights_from_measures,
    verify_consistent_system,
)
from conftest import DELTA1, DELTA2, random_measure, stem_sq_rule

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def check_map(report):
    return {c.cid: c for c in report.checks}


class TestConsistencyAt:
    def test_balanced_entries(self):
        shift = make_branch_shift(2, 0, [DELTA1, DELTA1], [HALF, HALF])
        ok, lhs = consistency_at(shift, 0, {(1, 1): DELTA1, (2, 1): DELTA1})
        assert ok and lhs == 1

    def test_mixture(self):
        shift = make_branch_shift(2, 0, [DELTA1, DELTA2], [HALF, HALF])
        ok, lhs = consistency_at(shift, 0, {(1, 1): DELTA1, (2, 1): DELTA2})
        assert ok and lhs == Fraction(3, 4)

    def test_zero_weight_convention(self):
        # the shifts are injective, so a zero weight is rejected and no 0 * inf convention is needed
        tree = build_tree([("u", "a"), ("u", "b")])
        shift = WeightedShift(tree, WeightSystem.from_sq_map({"a": 1, "b": 0}))
        with_zero_atom = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        with pytest.raises(ZeroWeightError):
            consistency_at(shift, "u", {"a": DELTA1, "b": with_zero_atom})


class TestVerifySystem:
    def test_isometry_chain_system(self, ones_chain):
        system = ConsistentSystem({n: DELTA1 for n in range(6)}, {})
        report = verify_consistent_system(ones_chain, system)
        assert report.verdict == Verdict.CERTIFIED

    def test_perturbed_mass_names_vertex_and_atom(self, a3_shift, a3_measures):
        system = build_branch_tree_system(a3_shift, a3_measures, depth=4)
        bad = dict(system.mu)
        atoms = list(bad[0].atoms)
        atoms[0] = (atoms[0][0], atoms[0][1] + Fraction(1, 1000))
        bad[0] = AtomicMeasure(tuple(atoms))
        report = verify_consistent_system(a3_shift, ConsistentSystem(bad, system.eps))
        assert report.verdict == Verdict.VIOLATED
        failing = [c.cid for c in report.failed_checks()]
        assert any(cid.startswith("muu+[-1,1]") or cid == "mass[0]" for cid in failing)

    def test_missing_child_measure_within_depth(self, a3_shift, a3_measures):
        system = build_branch_tree_system(a3_shift, a3_measures, depth=3)
        from treeshift import MissingChildMeasureError

        with pytest.raises(MissingChildMeasureError):
            verify_consistent_system(a3_shift, system, depth=3)


class TestUnilateral:
    def test_isometry_certified_with_point_mass(self, ones_chain):
        report = certify_unilateral(ones_chain, N=10, m_max=2)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["rep[0]"].passed  # measure recovered and checked
        assert any(cid.startswith("muu+[") for cid in cm)

    def test_reciprocal_weights_exact_hilbert(self):
        tree = make_unilateral_chain()
        shift = WeightedShift(tree, WeightSystem.from_rule(lambda n: Fraction(n, n + 1)))
        t = moment_sequence(shift, 0, 12)
        assert t.values[:4] == (Fraction(1), HALF, Fraction(1, 3), QUARTER)
        report = certify_unilateral(shift, N=12)
        assert report.verdict == Verdict.CERTIFIED
        assert report.arithmetic == "exact"

    def test_fitted_violation(self):
        # weights chosen so the orbit sequence is (1, 1, 2, 1)
        tree = make_unilateral_chain()
        sqs = {1: Fraction(1), 2: Fraction(2), 3: HALF}
        shift = WeightedShift(tree, WeightSystem.from_rule(lambda n: sqs.get(n, Fraction(1))))
        report = certify_unilateral(shift, N=3)
        assert report.verdict == Verdict.VIOLATED
        assert "hankel_shifted" in report.witness().cid

    def test_supplied_measure_verified(self, ones_chain):
        report = certify_unilateral(ones_chain, N=6, measure=DELTA1)
        assert report.verdict == Verdict.CERTIFIED

    def test_branching_tree_rejected(self, a3_shift):
        with pytest.raises(NotAChainError):
            certify_unilateral(a3_shift, N=4)

    def test_rootless_rejected(self, ones_bilateral):
        with pytest.raises(WrongTreeShapeError, match="needs a rooted chain") as exc:
            certify_unilateral(ones_bilateral, N=4)
        assert not isinstance(exc.value, NotAChainError)


class TestBilateral:
    def test_isometry(self, ones_bilateral):
        report = certify_bilateral(ones_bilateral, K=10, N=10, m_max=2)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["tshift[10,10]"].passed
        assert cm["rep[-10]"].passed

    def test_geometric(self):
        tree = make_bilateral_chain()
        shift = WeightedShift(tree, WeightSystem.from_rule(lambda v: Fraction(2)))
        report = certify_bilateral(shift, K=10, N=10, m_max=2)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["rep[-1]"].lhs == HALF

    def test_alternating_violated(self):
        tree = make_bilateral_chain()
        shift = WeightedShift(
            tree, WeightSystem.from_rule(lambda v: Fraction(2) if v % 2 else HALF)
        )
        report = certify_bilateral(shift, K=6, N=6)
        assert report.verdict == Verdict.VIOLATED
        assert report.witness().cid.startswith("psd[shift=")

    def test_rooted_rejected(self, ones_chain):
        with pytest.raises(HasRootError):
            certify_bilateral(ones_chain, K=3, N=3)


class TestBranchTree:
    def test_no_stem_inequality(self, kappa0_shift, a3_measures):
        report = certify_branch_tree(kappa0_shift, a3_measures, N=10)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["zgod"].lhs == Fraction(5, 8)
        assert report.params["case"] == "i"

    def test_reference_instance(self, a3_shift, a3_measures):
        report = certify_branch_tree(a3_shift, a3_measures, N=10)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["zgodp"].lhs == 1
        assert cm["widly1p"].lhs == Fraction(3, 4)

    def test_overweight_stem_violated(self, a3_measures):
        shift = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(2)])
        report = certify_branch_tree(shift, a3_measures, N=6)
        assert report.verdict == Verdict.VIOLATED
        cm = check_map(report)
        assert not cm["widly1p"].passed
        assert cm["widly1p"].lhs == Fraction(3, 2)

    def test_equality_sensitivity(self, a3_measures):
        # stem length 2 forces the l=1 equality; any perturbation flips it
        shift = make_branch_shift(2, 2, a3_measures, [HALF, 1],
                                  [stem_sq_rule(0), stem_sq_rule(1)])
        assert certify_branch_tree(shift, a3_measures, N=6).verdict == Verdict.CERTIFIED
        for eps in (Fraction(1, 10 ** 9), Fraction(-1, 10 ** 9)):
            bumped = make_branch_shift(2, 2, a3_measures, [HALF, 1],
                                       [stem_sq_rule(0) + eps, stem_sq_rule(1)])
            report = certify_branch_tree(bumped, a3_measures, N=6)
            assert not check_map(report)["widly1[1]"].passed

    def test_infinite_stem_window(self, a3_infinite_shift, a3_measures):
        report = certify_branch_tree(a3_infinite_shift, a3_measures, N=8, ell_max=25)
        assert report.verdict == Verdict.CERTIFIED
        assert report.params["case"] == "iv"
        assert check_map(report)["widly1[25]"].passed

    def test_case_mismatch(self, a3_shift, a3_measures):
        with pytest.raises(CaseMismatchError):
            certify_branch_tree(a3_shift, a3_measures, N=4, case="i")
        with pytest.raises(CaseMismatchError):
            certify_branch_tree(a3_shift, a3_measures, N=4, case="iii")

    def test_sniffed_frame_from_edge_tree(self):
        edges = [("r", "m"), ("m", "a1"), ("m", "b1"), ("a1", "a2"), ("b1", "b2"),
                 ("a2", "a3"), ("b2", "b3")]
        tree = build_tree(edges)
        weights = WeightSystem.from_sq_map({
            "m": 1, "a1": HALF, "b1": 1,
            "a2": 1, "a3": 1, "b2": 2, "b3": 2,
        })
        shift = WeightedShift(tree, weights)
        report = certify_branch_tree(shift, [DELTA1, DELTA2], N=2)
        assert report.verdict == Verdict.CERTIFIED
        assert check_map(report)["widly1p"].lhs == Fraction(3, 4)


class TestRootMeasureForm:
    def test_constructed_root_measure_passes(self, a3_shift, a3_measures):
        nu = root_measure_from_branches(a3_measures, [HALF, 1], [1])
        report = certify_branch_tree_root_measure(a3_shift, a3_measures, nu, N=8)
        assert report.verdict == Verdict.CERTIFIED

    def test_point_mass_against_mismatched_stem(self, a3_measures):
        shift = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(3)])
        report = certify_branch_tree_root_measure(shift, a3_measures, DELTA1, N=4)
        cm = check_map(report)
        assert not cm["prob[1]"].passed
        assert cm["prob[1]"].rhs == Fraction(3)

    def test_missing_defect_fails_normalization(self, a3_shift, a3_measures):
        nu = AtomicMeasure.from_atoms([(1, HALF), (2, QUARTER)])  # defect dropped
        report = certify_branch_tree_root_measure(a3_shift, a3_measures, nu, N=4)
        cm = check_map(report)
        assert not cm["prob[0]"].passed
        assert report.verdict == Verdict.VIOLATED

    def test_stem_weights_read_once_or_twice(self, a3_measures):
        # prob[n] once multiplied the n stem weights below the root afresh for every n:
        # kappa (kappa + 1) / 2 reads
        from collections import Counter

        kappa = 2000
        base = make_branch_shift(2, kappa, a3_measures, [HALF, 1], stem_sq_rule)
        reads = Counter()

        def sq(v):
            reads[v] += 1
            return base.sq(v)

        shift = WeightedShift(base.tree, WeightSystem.from_rule(sq))
        nu = root_measure_from_branches(a3_measures, [HALF, 1], [stem_sq_rule(j) for j in range(kappa)])
        report = certify_branch_tree_root_measure(shift, a3_measures, nu, N=3)
        assert report.verdict == Verdict.CERTIFIED
        assert sum(c.cid.startswith("prob[") for c in report.checks) == kappa + 1
        assert max(reads[-j] for j in range(kappa)) <= 2

    def test_zero_stem_weight_fails_prob(self, a3_measures):
        # a zero stem weight is rejected like every zero weight, not carried into the stem products
        weights = WeightSystem.from_sq_map({0: 1, -1: 0, -2: 2, (1, 1): HALF, (2, 1): 1}, default=1)
        shift = WeightedShift(make_tree_eta_kappa(2, 3), weights)
        nu = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        with pytest.raises(ZeroWeightError):
            certify_branch_tree_root_measure(shift, a3_measures, nu, N=3)


class TestEquivalenceRoundtrip:
    def test_reference_instance_both_pass(self, a3_shift, a3_measures):
        report = root_measure_equivalence_roundtrip(a3_shift, a3_measures, N=8)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["equiv"].passed

    def test_broken_stem_fails_both(self, a3_measures):
        shift = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(2)])
        report = root_measure_equivalence_roundtrip(shift, a3_measures, N=6)
        assert report.verdict == Verdict.VIOLATED
        cm = check_map(report)
        assert cm["equiv"].passed  # both directions fail together
        assert not cm["ii:widly1p"].passed

    def test_stem_two_extension(self, a3_measures):
        shift = make_branch_shift(2, 2, a3_measures, [HALF, 1],
                                  [stem_sq_rule(0), stem_sq_rule(1)])
        report = root_measure_equivalence_roundtrip(shift, a3_measures, N=6)
        assert report.verdict == Verdict.CERTIFIED

    def test_given_root_measure_direction(self, a3_shift, a3_measures):
        nu = root_measure_from_branches(a3_measures, [HALF, 1], [1])
        report = root_measure_equivalence_roundtrip(a3_shift, a3_measures, N=6, nu=nu)
        cm = check_map(report)
        assert cm["equiv[given-root-measure]"].passed

    def test_randomized_instances(self):
        rng = random.Random(2024)
        for trial in range(30):
            kappa = rng.choice([1, 2, 3])
            eta = rng.choice([2, 3])
            mus = [random_measure(rng, max_atoms=2) for _ in range(eta)]
            raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(eta)]
            total = sum(r * moments_of(mu, -1) for r, mu in zip(raw, mus))
            entry = [r / total for r in raw]  # forces the entry-sum equality
            left = []
            P_prev = Fraction(1)
            for l in range(1, kappa):
                P_l = 1 / sum(e * moments_of(mu, -(l + 1)) for e, mu in zip(entry, mus))
                left.append(P_l / P_prev)
                P_prev = P_l
            cap = 1 / sum(e * moments_of(mu, -(kappa + 1)) for e, mu in zip(entry, mus))
            scale = Fraction(rng.randint(1, 8), 8) if rng.random() < 0.7 else Fraction(rng.randint(9, 12), 8)
            left.append(scale * cap / P_prev)
            shift = make_branch_shift(eta, kappa, mus, entry, left)
            report = root_measure_equivalence_roundtrip(shift, mus, N=4)
            cm = check_map(report)
            assert cm["equiv"].passed
            assert report.passed == (scale <= 1)


class TestDepthCeiling:
    def test_branch_tree_at_ceiling_certifies(self, a3_shift, a3_measures):
        from treeshift.criteria import MAX_DEPTH

        assert certify_branch_tree(a3_shift, a3_measures, MAX_DEPTH).passed

    def test_every_criterion_rejects_depth_above_ceiling(self, a3_shift, a3_measures, ones_chain,
                                                         ones_bilateral):
        from treeshift.criteria import MAX_DEPTH

        N = MAX_DEPTH + 1
        calls = [
            lambda: certify_branch_tree(a3_shift, a3_measures, N),
            lambda: certify_branch_tree_root_measure(a3_shift, a3_measures, DELTA1, N),
            lambda: build_branch_tree_system(a3_shift, a3_measures, N),
            lambda: necessary_checks_determinate(a3_shift, N, 2),
            lambda: certify_unilateral(ones_chain, N),
            lambda: certify_bilateral(ones_bilateral, 1, N),
            lambda: reduce_rootless(ones_bilateral, 0, 1, N),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^depth must be at most {MAX_DEPTH}, got {N}$"):
                call()


class TestBuildSystem:
    def test_no_stem_defect(self, kappa0_shift, a3_measures):
        system = build_branch_tree_system(kappa0_shift, a3_measures, depth=5)
        assert system.eps_at(0) == Fraction(3, 8)
        assert verify_consistent_system(kappa0_shift, system).verdict == Verdict.CERTIFIED

    def test_reference_defect(self, a3_shift, a3_measures):
        system = build_branch_tree_system(a3_shift, a3_measures, depth=6)
        assert system.eps_at(-1) == QUARTER
        assert system.eps_at(0) == 0
        assert verify_consistent_system(a3_shift, system).verdict == Verdict.CERTIFIED

    def test_branch_measures_embedded(self, a3_shift, a3_measures):
        system = build_branch_tree_system(a3_shift, a3_measures, depth=6)
        assert system.mu[(1, 1)].atoms == DELTA1.atoms
        assert system.mu[(2, 1)].atoms == DELTA2.atoms
        assert system.mu[0].atoms == ((Fraction(1), HALF), (Fraction(2), HALF))

    def test_premise_violation_carries_condition_id(self, a3_measures):
        shift = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(2)])
        with pytest.raises(PremiseViolatedError) as exc:
            build_branch_tree_system(shift, a3_measures, depth=4)
        assert exc.value.condition_id == "widly1p"

    def test_infinite_stem_system(self, a3_infinite_shift, a3_measures):
        system = build_branch_tree_system(a3_infinite_shift, a3_measures, depth=5, ell_max=6)
        assert all(system.eps_at(v) == 0 for v in system.mu)
        report = verify_consistent_system(a3_infinite_shift, system)
        assert report.verdict == Verdict.CERTIFIED


class TestNecessaryPipeline:
    def test_reference_instance(self, a3_shift, a3_measures):
        report = necessary_checks_determinate(a3_shift, N=20, m_max=2)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["recover[(1,1)]"].passed
        assert cm["recover[(2,1)]"].passed
        assert cm["determinate[shifted-orbit]"].passed
        assert cm["alanconsi[0]"].lhs == 1
        assert cm["alanconsi[-1]"].lhs == Fraction(3, 4)

    def test_carleman_evidence_threshold(self, a3_shift):
        report = necessary_checks_determinate(a3_shift, N=10, m_max=2)
        note = check_map(report)["carleman[30]"].note
        value = float(note.split("=")[1].split("over")[0])
        assert value >= 20

    def test_broken_stem_violated(self, a3_measures):
        shift = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(2)])
        report = necessary_checks_determinate(shift, N=10, m_max=2)
        assert report.verdict == Verdict.VIOLATED
        assert not check_map(report)["widly1p"].passed

    def test_float_recovery_is_not_called_exact(self):
        # ray 1 carries the rational moments t_n of 1/2 delta[13 - sqrt 2] + 1/2 delta[13 + sqrt 2]
        # as squared weights t_{j-1} / t_{j-2}: its measure comes back as float atoms
        t = [Fraction(1), Fraction(13)]
        while len(t) < 40:
            t.append(26 * t[-1] - 167 * t[-2])

        def sq(v):
            i, j = v
            return HALF if j == 1 else t[j - 1] / t[j - 2] if i == 1 else Fraction(1)

        shift = WeightedShift(make_tree_eta_kappa(2, 0), WeightSystem.from_rule(sq))
        report = necessary_checks_determinate(shift, N=10, m_max=2)
        cm = check_map(report)
        assert cm["recover[(1,1)]"].passed
        assert "reproducing the prefix to floating-point tolerance" in cm["recover[(1,1)]"].note
        assert cm["recover[(2,1)]"].note.endswith("reproducing the prefix exactly")

    def test_unrecoverable_branch_inconclusive(self):
        mu3 = AtomicMeasure.from_atoms([(1, "1/3"), (2, "1/3"), (3, "1/3")])
        shift = make_branch_shift(2, 0, [mu3, DELTA1], [HALF, HALF])
        report = necessary_checks_determinate(shift, N=10, m_max=2)
        assert report.verdict == Verdict.INCONCLUSIVE


class TestReduction:
    def test_bilateral_isometry(self, ones_bilateral):
        report = reduce_rootless(ones_bilateral, base=0, k_max=5, N=8)
        assert report.verdict == Verdict.CERTIFIED
        labels = {c.cid.split(":")[0] for c in report.checks}
        assert labels == {f"des[{-k}]" for k in range(1, 6)}

    def test_infinite_stem_family(self, a3_infinite_shift, a3_measures):
        report = reduce_rootless(a3_infinite_shift, base=0, k_max=6, N=8,
                                 branch_measures=a3_measures)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["des[-6]:widly1p"].passed

    def test_violated_subtree_dominates(self, a3_measures):
        from treeshift import KAPPA_INF

        tree = make_tree_eta_kappa(2, KAPPA_INF)
        shift = synthesize_weights_from_measures(
            tree, a3_measures, [HALF, 1], lambda j: Fraction(2)
        )
        report = reduce_rootless(shift, base=0, k_max=3, N=5, branch_measures=a3_measures)
        assert report.verdict == Verdict.VIOLATED

    def test_ray_base_gives_chains(self, a3_infinite_shift, a3_measures):
        report = reduce_rootless(a3_infinite_shift, base=(1, 3), k_max=2, N=6,
                                 branch_measures=a3_measures)
        assert report.verdict == Verdict.CERTIFIED
        labels = {c.cid.split(":")[0] for c in report.checks}
        assert labels == {"des[(1,2)]", "des[(1,1)]"}

    def test_rooted_rejected(self, a3_shift):
        with pytest.raises(HasRootError):
            reduce_rootless(a3_shift, base=0, k_max=2, N=4)

    def test_parent_steps_linear_in_depth(self):
        # each vertex's membership in the subtree below parent(base) is decided once;
        # a walk back to the subtree's root on every query takes about N^2 / 2 steps
        from dataclasses import replace

        steps = 0

        def parent(v):
            nonlocal steps
            steps += 1
            return v - 1

        N = 2000
        tree = replace(make_bilateral_chain(), parent_fn=parent)
        shift = WeightedShift(tree, WeightSystem.from_sq_map({}, default=2))
        report = reduce_rootless(shift, base=0, k_max=1, N=N, m_max=1)
        assert report.verdict == Verdict.CERTIFIED
        assert sum(":mass[" in c.cid for c in report.checks) == N   # the system was built and verified
        assert steps <= 2 * N

    def test_work_bound(self, ones_bilateral, a3_infinite_shift, a3_measures):
        from treeshift.criteria import MAX_REDUCE_WORK

        assert MAX_REDUCE_WORK == 25000
        # k_max chains of depth N cover k_max * (N + 1) vertices
        assert reduce_rootless(ones_bilateral, base=0, k_max=1000, N=24).passed
        with pytest.raises(ValueError, match=r"^\(depth \+ stem \+ 1\) summed over the ancestors "
                                             r"must be at most 25000, got 25012 by ancestor 962$"):
            reduce_rootless(ones_bilateral, base=0, k_max=1000, N=25)
        # ancestor k of the branching vertex certifies a stem of k: 21 k + k (k + 1) / 2 at N = 20
        with pytest.raises(ValueError, match="got 25194 by ancestor 204$"):
            reduce_rootless(a3_infinite_shift, base=0, k_max=1000, N=20, branch_measures=a3_measures)


class TestCrossPathConsistency:
    def test_chain_agrees_with_branch_restriction(self):
        # a chain and the branch tree carrying the same ray data certify together
        tree = make_unilateral_chain()
        chain = WeightedShift(tree, WeightSystem.from_rule(lambda n: Fraction(1)))
        chain_report = certify_unilateral(chain, N=8, m_max=1)
        branch = make_branch_shift(2, 0, [DELTA1, DELTA1], [HALF, HALF])
        branch_report = certify_branch_tree(branch, [DELTA1, DELTA1], N=8)
        assert chain_report.verdict == branch_report.verdict == Verdict.CERTIFIED
        t_chain = moment_sequence(chain, 0, 8)
        t_branch = moment_sequence(branch, 0, 8)
        assert t_chain.values == t_branch.values


class TestAdditionalContracts:
    def test_consistency_infinite_lhs_fails(self):
        from treeshift import INF

        shift = make_branch_shift(2, 0, [DELTA1, DELTA1], [HALF, HALF])
        dusty = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        ok, lhs = consistency_at(shift, 0, {(1, 1): dusty, (2, 1): DELTA1})
        assert not ok and lhs == INF

    def test_zero_atom_in_child_is_an_error(self, ones_chain):
        from treeshift import ZeroAtomInChildError

        dusty = AtomicMeasure.from_atoms([(0, HALF), (1, HALF)])
        system = ConsistentSystem({0: DELTA1, 1: dusty}, {})
        with pytest.raises(ZeroAtomInChildError):
            verify_consistent_system(ones_chain, system)

    def test_zero_entry_weight_rejected(self):
        from treeshift import ZeroWeightError

        shift = make_branch_shift(2, 0, [DELTA1, DELTA1], [Fraction(1), Fraction(0)])
        with pytest.raises(ZeroWeightError):
            certify_branch_tree(shift, [DELTA1, DELTA1], N=3)

    def test_m_max_echoed_in_params(self, ones_chain, ones_bilateral):
        r1 = certify_unilateral(ones_chain, N=4, m_max=2)
        assert r1.params["m_max"] == 2
        r2 = certify_bilateral(ones_bilateral, K=3, N=3, m_max=2)
        assert r2.params["m_max"] == 2


class TestSystemLoopClosure:
    def test_stem_two_system(self, a3_measures):
        shift = make_branch_shift(2, 2, a3_measures, [HALF, 1],
                                  [stem_sq_rule(0), stem_sq_rule(1)])
        system = build_branch_tree_system(shift, a3_measures, depth=8)
        report = verify_consistent_system(shift, system, depth=7)
        assert report.verdict == Verdict.CERTIFIED
        assert report.arithmetic == "exact"

    def test_necessary_pipeline_infinite_stem(self, a3_infinite_shift):
        report = necessary_checks_determinate(a3_infinite_shift, N=10, m_max=2,
                                              stem_checks=5)
        assert report.verdict == Verdict.CERTIFIED
        cm = check_map(report)
        assert cm["alanconsi[-5]"].passed
        assert cm["widly1[5]"].passed


class TestShapeDispatch:
    def test_finite_tree_branching_below_any_probe(self):
        edges = [(j, j + 1) for j in range(70)] + [(70, "a"), (70, "b")]
        shift = WeightedShift(build_tree(edges), WeightSystem.from_rule(lambda v: 1))
        frame = branch_frame(shift)
        assert frame.branch_vertex == 70 and frame.kappa == 70
        assert frame.entries == ("a", "b")
        assert [frame.stem_vertex(j) for j in (0, 1, 70)] == [70, 69, 0]

    def test_finite_chain_has_no_frame(self):
        shift = WeightedShift(build_tree([(0, 1), (1, 2)]), WeightSystem.from_rule(lambda v: 1))
        assert branch_frame(shift) is None

    def test_two_branching_vertices_rejected(self):
        tree = build_tree([(0, 1), (0, 2), (2, 3), (2, 4)])
        shift = WeightedShift(tree, WeightSystem.from_rule(lambda v: 1))
        with pytest.raises(WrongTreeShapeError, match="more than one branching vertex"):
            branch_frame(shift)

    def test_short_ray_rejected(self):
        tree = build_tree([("r", "a1"), ("r", "b1"), ("a1", "a2"), ("b1", "b2")])
        shift = WeightedShift(tree, WeightSystem.from_rule(lambda v: HALF))
        with pytest.raises(WrongTreeShapeError, match="ends at a2 before depth 3"):
            certify_branch_tree(shift, [DELTA1, DELTA1], N=3)

    def test_not_a_chain_is_a_shape_error(self, a3_shift):
        assert issubclass(NotAChainError, WrongTreeShapeError)
        with pytest.raises(WrongTreeShapeError):
            certify_unilateral(a3_shift, N=4)

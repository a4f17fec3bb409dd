"""Cross-route harness for the one-branching-vertex criterion.

The paper's theorem is reached here by independent routes: the case
conditions (`certify_branch_tree`), the consistent system they build and its
atom-by-atom re-verification, the stem masses that both read, Part I's
identity int s^n dmu_u = ||S^n e_u||^2 (`moment_sequence`), the Hankel test
of the orbits, atomic recovery of the ray measures, and the necessity
pipeline for determinate ray measures.  Each
property ties two of them together on generated instances: exact atomic branch
measures, eta in {2, 3, 4} and kappa in {0, 1, 2, 3, inf}, with the entry-sum
and stem equalities forced and the entry weights (kappa = 0) or one stem weight
scaled so that some instances pass and some fail.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    KAPPA_INF,
    AtomicMeasure,
    PremiseViolatedError,
    Verdict,
    build_branch_tree_system,
    certify_branch_tree,
    make_branch_shift,
    moment_sequence,
    necessary_checks_determinate,
    represent,
    stieltjes_check,
    verify_consistent_system,
)
from treeshift.measures import mixture

# stem equalities checked, and stem vertices built, on the infinite stem
ELL = 4
# depth of the zgod0 checks; the built system reaches BRANCH_DEPTH ray vertices
N = 8
BRANCH_DEPTH = 3
# m_max of the necessity pipeline and of recovery, at least the atoms of any branch measure
M_MAX = 3

HARNESS = settings(max_examples=30, deadline=None)


@dataclass(frozen=True)
class Instance:
    eta: int
    kappa: object
    measures: tuple
    scale: Fraction
    entry: tuple
    left: object        # the stem weights: a list, or j -> weight on the infinite stem
    shift: object

    @property
    def should_pass(self) -> bool:
        return self.scale <= 1 if self.kappa != KAPPA_INF else self.scale == 1

    @property
    def top(self):
        """The root, or on the infinite stem the highest stem vertex the system carries."""
        return -ELL if self.kappa == KAPPA_INF else -self.kappa

    @property
    def atoms(self) -> int:
        return sum(len(mu.atoms) for mu in self.measures)

    def as_floats(self) -> "Instance":
        """The same instance with every atom and weight converted to a float."""
        mus = tuple(AtomicMeasure(tuple((float(s), float(w)) for s, w in mu.atoms)) for mu in self.measures)
        entry = tuple(float(e) for e in self.entry)
        left = (lambda j: float(self.left(j))) if callable(self.left) else [float(w) for w in self.left]
        return replace(self, measures=mus, entry=entry, left=left,
                       shift=make_branch_shift(self.eta, self.kappa, list(mus), list(entry), left))


@st.composite
def measures(draw):
    """A probability measure with one or two distinct atoms in (0, 4]."""
    count = draw(st.integers(1, 2))
    locs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)).map(lambda pq: Fraction(*pq)),
                         min_size=count, max_size=count, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    return AtomicMeasure.from_atoms((s, Fraction(w, sum(raw))) for s, w in zip(locs, raw))


@st.composite
def instances(draw):
    eta = draw(st.sampled_from((2, 3, 4)))
    kappa = draw(st.sampled_from((0, 1, 2, 3, KAPPA_INF)))
    mus = [draw(measures()) for _ in range(eta)]
    raw = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(eta)]
    # 1 twice: the infinite stem passes only at scale 1
    scale = draw(st.sampled_from((Fraction(1, 2), Fraction(7, 8), Fraction(1), Fraction(1),
                                  Fraction(9, 8), Fraction(3, 2))))

    def entry_sum(entry, power):
        return sum((e * mu.moment(power) for e, mu in zip(entry, mus)), Fraction(0))

    entry = [r / entry_sum(raw, -1) for r in raw]   # forces the entry-sum equality
    if kappa == 0:
        entry = [scale * e for e in entry]
        left = ()
    else:
        # P_l = 1 / sum_i e_i m_{-(l+1)}(mu_i) forces every stem equality; stem weight j is P_{j+1} / P_j
        def forced(j):
            return entry_sum(entry, -(j + 1)) / entry_sum(entry, -(j + 2))

        if kappa == KAPPA_INF:
            scaled = draw(st.integers(0, ELL - 2))

            def left(j):
                return forced(j) * (scale if j == scaled else 1)
        else:
            left = [forced(j) for j in range(kappa)]
            left[-1] *= scale
    shift = make_branch_shift(eta, kappa, mus, entry, left)
    return Instance(eta, kappa, tuple(mus), scale, tuple(entry), left, shift)


def certify(inst: Instance):
    return certify_branch_tree(inst.shift, list(inst.measures), N, ell_max=ELL)


def build(inst: Instance):
    depth = BRANCH_DEPTH if inst.kappa == KAPPA_INF else inst.kappa + BRANCH_DEPTH
    return build_branch_tree_system(inst.shift, list(inst.measures), depth, ell_max=ELL)


def verify(inst: Instance, system):
    depth = None if inst.kappa == KAPPA_INF else inst.kappa + BRANCH_DEPTH - 1
    return verify_consistent_system(inst.shift, system, depth=depth)


@HARNESS
@given(instances())
def test_certificate_holds_exactly_when_the_system_verifies(inst):
    passed = certify(inst).passed
    assert passed == inst.should_pass
    try:
        system = build(inst)
    except PremiseViolatedError:
        assert not passed
        return
    assert passed
    assert verify(inst, system).verdict == Verdict.CERTIFIED


@HARNESS
@given(instances().filter(lambda inst: inst.should_pass))
def test_vertex_measures_reproduce_the_orbit_norms(inst):
    system = build(inst)
    for v, mu in system.mu.items():
        t = moment_sequence(inst.shift, v, 4)
        assert tuple(mu.moment(n) for n in range(5)) == t.values, v


@HARNESS
@given(instances())
def test_root_and_branching_orbits_pass_the_hankel_test_when_certified(inst):
    if not certify(inst).passed:
        return
    order = 2 * inst.atoms + 3
    for u in (inst.top, 0):
        verdict = stieltjes_check(moment_sequence(inst.shift, u, order))
        assert not verdict.violated, (u, verdict.witness)


@HARNESS
@given(instances())
def test_recovery_returns_each_ray_measure(inst):
    for i, mu in enumerate(inst.measures, 1):
        t = moment_sequence(inst.shift, (i, 1), 2 * M_MAX + 1)
        rec = represent(t, M_MAX)
        assert rec is not None and rec.atoms == mu.atoms, i


@HARNESS
@given(instances())
def test_necessity_pipeline_agrees_with_the_certificate(inst):
    report = necessary_checks_determinate(inst.shift, 2 * M_MAX + 1, M_MAX, stem_checks=ELL)
    assert report.verdict != Verdict.INCONCLUSIVE
    assert report.passed == certify(inst).passed


def stem_lhs(report, kappa) -> dict:
    """Stem vertex l -> the lhs recorded for its mass: zgod or zgodp at l = 0, widly1[l], widly1p at the root."""
    lhs = {}
    for c in report.checks:
        if c.cid in ("zgod", "zgodp"):
            lhs[0] = c.lhs
        elif c.cid == "widly1p":
            lhs[kappa] = c.lhs
        elif c.cid.startswith("widly1["):
            lhs[int(c.cid[len("widly1["):-1])] = c.lhs
    return lhs


@HARNESS
@given(instances().filter(lambda inst: inst.should_pass))
def test_stem_bodies_carry_the_masses_that_certify_records(inst):
    """Stem vertex l's body is the mixture tilted to the mass certify recorded, exactly and in floats.

    In floats the body's atoms need not sum to its mass, so there the body is
    compared, with ==, to the tilt of the mixture to the recorded lhs.
    """
    for case in (inst, inst.as_floats()):
        lhs = stem_lhs(certify(case), case.kappa)
        system = build(case)
        mix = mixture(list(case.measures), list(case.entry))
        assert {v for v in system.mu if isinstance(v, int)} == {-l for l in lhs}
        for l, mass in lhs.items():
            mu = system.mu[-l]
            assert mu.atoms == mix.tilted(-(l + 1), mass).with_defect(system.eps[-l]).atoms, l
            if case is inst:
                assert sum((w for s, w in mu.atoms if s), Fraction(0)) == mass, l

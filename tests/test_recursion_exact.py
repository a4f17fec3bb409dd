"""Integer cross-product checks against the Fraction loops they replaced.

``verify_consistent_system`` decides exact data by cross-multiplying, and
``_zgod0_checks`` compares m_n with prod * sq_n the same way.  A passing
check records its lhs as its rhs, and a failing one builds its true rhs.
Both must render the report that the per-location Fraction loop rendered.
The loops are kept here as they stood, and both routes run on built
systems with one mass, location or child measure perturbed, and on shifts
with one ray weight scaled.  A wrong cross-product that says "differ"
would still render the right report through the Fraction fallback, so
the tests also require every passing exact check to carry its lhs as rhs.
"""

from fractions import Fraction
from functools import cache

from hypothesis import HealthCheck, given, settings, strategies as st

from treeshift import (
    KAPPA_INF,
    AtomicMeasure,
    MissingChildMeasureError,
    WeightSystem,
    WeightedShift,
    ZeroAtomInChildError,
    build_branch_tree_system,
    make_branch_shift,
    moments_of,
    verify_consistent_system,
)
from treeshift.criteria import (
    ConsistentSystem,
    _Checker,
    _zgod0_checks,
    branch_frame,
)
from treeshift.rationals import ONE, ZERO, format_human
from treeshift.trees import format_vertex, single_child_path

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def mul0(a, b):
    """The 0*inf = 0 product that the library used while zero weights were allowed."""
    if a == 0 or b == 0:
        return ZERO
    return a * b


def parent_verify(shift, system, depth=None, mode="auto", tol=1e-9):
    """The per-location Fraction loop that ``verify_consistent_system`` ran before."""
    tree = shift.tree
    ck = _Checker(mode, tol)
    ordered = sorted(system.mu, key=lambda v: (tree.level(v), format_vertex(v)))
    root_level = tree.level(tree.root) if tree.is_rooted else None
    skipped = 0
    for u in ordered:
        mu_u = system.mu[u]
        kids = tree.children(u)
        missing = [v for v in kids if v not in system.mu]
        if missing:
            if depth is not None and root_level is not None and tree.level(u) - root_level <= depth:
                raise MissingChildMeasureError(u, missing[0])
            skipped += 1
            continue
        fu = format_vertex(u)
        ck.eq(f"mass[{fu}]", mu_u.moment(0), ONE)
        locations = {s for s, _ in mu_u.atoms if s != 0}
        for v in kids:
            mu_v = system.mu[v]
            if mu_v.has_zero_atom() and shift.sq(v) != 0:
                raise ZeroAtomInChildError(v)
            locations.update(s for s, _ in mu_v.atoms if s != 0)
        for a in sorted(locations):
            rhs = ZERO
            for v in kids:
                rhs = rhs + mul0(shift.sq(v), system.mu[v].mass_at(a) / a)
            ck.eq(f"muu+[{fu},{format_human(a)}]", mu_u.mass_at(a), rhs)
        eps_u = system.eps_at(u)
        if eps_u < 0:
            ck.flag(f"eps[{fu}]", False, f"defect {format_human(eps_u)} is negative")
        ck.eq(f"muu+[{fu},0]", mu_u.mass_at(0), eps_u)
    notes = []
    if skipped:
        notes.append(f"{skipped} boundary vertices skipped (children outside the system)")
    params = {"vertices": len(ordered)}
    if depth is not None:
        params["depth"] = depth
    return ck.report("measure-recursion", params, notes)


def parent_zgod0_checks(ck, shift, frame, measures, N):
    """The running-product loop that ``_zgod0_checks`` ran before."""
    for i, (entry, mu) in enumerate(zip(frame.entries, measures), 1):
        ray = single_child_path(shift.tree, entry, N)
        prod = ONE
        for n in range(1, N + 1):
            prod = prod * shift.sq(ray[n])
            ck.eq(f"zgod0[{i},{n}]", moments_of(mu, n), prod)


small = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=9)


@st.composite
def measures(draw):
    """A probability measure with 1 to 3 distinct atoms in (0, 8]."""
    locs = draw(st.lists(small, min_size=1, max_size=3, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
    return AtomicMeasure.from_atoms((s, Fraction(r, sum(raw))) for s, r in zip(locs, raw))


@st.composite
def branch_shifts(draw):
    """(shift, branch measures, kappa) whose case premises hold, eta in {2, 3, 4}, kappa in {0, 2, inf}."""
    eta = draw(st.sampled_from([2, 3, 4]))
    kappa = draw(st.sampled_from([0, 2, KAPPA_INF]))
    mus = [draw(measures()) for _ in range(eta)]
    raw = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(eta)]
    total = sum(r * moments_of(mu, -1) for r, mu in zip(raw, mus))
    entry = [r / total for r in raw]   # the entry sum is 1
    if kappa == 0:
        entry = [e * draw(st.sampled_from([ONE, Fraction(3, 4)])) for e in entry]

    @cache
    def P(l):   # P_l = 1 / E(l + 1) makes the stem equality at l hold
        return ONE if l == 0 else 1 / sum(e * moments_of(mu, -(l + 1)) for e, mu in zip(entry, mus))

    if kappa == KAPPA_INF:
        left = lambda j: P(j + 1) / P(j)
    elif kappa == 2:
        left = [P(1), draw(st.sampled_from([ONE, Fraction(1, 2)])) * P(2) / P(1)]
    else:
        left = ()
    return make_branch_shift(eta, kappa, mus, entry, left), mus, kappa


def _replace(system, v, mu):
    return ConsistentSystem({**system.mu, v: mu}, system.eps)


def _perturb(data, system):
    """One ray, stem or branching-vertex mass, one location, or one child's measure changed (or none)."""
    kind = data.draw(st.sampled_from(["none", "ray mass", "stem mass", "branch mass", "location",
                                      "child measure"]))
    if kind == "none":
        return system
    rays = sorted((v for v in system.mu if isinstance(v, tuple)), key=format_vertex)
    stem = sorted((v for v in system.mu if not isinstance(v, tuple)), key=format_vertex)
    pool = {"ray mass": rays, "stem mass": stem, "branch mass": [0]}.get(kind, rays + stem)
    v = data.draw(st.sampled_from(pool))
    atoms = list(system.mu[v].atoms)
    if kind == "child measure":
        return _replace(system, v, data.draw(measures()))
    k = data.draw(st.integers(0, len(atoms) - 1))
    s, w = atoms[k]
    if kind == "location":
        atoms[k] = (s + data.draw(small), w)
        return _replace(system, v, AtomicMeasure.from_atoms(atoms))
    atoms[k] = (s, w * data.draw(st.sampled_from([Fraction(1, 2), Fraction(999, 1000), Fraction(3, 2)])))
    return _replace(system, v, AtomicMeasure(tuple(atoms)))


@SETTINGS
@given(branch_shifts(), st.integers(1, 4), st.sampled_from(["auto", "exact", "float"]), st.data())
def test_recursion_report_matches_fraction_loop(built, extra, mode, data):
    shift, mus, kappa = built
    if kappa == KAPPA_INF:
        system = build_branch_tree_system(shift, mus, extra, ell_max=3)
        strict = None
    else:
        system = build_branch_tree_system(shift, mus, kappa + extra)
        strict = kappa + extra - 1
    system = _perturb(data, system)
    got = verify_consistent_system(shift, system, depth=strict, mode=mode)
    assert got.to_json() == parent_verify(shift, system, depth=strict, mode=mode).to_json()
    if mode != "float":   # the cross-product decided every passing muu+[u,a], a > 0
        assert all(c.rhs is c.lhs for c in got.checks
                   if c.passed and c.cid.startswith("muu+") and not c.cid.endswith(",0]"))


@SETTINGS
@given(branch_shifts(), st.integers(1, 8), st.sampled_from(["auto", "float"]), st.data())
def test_zgod0_report_matches_running_product(built, N, mode, data):
    shift, mus, _ = built
    frame = branch_frame(shift)
    i = data.draw(st.integers(1, len(mus)))
    target = (i, data.draw(st.integers(2, N + 1)))
    factor = data.draw(st.sampled_from([ONE, Fraction(1, 2), Fraction(1001, 1000), Fraction(3)]))
    weights = WeightSystem.from_rule(lambda v: shift.sq(v) * factor if v == target else shift.sq(v))
    scaled = WeightedShift(shift.tree, weights)
    got, want = _Checker(mode), _Checker(mode)
    _zgod0_checks(got, scaled, frame, mus, N)
    parent_zgod0_checks(want, scaled, frame, mus, N)
    assert got.report("zgod0", {}).to_json() == want.report("zgod0", {}).to_json()
    if mode != "float":   # the cross-product decided every passing check
        assert all(c.rhs is c.lhs for c in got.checks if c.passed)
    assert got.verdict().value == ("certified" if factor == 1 else "violated")

"""The certification layer: every finite-order criterion and the verify loop.

Each certify_* function checks the premises of one criterion to a stated
depth/window and returns a CertificateReport whose condition ids are stable
strings.  "Certified" always means "the checkable premises hold to the
stated order"; the analytic conclusion they feed is named in the notes but
never claimed as computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    CaseMismatchError,
    HasRootError,
    MassExceedsOneError,
    MissingChildMeasureError,
    NotAChainError,
    PremiseViolatedError,
    WrongTreeShapeError,
    ZeroAtomInChildError,
)
from .measures import (AtomicMeasure, _validate_branch_measures, mixture, moments_of,
                       root_measure_from_branches)
from .moments import (
    TwoSidedMomentSequence,
    carleman_partial_sum,
    determinacy_verdict,
    represent,
    stieltjes_check,
    two_sided_stieltjes_check,
)
from .rationals import INF, ONE, ZERO, Scalar, format_human, is_exact
from .report import (
    CertificateReport,
    Check,
    Verdict,
    check_eq,
    check_flag,
    check_le,
    check_psd,
    merge_subreports,
    witness_check,
)
from .shifts import WeightedShift, moment_sequence
from .trees import (
    KAPPA_INF,
    covering_ancestors,
    format_vertex,
    single_child_path,
    subtree_at,
    walk_up,
)

DEFAULT_ELL = 25


# the window walk and its (K + 1)(N + 1) shift identities grow with K: certify on
# the constant-weight bilateral chain takes about 1 s at K = 1000 and 4 s at K = 3000
# (depth 20, Python 3.11 on a 2-vCPU machine)
MAX_WINDOW = 1000

# exact moments to depth N carry O(N) bits, so a certificate costs O(N^2): certify
# on tests/data/a3.json takes 0.4 s at N = 3000, 1.7 s at N = 10000 and 8.5 s at
# N = 20000 (a 124 MB report, 400 MB peak RSS; same machine)
MAX_DEPTH = 10000

# certify_bilateral's (K + 1)(N + 1) shift identities carry O(N)-bit values: on
# tests/data/bilateral.json it takes 5.0 s (318 MB peak RSS) at K = 1, N = 9999 and
# 20 s (1.2 GB) at K = 10, N = 10000.  reduce there takes 1.0 s at k_max = 1000 and
# 2.3 s at 3000 (depth 20); moments compute on tests/data/a3.json at vertex 0 takes
# 1.4 s (78 MB) at upto = 10000 and 7.2 s (250 MB) at 20000 (same machine)
MAX_SHIFT_IDENTITIES = 25000
MAX_K_MAX = 1000
MAX_UPTO = 10000

# case iv checks ell stem equalities and case ii one per stem vertex, each an entry sum
# over O(l)-bit moments: certify takes 3.0 s at ell = 10000 and 2.9 s at a stem of
# 10000 (tests/data/kappa_inf.json with a default weight of 1; same machine)
MAX_ELL = 10000
MAX_STEM = 10000

# reduce certifies k_max subtrees, each over depth + stem + 1 vertices, at a cost that
# grows faster than that count.  At the bound, reduce on tests/data/bilateral.json takes
# 5.5 s at k_max = 2, depth 10000 and m_max 1, and on kappa_inf.json with a default
# weight of 1 it takes 5.0 s for two ancestors with stems near 9990 (depth 20) and 0.7 s
# at k_max = 200, depth 20; k_max = 1000 there took 17.5 s and 1.1 GB (same machine)
MAX_REDUCE_WORK = 25000

_CEILINGS = {"depth": MAX_DEPTH, "window": MAX_WINDOW, "k_max": MAX_K_MAX, "upto": MAX_UPTO,
             "ell": MAX_ELL, "stem": MAX_STEM}


def _require_orders(**orders: int) -> None:
    """Reject a negative order (depth, window, ancestor count, upto, ell, stem), or one above its ceiling, before any check runs."""
    for name, value in orders.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    for name, value in orders.items():
        if name in _CEILINGS and value > _CEILINGS[name]:
            raise ValueError(f"{name} must be at most {_CEILINGS[name]}, got {value}")


class _Checker:
    """Accumulates checks, tracking whether everything stayed exact."""

    def __init__(self, mode: str = "auto", tol: float = 1e-9):
        if mode not in ("auto", "exact", "float"):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        self.requested = mode
        self.tol = tol
        self.checks: List[Check] = []
        self.all_exact = True

    def _mode_for(self, *values) -> str:
        exact = all(is_exact(v) or v == INF or v == -INF for v in values)
        if not exact:
            self.all_exact = False
        if self.requested == "float":
            return "float"
        if self.requested == "exact" and not exact:
            raise ValueError("exact mode requires rational data throughout")
        return "exact" if exact else "float"

    def le(self, cid, lhs, rhs, note=""):
        self.checks.append(check_le(cid, lhs, rhs, self._mode_for(lhs, rhs), self.tol, note))

    def eq(self, cid, lhs, rhs, note=""):
        exact = self.requested != "float" and is_exact(lhs) and is_exact(rhs)
        mode = "exact" if exact else self._mode_for(lhs, rhs)
        self.checks.append(check_eq(cid, lhs, rhs, mode, self.tol, note))

    def eq_sum(self, cid, lhs, terms, d=ONE):
        """Check lhs == sum of e * x / d over the (e, x) ``terms``; return the rhs recorded.

        Exact operands are decided as lhs * d * D == N, with N / D the sum of
        e * x over the product D of the terms' denominators (no gcd), and a
        passing check records its lhs as its rhs, which renders as the equal
        normalised rhs would.  Otherwise rhs = sum of e * (x / d) goes to ``eq``.
        """
        if self.requested != "float" and type(lhs) is Fraction and type(d) is Fraction:
            num, den = 0, 1
            for e, x in terms:
                if type(e) is not Fraction or type(x) is not Fraction:
                    break
                en, ed = e.as_integer_ratio()
                xn, xd = x.as_integer_ratio()
                tn, td = en * xn, ed * xd
                num, den = (num * td + tn * den, den * td) if num else (tn, td)
            else:
                ln, ld = lhs.as_integer_ratio()
                if d is not ONE:
                    dn, dd = d.as_integer_ratio()
                    ln, ld = ln * dn, ld * dd
                if ln * den == ld * num:
                    self.checks.append(Check(cid, "==", lhs, lhs, True, ZERO))
                    return lhs
        rhs = ZERO
        for e, x in terms:
            rhs = rhs + e * (x / d)
        self.eq(cid, lhs, rhs)
        return rhs

    def flag(self, cid, passed, note=""):
        self.checks.append(check_flag(cid, passed, note))

    def psd(self, cid, passed, note=""):
        self.checks.append(check_psd(cid, passed, note))

    def absorb(self, sub: "CertificateReport"):
        self.checks.extend(sub.checks)
        if sub.arithmetic != "exact":
            self.all_exact = False

    @property
    def arithmetic(self) -> str:
        if self.requested == "float":
            return "float"
        return "exact" if self.all_exact else "float"

    def verdict(self) -> Verdict:
        return Verdict.CERTIFIED if all(c.passed for c in self.checks) else Verdict.VIOLATED

    def report(self, criterion: str, params: dict, notes: Optional[List[str]] = None,
               verdict: Optional[Verdict] = None) -> CertificateReport:
        return CertificateReport(
            criterion=criterion,
            verdict=verdict if verdict is not None else self.verdict(),
            arithmetic=self.arithmetic,
            checks=self.checks,
            params=params,
            notes=list(notes or []),
        )


# -- tree shape frames --------------------------------------------------------


@dataclass(frozen=True)
class BranchFrame:
    """The single-branching-vertex layout: stem -kappa .. 0 feeding eta rays."""

    branch_vertex: object
    kappa: object                 # int >= 0 or KAPPA_INF
    entries: Tuple[object, ...]   # children of the branching vertex
    stem_fn: Callable[[int], object]   # j -> the vertex carrying weight index -j

    def stem_vertex(self, j: int):
        return self.stem_fn(j)


def branch_frame(shift: WeightedShift, probe: int = 64) -> Optional[BranchFrame]:
    """Locate the branching vertex, or return None when the tree is a chain.

    A finite tree is decided exactly from its vertex list, and more than one
    branching vertex is an error.  A lazily generated tree has no vertex
    list, so only the first ``probe`` steps below its root are searched.
    A stem longer than its ceiling is rejected before any check walks it.
    """
    tree = shift.tree
    if tree.eta_kappa is not None:
        eta, kappa = tree.eta_kappa
        if kappa != KAPPA_INF:
            _require_orders(stem=kappa)
        entries = tree.children(0)
        return BranchFrame(0, kappa, entries, lambda j: -j)
    if tree.root is None:
        raise WrongTreeShapeError(
            "rootless trees are only supported through the generated family or reduction"
        )
    if tree.vertices is not None:
        branching = [v for v in tree.vertices if len(tree.children(v)) >= 2]
        if len(branching) > 1:
            raise WrongTreeShapeError(
                "tree has more than one branching vertex: "
                + ", ".join(format_vertex(v) for v in branching)
            )
    else:
        try:
            single_child_path(tree, tree.root, probe + 1)
            branching = []
        except NotAChainError as exc:
            branching = [exc.vertex]
    if not branching:
        return None
    stem = [branching[0], *walk_up(tree, branching[0])]  # stem[j] = parent^j(branch vertex)
    _require_orders(stem=len(stem) - 1)
    return BranchFrame(stem[0], len(stem) - 1, tree.children(stem[0]),
                       lambda j, stem=stem: stem[j])


def _stem_products(shift: WeightedShift, frame: BranchFrame, last: int) -> List[Scalar]:
    """[P_0, ..., P_last] with P_l = |lambda_0 ... lambda_{-(l-1)}|^2, multiplied left to right."""
    products = [ONE]
    for j in range(last):
        products.append(products[-1] * shift.sq(frame.stem_vertex(j)))
    return products


# -- consistency condition and the measure recursion --------------------------


def consistency_at(shift: WeightedShift, u,
                   child_measures: Mapping) -> Tuple[bool, Scalar]:
    """Sum of sq(v) * (1/s)-integral of the child measures; passes when <= 1."""
    kids = shift.tree.children(u)
    total = ZERO
    for v in kids:
        if v not in child_measures:
            raise MissingChildMeasureError(u, v)
        mu_v = child_measures[v]
        if not mu_v.is_probability(tol=1e-9):
            raise ValueError(f"measure for child {format_vertex(v)} is not a probability measure")
        total = total + shift.sq(v) * moments_of(mu_v, -1)
    return total <= 1, total


@dataclass
class ConsistentSystem:
    """Families of vertex measures and defect masses for the measure recursion."""

    mu: dict
    eps: dict = field(default_factory=dict)

    def eps_at(self, v) -> Scalar:
        return self.eps.get(v, ZERO)


def _merged_rows(lists):
    """Walk lists of (location, ...) tuples, each ascending: (a, the tuples at a) per location a.

    Locations are compared by identity first: the measures of a built system
    share their location objects, so the walk then compares no Fractions.
    """
    pos = [0] * len(lists)
    while True:
        a = None
        for lst, i in zip(lists, pos):
            if i < len(lst) and (a is None or (lst[i][0] is not a and lst[i][0] < a)):
                a = lst[i][0]
        if a is None:
            return
        row = []
        for k, (lst, i) in enumerate(zip(lists, pos)):
            if i < len(lst) and (lst[i][0] is a or lst[i][0] == a):
                row.append(lst[i])
                pos[k] = i + 1
        yield a, row


def verify_consistent_system(shift: WeightedShift, system: ConsistentSystem,
                             depth: Optional[int] = None, mode: str = "auto",
                             tol: float = 1e-9) -> CertificateReport:
    """Re-check the measure recursion atom by atom at every covered vertex.

    For each vertex u whose children all carry measures, verifies that
    mu_u({a}) equals the weighted sum of mu_v({a})/a over children v for
    every positive location a, that mu_u({0}) equals the defect eps_u, and
    that each mu_u is a probability measure.  When a strict ``depth`` is
    given (rooted trees), missing children inside the depth are an error
    rather than a silent skip.

    mass[u] is ``AtomicMeasure.total_mass``.  When u has one child v and the
    positive locations of mu_v are the very objects of mu_u's (a ray or stem
    vertex of a built system), the two atom lists are read side by side.
    Otherwise the atoms of mu_u and of the children are walked together in
    ascending order (``_merged_rows``).  Either way each muu+[u,a] is
    ``_Checker.eq_sum`` of mu_u({a}) against the terms sq(v) * mu_v({a}) over
    d = a.
    """
    tree = shift.tree
    ck = _Checker(mode, tol)
    # keyed by id, each holding its key object so that the id stays unique: a location's
    # label (the measures of a built system share locations) and a measure's atoms off 0
    labels: dict = {}
    positive: dict = {}

    def label(a) -> str:
        got = labels.get(id(a))
        if got is None:
            got = labels[id(a)] = (a, format_human(a))
        return got[1]

    def off_zero(mu: AtomicMeasure) -> list:
        got = positive.get(id(mu))
        if got is None:
            got = positive[id(mu)] = (mu, [atom for atom in mu.atoms if atom[0]])
        return got[1]

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
        ck.eq(f"mass[{fu}]", mu_u.total_mass(), ONE)
        kid_measures = [system.mu[v] for v in kids]
        # a location is 0 exactly when it is falsy, so an atom at 0 is one that off_zero drops
        kid_atoms = [off_zero(mu_v) for mu_v in kid_measures]
        for v, mu_v, atoms in zip(kids, kid_measures, kid_atoms):
            if len(atoms) < len(mu_v.atoms):
                raise ZeroAtomInChildError(v)
        own = off_zero(mu_u)
        # a weight is read only when some positive location needs it
        sqs = [shift.sq(v) for v in kids] if own or any(kid_atoms) else []
        kid = kid_atoms[0] if len(sqs) == 1 else None
        if kid is not None and len(kid) == len(own) and all(a is b for (a, _), (b, _) in zip(own, kid)):
            for (a, w), (_, x) in zip(own, kid):
                ck.eq_sum(f"muu+[{fu},{label(a)}]", w, ((sqs[0], x),), a)
        else:
            # rows of (s, mu_u({s}), None) and (s, None, (sq(v), mu_v({s})))
            lists = [[(s, w, None) for s, w in own]]
            for e, atoms in zip(sqs, kid_atoms):
                lists.append([(s, None, (e, w)) for s, w in atoms])
            for a, row in _merged_rows(lists):
                lhs, terms = ZERO, []
                for _, w, term in row:
                    if w is not None:
                        lhs = w
                    else:
                        terms.append(term)
                ck.eq_sum(f"muu+[{fu},{label(a)}]", lhs, terms, a)
        eps_u = system.eps_at(u)
        if eps_u < 0:
            ck.flag(f"eps[{fu}]", False, f"defect {format_human(eps_u)} is negative")
        ck.eq(f"muu+[{fu},0]", mu_u.mass_at(ZERO) if len(own) < len(mu_u.atoms) else ZERO, eps_u)
    notes = []
    if skipped:
        notes.append(f"{skipped} boundary vertices skipped (children outside the system)")
    params = {"vertices": len(ordered)}
    if depth is not None:
        params["depth"] = depth
    return ck.report("measure-recursion", params, notes)


# -- classical chains ----------------------------------------------------------


def _emit_stieltjes_checks(ck: _Checker, verdict) -> None:
    if verdict.violated:
        ck.checks.append(witness_check(verdict.witness))
    else:
        for kind in ("hankel", "hankel_shifted"):
            ck.psd(f"psd[{kind}]", True, f"{kind} form positive semidefinite up to order {verdict.upto}")


def _usable(rep: AtomicMeasure, mode: str) -> bool:
    """Whether a recovered measure can enter the checks: exact mode needs exact atoms, and a
    recovery whose nodes are irrational returns the nearest floats."""
    return mode != "exact" or rep.is_exact()


def certify_unilateral(shift: WeightedShift, N: int,
                       measure: Optional[AtomicMeasure] = None,
                       m_max: Optional[int] = None,
                       mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Moment test for a rooted chain: (1, sq_1, sq_1*sq_2, ...) must be Stieltjes.

    When an exact atomic representing measure is supplied (or recovered with
    at most ``m_max`` atoms), the explicit chain system mu_n ~ s^n dmu is
    built and the measure recursion re-verified, closing the loop on the
    sufficiency criterion.
    """
    _require_orders(depth=N)
    tree = shift.tree
    if not tree.is_rooted:
        raise WrongTreeShapeError("unilateral criterion needs a rooted chain")
    chain = single_child_path(tree, tree.root, N)
    ck = _Checker(mode, tol)
    t = moment_sequence(shift, tree.root, N)
    sv = stieltjes_check(t, mode=mode, tol=tol)
    _emit_stieltjes_checks(ck, sv)
    notes = [f"orbit sequence at the root checked to order {N}"]
    params = {"depth": N}
    if m_max is not None:
        params["m_max"] = m_max
    if sv.violated:
        return ck.report("unilateral-shift-stieltjes", params, notes)

    rep = measure
    if rep is None and m_max is not None:
        rep = represent(t, m_max, mode=mode)
        if rep is None:
            notes.append(f"no representing measure with <= {m_max} atoms; consistency up to order {N} only")
        elif not _usable(rep, mode):
            rep = None
            notes.append(f"the representing measure with <= {m_max} atoms has irrational nodes")
    if rep is not None:
        for n in range(len(t)):
            ck.eq(f"rep[{n}]", moments_of(rep, n), t[n])
        mu_map = {}
        eps_map = {}
        for k, v in enumerate(chain):
            if not tree.children(v):
                break  # finite prefix: the recursion is not claimed at a leaf
            mu_map[v] = rep.tilted(k)
            eps_map[v] = rep.mass_at(0) if k == 0 else ZERO
        system = ConsistentSystem(mu_map, eps_map)
        sub = verify_consistent_system(shift, system, mode=mode, tol=tol)
        ck.absorb(sub)
        notes.append(f"explicit chain system verified on {len(mu_map)} vertices")
    else:
        notes.append("no exact representing measure exhibited; verdict is order-limited consistency")
    return ck.report("unilateral-shift-stieltjes", params, notes)


def certify_bilateral(shift: WeightedShift, K: int, N: int,
                      m_max: Optional[int] = None, base=0,
                      mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Two-sided moment test for a rootless chain.

    Assembles the window t_{-K}..t_N from the weights (t_n the squared
    product of weights 1..n; t_{-n} the reciprocal product of weights
    -n+1..0), runs the shifted Hankel checks for every k <= K, and verifies
    the shift identity t_{n-k} = t_{-k} * ||S^n e_{-k}||^2 exactly.
    """
    _require_orders(window=K, depth=N)
    if (K + 1) * (N + 1) > MAX_SHIFT_IDENTITIES:
        raise ValueError(f"(window + 1) * (depth + 1) must be at most {MAX_SHIFT_IDENTITIES}, "
                         f"got {(K + 1) * (N + 1)}")
    tree = shift.tree
    if tree.is_rooted:
        raise HasRootError("two-sided criterion needs a rootless chain")
    top = (covering_ancestors(tree, base, K) or [base])[-1]
    chain = single_child_path(tree, top, K + N)  # chain[K + n] is n steps below base

    values = {0: ONE}
    for n in range(1, N + 1):
        values[n] = values[n - 1] * shift.sq(chain[K + n])
    for k in range(1, K + 1):
        values[-k] = values[-k + 1] / shift.sq(chain[K - k + 1])
    window = {n: values[n] for n in range(-K, N + 1)}
    ts = TwoSidedMomentSequence.from_map(window)

    ck = _Checker(mode, tol)
    sv = two_sided_stieltjes_check(ts, K, mode=mode, tol=tol)
    if sv.violated:
        ck.checks.append(witness_check(sv.witness))
    else:
        for k in sv.shifts_checked:
            ck.psd(f"psd[shift={k}]", True, f"shifted sequence (t_-{k}, ...) consistent")

    for k in range(K + 1):
        ms = moment_sequence(shift, chain[K - k], N)
        for n in range(N + 1):
            ck.eq_sum(f"tshift[{k},{n}]", values[n - k], ((values[-k], ms[n]),))

    notes = [f"all k <= {K} verified; the criterion quantifies over infinitely many k"]
    if not sv.violated and m_max is not None:
        rep = represent(ts.shifted(0), m_max, mode=mode)
        if rep is not None and not _usable(rep, mode):
            notes.append(f"the representing measure with <= {m_max} atoms has irrational nodes; "
                         f"no exact representing measure exhibited")
        elif rep is not None and not rep.has_zero_atom():
            for n in range(-K, N + 1):
                ck.eq(f"rep[{n}]", moments_of(rep, n), window[n])
            notes.append("atomic representing measure on (0, inf) matches the whole window")
        else:
            notes.append(f"no representing measure with <= {m_max} atoms exhibited")
    params = {"window_left": K, "window_right": N}
    if m_max is not None:
        params["m_max"] = m_max
    return ck.report("bilateral-shift-two-sided-stieltjes", params, notes)


# -- the one-branching-vertex family ------------------------------------------


def _branch_setup(shift: WeightedShift, branch_measures: Sequence[AtomicMeasure],
                  depth: int) -> Tuple[BranchFrame, List[Scalar]]:
    """Apply the depth ceiling and reject a chain or bad branch measures; the frame and the entry weights, read once."""
    _require_orders(depth=depth)
    frame = branch_frame(shift)
    if frame is None:
        raise WrongTreeShapeError("tree has no branching vertex; use the chain criteria")
    if len(branch_measures) != len(frame.entries):
        raise ValueError(f"expected {len(frame.entries)} branch measures")
    _validate_branch_measures(branch_measures)
    return frame, [shift.sq(v) for v in frame.entries]


def _zgod0_checks(ck: _Checker, shift: WeightedShift, frame: BranchFrame,
                  measures: Sequence[AtomicMeasure], N: int) -> None:
    """zgod0[i,n]: m_n(mu_i) == sq(ray_i[n]) times the rhs recorded at n - 1, by ``_Checker.eq_sum``."""
    for i, (entry, mu) in enumerate(zip(frame.entries, measures), 1):
        ray = single_child_path(shift.tree, entry, N)
        if len(ray) <= N:
            raise WrongTreeShapeError(
                f"ray through {format_vertex(entry)} ends at {format_vertex(ray[-1])} before depth {N}"
            )
        prod = ONE
        for n in range(1, N + 1):
            prod = ck.eq_sum(f"zgod0[{i},{n}]", moments_of(mu, n), ((shift.sq(ray[n]), prod),))


def _stem_masses(shift: WeightedShift, frame: BranchFrame, measures: Sequence[AtomicMeasure],
                 entry_sq: Sequence[Scalar], last: int):
    """P_l * S_l for l = 0..last: the mass of P_l s^-(l+1) dmix, the body of stem vertex l.

    S_l = sum_i sq(entry_i) m_{-(l+1)}(mu_i) is summed entry by entry, not over the
    merged atoms of mix = sum_i sq(entry_i) mu_i: float values depend on that order.
    """
    for l, P in enumerate(_stem_products(shift, frame, last)):
        yield P * sum((e * moments_of(mu, -(l + 1)) for e, mu in zip(entry_sq, measures)), ZERO)


def _case_checks(shift: WeightedShift, frame: BranchFrame, measures: Sequence[AtomicMeasure],
                 entry_sq: Sequence[Scalar], N: int, ell_max: int, mode: str, tol: float):
    """zgod0 to order N, then one check per stem mass; returns the checker and the masses.

    The mass is at most 1 at the root (zgod with no stem, widly1p) and 1 below
    it (zgodp at the branching vertex, widly1[l]); an infinite stem is checked
    for l <= ell_max, the one case that reads ell_max and its ceiling.
    """
    rooted = frame.kappa != KAPPA_INF
    if not rooted:
        _require_orders(ell=ell_max)
    ck = _Checker(mode, tol)
    _zgod0_checks(ck, shift, frame, measures, N)
    last = int(frame.kappa) if rooted else ell_max
    masses = list(_stem_masses(shift, frame, measures, entry_sq, last))
    for l, mass in enumerate(masses):
        at_root = rooted and l == last
        cid = ("zgod" if at_root else "zgodp") if l == 0 else ("widly1p" if at_root else f"widly1[{l}]")
        (ck.le if at_root else ck.eq)(cid, mass, ONE)
    return ck, masses


def certify_branch_tree(shift: WeightedShift, branch_measures: Sequence[AtomicMeasure],
                        N: int, ell_max: int = DEFAULT_ELL, case: Optional[str] = None,
                        mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Sufficiency criterion on the single-branching-vertex family.

    Verifies that the branch measures reproduce the ray weight products
    (zgod0, to order N), then the stem case selected by the stem length, on
    the mass P_l S_l of stem vertex l: no stem -> one inequality (zgod);
    finite stem -> the entry-sum equality, the stem equalities for l below
    the stem length, and the final inequality (widly1'); infinite stem ->
    equalities for l up to ell_max.  ``build_branch_tree_system`` tilts to
    the same masses.
    """
    frame, entry_sq = _branch_setup(shift, branch_measures, N)
    auto = "i" if frame.kappa == 0 else "iv" if frame.kappa == KAPPA_INF else "ii"
    if case in (None, "auto"):
        case = auto
    elif case == "iii":
        raise CaseMismatchError("the root-measure form is checked by certify_branch_tree_root_measure")
    elif case != auto:
        raise CaseMismatchError(f"stem length {frame.kappa} selects case {auto}, not {case}")
    ck, _ = _case_checks(shift, frame, branch_measures, entry_sq, N, ell_max, mode, tol)
    params = {"depth": N, "case": case}
    notes = ["premises of the one-branching-vertex sufficiency criterion verified to the stated order"]
    if case == "iv":
        params["ell_max"] = ell_max
        notes.append(f"infinite stem: equalities checked for l <= {ell_max} (window-bounded)")
    return ck.report(f"branch-tree-case-{case}", params, notes)


def certify_branch_tree_root_measure(shift: WeightedShift,
                                     branch_measures: Sequence[AtomicMeasure],
                                     nu: AtomicMeasure, N: int,
                                     mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Root-measure form of the finite-stem criterion.

    Checks that the moments of nu reproduce the root orbit norms (prob[n],
    n up to the stem length; prob[0] is the probability normalization) and
    the measure identity s^kappa dnu = P * sum_i sq_i (1/s) dmu_i atom by
    atom (probp), once the data pass the checks of ``certify_branch_tree``.
    """
    frame, entry_sq = _branch_setup(shift, branch_measures, N)
    if frame.kappa == 0 or frame.kappa == KAPPA_INF:
        raise CaseMismatchError("the root-measure form needs a finite nonzero stem")
    kappa = int(frame.kappa)

    ck = _Checker(mode, tol)
    _zgod0_checks(ck, shift, frame, branch_measures, N)
    ck.eq("prob[0]", moments_of(nu, 0), ONE)
    # ||S^n e_root||^2: the product of the n stem weights below the root
    rhs = ONE
    for n in range(1, kappa + 1):
        rhs = rhs * shift.sq(frame.stem_vertex(kappa - n))
        ck.eq(f"prob[{n}]", moments_of(nu, n), rhs)
    # the rhs of probp is the measure P sum_i sq_i (1/s) dmu_i
    P = _stem_products(shift, frame, kappa)[-1]
    mix = mixture(branch_measures, entry_sq)
    stem = mix.tilted(-1, P * mix.moment(-1))
    locations = {s for s, _ in nu.atoms if s != 0}
    for mu in branch_measures:
        locations.update(s for s, _ in mu.atoms)
    for a in sorted(locations):
        ck.eq(f"probp[{format_human(a)}]", nu.mass_at(a) * a ** kappa, stem.mass_at(a))
    notes = ["root-measure form of the finite-stem criterion"]
    return ck.report("branch-tree-case-iii", {"depth": N, "case": "iii"}, notes)


def root_measure_equivalence_roundtrip(shift: WeightedShift,
                                       branch_measures: Sequence[AtomicMeasure],
                                       N: int, nu: Optional[AtomicMeasure] = None,
                                       mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Check both finite-stem forms against each other.

    The stem-equality form and the root-measure form are equivalent for the
    same stem; this runs the first, constructs the root measure from the
    branch data, runs the second against it, and records that the two
    outcomes agree.  A supplied nu is checked in the reverse direction: if
    it passes the root-measure form, the equality form must pass too.
    """
    frame, entry_sq = _branch_setup(shift, branch_measures, N)
    if frame.kappa == 0 or frame.kappa == KAPPA_INF:
        raise CaseMismatchError("the equivalence concerns the finite nonzero stem cases")
    kappa = int(frame.kappa)
    rep2 = certify_branch_tree(shift, branch_measures, N, case="ii", mode=mode, tol=tol)

    left_sq = [shift.sq(frame.stem_vertex(j)) for j in range(kappa)]
    nu_note = ""
    try:
        nu_built = root_measure_from_branches(branch_measures, entry_sq, left_sq)
        rep3 = certify_branch_tree_root_measure(shift, branch_measures, nu_built, N,
                                                mode=mode, tol=tol)
    except MassExceedsOneError as exc:
        nu_built = None
        nu_note = str(exc)
        rep3 = CertificateReport(
            criterion="branch-tree-case-iii",
            verdict=Verdict.VIOLATED,
            arithmetic=rep2.arithmetic,
            checks=[check_flag("probp[mass]", False, f"no admissible root measure: {exc}")],
            params={"depth": N, "case": "iii"},
        )

    parts = [("ii", rep2), ("iii", rep3)]
    notes = []
    extra_checks = []
    if nu is not None:
        rep3u = certify_branch_tree_root_measure(shift, branch_measures, nu, N,
                                                 mode=mode, tol=tol)
        parts.append(("iii-given", rep3u))
        back_ok = (not rep3u.passed) or rep2.passed
        extra_checks.append(check_flag("equiv[given-root-measure]", back_ok,
                                       "a passing root measure forces the equality form"))
    equiv = rep2.passed == rep3.passed
    extra_checks.append(check_flag(
        "equiv", equiv,
        f"equality form {'passes' if rep2.passed else 'fails'}; "
        f"root-measure form {'passes' if rep3.passed else 'fails'}",
    ))
    if nu_note:
        notes.append(nu_note)
    merged = merge_subreports("branch-tree-equivalence-roundtrip",
                              parts, {"depth": N, "stem": kappa}, notes)
    merged.checks.extend(extra_checks)
    if not all(c.passed for c in extra_checks):
        merged.verdict = Verdict.VIOLATED
    return merged


def build_branch_tree_system(shift: WeightedShift,
                             branch_measures: Sequence[AtomicMeasure],
                             depth: int, ell_max: Optional[int] = None,
                             mode: str = "auto", tol: float = 1e-9) -> ConsistentSystem:
    """Construct the vertex measures and defects realizing the measure recursion.

    Along ray i the measure at depth n is s^(n-1) dmu_i normalized by the
    (n-1)-st moment; stem vertex l (the branching vertex at l = 0) carries
    the mixture sum_i sq(entry_i) mu_i tilted by -(l+1) to the mass P_l S_l
    that its case check (zgod, zgodp, widly1[l], widly1p) recorded; the
    defect sits at the root only.  Raises PremiseViolatedError (naming the
    failing condition id) when the case premises do not hold, since the
    construction is only valid then.
    """
    frame, entry_sq = _branch_setup(shift, branch_measures, depth)
    kappa = frame.kappa
    rooted = kappa != KAPPA_INF
    if rooted and depth < int(kappa):
        raise ValueError(f"depth {depth} does not reach the branching vertex (stem {kappa})")
    branch_depth = depth - int(kappa) if rooted else depth
    ell = int(ell_max if ell_max is not None else depth)   # read by case iv only

    ck, masses = _case_checks(shift, frame, branch_measures, entry_sq, max(branch_depth, 1), ell, mode, tol)
    bad = next((c for c in ck.checks if not c.passed), None)
    if bad is not None:
        raise PremiseViolatedError(bad.cid, bad.note)

    mu: dict = {}
    eps: dict = {}

    for entry, bmu in zip(frame.entries, branch_measures):
        ray = single_child_path(shift.tree, entry, max(branch_depth - 1, 0))
        for n, v in enumerate(ray, 1):
            mu[v] = bmu.tilted(n - 1)
            eps[v] = ZERO

    # stem vertex l (the branching vertex at l = 0) carries P_l s^-(l+1) dmix, the tilt of the
    # mixture sum_i e_i mu_i to the mass its case check recorded; the root also carries the defect,
    # none when a float mass that passed its check within tolerance exceeds 1 by rounding
    mix = mixture(branch_measures, entry_sq)
    for l, mass in enumerate(masses):
        body = mix.tilted(-(l + 1), mass)
        v = frame.stem_vertex(l)
        eps[v] = max(1 - body.total_mass(), ZERO) if rooted and l == len(masses) - 1 else ZERO
        mu[v] = body.with_defect(eps[v])
    return ConsistentSystem(mu, eps)


# terms of the Carleman partial sum that necessary_checks_determinate reports as evidence
CARLEMAN_TERMS = 30


def necessary_checks_determinate(shift: WeightedShift, N: int, m_max: int,
                                 stem_checks: Optional[int] = None,
                                 mode: str = "auto", tol: float = 1e-9) -> CertificateReport:
    """Necessary-condition pipeline under determinacy of the root orbit moments.

    Recovers atomic representing measures for the ray orbit sequences (the
    criterion's hypotheses force them to exist when those sequences are
    m_max-atomic), reports determinacy evidence for the branching vertex's
    shifted orbit sequence, re-checks the case conditions that must then
    hold, and checks the consistency condition at the branching vertex and
    every stem vertex.  Recovery failure degrades to Inconclusive.  An
    infinite stem is checked for l <= ``stem_checks`` (default 10), under
    the ceiling of ell.
    """
    _require_orders(depth=N)
    frame = branch_frame(shift)
    if frame is None:
        raise WrongTreeShapeError("tree has no branching vertex")
    kappa = frame.kappa
    limit = int(kappa) if kappa != KAPPA_INF else int(stem_checks if stem_checks is not None else 10)
    if kappa == KAPPA_INF:
        _require_orders(ell=limit)
    ck = _Checker(mode, tol)
    params = {"depth": N, "m_max": m_max}
    notes: List[str] = []

    measures = []
    for entry in frame.entries:
        seq = moment_sequence(shift, entry, N)
        rec = represent(seq, m_max, mode=mode)
        fe = format_vertex(entry)
        if rec is None or not _usable(rec, mode):
            how = "is not reproduced by a measure" if rec is None else "is reproduced only by a measure"
            irrational = "" if rec is None else ", one whose nodes are irrational, which exact mode cannot check"
            ck.flag(f"recover[{fe}]", False, f"orbit prefix at {fe} {how} with <= {m_max} atoms{irrational}")
            notes.append("representing measures could not be recovered; supply them explicitly")
            return ck.report("necessary-conditions-determinate", params, notes,
                             verdict=Verdict.INCONCLUSIVE)
        desc = " + ".join(f"{format_human(w)}*d[{format_human(s)}]" for s, w in rec.atoms)
        how = "exactly" if rec.is_exact() else "to floating-point tolerance"
        ck.flag(f"recover[{fe}]", True, f"recovered {desc}, reproducing the prefix {how}")
        measures.append(rec)

    dv = determinacy_verdict(mixture(measures, [shift.sq(v) for v in frame.entries]))
    ck.flag("determinate[shifted-orbit]", dv.kind == "determinate_exact", dv.note)
    notes.append("determinacy transfers down single-child edges to the stem orbit sequences")

    carleman_seq = moment_sequence(shift, frame.branch_vertex, CARLEMAN_TERMS)
    S = carleman_partial_sum(carleman_seq, CARLEMAN_TERMS)
    ck.flag(f"carleman[{CARLEMAN_TERMS}]", True,
            f"partial sum S_{CARLEMAN_TERMS} = {S:.6g} over {CARLEMAN_TERMS} terms; evidence only")

    case_rep = certify_branch_tree(shift, measures, N, ell_max=max(limit, 1),
                                   mode=mode, tol=tol)
    ck.absorb(case_rep)
    params["case"] = case_rep.params.get("case")

    if case_rep.passed:
        system = build_branch_tree_system(
            shift, measures,
            depth=(int(kappa) + 1) if kappa != KAPPA_INF else 1,
            ell_max=limit if kappa == KAPPA_INF else None,
            mode=mode, tol=tol,
        )
        child_pool = dict(system.mu)
        for entry, mu_i in zip(frame.entries, measures):
            child_pool[entry] = mu_i
        for j in range(0, limit + 1):
            u = frame.stem_vertex(j) if j > 0 else frame.branch_vertex
            ok, lhs = consistency_at(shift, u, child_pool)
            ck.le(f"alanconsi[{format_vertex(u)}]", lhs, ONE)
    else:
        notes.append("case conditions fail, so the downstream consistency checks are moot")

    return ck.report("necessary-conditions-determinate", params, notes)


def reduce_rootless(shift: WeightedShift, base, k_max: int, N: int,
                    branch_measures: Optional[Sequence[AtomicMeasure]] = None,
                    m_max: Optional[int] = None, mode: str = "auto",
                    tol: float = 1e-9) -> CertificateReport:
    """Covering reduction for rootless trees.

    Certifies the rooted subtree below each ancestor parent^k(base) for
    k = 1..k_max by dispatching to the applicable rooted criterion; the
    union of those descendant sets over all k covers the whole tree, so the
    aggregate is the window-bounded form of the subtree equivalence.  Each
    subtree is rooted, so a branching one has a finite stem and never
    reaches case iv, which alone reads ell_max.  Every
    subtree's frame is found, and the work (depth + stem + 1 summed over the
    ancestors) bounded, before any certificate runs.
    """
    _require_orders(k_max=k_max, depth=N)
    if k_max == 0:
        raise ValueError("k_max must be at least 1, got 0")
    tree = shift.tree
    if tree.is_rooted:
        raise HasRootError("reduction applies to rootless trees")
    subtrees = []
    work = 0
    for k, omega in enumerate(covering_ancestors(tree, base, k_max), 1):
        subshift = WeightedShift(subtree_at(tree, omega), shift.weights)
        frame = branch_frame(subshift, probe=max(N, 64))
        work += N + 1 + (0 if frame is None else frame.kappa)
        if work > MAX_REDUCE_WORK:
            raise ValueError(f"(depth + stem + 1) summed over the ancestors must be at most "
                             f"{MAX_REDUCE_WORK}, got {work} by ancestor {k}")
        subtrees.append((omega, subshift, frame))
    parts = []
    for omega, subshift, frame in subtrees:
        if frame is None:
            rep = certify_unilateral(subshift, N, m_max=m_max, mode=mode, tol=tol)
        else:
            if branch_measures is None:
                raise ValueError("branch measures are required for branching subtrees")
            rep = certify_branch_tree(subshift, branch_measures, N, mode=mode, tol=tol)
        parts.append((f"des[{format_vertex(omega)}]", rep))
    notes = [
        f"window-bounded reduction: ancestors k <= {k_max} certified; "
        f"the full equivalence quantifies over all k"
    ]
    return merge_subreports("rootless-covering-reduction", parts,
                            {"k_max": k_max, "depth": N}, notes)

"""Weight systems and the orbit norms of weighted shifts on directed trees.

All criteria consume only squared moduli |lambda_v|^2, and a shift is
unitarily equivalent to the shift with weights |lambda_v|, so weights are
stored as squared moduli and phases are dropped on input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import WeightUndefinedError, WrongTreeShapeError, ZeroWeightError
from .measures import AtomicMeasure, moment_ratio_rule
from .moments import MomentSequence
from .rationals import ONE, ZERO, Scalar, as_scalar
from .trees import KAPPA_INF, DirectedTree, format_vertex, make_tree_eta_kappa, walk_levels

NONZERO_REQUIRED = "nonzero_required"
ALLOW_ZERO = "allow_zero"


class WeightSystem:
    """Total map from non-root vertices to squared weight moduli.

    Construct via :meth:`from_sq_map` or :meth:`from_rule`.  Caching inside
    rule-based systems only ever adds entries, so concurrent readers see a
    consistent view.
    """

    def __init__(self, sq_fn: Callable, zero_policy: str = NONZERO_REQUIRED,
                 domain: Optional[frozenset] = None):
        self._sq_fn = sq_fn
        self.zero_policy = zero_policy
        self.domain = domain

    @classmethod
    def from_sq_map(cls, mapping: Mapping, zero_policy: str = NONZERO_REQUIRED,
                    default=None) -> "WeightSystem":
        table = {v: as_scalar(sq) for v, sq in mapping.items()}
        default_sq = None if default is None else as_scalar(default)

        def sq(v):
            if v in table:
                return table[v]
            if default_sq is not None:
                return default_sq
            raise WeightUndefinedError(v)

        domain = None if default_sq is not None else frozenset(table)
        return cls(sq, zero_policy=zero_policy, domain=domain)

    @classmethod
    def from_rule(cls, sq_fn: Callable, zero_policy: str = NONZERO_REQUIRED) -> "WeightSystem":
        return cls(sq_fn, zero_policy=zero_policy)

    def sq(self, v) -> Scalar:
        value = self._sq_fn(v)
        if isinstance(value, Fraction) and value.numerator > 0:
            return value
        value = as_scalar(value)
        if value < 0:
            raise ValueError(f"squared weight at {v!r} is negative")
        if value == 0 and self.zero_policy == NONZERO_REQUIRED:
            raise ZeroWeightError(v)
        return value


@dataclass(frozen=True)
class WeightedShift:
    """A directed tree together with a weight system on its non-root vertices."""

    tree: DirectedTree
    weights: WeightSystem

    def __post_init__(self):
        if self.tree.vertices is not None and self.weights.domain is not None:
            needed = {v for v in self.tree.vertices if v != self.tree.root}
            missing = needed - set(self.weights.domain)
            if missing:
                raise WeightUndefinedError(sorted(missing, key=format_vertex)[0])

    def sq(self, v) -> Scalar:
        if self.tree.root is not None and v == self.tree.root:
            raise WeightUndefinedError(v)
        return self.weights.sq(v)


def moment_sequence(shift: WeightedShift, u, N: int) -> MomentSequence:
    """Orbit-norm sequence t_n = ||S^n e_u||^2 for n = 0..N.

    Computed as path sums: t_n adds, over the depth-n descendants w of u,
    the product of squared weights along the path u -> w.  Exact when the
    weights are rational.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    sq = shift.weights.sq
    values = [ONE]
    products = {u: ONE}
    for edges in walk_levels(shift.tree, u, N):
        products = {c: products[v] * sq(c) for v, c in edges}
        values.append(sum(products.values(), ZERO))
    return MomentSequence(tuple(values))


def synthesize_weights_from_measures(tree: DirectedTree,
                                     branch_measures: Sequence[AtomicMeasure],
                                     entry_weight_sq: Sequence,
                                     left_weight_sq=()) -> WeightedShift:
    """Weights on a one-branching-vertex tree from prescribed branch measures.

    Along branch i the squared weights are consecutive moment ratios
    |lambda_{i,n+1}|^2 = m_n(mu_i)/m_{n-1}(mu_i), so the telescoped products
    reproduce the measures' moments exactly.  Entry and stem weights are
    taken as given squared moduli; ``left_weight_sq`` may be a sequence or a
    callable j -> |lambda_{-j}|^2 (useful for the infinite-stem family).
    """
    if tree.eta_kappa is None:
        raise WrongTreeShapeError("weight synthesis needs the generated one-branching-vertex family")
    eta, kappa = tree.eta_kappa
    if len(branch_measures) != eta or len(entry_weight_sq) != eta:
        raise ValueError(f"expected {eta} branch measures and entry weights")
    for mu in branch_measures:
        if not mu.is_probability(tol=1e-9):
            raise ValueError("branch measures must be probability measures")
        if any(s <= 0 for s, _ in mu.atoms):
            raise ValueError("branch measure atoms must be strictly positive")

    entry = [as_scalar(x) for x in entry_weight_sq]

    if callable(left_weight_sq):
        left_fn = left_weight_sq
    else:
        left_list = [as_scalar(x) for x in left_weight_sq]
        if kappa != KAPPA_INF and len(left_list) < int(kappa):
            raise ValueError(f"need {int(kappa)} stem weights, got {len(left_list)}")

        def left_fn(j):
            try:
                return left_list[j]
            except IndexError:
                raise WeightUndefinedError(-j) from None

    ray_rules = [moment_ratio_rule(mu) for mu in branch_measures]

    def sq(v):
        if isinstance(v, tuple):
            i, j = v
            if not 1 <= i <= eta:
                raise WeightUndefinedError(v)
            return entry[i - 1] if j == 1 else ray_rules[i - 1](j)
        if isinstance(v, int) and not isinstance(v, bool):
            if v == 0 and kappa == 0:
                raise WeightUndefinedError(v)  # root carries no weight
            if v <= 0 and (kappa == KAPPA_INF or -v < kappa):
                return as_scalar(left_fn(-v))
        raise WeightUndefinedError(v)

    return WeightedShift(tree, WeightSystem.from_rule(sq))


def make_branch_shift(eta: int, kappa, branch_measures, entry_weight_sq,
                      left_weight_sq=()) -> WeightedShift:
    """Convenience: generate the tree and synthesize its weights in one step."""
    tree = make_tree_eta_kappa(eta, kappa)
    return synthesize_weights_from_measures(tree, branch_measures, entry_weight_sq, left_weight_sq)

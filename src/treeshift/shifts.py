"""Weight systems and the orbit norms of weighted shifts on directed trees.

All criteria consume only squared moduli |lambda_v|^2, and a shift is
unitarily equivalent to the shift with weights |lambda_v|, so weights are
stored as squared moduli and phases are dropped on input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from .errors import WeightUndefinedError, WrongTreeShapeError, ZeroWeightError
from .measures import AtomicMeasure, moment_ratio_rule
from .moments import MomentSequence
from .rationals import ONE, ZERO, Scalar, as_scalar
from .trees import KAPPA_INF, DirectedTree, format_vertex, make_tree_eta_kappa, walk_levels


class WeightSystem:
    """Squared weight moduli of an injective weighted shift, held as data.

    ``sq(v)`` decides every weight by one lookup: ``table[v]``; else, at a ray
    vertex (i, j >= 2) with a measure ``rays[i]``, m_{j-1}(mu_i) / m_{j-2}(mu_i),
    so the ray's products telescope to the moments of mu_i (cached per ray by
    ``moment_ratio_rule``); else ``default``; else the opaque ``rule(v)``;
    else :class:`WeightUndefinedError`.  The shifts are injective: a zero
    value raises :class:`ZeroWeightError`, and a negative, infinite or NaN
    one ValueError, whichever step gave it.  ``domain`` is the table's keys
    when nothing else is given, so that a finite tree is checked for
    unweighted vertices.
    Caches only ever add entries, so concurrent readers see a consistent view.
    """

    def __init__(self, table: Optional[Mapping] = None, rays: Optional[Mapping] = None,
                 default=None, rule: Optional[Callable] = None):
        self.table = {v: as_scalar(sq) for v, sq in (table or {}).items()}
        self.rays = dict(rays or {})
        self.default = None if default is None else as_scalar(default)
        self.rule = rule
        self._ratios = {i: moment_ratio_rule(mu) for i, mu in self.rays.items()}
        only_table = not self.rays and self.default is None and rule is None
        self.domain = frozenset(self.table) if only_table else None

    @classmethod
    def from_sq_map(cls, mapping: Mapping, default=None) -> "WeightSystem":
        return cls(mapping, default=default)

    @classmethod
    def from_rule(cls, sq_fn: Callable) -> "WeightSystem":
        return cls(rule=sq_fn)

    def sq(self, v) -> Scalar:
        value = self.table.get(v)
        if value is None:
            if isinstance(v, tuple) and v[0] in self._ratios and v[1] >= 2:
                value = self._ratios[v[0]](v[1])
            elif self.default is not None:
                value = self.default
            elif self.rule is not None:
                value = self.rule(v)
            else:
                raise WeightUndefinedError(v)
        if isinstance(value, Fraction) and value.numerator > 0:
            return value
        value = as_scalar(value)
        if value < 0:
            raise ValueError(f"squared weight at {v!r} is negative")
        if value == 0:
            raise ZeroWeightError(v)
        if not math.isfinite(value):   # NaN passes both tests above
            raise ValueError(f"squared weight at {v!r} is {value!r}, not a finite number")
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


def _stem_weight(left: Callable, kappa, v) -> Scalar:
    """left(j) at the stem vertex v = -j of a stem of length kappa; no other vertex has a weight."""
    if isinstance(v, int) and not isinstance(v, bool) and v <= 0 and (kappa == KAPPA_INF or -v < kappa):
        return left(-v)
    raise WeightUndefinedError(v)


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

    table = {(i, 1): e for i, e in enumerate(entry_weight_sq, 1)}
    rule = None
    if callable(left_weight_sq):
        rule = partial(_stem_weight, left_weight_sq, kappa)
    else:
        left = list(left_weight_sq)
        if kappa != KAPPA_INF and len(left) < kappa:
            raise ValueError(f"need {int(kappa)} stem weights, got {len(left)}")
        table.update((-j, left[j]) for j in range(min(len(left), kappa)))
    return WeightedShift(tree, WeightSystem(table, dict(enumerate(branch_measures, 1)), rule=rule))


def make_branch_shift(eta: int, kappa, branch_measures, entry_weight_sq,
                      left_weight_sq=()) -> WeightedShift:
    """Convenience: generate the tree and synthesize its weights in one step."""
    tree = make_tree_eta_kappa(eta, kappa)
    return synthesize_weights_from_measures(tree, branch_measures, entry_weight_sq, left_weight_sq)

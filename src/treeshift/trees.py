"""Directed-tree data model with lazy child enumeration.

A tree is described by four total functions (children, parent, membership,
level) rather than a materialized vertex set, so the generated infinite
families (branch trees with an infinite stem, two-sided chains) can be
traversed to any finite depth without being built.  The level function
increases by exactly one from parent to child, which is what makes
descendant tests on infinite trees terminate.

Every walk (down a chain, level by level, up by parents) lives here: it
validates its start vertex once, then steps with the raw functions.

Trees are immutable after construction and safe for concurrent reads (a
subtree's membership memo only ever adds entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Hashable, Optional, Sequence, Tuple

from .errors import (
    CycleError,
    DisconnectedError,
    HasRootError,
    InvalidEtaError,
    MultipleParentsError,
    NotAChainError,
    UnknownVertexError,
)

VertexId = Hashable

#: stem length marker for the rootless members of the generated family
KAPPA_INF = math.inf


def format_vertex(v: VertexId) -> str:
    """Canonical label: integers as-is, pairs as ``(i,j)``."""
    if isinstance(v, tuple):
        return "(%d,%d)" % (v[0], v[1])
    return str(v)


def parse_vertex(text) -> VertexId:
    """Inverse of :func:`format_vertex` for document keys.

    ``"(1,2)"`` becomes the pair, ``"-3"`` the integer, anything else is
    kept as an opaque string label.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    s = str(text).strip()
    if s.startswith("(") and s.endswith(")"):
        parts = s[1:-1].split(",")
        if len(parts) == 2:
            try:
                return (int(parts[0]), int(parts[1]))
            except ValueError:
                pass
    try:
        return int(s)
    except ValueError:
        return s


@dataclass(frozen=True)
class DirectedTree:
    """Rooted or rootless directed tree with finite branching.

    ``children_fn`` must return a deterministic finite ordering;
    ``parent_fn`` must be defined on every non-root vertex; ``level_fn``
    assigns integers with level(child) = level(parent) + 1.
    """

    root: Optional[VertexId]
    children_fn: Callable[[VertexId], Tuple[VertexId, ...]]
    parent_fn: Callable[[VertexId], Optional[VertexId]]
    contains_fn: Callable[[VertexId], bool]
    level_fn: Callable[[VertexId], int]
    eta_kappa: Optional[tuple] = None
    vertices: Optional[Tuple[VertexId, ...]] = None

    @property
    def is_rooted(self) -> bool:
        return self.root is not None

    def has_vertex(self, v: VertexId) -> bool:
        return bool(self.contains_fn(v))

    def require_vertex(self, v: VertexId) -> None:
        if not self.contains_fn(v):
            raise UnknownVertexError(v)

    def children(self, v: VertexId) -> Tuple[VertexId, ...]:
        self.require_vertex(v)
        return tuple(self.children_fn(v))

    def parent(self, v: VertexId) -> Optional[VertexId]:
        self.require_vertex(v)
        if self.root is not None and v == self.root:
            return None
        return self.parent_fn(v)

    def level(self, v: VertexId) -> int:
        self.require_vertex(v)
        return self.level_fn(v)


def build_tree(edges: Sequence[Tuple[VertexId, VertexId]]) -> DirectedTree:
    """Validate an explicit (parent, child) edge list into a rooted tree.

    Raises :class:`MultipleParentsError`, :class:`CycleError` or
    :class:`DisconnectedError`, each naming the offending vertices.
    """
    edges = list(edges)
    if not edges:
        raise ValueError("edge list is empty")

    parent: dict = {}
    children: dict = {}
    order: list = []
    seen = set()

    def note(v):
        if v not in seen:
            seen.add(v)
            order.append(v)

    for p, c in edges:
        note(p)
        note(c)
        if c in parent:
            if parent[c] != p:
                raise MultipleParentsError(c, [parent[c], p])
            continue  # duplicate edge
        parent[c] = p
        children.setdefault(p, []).append(c)

    # one walk up the parent chains detects cycles and sets every level
    levels: dict = {}
    for v in order:
        chain, on_chain = [], set()
        w = v
        while w is not None and w not in levels:
            if w in on_chain:
                raise CycleError(chain[chain.index(w):])
            chain.append(w)
            on_chain.add(w)
            w = parent.get(w)
        level = -1 if w is None else levels[w]
        for u in reversed(chain):
            level += 1
            levels[u] = level

    roots = [v for v in order if v not in parent]
    if len(roots) != 1:
        raise DisconnectedError(roots)
    root = roots[0]

    child_map = {u: tuple(children.get(u, ())) for u in order}
    vertex_set = frozenset(order)

    return DirectedTree(
        root=root,
        children_fn=lambda v: child_map.get(v, ()),
        parent_fn=lambda v: parent.get(v),
        contains_fn=lambda v: v in vertex_set,
        level_fn=lambda v: levels[v],
        vertices=tuple(order),
    )


def make_tree_eta_kappa(eta: int, kappa) -> DirectedTree:
    """Generate the leafless tree with one branching vertex.

    The branching vertex is labeled 0 and has children (1,1)..(eta,1); each
    ray continues (i,j) -> (i,j+1); the stem -kappa -> ... -> -1 -> 0 has
    length ``kappa`` (pass ``KAPPA_INF`` for the rootless variant, whose
    stem vertices are produced on demand).
    """
    if eta is None or isinstance(eta, float) and math.isinf(eta):
        raise InvalidEtaError("infinite branch counts are not supported; moments would be infinite series")
    if not isinstance(eta, int) or isinstance(eta, bool) or eta < 2:
        raise InvalidEtaError(f"branch count must be an integer >= 2, got {eta!r}")
    if kappa == KAPPA_INF:
        kappa = KAPPA_INF
    elif not isinstance(kappa, int) or isinstance(kappa, bool) or kappa < 0:
        raise ValueError(f"stem length must be a nonnegative integer or infinity, got {kappa!r}")

    def contains(v) -> bool:
        if isinstance(v, tuple):
            return (
                len(v) == 2
                and isinstance(v[0], int)
                and isinstance(v[1], int)
                and 1 <= v[0] <= eta
                and v[1] >= 1
            )
        if isinstance(v, int) and not isinstance(v, bool):
            return v == 0 or (v < 0 and -v <= kappa)
        return False

    def children(v):
        if v == 0:
            return tuple((i, 1) for i in range(1, eta + 1))
        if isinstance(v, tuple):
            return ((v[0], v[1] + 1),)
        return (v + 1,)

    def parent(v):
        if isinstance(v, tuple):
            return 0 if v[1] == 1 else (v[0], v[1] - 1)
        if v == 0:
            return -1 if kappa >= 1 else None
        return v - 1 if -v < kappa else None

    def level(v):
        if isinstance(v, tuple):
            return v[1]
        return v

    root = None if kappa == KAPPA_INF else -int(kappa)
    return DirectedTree(
        root=root,
        children_fn=children,
        parent_fn=parent,
        contains_fn=contains,
        level_fn=level,
        eta_kappa=(eta, kappa),
    )


def make_unilateral_chain() -> DirectedTree:
    """Infinite chain rooted at 0 with vertices 0, 1, 2, ..."""
    return DirectedTree(
        root=0,
        children_fn=lambda v: (v + 1,),
        parent_fn=lambda v: v - 1 if v > 0 else None,
        contains_fn=lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        level_fn=lambda v: v,
    )


def make_bilateral_chain() -> DirectedTree:
    """Rootless chain with vertex set the integers and edges n -> n+1."""
    return DirectedTree(
        root=None,
        children_fn=lambda v: (v + 1,),
        parent_fn=lambda v: v - 1,
        contains_fn=lambda v: isinstance(v, int) and not isinstance(v, bool),
        level_fn=lambda v: v,
    )


def single_child_path(tree: DirectedTree, start: VertexId, steps: int) -> list:
    """[start, child(start), ...]: the path of ``steps`` single-child steps.

    Stops early at a leaf; raises NotAChainError at a branching vertex.
    """
    tree.require_vertex(start)
    children = tree.children_fn
    out = [start]
    v = start
    for _ in range(steps):
        kids = children(v)
        if len(kids) > 1:
            raise NotAChainError(v, len(kids))
        if not kids:
            break
        v = kids[0]
        out.append(v)
    return out


def walk_levels(tree: DirectedTree, u: VertexId, n: int):
    """Yield the (parent, child) edges of each of the n levels below u, in child order."""
    tree.require_vertex(u)
    children = tree.children_fn
    layer = [u]
    for _ in range(n):
        edges = [(v, c) for v in layer for c in children(v)]
        yield edges
        layer = [c for _, c in edges]


def walk_up(tree: DirectedTree, v: VertexId):
    """Iterate parent(v), parent(parent(v)), ... up to the root; endless on a rootless tree.

    v is validated on the call, so a walk of zero steps still rejects an unknown vertex.
    """
    tree.require_vertex(v)
    parent, root = tree.parent_fn, tree.root

    def up(w):
        while w != root:
            w = parent(w)
            yield w

    return up(v)


def subtree_at(tree: DirectedTree, u: VertexId) -> DirectedTree:
    """The rooted tree on the descendants of u, children unchanged.

    Membership walks up only until it meets a vertex already decided and
    records the answer for every vertex passed: O(1) amortized along a walk.
    """
    tree.require_vertex(u)
    base_level = tree.level_fn(u)
    known = {u: True}

    def contains(v) -> bool:
        if not tree.has_vertex(v):
            return False
        if v in known:
            return known[v]
        path = [v]
        inside = False
        for w in islice(walk_up(tree, v), max(tree.level_fn(v) - base_level, 0)):
            if w in known:
                inside = known[w]
                break
            path.append(w)
        for w in path:
            known[w] = inside
        return inside

    def parent(v):
        return None if v == u else tree.parent_fn(v)

    eta_kappa = None
    if tree.eta_kappa is not None and isinstance(u, int) and u <= 0:
        # descendants of a stem vertex form the same family with stem -u
        eta_kappa = (tree.eta_kappa[0], -u)

    vertices = None
    if tree.vertices is not None:
        vertices = tuple(v for v in tree.vertices if contains(v))

    return DirectedTree(
        root=u,
        children_fn=tree.children_fn,
        parent_fn=parent,
        contains_fn=contains,
        level_fn=tree.level_fn,
        eta_kappa=eta_kappa,
        vertices=vertices,
    )


def covering_ancestors(tree: DirectedTree, u: VertexId, k_max: int) -> list:
    """The ancestors parent(u), parent^2(u), ..., parent^k_max(u).

    Only defined on rootless trees, where the union of the descendant sets
    of all ancestors covers the whole vertex set.
    """
    if tree.is_rooted:
        raise HasRootError("covering ancestors are only defined for rootless trees")
    return list(islice(walk_up(tree, u), k_max))

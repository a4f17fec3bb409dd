from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeshift import (
    KAPPA_INF,
    CycleError,
    DisconnectedError,
    HasRootError,
    InvalidEtaError,
    MultipleParentsError,
    UnknownVertexError,
    build_tree,
    covering_ancestors,
    descendants_at_depth,
    make_tree_eta_kappa,
    subtree_at,
)
from conftest import edge_trees


class TestBuildTree:
    def test_chain(self):
        tree = build_tree([(0, 1), (1, 2)])
        assert tree.root == 0
        assert tree.children(0) == (1,)
        assert tree.children(2) == ()
        assert tree.parent(1) == 0
        assert tree.parent(0) is None
        assert tree.level(2) == 2

    def test_two_cycle(self):
        with pytest.raises(CycleError) as exc:
            build_tree([(0, 1), (1, 0)])
        assert set(exc.value.vertices) == {0, 1}

    def test_multiple_parents(self):
        with pytest.raises(MultipleParentsError) as exc:
            build_tree([(0, 2), (1, 2)])
        assert exc.value.vertex == 2
        assert set(exc.value.parents) == {0, 1}

    def test_disconnected(self):
        with pytest.raises(DisconnectedError) as exc:
            build_tree([(0, 1), (2, 3)])
        assert set(exc.value.roots) == {0, 2}

    def test_cycle_component_beside_rooted_one(self):
        with pytest.raises(CycleError):
            build_tree([(0, 1), (2, 3), (3, 2)])

    def test_children_in_insertion_order(self):
        tree = build_tree([("r", "b"), ("r", "a"), ("r", "c")])
        assert tree.children("r") == ("b", "a", "c")

    def test_unknown_vertex(self):
        tree = build_tree([(0, 1)])
        with pytest.raises(UnknownVertexError):
            tree.children(7)


class TestGeneratedFamily:
    def test_no_stem_is_rooted_at_branching_vertex(self):
        tree = make_tree_eta_kappa(2, 0)
        assert tree.root == 0
        assert tree.children(0) == ((1, 1), (2, 1))
        assert tree.parent((1, 1)) == 0
        assert tree.children((1, 1)) == ((1, 2),)

    def test_infinite_stem_is_rootless(self):
        tree = make_tree_eta_kappa(2, KAPPA_INF)
        assert tree.root is None
        assert tree.parent(-5) == -6
        assert tree.has_vertex(-10 ** 6)

    def test_stem_one(self):
        tree = make_tree_eta_kappa(3, 1)
        assert tree.root == -1
        assert tree.children(-1) == (0,)
        assert len(tree.children(0)) == 3

    @pytest.mark.parametrize("eta", [0, 1, -3, KAPPA_INF, None])
    def test_invalid_branch_count(self, eta):
        with pytest.raises(InvalidEtaError):
            make_tree_eta_kappa(eta, 0)

    def test_invalid_stem(self):
        with pytest.raises(ValueError):
            make_tree_eta_kappa(2, -1)

    def test_single_branching_vertex(self):
        tree = make_tree_eta_kappa(4, 2)
        window = [-2, -1, 0] + [(i, j) for i in range(1, 5) for j in range(1, 6)]
        branching = [v for v in window if len(tree.children(v)) >= 2]
        assert branching == [0]

    def test_parent_iteration_reaches_root(self):
        tree = make_tree_eta_kappa(2, 3)
        v = (2, 4)
        steps = 0
        while tree.parent(v) is not None:
            v = tree.parent(v)
            steps += 1
        assert v == -3
        assert steps == 3 + 4


class TestDescendants:
    def test_depth_zero_is_identity(self):
        tree = make_tree_eta_kappa(2, 0)
        assert descendants_at_depth(tree, 0, 0) == [0]

    def test_depth_two_from_branching_vertex(self):
        tree = make_tree_eta_kappa(2, 0)
        assert descendants_at_depth(tree, 0, 2) == [(1, 2), (2, 2)]

    def test_stem_child(self):
        tree = make_tree_eta_kappa(2, 1)
        assert descendants_at_depth(tree, -1, 1) == [0]

    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 4))
    def test_layer_recursion(self, eta, kappa, n):
        tree = make_tree_eta_kappa(eta, kappa)
        u = -kappa
        direct = descendants_at_depth(tree, u, n + 1)
        via_children = [w for c in tree.children(u) for w in descendants_at_depth(tree, c, n)]
        assert direct == via_children
        assert len(set(direct)) == len(direct)


class TestSubtree:
    def test_stem_subtree_matches_generated_family(self):
        big = make_tree_eta_kappa(2, 1)
        sub = subtree_at(big, 0)
        ref = make_tree_eta_kappa(2, 0)
        assert sub.root == 0
        for v in [0, (1, 1), (2, 2)]:
            assert sub.children(v) == ref.children(v)
        assert not sub.has_vertex(-1)

    def test_chain_subtree(self):
        tree = build_tree([(0, 1), (1, 2)])
        sub = subtree_at(tree, 1)
        assert sub.root == 1
        assert sub.parent(1) is None
        assert sub.children(1) == (2,)
        assert not sub.has_vertex(0)

    def test_infinite_stem_subtree(self):
        big = make_tree_eta_kappa(2, KAPPA_INF)
        sub = subtree_at(big, -3)
        ref = make_tree_eta_kappa(2, 3)
        assert sub.root == -3
        assert sub.eta_kappa == (2, 3)
        for v in [-3, -1, 0, (1, 1), (2, 4)]:
            assert sub.children(v) == ref.children(v)
        assert not sub.has_vertex(-4)

    def test_subtree_vertices_reachable(self):
        tree = make_tree_eta_kappa(2, 2)
        sub = subtree_at(tree, (1, 2))
        assert sub.has_vertex((1, 5))
        assert not sub.has_vertex((2, 5))
        assert not sub.has_vertex(0)


class TestCoveringAncestors:
    def test_from_branching_vertex(self):
        tree = make_tree_eta_kappa(2, KAPPA_INF)
        assert covering_ancestors(tree, 0, 3) == [-1, -2, -3]

    def test_from_ray_vertex(self):
        tree = make_tree_eta_kappa(2, KAPPA_INF)
        assert covering_ancestors(tree, (1, 2), 3) == [(1, 1), 0, -1]

    def test_rooted_tree_rejected(self):
        tree = make_tree_eta_kappa(2, 1)
        with pytest.raises(HasRootError):
            covering_ancestors(tree, 0, 2)

    def test_window_covers_descendants(self):
        tree = make_tree_eta_kappa(2, KAPPA_INF)
        ancestors = covering_ancestors(tree, 0, 4)
        sub = subtree_at(tree, ancestors[-1])
        for v in [-4, -1, 0, (1, 1), (2, 7)]:
            assert sub.has_vertex(v)


def _family_parent(v, kappa):
    """The parent in the generated family, or None at its root."""
    if isinstance(v, tuple):
        return 0 if v[1] == 1 else (v[0], v[1] - 1)
    return v - 1 if kappa == KAPPA_INF or -v < kappa else None


def _family_level(v):
    return v[1] if isinstance(v, tuple) else v


def _in_family(v, eta, kappa):
    if isinstance(v, tuple):
        return 1 <= v[0] <= eta and v[1] >= 1
    return v == 0 or (v < 0 and -v <= kappa)


class TestSubtreeMembership:
    """``subtree_at`` remembers what its parent walks decided; a plain parent walk and a BFS are the reference."""

    @given(edge_trees(), st.data())
    def test_finite_tree(self, edges, data):
        tree = build_tree(edges)
        parent = {c: p for p, c in edges}
        children = {}
        for p, c in edges:
            children.setdefault(p, []).append(c)
        vertices = sorted(parent.keys() | children.keys())

        def depth(v):
            return 0 if v not in parent else 1 + depth(parent[v])

        assert [tree.level(v) for v in vertices] == [depth(v) for v in vertices]
        u = data.draw(st.sampled_from(vertices))
        below, layer = {u}, [u]
        while layer:
            layer = [c for v in layer for c in children.get(v, ())]
            below.update(layer)
        assert subtree_at(tree, u).vertices == tuple(v for v in tree.vertices if v in below)

        def reaches(v):
            while v is not None:
                if v == u:
                    return True
                v = parent.get(v)
            return False

        # without a vertex list nothing is decided up front, so the queries drive the memo
        lazy = subtree_at(replace(tree, vertices=None), u)
        for v in data.draw(st.permutations(vertices + [-1, len(vertices), "x"])):
            assert lazy.has_vertex(v) == reaches(v), v

    @given(st.integers(2, 4), st.one_of(st.integers(0, 6), st.just(KAPPA_INF)), st.data())
    def test_generated_family(self, eta, kappa, data):
        tree = make_tree_eta_kappa(eta, kappa)
        bottom = -8 if kappa == KAPPA_INF else -kappa
        window = list(range(bottom - 2, 3)) + [(i, j) for i in range(eta + 2) for j in range(7)]
        u = data.draw(st.sampled_from([v for v in window if _in_family(v, eta, kappa)]))

        def reaches(v):
            if not _in_family(v, eta, kappa):
                return False
            while v is not None and _family_level(v) >= _family_level(u):
                if v == u:
                    return True
                v = _family_parent(v, kappa)
            return False

        sub = subtree_at(tree, u)
        for v in data.draw(st.permutations(window)):
            assert sub.has_vertex(v) == reaches(v), v

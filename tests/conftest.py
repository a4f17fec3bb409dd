"""Shared fixtures: reference instances and random-measure generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from treeshift import (
    AtomicMeasure,
    WeightSystem,
    WeightedShift,
    make_bilateral_chain,
    make_branch_shift,
    make_tree_eta_kappa,
    make_unilateral_chain,
)

DELTA1 = AtomicMeasure.point_mass(1)
DELTA2 = AtomicMeasure.point_mass(2)


@pytest.fixture
def a3_measures():
    return [DELTA1, DELTA2]


@pytest.fixture
def a3_shift(a3_measures):
    """Reference instance: stem length 1, entries (1/2, 1), stem weight 1."""
    return make_branch_shift(2, 1, a3_measures, [Fraction(1, 2), Fraction(1)], [Fraction(1)])


@pytest.fixture
def kappa0_shift(a3_measures):
    """The rootless-free variant: no stem, entries (1/2, 1/4)."""
    return make_branch_shift(2, 0, a3_measures, [Fraction(1, 2), Fraction(1, 4)])


def stem_sq_rule(j: int) -> Fraction:
    """Stem weights making every stem equality hold for the (d1, d2) branch data.

    P_l = 1 / (1/2 + 2**-(l+1)) = 2**(l+1) / (2**l + 1), so the individual
    squared weights are the ratios P_{j+1} / P_j.
    """
    return Fraction(2 * (2 ** j + 1), 2 ** (j + 1) + 1)


@pytest.fixture
def a3_infinite_shift(a3_measures):
    """Infinite-stem extension of the reference instance."""
    from treeshift import KAPPA_INF, synthesize_weights_from_measures

    tree = make_tree_eta_kappa(2, KAPPA_INF)
    return synthesize_weights_from_measures(
        tree, a3_measures, [Fraction(1, 2), Fraction(1)], stem_sq_rule
    )


@pytest.fixture
def ones_chain():
    """Unilateral chain with unit weights."""
    tree = make_unilateral_chain()
    return WeightedShift(tree, WeightSystem.from_rule(lambda v: Fraction(1)))


@pytest.fixture
def ones_bilateral():
    tree = make_bilateral_chain()
    return WeightedShift(tree, WeightSystem.from_rule(lambda v: Fraction(1)))


def random_rational(rng: random.Random, max_num: int = 120, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_measure(rng: random.Random, max_atoms: int = 4, max_den: int = 10) -> AtomicMeasure:
    """Random probability measure with distinct rational atoms in (0, 10]."""
    n = rng.randint(1, max_atoms)
    locs = set()
    while len(locs) < n:
        q = rng.randint(1, max_den)
        p = rng.randint(1, 10 * q)
        locs.add(Fraction(p, q))
    raw = [Fraction(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(n)]
    total = sum(raw)
    return AtomicMeasure.from_atoms((loc, w / total) for loc, w in zip(sorted(locs), raw))


@st.composite
def edge_trees(draw, max_vertices: int = 30):
    """A random finite rooted tree as a (parent, child) edge list.

    Vertex labels and edge order are shuffled, so neither the vertex list
    nor any child order follows the levels.
    """
    n = draw(st.integers(2, max_vertices))
    labels = draw(st.permutations(range(n)))
    edges = [(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, n)]
    return draw(st.permutations(edges))

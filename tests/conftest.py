from __future__ import annotations

from pathlib import Path

import pytest

from clusternets import DistanceMatrix
from clusternets.dendrogram import mask_members

DATA = Path(__file__).parent / "data"

# Three collinear points: the pair AB merges first, then C joins.
TRIO_A = DistanceMatrix(["A", "B", "C"], [[0, 2, 5], [2, 0, 3], [5, 3, 0]])
# Deformed placement: BC merges first instead.
TRIO_B = DistanceMatrix(["A", "B", "C"], [[0, 5, 8], [5, 0, 3], [8, 3, 0]])

# Four points pairing AB|CD, then the quadrangle closes up.
QUAD_A = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 1, 5, 6], [1, 0, 6, 5], [5, 6, 0, 1], [6, 5, 1, 0]],
)
# Deformation pairing AC|BD.
QUAD_B = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 5, 1, 6], [5, 0, 6, 1], [1, 6, 0, 5], [6, 1, 5, 0]],
)

# Incompatible pair: first clusters ABC together, second clusters BCD;
# the intersection BC is a ball of neither.
INCOMPAT_1 = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 1, 1, 10], [1, 0, 1, 10], [1, 1, 0, 10], [10, 10, 10, 0]],
)
INCOMPAT_2 = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 10, 10, 10], [10, 0, 1, 1], [10, 1, 0, 1], [10, 1, 1, 0]],
)


def cut(dendro, eps):
    """Clusters born at or below eps whose parent is born above it, as index tuples."""
    return sorted(
        mask_members(c.members)
        for c, par in zip(dendro.clusters, dendro.parent)
        if c.radius <= eps and (par is None or dendro.clusters[par].radius > eps)
    )


def entry(dm, a: str, b: str):
    """The value at labels a and b, read off the matrix's full table."""
    return dm.entries[dm.labels.index(a)][dm.labels.index(b)]


def mask_of(indices) -> int:
    """The member bitmask of point indices."""
    return sum({1 << i for i in indices})


def vertex_by_members(net, members: int):
    return next(v for v in net.vertices if v.members == members)


@pytest.fixture
def trio_a() -> DistanceMatrix:
    return TRIO_A


@pytest.fixture
def trio_b() -> DistanceMatrix:
    return TRIO_B


@pytest.fixture
def quad_a() -> DistanceMatrix:
    return QUAD_A


@pytest.fixture
def quad_b() -> DistanceMatrix:
    return QUAD_B


@pytest.fixture
def data_dir() -> Path:
    return DATA

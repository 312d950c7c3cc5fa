"""Dendrogram construction: the partially ordered tree of chain-distance balls.

Clusters are identified extensionally by their member set (stored as an int
bitmask over the canonical label order). Clusters that merge at equal height
merge simultaneously, so the tree is canonical and needs no tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

# chain_distance is unused here; bench/replay.py wraps it as dendrogram.chain_distance
from .metric import _ZERO, DistanceMatrix, chain_distance, single_linkage


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    bits = bin(mask)[:1:-1]  # bit i is character i
    return tuple(i for i, bit in enumerate(bits) if bit == "1")


@dataclass(frozen=True)
class Cluster:
    """A ball of the chain distance: member bitmask and birth radius.

    The radius is the maximum pairwise chain distance inside the member set,
    which is also the smallest threshold at which the set appears as a
    component. Blocks of points at chain distance zero (usually singletons)
    have radius 0.
    """

    members: int
    radius: Fraction

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def contains(self, other: "Cluster") -> bool:
        return other.members & self.members == other.members


@dataclass(frozen=True)
class Dendrogram:
    """Tree of all clusters of one metric, ordered by inclusion.

    `clusters` is in canonical order (size, then member names); `parent[i]`
    is the index of the smallest cluster strictly containing cluster i, or
    None for the root.
    """

    labels: tuple[str, ...]
    clusters: tuple[Cluster, ...]
    parent: tuple[int | None, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (child, par) for child, par in enumerate(self.parent) if par is not None
        )

    def member_names(self, cluster: Cluster) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in mask_members(cluster.members))

    def leaves(self) -> Iterator[int]:
        parents = {p for p in self.parent if p is not None}
        for i in range(len(self.clusters)):
            if i not in parents:
                yield i


def build_dendrogram(dm: DistanceMatrix) -> Dendrogram:
    """Read the cluster tree off one single-linkage pass.

    The components after the zero tie group are the leaves (radius 0).
    Every later merge forms a cluster whose radius is the merge value and
    whose children are the components it joined, so each cluster is a
    component of the threshold graph at its radius, and its parent is the
    smallest cluster strictly containing it.
    """
    radius = dict.fromkeys([1 << i for i in range(dm.n)], _ZERO)
    parent_of: dict[int, int] = {}
    for value, parts in single_linkage(dm):
        masks = [mask_of(part) for part in parts]
        whole = mask_of(x for part in parts for x in part)
        radius[whole] = value
        for mask in masks:
            if value == 0:
                del radius[mask]
            else:
                parent_of[mask] = whole
    # canonical order: size, then member names; labels are sorted, so
    # member indices order as the names do
    clusters = sorted(
        (Cluster(m, r) for m, r in radius.items()),
        key=lambda c: (c.size, mask_members(c.members)),
    )
    index = {c.members: i for i, c in enumerate(clusters)}
    parent = tuple(index.get(parent_of.get(c.members)) for c in clusters)
    return Dendrogram(dm.labels, tuple(clusters), parent)


def sup_cluster(dendro: Dendrogram, a: str, b: str) -> Cluster:
    """The minimal cluster containing both labels; its radius is d(a, b)."""
    try:
        ia = dendro.labels.index(a)
        ib = dendro.labels.index(b)
    except ValueError as exc:
        raise LookupError(f"unknown label: {exc}") from None
    want = (1 << ia) | (1 << ib)
    for c in dendro.clusters:  # canonical order is size-ascending
        if c.members & want == want:
            return c
    raise AssertionError("root cluster must contain every pair")

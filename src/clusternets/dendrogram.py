"""Dendrogram construction: the partially ordered tree of chain-distance balls.

Clusters are identified extensionally by their member set (stored as an int
bitmask over the canonical label order). Clusters that merge at equal height
merge simultaneously, so the tree is canonical and needs no tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# chain_distance is unused here; bench/replay.py wraps it as dendrogram.chain_distance
from .metric import _ZERO, DistanceMatrix, _merge_ranks, chain_distance, mask_members

_FLIP = str.maketrans("01", "10")


def member_order(mask: int) -> tuple[int, str]:
    """Canonical order of member sets: size, then sorted member indices (so
    member names, as labels are sorted). The bits are compared undecoded:
    of two sets of one size, the one holding the least index where they
    differ comes first, and its flipped bit string, read from bit 0, has
    a 0 there."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP)


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
    for r, parts in _merge_ranks(dm):
        whole, value = sum(parts), Fraction(dm._nums[r], dm._dens[r])
        radius[whole] = value
        for mask in parts:
            if value:
                parent_of[mask] = whole
            else:
                del radius[mask]
    ordered = sorted(radius, key=member_order)
    index = {m: i for i, m in enumerate(ordered)}
    clusters = tuple(Cluster(m, radius[m]) for m in ordered)
    parent = tuple(index.get(parent_of.get(m)) for m in ordered)
    return Dendrogram(dm.labels, clusters, parent)

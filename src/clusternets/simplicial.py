"""Simplicial structure and dimension of a cluster network.

For a subfamily r of metrics, one pass visits each r-ball I and walks up
each metric of r from I to the first r-ball above it. Every walk stops at
the same J, the minimal common superball, and is that metric's chain of
balls from I to J; the root has no J. The r-dimension of (I, J) is the
longest chain's length minus one. The complex is kept as its distinct
chains; every subset (size >= 2) of a chain is a simplex, so no simplex
mixes incomparable balls of different metrics. Facets and the DOT skeleton
read the chains; only the JSON payload derives the faces.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .dendrogram import mask_members
from .network import ClusterNetwork, NetworkVertex, chain_to_superball, dot_quoted, subfamily


@dataclass(frozen=True)
class Simplex:
    """Chain subset keyed by vertex ids, with its witnessing metric.

    `anchor` records the (I, J) pair whose chain first produced it.
    """

    vertex_ids: tuple[int, ...]
    metric: str
    anchor: tuple[int, int]


@dataclass(frozen=True)
class SimplicialComplex:
    """The distinct chains of the pass, in pass order."""

    network: ClusterNetwork
    chains: tuple[Simplex, ...]

    @cached_property
    def simplices(self) -> tuple[Simplex, ...]:
        """Every face by (size, vertex ids), named by the first chain holding it."""
        found: dict[tuple[int, ...], Simplex] = {}
        for c in self.chains:
            for size in range(2, len(c.vertex_ids) + 1):
                for subset in combinations(c.vertex_ids, size):
                    if subset not in found:
                        found[subset] = Simplex(subset, c.metric, c.anchor)
        return tuple(sorted(found.values(), key=lambda s: (len(s.vertex_ids), s.vertex_ids)))

    def maximal_simplices(self) -> list[Simplex]:
        """The chains strictly inside no other chain, in pass order."""
        sets = [frozenset(c.vertex_ids) for c in self.chains]
        return [c for c, mine in zip(self.chains, sets) if not any(mine < other for other in sets)]


@dataclass(frozen=True)
class DimensionReport:
    per_pair: tuple[tuple[tuple[int, int], int], ...]
    overall: int


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    violations: tuple[dict, ...]


def check_compatibility(net: ClusterNetwork) -> CompatibilityReport:
    """Check that every pairwise intersection of balls is again a ball.

    For each pair of clusters from different metrics with a nonempty
    intersection, the intersection must equal the member set of some vertex
    (a ball of some metric in the family). Violations list both clusters and
    the orphaned intersection. Each cluster is one {"id", "members"} dict,
    built once and shared by every violation that names it, so the report
    is read-only.
    """
    member_sets = {v.members for v in net.vertices}
    violations, balls = [], {}

    def names(mask: int) -> list[str]:
        return [net.labels[i] for i in mask_members(mask)]

    def ball(v: NetworkVertex) -> dict:
        if v.vertex_id not in balls:
            balls[v.vertex_id] = {"id": v.vertex_id, "members": names(v.members)}
        return balls[v.vertex_id]

    for a, b in combinations(net.vertices, 2):
        if a.present_in & b.present_in:
            continue  # same-tree pairs are nested or disjoint already
        inter = a.members & b.members
        if inter == 0 or inter in member_sets:
            continue
        violations.append({"first": ball(a), "second": ball(b), "intersection": names(inter)})
    return CompatibilityReport(not violations, tuple(violations))


def _pair_chains(
    net: ClusterNetwork, r: frozenset[str]
) -> Iterator[tuple[tuple[int, int], list[tuple[str, list[int]]]]]:
    """Each r-ball I with a minimal common superball J, in vertex order, as
    ((I, J) ids, [(metric, ball ids of its chain from I up to J)]), the
    metrics of r in sorted order. r is checked once, up front; each metric's
    walk stops at the same J, so J is the last id of any of them."""
    r = subfamily(net, r)
    metrics = sorted(r)
    for v in net.vertices:
        if r <= v.present_in:
            chains = [(mid, chain_to_superball(net, v.vertex_id, r, mid)) for mid in metrics]
            if chains[0][1] is not None:
                yield (v.vertex_id, chains[0][1][-1]), chains


def build_complex(net: ClusterNetwork, r: frozenset[str] | set[str]) -> SimplicialComplex:
    """Each distinct chain once, in pass order, named by its first (metric, anchor)."""
    found: dict[tuple[int, ...], Simplex] = {}
    for anchor, chains in _pair_chains(net, frozenset(r)):
        for mid, ids in chains:
            found.setdefault(tuple(ids), Simplex(tuple(ids), mid, anchor))
    return SimplicialComplex(net, tuple(found.values()))


def network_dimension(net: ClusterNetwork, r: frozenset[str] | set[str]) -> DimensionReport:
    """Per pair, the longest single-metric chain's length minus one."""
    r = frozenset(r)
    per_pair = tuple(
        (anchor, max(len(ids) for _, ids in chains) - 1)
        for anchor, chains in _pair_chains(net, r)
    )
    overall = max((dim for _, dim in per_pair), default=0)
    return DimensionReport(per_pair, overall)


def dimension_json_dict(report: DimensionReport, compatibility: CompatibilityReport) -> dict:
    """Dimension report plus warnings, without enumerating any simplex."""
    out: dict = {
        "dimension": {
            "overall": report.overall,
            "pairs": [
                {"ball": pair[0], "superball": pair[1], "dimension": dim}
                for pair, dim in report.per_pair
            ],
        },
    }
    if not compatibility.compatible:
        out["warnings"] = {"incompatible_intersections": list(compatibility.violations)}
    return out


def complex_json_dict(
    cx: SimplicialComplex, report: DimensionReport, compatibility: CompatibilityReport
) -> dict:
    out = dimension_json_dict(report, compatibility)
    out["simplices"] = [
        {"vertices": list(s.vertex_ids), "metric": s.metric, "anchor": list(s.anchor)}
        for s in cx.simplices
    ]
    return out


def skeleton_dot(cx: SimplicialComplex) -> str:
    """DOT 1-skeleton: each chain's pairs, tooltip from the first chain holding it."""
    net = cx.network
    edges: dict[tuple[int, int], str] = {}
    for c in cx.chains:
        for pair in combinations(c.vertex_ids, 2):
            edges.setdefault(pair, c.metric)
    lines = ["graph skeleton {"]
    for i in sorted({i for c in cx.chains for i in c.vertex_ids}):
        lines.append(f"  n{i} [label={dot_quoted(''.join(net.member_names(net.vertices[i])))}];")
    for (a, b), metric in sorted(edges.items()):
        lines.append(f"  n{a} -- n{b} [tooltip={dot_quoted(metric)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

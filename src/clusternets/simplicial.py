"""Simplicial structure and dimension of a cluster network.

For a subfamily r of metrics and each r-ball I with minimal common superball
J, every subset (size >= 2) of the single-metric chain of balls between I
and J is a simplex. Simplices never mix incomparable balls of different
metrics; chains from different metrics sharing the same vertex set are
identified. The r-dimension of a pair (I, J) is the longest such chain's
length minus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dendrogram import mask_members
from .network import ClusterNetwork, NetworkVertex, is_r_ball, minimal_common_superball


@dataclass(frozen=True)
class Simplex:
    """Chain subset keyed by vertex ids, with its witnessing metric.

    `anchor` records the (I, J) pair whose chain first produced it.
    """

    vertex_ids: tuple[int, ...]
    metric: str
    anchor: tuple[int, int]

    @property
    def dimension(self) -> int:
        return len(self.vertex_ids) - 1


@dataclass(frozen=True)
class SimplicialComplex:
    network: ClusterNetwork
    subfamily: frozenset[str]
    simplices: tuple[Simplex, ...]

    def vertex_sets(self) -> set[tuple[int, ...]]:
        return {s.vertex_ids for s in self.simplices}

    def maximal_simplices(self) -> list[Simplex]:
        sets = self.vertex_sets()
        out = []
        for s in self.simplices:
            mine = set(s.vertex_ids)
            if not any(mine < set(other) for other in sets):
                out.append(s)
        return out


@dataclass(frozen=True)
class DimensionReport:
    subfamily: frozenset[str]
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
    the orphaned intersection.
    """
    member_sets = {v.members for v in net.vertices}
    violations = []

    def names(mask: int) -> list[str]:
        return [net.labels[i] for i in mask_members(mask)]

    for a in net.vertices:
        for b in net.vertices:
            if b.vertex_id <= a.vertex_id:
                continue
            if a.present_in & b.present_in:
                continue  # same-tree pairs are nested or disjoint already
            inter = a.members & b.members
            if inter == 0 or inter in member_sets:
                continue
            violations.append(
                {
                    "first": {"id": a.vertex_id, "members": names(a.members)},
                    "second": {"id": b.vertex_id, "members": names(b.members)},
                    "intersection": names(inter),
                }
            )
    return CompatibilityReport(not violations, tuple(violations))


def intermediary_chain(
    net: ClusterNetwork, inner: NetworkVertex, outer: NetworkVertex, metric_id: str
) -> list[NetworkVertex]:
    """All balls of one metric between `inner` and `outer`, smallest first:
    the walk up that metric's tree from `inner` to `outer`."""
    links = net.parent_ids(metric_id)
    if metric_id not in inner.present_in or metric_id not in outer.present_in:
        raise ValueError(f"endpoints must both be balls of metric {metric_id!r}")
    if inner.members & outer.members != inner.members:
        raise ValueError("inner ball is not contained in outer ball")
    chain = [inner]
    while chain[-1].vertex_id != outer.vertex_id:
        chain.append(net.vertices[links[chain[-1].vertex_id]])
    return chain


def simplices_for_pair(
    net: ClusterNetwork,
    inner: NetworkVertex,
    outer: NetworkVertex,
    r: frozenset[str] | set[str],
) -> list[Simplex]:
    """Subsets (size >= 2) of each metric's chain between the pair, deduplicated."""
    r = frozenset(r)
    expected = minimal_common_superball(net, inner, r)
    if expected is None or expected.members != outer.members:
        raise ValueError("outer ball must be the minimal common superball of inner")
    found: dict[tuple[int, ...], Simplex] = {}
    anchor = (inner.vertex_id, outer.vertex_id)
    for mid in sorted(r):
        chain = intermediary_chain(net, inner, outer, mid)
        ids = [v.vertex_id for v in chain]
        for size in range(2, len(ids) + 1):
            for subset in combinations(ids, size):
                if subset not in found:
                    found[subset] = Simplex(subset, mid, anchor)
    return sorted(found.values(), key=lambda s: (len(s.vertex_ids), s.vertex_ids))


def build_complex(net: ClusterNetwork, r: frozenset[str] | set[str]) -> SimplicialComplex:
    """Union of per-pair simplices over every r-ball with a superball."""
    r = frozenset(r)
    found: dict[tuple[int, ...], Simplex] = {}
    for v, j in _superball_pairs(net, r):
        for s in simplices_for_pair(net, v, j, r):
            if s.vertex_ids not in found:
                found[s.vertex_ids] = s
    simplices = tuple(sorted(found.values(), key=lambda s: (len(s.vertex_ids), s.vertex_ids)))
    return SimplicialComplex(net, r, simplices)


def _superball_pairs(
    net: ClusterNetwork, r: frozenset[str]
) -> list[tuple[NetworkVertex, NetworkVertex]]:
    """Each r-ball that has a minimal common superball, with that superball."""
    pairs = []
    for v in net.vertices:
        if is_r_ball(net, v, r):
            j = minimal_common_superball(net, v, r)
            if j is not None:
                pairs.append((v, j))
    return pairs


def r_dimension(
    net: ClusterNetwork,
    inner: NetworkVertex,
    outer: NetworkVertex,
    r: frozenset[str] | set[str],
) -> int:
    """Length minus one of the longest single-metric chain between the pair."""
    r = frozenset(r)
    expected = minimal_common_superball(net, inner, r)
    if expected is None or expected.members != outer.members:
        raise ValueError("outer ball must be the minimal common superball of inner")
    return max(len(intermediary_chain(net, inner, outer, mid)) for mid in sorted(r)) - 1


def network_dimension(net: ClusterNetwork, r: frozenset[str] | set[str]) -> DimensionReport:
    """Per-pair r-dimensions for every valid (ball, superball) pair."""
    r = frozenset(r)
    per_pair = sorted(
        ((v.vertex_id, j.vertex_id), r_dimension(net, v, j, r))
        for v, j in _superball_pairs(net, r)
    )
    overall = max((dim for _, dim in per_pair), default=0)
    return DimensionReport(r, tuple(per_pair), overall)


def dimension_json_dict(
    report: DimensionReport, compatibility: CompatibilityReport | None = None
) -> dict:
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
    warnings: dict = {}
    if compatibility is not None and not compatibility.compatible:
        warnings["incompatible_intersections"] = [dict(v) for v in compatibility.violations]
    if warnings:
        out["warnings"] = warnings
    return out


def complex_json_dict(
    cx: SimplicialComplex,
    report: DimensionReport,
    compatibility: CompatibilityReport | None = None,
) -> dict:
    out = dimension_json_dict(report, compatibility)
    out["simplices"] = [
        {"vertices": list(s.vertex_ids), "metric": s.metric, "anchor": list(s.anchor)}
        for s in cx.simplices
    ]
    return out


def skeleton_dot(cx: SimplicialComplex) -> str:
    """Undirected DOT rendering of the complex's 1-skeleton."""
    net = cx.network
    used = sorted({i for s in cx.simplices for i in s.vertex_ids})
    lines = ["graph skeleton {"]
    for i in used:
        label = "".join(net.member_names(net.vertices[i]))
        lines.append(f'  n{i} [label="{label}"];')
    for s in cx.simplices:
        if len(s.vertex_ids) == 2:
            a, b = s.vertex_ids
            lines.append(f'  n{a} -- n{b} [tooltip="{s.metric}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

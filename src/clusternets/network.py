"""Cluster networks: unions of dendrograms over a metric family.

Vertices are clusters identified by member set; edges are the per-tree
parent links, tagged with the set of metrics contributing them. Restricting
to any single metric id recovers that metric's dendrogram exactly, and every
query walks up one metric's tree along its parent links with
`chain_to_superball`.
Serialization is canonical (vertices by (size, member names), edges by ids,
metric tags sorted), so permuting the input dendrograms changes nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .dendrogram import Dendrogram, mask_members, member_order
from .errors import StructuralError


@dataclass(frozen=True)
class NetworkVertex:
    """A cluster of the fused network.

    `radius_by_metric` holds the exact birth radius for each metric the
    cluster belongs to, as a sorted tuple of (metric id, radius) pairs.
    """

    vertex_id: int
    members: int
    radius_by_metric: tuple[tuple[str, Fraction], ...]

    @cached_property
    def present_in(self) -> frozenset[str]:
        """The metrics this cluster is a ball of: the keys of its radii."""
        return frozenset(mid for mid, _ in self.radius_by_metric)


@dataclass(frozen=True)
class NetworkEdge:
    child: int
    parent: int
    metrics: frozenset[str]


@dataclass(frozen=True)
class ClusterNetwork:
    """Union of one tree per metric.

    Construction derives each metric's parent links from `edges` and checks
    that they form one tree whose children lie strictly inside their parent
    and whose siblings are disjoint. The balls of a metric are then laminar,
    so the balls of that metric containing a ball are exactly its ancestors.
    """

    labels: tuple[str, ...]
    metric_ids: tuple[str, ...]
    vertices: tuple[NetworkVertex, ...]
    edges: tuple[NetworkEdge, ...]
    _parents: dict[str, dict[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, known = len(self.vertices), set(self.metric_ids)
        if any(v.vertex_id != i for i, v in enumerate(self.vertices)):
            raise StructuralError("vertex ids must be 0, 1, ... in order")
        balls = Counter(mid for v in self.vertices for mid in v.present_in)
        if not balls.keys() <= known:
            raise StructuralError(f"balls of unknown metrics {sorted(balls.keys() - known)}")
        parents: dict[str, dict[int, int]] = {mid: {} for mid in self.metric_ids}
        inside: dict[tuple[str, int], int] = {}  # union of the children seen so far
        for e in self.edges:
            if not (0 <= e.child < n and 0 <= e.parent < n):
                raise StructuralError(f"edge {e.child}->{e.parent} names no vertex")
            child, parent = self.vertices[e.child], self.vertices[e.parent]
            if not child.members | parent.members == parent.members != child.members:
                raise StructuralError(f"vertex {e.child} is not strictly inside vertex {e.parent}")
            for mid in e.metrics:
                if mid not in child.present_in & parent.present_in:
                    raise StructuralError(f"edge {e.child}->{e.parent} joins non-balls of {mid!r}")
                if e.child in parents[mid]:
                    raise StructuralError(f"vertex {e.child} has two parents in {mid!r}")
                if inside.get((mid, e.parent), 0) & child.members:
                    raise StructuralError(f"children of vertex {e.parent} overlap in {mid!r}")
                parents[mid][e.child] = e.parent
                inside[mid, e.parent] = inside.get((mid, e.parent), 0) | child.members
        for mid, links in parents.items():
            roots = balls[mid] - len(links)  # every ball but a root has one parent
            if roots != 1:
                raise StructuralError(f"metric {mid!r} has {roots} roots, expected one")
        object.__setattr__(self, "_parents", parents)

    def parent_ids(self, metric_id: str) -> dict[int, int]:
        """Child vertex id -> parent vertex id along one metric's tree."""
        try:
            return self._parents[metric_id]
        except KeyError:
            raise StructuralError(f"unknown metric id {metric_id!r}") from None

    def member_names(self, v: NetworkVertex) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in mask_members(v.members))


def merge_dendrograms(dendros: list[Dendrogram], ids: list[str]) -> ClusterNetwork:
    """Union the trees, identifying clusters that coincide as sets."""
    if not dendros:
        raise StructuralError("empty dendrogram family")
    if len(dendros) != len(ids):
        raise StructuralError(f"{len(dendros)} dendrograms for {len(ids)} metric ids")
    if len(set(ids)) != len(ids):
        raise StructuralError("metric ids must be distinct")
    labels = dendros[0].labels
    for d in dendros[1:]:
        if d.labels != labels:
            raise StructuralError(
                f"label-set mismatch: {list(d.labels)} vs {list(labels)}"
            )
    present: dict[int, dict[str, Fraction]] = {}
    edge_tags: dict[tuple[int, int], set[str]] = {}
    for dendro, mid in zip(dendros, ids):
        for c in dendro.clusters:
            present.setdefault(c.members, {})[mid] = c.radius
        for child, par in dendro.edges:
            key = (dendro.clusters[child].members, dendro.clusters[par].members)
            edge_tags.setdefault(key, set()).add(mid)
    ordered = sorted(present, key=member_order)
    id_of = {members: i for i, members in enumerate(ordered)}
    vertices = tuple(
        NetworkVertex(
            vertex_id=i,
            members=members,
            radius_by_metric=tuple(sorted(present[members].items())),
        )
        for i, members in enumerate(ordered)
    )
    edges = tuple(
        sorted(
            (
                NetworkEdge(id_of[c], id_of[p], frozenset(tags))
                for (c, p), tags in edge_tags.items()
            ),
            key=lambda e: (e.child, e.parent),
        )
    )
    return ClusterNetwork(labels, tuple(ids), vertices, edges)


def subfamily(net: ClusterNetwork, r: frozenset[str] | set[str]) -> frozenset[str]:
    """r as a frozenset, checked to be a nonempty set of the network's metric
    ids; a `StructuralError` refusing it lists the ids there are."""
    r = frozenset(r)
    unknown = r - set(net.metric_ids)
    if not r or unknown:
        what = f"unknown metric ids {sorted(unknown)}" if r else "empty metric subfamily"
        raise StructuralError(f"{what}; available: {sorted(net.metric_ids)}")
    return r


def chain_to_superball(
    net: ClusterNetwork, ball_id: int, r: frozenset[str], metric_id: str
) -> list[int] | None:
    """Ids of `metric_id`'s balls from `ball_id` up to the first r-ball
    strictly above it, or None at the root.

    Every r-ball is a ball of each metric in r, so the r-balls containing
    the ball all lie on its ancestor path in each metric of r: the walk
    along any one of them stops at the same minimal common superball, and
    the walk itself is that metric's chain between the two. r is not
    checked here.
    """
    links = net.parent_ids(metric_id)
    chain = [ball_id]
    while chain[-1] in links:
        chain.append(links[chain[-1]])
        if r <= net.vertices[chain[-1]].present_in:
            return chain
    return None


def to_json_dict(net: ClusterNetwork) -> dict:
    return {
        "labels": list(net.labels),
        "vertices": [
            {
                "id": v.vertex_id,
                "members": list(net.member_names(v)),
                "metrics": sorted(v.present_in),
                "radii": {mid: str(r) for mid, r in v.radius_by_metric},
            }
            for v in net.vertices
        ],
        "edges": [
            {"child": e.child, "parent": e.parent, "metrics": sorted(e.metrics)}
            for e in net.edges
        ],
    }


class PayloadEncoder(json.JSONEncoder):
    """`json.JSONEncoder`'s bytes for str keys and str, int, bool, None, list,
    tuple and dict values, one string per container; any other value gets
    `JSONEncoder.default`'s TypeError. A dict met twice at one depth keeps
    its text for later copies there: producers may share dicts."""

    def encode(self, o) -> str:
        if self.indent is None:
            return super().encode(o)
        step = " " * self.indent if isinstance(self.indent, int) else self.indent
        seen, texts = set(), {}

        def enc(o, pad: str) -> str:  # pad: a newline and this depth's indentation
            if isinstance(o, str):
                return encode_basestring_ascii(o)
            if o is None or o is True or o is False:
                return "null" if o is None else "true" if o else "false"
            if isinstance(o, int):
                return int.__repr__(o)
            inner, sep = pad + step, "," + pad + step
            if isinstance(o, (list, tuple)):
                return "[" + inner + sep.join([enc(x, inner) for x in o]) + pad + "]" if o else "[]"
            if not isinstance(o, dict):
                json.JSONEncoder.default(self, o)  # raises TypeError
            key = (id(o), len(pad))
            if key in texts:
                return texts[key]
            items = sorted(o.items()) if self.sort_keys else o.items()
            # a generator, so no list of the values' texts outlives the join
            body = (encode_basestring_ascii(k) + ": " + enc(v, inner) for k, v in items)
            text = "{" + inner + sep.join(body) + pad + "}" if o else "{}"
            if key in seen:
                texts[key] = text
            seen.add(key)
            return text

        return enc(o, "\n")


def to_json(net: ClusterNetwork) -> str:
    return json.dumps(to_json_dict(net), indent=2, sort_keys=True, cls=PayloadEncoder) + "\n"


_DOT_STYLES = ("solid", "dashed", "dotted", "bold")
_DOT_COLORS = ("black", "red", "blue", "darkgreen", "orange", "purple")


def dot_style(metric_index: int) -> str:
    style = _DOT_STYLES[metric_index % len(_DOT_STYLES)]
    color = _DOT_COLORS[metric_index % len(_DOT_COLORS)]
    return f'style={style}, color={color}'


def dot_quoted(text: str) -> str:
    """text as a DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net: ClusterNetwork) -> str:
    """DOT export: clusters as nodes, one styled edge line per metric tag."""
    metric_order = sorted(net.metric_ids)
    lines = ["digraph clusters {", "  rankdir=BT;"]
    for v in net.vertices:
        lines.append(f"  n{v.vertex_id} [label={dot_quoted(''.join(net.member_names(v)))}];")
    for e in net.edges:
        for mid in sorted(e.metrics):
            idx = metric_order.index(mid)
            lines.append(
                f"  n{e.child} -> n{e.parent} [{dot_style(idx)}, tooltip={dot_quoted(mid)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

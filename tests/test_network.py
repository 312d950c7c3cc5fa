import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusternets import (
    ClusterNetwork,
    NetworkEdge,
    NetworkVertex,
    DistanceMatrix,
    StructuralError,
    build_complex,
    build_dendrogram,
    merge_dendrograms,
    to_dot,
    to_json,
)
from clusternets.network import PayloadEncoder, subfamily
from clusternets.simplicial import skeleton_dot

import oracles
from conftest import mask_of, vertex_by_members

F = Fraction


@pytest.fixture
def net_c1(trio_a, trio_b):
    dendros = [build_dendrogram(trio_a), build_dendrogram(trio_b)]
    return merge_dendrograms(dendros, ["m1", "m2"]), dendros


@pytest.fixture
def net_c2(quad_a, quad_b):
    dendros = [build_dendrogram(quad_a), build_dendrogram(quad_b)]
    return merge_dendrograms(dendros, ["m1", "m2"]), dendros


def vnames(net):
    return {"".join(net.member_names(v)) for v in net.vertices}


def enames(net):
    out = set()
    for e in net.edges:
        child = "".join(net.member_names(net.vertices[e.child]))
        parent = "".join(net.member_names(net.vertices[e.parent]))
        for mid in e.metrics:
            out.add((child, parent, mid))
    return out


class TestMerge:
    def test_trio_union_vertices_and_edges(self, net_c1):
        net, _ = net_c1
        assert vnames(net) == {"A", "B", "C", "AB", "BC", "ABC"}
        assert len(net.vertices) == 6
        assert len(net.edges) == 8
        assert enames(net) == {
            ("A", "AB", "m1"), ("B", "AB", "m1"), ("AB", "ABC", "m1"), ("C", "ABC", "m1"),
            ("B", "BC", "m2"), ("C", "BC", "m2"), ("BC", "ABC", "m2"), ("A", "ABC", "m2"),
        }

    def test_quad_union_counts(self, net_c2):
        net, _ = net_c2
        assert vnames(net) == {"A", "B", "C", "D", "AB", "CD", "AC", "BD", "ABCD"}
        assert len(net.vertices) == 9
        assert len(net.edges) == 12

    def test_merge_with_itself_is_same_tree(self, trio_a):
        d = build_dendrogram(trio_a)
        net = merge_dendrograms([d, d], ["x", "y"])
        assert vnames(net) == {"A", "B", "C", "AB", "ABC"}
        assert len(net.edges) == len(d.edges)
        assert all(e.metrics == frozenset({"x", "y"}) for e in net.edges)

    def test_restriction_recovers_each_tree(self, net_c1):
        net, dendros = net_c1
        for dendro, mid in zip(dendros, ["m1", "m2"]):
            verts = {v.members for v in net.vertices if mid in v.present_in}
            assert verts == {c.members for c in dendro.clusters}
            edges = {
                (net.vertices[c].members, net.vertices[p].members)
                for c, p in net.parent_ids(mid).items()
            }
            want_edges = {
                (dendro.clusters[c].members, dendro.clusters[p].members)
                for c, p in dendro.edges
            }
            assert edges == want_edges

    def test_vertices_have_exact_radii_per_metric(self, net_c1):
        net, _ = net_c1
        ab = vertex_by_members(net, mask_of([net.labels.index(x) for x in "AB"]))
        assert ab.present_in == frozenset({"m1"})
        assert ab.radius_by_metric == (("m1", 2),)
        abc = vertex_by_members(net, mask_of(range(3)))
        assert abc.radius_by_metric == (("m1", 3), ("m2", 5))

    def test_label_mismatch_rejected(self, trio_a, quad_a):
        with pytest.raises(StructuralError, match="mismatch"):
            merge_dendrograms(
                [build_dendrogram(trio_a), build_dendrogram(quad_a)], ["a", "b"]
            )

    def test_duplicate_ids_rejected(self, trio_a):
        d = build_dendrogram(trio_a)
        with pytest.raises(StructuralError, match="distinct"):
            merge_dendrograms([d, d], ["m", "m"])

    def test_empty_family_rejected(self):
        with pytest.raises(StructuralError, match="^empty dendrogram family$"):
            merge_dendrograms([], [])

    def test_id_count_mismatch_rejected(self, trio_a):
        with pytest.raises(StructuralError, match="^1 dendrograms for 2 metric ids$"):
            merge_dendrograms([build_dendrogram(trio_a)], ["m1", "m2"])

    def test_order_insensitive_serialization(self, trio_a, trio_b):
        da, db = build_dendrogram(trio_a), build_dendrogram(trio_b)
        one = to_json(merge_dendrograms([da, db], ["m1", "m2"]))
        two = to_json(merge_dendrograms([db, da], ["m2", "m1"]))
        assert one == two

    def test_edges_strictly_nest(self, net_c2):
        net, _ = net_c2
        for e in net.edges:
            child, parent = net.vertices[e.child], net.vertices[e.parent]
            assert child.members & parent.members == child.members
            assert child.members != parent.members

    def test_same_metric_inclusion_implies_reachability(self, net_c1):
        net, _ = net_c1
        for mid in net.metric_ids:
            up = {}
            for e in net.edges:
                if mid in e.metrics:
                    up[e.child] = e.parent
            for small in net.vertices:
                for big in net.vertices:
                    if mid not in small.present_in or mid not in big.present_in:
                        continue
                    nested = (
                        small.members != big.members
                        and small.members & big.members == small.members
                    )
                    node, reached = small.vertex_id, False
                    while node in up:
                        node = up[node]
                        if node == big.vertex_id:
                            reached = True
                            break
                    assert reached == nested


class TestRBalls:
    def test_singleton_is_ball_everywhere(self, net_c1):
        net, _ = net_c1
        b = vertex_by_members(net, 1 << net.labels.index("B"))
        assert subfamily(net, {"m1", "m2"}) <= b.present_in

    def test_one_tree_cluster_is_not_common_ball(self, net_c1):
        net, _ = net_c1
        ab = vertex_by_members(net, mask_of([0, 1]))
        assert not subfamily(net, {"m1", "m2"}) <= ab.present_in
        assert subfamily(net, {"m1"}) <= ab.present_in

    def test_unknown_metric_id(self, net_c1):
        net, _ = net_c1
        with pytest.raises(LookupError):
            subfamily(net, {"nope"})

    def test_empty_subfamily_rejected(self, net_c1):
        net, _ = net_c1
        with pytest.raises(ValueError):
            subfamily(net, set())


class TestMinimalSuperball:
    def test_common_superball_of_singleton(self, net_c1):
        net, _ = net_c1
        b = vertex_by_members(net, 1 << net.labels.index("B"))
        j = oracles.minimal_common_superball(net, b, {"m1", "m2"})
        assert "".join(net.member_names(j)) == "ABC"

    def test_root_has_none(self, net_c1):
        net, _ = net_c1
        root = vertex_by_members(net, mask_of(range(3)))
        assert oracles.minimal_common_superball(net, root, {"m1", "m2"}) is None

    def test_single_metric_gives_tree_parent(self, net_c1):
        net, _ = net_c1
        a = vertex_by_members(net, 1 << net.labels.index("A"))
        j = oracles.minimal_common_superball(net, a, {"m1"})
        assert "".join(net.member_names(j)) == "AB"

    def test_non_ball_input_rejected(self, net_c1):
        net, _ = net_c1
        ab = vertex_by_members(net, mask_of([0, 1]))
        with pytest.raises(ValueError):
            oracles.minimal_common_superball(net, ab, {"m1", "m2"})


def hand_built(masks, edges, metric_ids=("m",)):
    """Network on labels a, b, c whose vertices are balls of metric "m"."""
    verts = tuple(
        NetworkVertex(i, mask, (("m", F(mask.bit_count() - 1)),))
        for i, mask in enumerate(masks)
    )
    links = tuple(NetworkEdge(c, p, frozenset(tags)) for c, p, tags in edges)
    return ClusterNetwork(("a", "b", "c"), metric_ids, verts, links)


class TestConstructionChecks:
    """Each metric's parent links must form one laminar tree."""

    def test_unlinked_balls_rejected(self):
        # {a}, {a,b} and {a,c} with no edges: three roots, and a walk from
        # {a} would find no superball among two incomparable candidates.
        with pytest.raises(StructuralError, match="3 roots"):
            hand_built((0b001, 0b011, 0b101), ())

    def test_metric_without_balls_rejected(self):
        with pytest.raises(StructuralError, match="'n' has 0 roots"):
            hand_built((0b001, 0b011), [(0, 1, {"m"})], metric_ids=("m", "n"))

    def test_overlapping_siblings_rejected(self):
        # {a} < {a,b} < {a,b,c} and {a,c} < {a,b,c}: the walk from {a}
        # alone would silently pick {a,b}, although {a,c} contains {a} too.
        edges = [(0, 1, {"m"}), (1, 3, {"m"}), (2, 3, {"m"})]
        with pytest.raises(StructuralError, match="children of vertex 3 overlap"):
            hand_built((0b001, 0b011, 0b101, 0b111), edges)

    def test_two_parents_rejected(self):
        edges = [(0, 1, {"m"}), (0, 2, {"m"}), (1, 3, {"m"}), (2, 3, {"m"})]
        with pytest.raises(StructuralError, match="two parents"):
            hand_built((0b001, 0b011, 0b101, 0b111), edges)

    @pytest.mark.parametrize("masks", [(0b011, 0b001), (0b011, 0b011), (0b011, 0b100)])
    def test_child_not_strictly_inside_rejected(self, masks):
        with pytest.raises(StructuralError, match="not strictly inside"):
            hand_built(masks, [(0, 1, {"m"})])

    def test_edge_of_unknown_metric_rejected(self):
        with pytest.raises(StructuralError, match="non-balls of 'x'"):
            hand_built((0b001, 0b011), [(0, 1, {"m", "x"})])

    def test_dangling_edge_rejected(self):
        with pytest.raises(StructuralError, match="names no vertex"):
            hand_built((0b001, 0b011), [(0, 1, {"m"}), (-1, 1, {"m"})])

    @pytest.mark.parametrize(
        "vertex, message",
        [
            (NetworkVertex(1, 0b111, (("m", F(2)),)), "ids must be 0, 1"),
            # the metrics a vertex is a ball of are the keys of its radii
            (NetworkVertex(0, 0b111, (("m", F(2)), ("z", F(2)))), "unknown metrics"),
        ],
    )
    def test_bad_vertex_rejected(self, vertex, message):
        with pytest.raises(StructuralError, match=message):
            ClusterNetwork(("a", "b", "c"), ("m",), (vertex,), ())

    def test_fused_network_links(self, net_c1):
        net, _ = net_c1
        a, ab = (vertex_by_members(net, mask_of(ix)) for ix in ([0], [0, 1]))
        assert net.parent_ids("m1")[a.vertex_id] == ab.vertex_id
        with pytest.raises(LookupError):
            net.parent_ids("nope")


class TestCycles:
    def test_single_tree_acyclic(self, trio_a):
        net = merge_dendrograms([build_dendrogram(trio_a)], ["m"])
        assert oracles.undirected_cycles(net) == []

    def test_trio_network_rank_three(self, net_c1):
        net, _ = net_c1
        cycles = oracles.undirected_cycles(net)
        assert len(cycles) == len(net.edges) - len(net.vertices) + 1 == 3

    def test_quad_network_rank_four(self, net_c2):
        net, _ = net_c2
        cycles = oracles.undirected_cycles(net)
        assert len(cycles) == len(net.edges) - len(net.vertices) + 1 == 4

    def test_cycles_are_closed_walks(self, net_c1):
        net, _ = net_c1
        pairs = {(min(e.child, e.parent), max(e.child, e.parent)) for e in net.edges}
        for cycle in oracles.undirected_cycles(net):
            assert len(cycle) >= 3
            hops = list(zip(cycle, cycle[1:] + cycle[:1]))
            assert all((min(u, w), max(u, w)) in pairs for u, w in hops)


class TestSerialization:
    def test_json_shape(self, net_c1):
        net, _ = net_c1
        doc = json.loads(to_json(net))
        assert set(doc) == {"labels", "vertices", "edges"}
        assert doc["labels"] == ["A", "B", "C"]
        by_id = {v["id"]: v for v in doc["vertices"]}
        assert by_id[len(by_id) - 1]["members"] == ["A", "B", "C"]
        assert by_id[len(by_id) - 1]["radii"] == {"m1": "3", "m2": "5"}

    def test_dot_contains_styled_edges(self, net_c1):
        net, _ = net_c1
        dot = to_dot(net)
        assert dot.startswith("digraph")
        assert "style=solid" in dot and "style=dashed" in dot
        assert '[label="ABC"]' in dot

    @pytest.mark.parametrize(
        "write",
        [to_dot, lambda net: skeleton_dot(build_complex(net, net.metric_ids))],
        ids=["network", "skeleton"],
    )
    def test_dot_escapes_labels_and_metric_ids(self, write):
        # CSV spellings of the labels a"b, c\ and d\"e
        dm = DistanceMatrix.from_csv(
            'label,"a""b",c\\,"d\\""e"\n"a""b",0,1,2\nc\\,1,0,3\n"d\\""e",2,3,0\n'
        )
        assert dm.labels == ('a"b', "c\\", 'd\\"e')
        ids = ['m"1', "m\\2"]
        net = merge_dendrograms([build_dendrogram(dm)] * 2, ids)
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        found = {"label": set(), "tooltip": set()}
        for line in write(net).splitlines():
            assert '"' not in quoted.sub("", line), line
            for key, value in re.findall(r'(label|tooltip)=("(?:[^"\\]|\\.)*")', line):
                found[key].add(re.sub(r"\\(.)", r"\1", value[1:-1]))
        assert found["label"] <= {"".join(net.member_names(v)) for v in net.vertices}
        assert {'a"b', "c\\", 'd\\"e'} <= found["label"]
        # a skeleton edge is named by the first metric whose chain holds it
        assert ids[0] in found["tooltip"] and found["tooltip"] <= set(ids)

    def test_repeat_runs_identical(self, net_c1):
        net, _ = net_c1
        assert to_json(net) == to_json(net)
        assert to_dot(net) == to_dot(net)


def payload(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, cls=PayloadEncoder)


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


texts = st.text(st.characters(codec="utf-8") | st.sampled_from("\x00\x1f\x7f\"\\\u2028"), max_size=6)
leaves = st.none() | st.booleans() | st.integers(-1000, 1000) | st.integers(-10**40, 10**40) | texts
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=12,
)


def aliased(shared: dict, other) -> dict:
    """`shared` at depths 1 to 4, several times per depth, and inside lists."""
    outer = {"inner": shared, "again": shared, "other": other}
    return {
        "a": shared,
        "b": shared,
        "list": [shared, other, shared, [shared, shared]],
        "tuple": (outer, outer, {"deep": outer}),
        "nested": {"x": shared, "y": [outer, shared]},
    }


class TestPayloadEncoder:
    """`PayloadEncoder` writes the stdlib's indented bytes; the GOLDEN hashes
    in test_cli run every payload through it, so no payload holds a type it
    refuses."""

    @given(documents)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_stdlib(self, doc):
        assert payload(doc) == stdlib(doc)
        shared = aliased({"doc": doc, "leaf": 1}, doc)  # the dicts inside doc are shared too
        assert payload(shared) == stdlib(shared)

    @pytest.mark.parametrize("indent, sort_keys", [(None, True), (0, False), (4, False), ("\t", True)])
    def test_reads_indent_and_sort_keys(self, indent, sort_keys):
        doc = aliased({"z": [1, True, None], "a": "\u00e9"}, {"k": ()})
        ours = json.dumps(doc, indent=indent, sort_keys=sort_keys, cls=PayloadEncoder)
        assert ours == json.dumps(doc, indent=indent, sort_keys=sort_keys)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1: "a"}, {("a",): 1}])
    def test_refuses_floats_fractions_and_non_str_keys(self, value):
        for sort_keys in (True, False):
            with pytest.raises(TypeError):
                json.dumps({"ok": [1], "bad": [value]}, indent=2, sort_keys=sort_keys,
                           cls=PayloadEncoder)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1, 2}])
    def test_refuses_other_values_with_the_stdlib_message(self, value):
        message = f"Object of type {type(value).__name__} is not JSON serializable"
        with pytest.raises(TypeError, match=f"^{message}$"):
            payload({"bad": [value]})

import random
import re
from itertools import combinations

import pytest

from clusternets import (
    DistanceMatrix,
    build_complex,
    build_dendrogram,
    chain_to_superball,
    check_compatibility,
    merge_dendrograms,
    network_dimension,
)
from clusternets.cli import _network_from_paths
from clusternets import simplicial
from clusternets.simplicial import SimplicialComplex, complex_json_dict, skeleton_dot

import oracles
from conftest import INCOMPAT_1, INCOMPAT_2, mask_of, vertex_by_members


@pytest.fixture
def net_c1(trio_a, trio_b):
    return merge_dendrograms(
        [build_dendrogram(trio_a), build_dendrogram(trio_b)], ["m1", "m2"]
    )


def vertex(net, text):
    return vertex_by_members(net, mask_of(net.labels.index(ch) for ch in text))


def names(net, v):
    return "".join(net.member_names(v))


class TestCompatibility:
    def test_single_metric_compatible(self, trio_a):
        net = merge_dendrograms([build_dendrogram(trio_a)], ["m"])
        assert check_compatibility(net).compatible

    def test_trio_family_compatible(self, net_c1):
        rep = check_compatibility(net_c1)
        assert rep.compatible and not rep.violations

    def test_hand_built_incompatible_family(self):
        net = merge_dendrograms(
            [build_dendrogram(INCOMPAT_1), build_dendrogram(INCOMPAT_2)],
            ["m1", "m2"],
        )
        rep = check_compatibility(net)
        assert not rep.compatible
        offending = {tuple(v["intersection"]) for v in rep.violations}
        assert ("B", "C") in offending


def test_violations_share_one_dict_per_ball(data_dir):
    """On the random 32-point pair, 256 violations name 42 balls, each by one dict."""
    net = _network_from_paths([str(data_dir / "random32" / f"m{k}.csv") for k in (1, 2)])
    rep = check_compatibility(net)
    dict_of: dict[int, int] = {}
    for v in rep.violations:
        for ball in (v["first"], v["second"]):
            assert dict_of.setdefault(ball["id"], id(ball)) == id(ball)
    assert (len(rep.violations), len(dict_of)) == (256, 42)


def test_compatibility_matches_definition():
    """Random families on <= 7 points vs the member-set oracle, in report order."""
    rng = random.Random(1405)
    seen = 0
    for _ in range(60):
        n, k = rng.randint(2, 7), rng.randint(2, 3)
        labels = [f"p{i}" for i in range(n)]
        ids = [f"m{j}" for j in range(k)]
        mats = [oracles.random_dissimilarity(rng, n) for _ in ids]
        net = merge_dendrograms([build_dendrogram(DistanceMatrix(labels, e)) for e in mats], ids)
        balls = {mid: oracles.balls_by_definition(e, labels) for mid, e in zip(ids, mats)}
        rep = check_compatibility(net)
        got = [
            (v["first"]["members"], v["second"]["members"], v["intersection"])
            for v in rep.violations
        ]
        assert got == oracles.violations_by_definition(balls)
        assert rep.compatible == (not got)
        seen += len(got)
    assert seen  # the families do break compatibility


class TestIntermediaryChain:
    """The walk up one metric's tree from a ball to its minimal common superball."""

    def test_first_tree_chain(self, net_c1):
        chain = chain_to_superball(net_c1, vertex(net_c1, "B").vertex_id, {"m1", "m2"}, "m1")
        assert [names(net_c1, net_c1.vertices[i]) for i in chain] == ["B", "AB", "ABC"]

    def test_second_tree_chain(self, net_c1):
        chain = chain_to_superball(net_c1, vertex(net_c1, "B").vertex_id, {"m1", "m2"}, "m2")
        assert [names(net_c1, net_c1.vertices[i]) for i in chain] == ["B", "BC", "ABC"]

    def test_unknown_metric_rejected(self, net_c1):
        with pytest.raises(LookupError):
            chain_to_superball(net_c1, vertex(net_c1, "B").vertex_id, {"m1"}, "nope")


def anchored_at(cx, inner, outer):
    return [s for s in cx.simplices if s.anchor == (inner.vertex_id, outer.vertex_id)]


def pair_dimension(report, inner, outer):
    return dict(report.per_pair)[inner.vertex_id, outer.vertex_id]


class TestSimplicesForPair:
    """The simplices a complex takes from one (ball, superball) pair's chains."""

    def test_two_triangles_for_middle_point(self, net_c1):
        b, abc = vertex(net_c1, "B"), vertex(net_c1, "ABC")
        cx = build_complex(net_c1, {"m1", "m2"})
        chain_ids = {vertex(net_c1, t).vertex_id for t in ("B", "AB", "BC", "ABC")}
        as_names = {
            tuple(names(net_c1, net_c1.vertices[i]) for i in s.vertex_ids)
            for s in cx.simplices
            if set(s.vertex_ids) <= chain_ids
        }
        triangles = {t for t in as_names if len(t) == 3}
        edges = {t for t in as_names if len(t) == 2}
        assert triangles == {("B", "AB", "ABC"), ("B", "BC", "ABC")}
        assert edges == {
            ("B", "AB"), ("AB", "ABC"), ("B", "ABC"), ("B", "BC"), ("BC", "ABC"),
        }
        assert {len(s.vertex_ids) for s in anchored_at(cx, b, abc)} == {2, 3}

    def test_single_metric_immediate_parent_one_edge(self, trio_a):
        net = merge_dendrograms([build_dendrogram(trio_a)], ["m"])
        a = vertex(net, "A")
        j = oracles.minimal_common_superball(net, a, {"m"})
        simplices = anchored_at(build_complex(net, {"m"}), a, j)
        assert len(simplices) == 1
        assert len(simplices[0].vertex_ids) == 2


class TestBuildComplex:
    def test_trio_complex_dimension_two(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        sizes = {len(s.vertex_ids) for s in cx.simplices}
        assert sizes == {2, 3}
        top = {
            tuple(names(net_c1, net_c1.vertices[i]) for i in s.vertex_ids)
            for s in cx.simplices
            if len(s.vertex_ids) == 3
        }
        assert ("B", "AB", "ABC") in top and ("B", "BC", "ABC") in top

    def test_single_tree_complex_is_edge_set(self, trio_a):
        dendro = build_dendrogram(trio_a)
        net = merge_dendrograms([dendro], ["m"])
        cx = build_complex(net, {"m"})
        got = {s.vertex_ids for s in cx.simplices}
        want = {
            tuple(sorted((e.child, e.parent)))
            for e in net.edges
        }
        assert got == want

    def test_downward_closure(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        sets = {s.vertex_ids for s in cx.simplices}
        for s in cx.simplices:
            for size in range(2, len(s.vertex_ids)):
                for sub in combinations(s.vertex_ids, size):
                    assert sub in sets

    def test_simplices_are_inclusion_chains(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        for s in cx.simplices:
            members = sorted(
                (net_c1.vertices[i].members for i in s.vertex_ids),
                key=lambda m: m.bit_count(),
            )
            for small, big in zip(members, members[1:]):
                assert small & big == small and small != big

    def test_no_duplicate_vertex_sets(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        ids = [s.vertex_ids for s in cx.simplices]
        assert len(ids) == len(set(ids))

    def test_one_skeleton_contains_every_tree_edge(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        sets = {s.vertex_ids for s in cx.simplices}
        for e in net_c1.edges:
            assert tuple(sorted((e.child, e.parent))) in sets


class TestDimension:
    def test_pair_dimension_two(self, net_c1):
        b, abc = vertex(net_c1, "B"), vertex(net_c1, "ABC")
        assert pair_dimension(network_dimension(net_c1, {"m1", "m2"}), b, abc) == 2

    def test_single_metric_immediate_parent(self, trio_a):
        net = merge_dendrograms([build_dendrogram(trio_a)], ["m"])
        a = vertex(net, "A")
        j = oracles.minimal_common_superball(net, a, {"m"})
        rep = network_dimension(net, {"m"})
        assert pair_dimension(rep, a, j) == 1
        assert {dim for _, dim in rep.per_pair} == {1}

    def test_overall_dimension_trio(self, net_c1):
        rep = network_dimension(net_c1, {"m1", "m2"})
        assert rep.overall == 2
        assert all(dim >= 1 for _, dim in rep.per_pair)

    def test_overall_dimension_single_tree(self, quad_a):
        net = merge_dendrograms([build_dendrogram(quad_a)], ["m"])
        assert network_dimension(net, {"m"}).overall == 1

    def test_report_matches_top_simplices(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        rep = network_dimension(net_c1, {"m1", "m2"})
        top = max(len(s.vertex_ids) for s in cx.simplices)
        assert rep.overall == top - 1


    def test_subfamily_checked_once_per_pass(self, net_c1, monkeypatch):
        checked = []
        check = simplicial.subfamily

        def counted(net, r):
            checked.append(r)
            return check(net, r)

        monkeypatch.setattr(simplicial, "subfamily", counted)
        assert network_dimension(net_c1, {"m1", "m2"}).overall == 2
        assert build_complex(net_c1, {"m1"}).simplices
        assert len(checked) == 2
        with pytest.raises(ValueError, match="empty"):
            network_dimension(net_c1, set())
        with pytest.raises(LookupError, match="nope"):
            build_complex(net_c1, {"m1", "nope"})


class TestJson:
    def test_complex_json_shape(self, net_c1):
        cx = build_complex(net_c1, {"m1", "m2"})
        rep = network_dimension(net_c1, {"m1", "m2"})
        doc = complex_json_dict(cx, rep, check_compatibility(net_c1))
        assert set(doc) == {"simplices", "dimension"}
        assert doc["dimension"]["overall"] == 2
        assert all(set(s) == {"vertices", "metric", "anchor"} for s in doc["simplices"])

    def test_incompatible_family_warning_block(self):
        net = merge_dendrograms(
            [build_dendrogram(INCOMPAT_1), build_dendrogram(INCOMPAT_2)],
            ["m1", "m2"],
        )
        cx = build_complex(net, {"m1", "m2"})
        rep = network_dimension(net, {"m1", "m2"})
        doc = complex_json_dict(cx, rep, check_compatibility(net))
        assert "warnings" in doc
        assert doc["warnings"]["incompatible_intersections"]


EDGE = re.compile(r'n(\d+) -- n(\d+) \[tooltip="([^"]*)"\]')


def test_complex_and_dimension_match_definition():
    """Random families on <= 7 points vs the member-set oracle, every subfamily."""
    rng = random.Random(1404)
    for _ in range(60):
        n, k = rng.randint(2, 7), rng.randint(2, 3)
        labels = [f"p{i}" for i in range(n)]
        ids = [f"m{j}" for j in range(k)]
        mats = [oracles.random_dissimilarity(rng, n) for _ in ids]
        net = merge_dendrograms([build_dendrogram(DistanceMatrix(labels, e)) for e in mats], ids)
        balls = {mid: oracles.balls_by_definition(e, labels) for mid, e in zip(ids, mats)}

        members = [frozenset(net.member_names(v)) for v in net.vertices]

        def sets(vertex_ids):
            return tuple(members[i] for i in vertex_ids)

        for size in range(1, k + 1):
            for r in combinations(ids, size):
                simplices, dims = oracles.complex_by_definition(balls, r)
                cx = build_complex(net, r)
                got = {sets(s.vertex_ids): (s.metric, sets(s.anchor)) for s in cx.simplices}
                assert got == simplices
                spans = {face: frozenset(face) for face in simplices}
                facets = {
                    face: simplices[face]
                    for face, mine in spans.items()
                    if not any(mine < other for other in spans.values())
                }
                maximal = cx.maximal_simplices()
                assert len(maximal) == len(facets)
                assert {sets(s.vertex_ids): (s.metric, sets(s.anchor)) for s in maximal} == facets
                edges = {
                    sets((int(a), int(b))): metric
                    for a, b, metric in EDGE.findall(skeleton_dot(cx))
                }
                assert edges == {face: m for face, (m, _) in simplices.items() if len(face) == 2}
                per_pair = network_dimension(net, r).per_pair
                assert {sets(pair): dim for pair, dim in per_pair} == dims


def test_skeleton_and_facets_never_enumerate_faces(data_dir, monkeypatch):
    """Two random 32-point metrics give chains of up to 21 balls, so millions
    of faces (listing them took over 30 s and 2.5 GB) but 1,326 skeleton
    edges; DOT and the facets read the chains, so a face listing that comes
    back fails here at once."""
    mats = [
        DistanceMatrix.from_csv((data_dir / "random32" / name).read_text())
        for name in ("m1.csv", "m2.csv")
    ]
    net = merge_dendrograms([build_dendrogram(m) for m in mats], ["m1", "m2"])
    cx = build_complex(net, {"m1", "m2"})

    def refuse(self):
        raise AssertionError("faces were enumerated")

    monkeypatch.setattr(SimplicialComplex, "simplices", property(refuse))
    assert len(EDGE.findall(skeleton_dot(cx))) == 1326
    facets = [frozenset(s.vertex_ids) for s in cx.maximal_simplices()]
    assert facets and not any(a < b for a in facets for b in facets)

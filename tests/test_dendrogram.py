import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusternets import (
    DistanceMatrix,
    StructuralError,
    build_dendrogram,
    chain_distance,
)
from clusternets.dendrogram import mask_members, member_order

import oracles
from conftest import cut, entry, mask_of

F = Fraction


def names(dendro, cluster):
    return "".join(dendro.member_names(cluster))


def cluster_name_set(dendro):
    return {names(dendro, c) for c in dendro.clusters}


def edge_name_set(dendro):
    return {
        (names(dendro, dendro.clusters[c]), names(dendro, dendro.clusters[p]))
        for c, p in dendro.edges
    }


def assert_axioms(dendro, dm):
    """Clustering axioms plus radius correctness and reconstruction."""
    um = chain_distance(dm)
    member_sets = [frozenset(dendro.member_names(c)) for c in dendro.clusters]
    oracles.check_tree_of_clusters(
        [frozenset(dendro.labels.index(x) for x in m) for m in member_sets],
        len(dendro.labels),
    )
    for c in dendro.clusters:
        members = dendro.member_names(c)
        diameter = max(
            (entry(um, a, b) for a in members for b in members),
            default=F(0),
        )
        assert c.radius == diameter
    for a in dendro.labels:
        for b in dendro.labels:
            assert oracles.sup_cluster(dendro, a, b).radius == entry(um, a, b)
    for child, parent in dendro.edges:
        small, big = dendro.clusters[child], dendro.clusters[parent]
        assert oracles.contains(big, small) and small.members != big.members
        between = [
            c
            for c in dendro.clusters
            if oracles.contains(c, small) and oracles.contains(big, c)
            and c.members not in (small.members, big.members)
        ]
        assert not between, "edge admits an intermediary cluster"


class TestTrioTrees:
    def test_first_placement(self, trio_a):
        d = build_dendrogram(trio_a)
        assert cluster_name_set(d) == {"A", "B", "C", "AB", "ABC"}
        assert edge_name_set(d) == {("A", "AB"), ("B", "AB"), ("AB", "ABC"), ("C", "ABC")}
        assert_axioms(d, trio_a)

    def test_deformed_placement(self, trio_b):
        d = build_dendrogram(trio_b)
        assert cluster_name_set(d) == {"A", "B", "C", "BC", "ABC"}
        assert edge_name_set(d) == {("B", "BC"), ("C", "BC"), ("BC", "ABC"), ("A", "ABC")}
        assert_axioms(d, trio_b)

    def test_quad_trees(self, quad_a, quad_b):
        da, db = build_dendrogram(quad_a), build_dendrogram(quad_b)
        assert cluster_name_set(da) == {"A", "B", "C", "D", "AB", "CD", "ABCD"}
        assert edge_name_set(da) == {
            ("A", "AB"), ("B", "AB"), ("C", "CD"), ("D", "CD"),
            ("AB", "ABCD"), ("CD", "ABCD"),
        }
        assert cluster_name_set(db) == {"A", "B", "C", "D", "AC", "BD", "ABCD"}
        assert edge_name_set(db) == {
            ("A", "AC"), ("C", "AC"), ("B", "BD"), ("D", "BD"),
            ("AC", "ABCD"), ("BD", "ABCD"),
        }
        assert_axioms(da, quad_a)
        assert_axioms(db, quad_b)


class TestEdgeCases:
    def test_single_point(self):
        d = build_dendrogram(DistanceMatrix(["only"], [[0]]))
        assert len(d.clusters) == 1
        assert d.edges == ()
        assert d.clusters[0].radius == 0

    def test_simultaneous_merge_skips_pair_clusters(self):
        dm = DistanceMatrix(["A", "B", "C"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        d = build_dendrogram(dm)
        assert cluster_name_set(d) == {"A", "B", "C", "ABC"}

    def test_degenerate_zero_leaves_are_blocks(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        d = build_dendrogram(dm)
        assert cluster_name_set(d) == {"c", "ab", "abc"}
        leaf_names = {names(d, d.clusters[i]) for i in oracles.leaves(d)}
        assert leaf_names == {"ab", "c"}


class TestSup:
    def test_pair_inside_first_cluster(self, trio_a):
        d = build_dendrogram(trio_a)
        c = oracles.sup_cluster(d, "A", "B")
        assert names(d, c) == "AB" and c.radius == 2

    def test_pair_across(self, trio_a):
        d = build_dendrogram(trio_a)
        c = oracles.sup_cluster(d, "A", "C")
        assert names(d, c) == "ABC" and c.radius == 3

    def test_same_point_gives_leaf(self, trio_a):
        d = build_dendrogram(trio_a)
        c = oracles.sup_cluster(d, "A", "A")
        assert names(d, c) == "A" and c.radius == 0

    def test_unknown_label(self, trio_a):
        with pytest.raises(LookupError):
            oracles.sup_cluster(build_dendrogram(trio_a), "A", "Z")


class TestClustersAt:
    """The tree cut at eps: clusters born at or below eps under a parent born above."""

    def test_matches_epsilon_components(self, trio_a):
        d = build_dendrogram(trio_a)
        for eps in (0, 1, 2, F(5, 2), 3, 10):
            assert cut(d, eps) == oracles.threshold_components(trio_a.entries, eps)

    def test_above_root_radius_single_block(self, trio_a):
        assert len(cut(build_dendrogram(trio_a), 100)) == 1

    def test_zero_distinct_points_singletons(self, trio_a):
        assert len(cut(build_dendrogram(trio_a), 0)) == 3


def test_axioms_on_random_corpus():
    rng = random.Random(991)
    for _ in range(25):
        n = rng.randint(2, 7)
        dm = DistanceMatrix(
            [f"p{i}" for i in range(n)], oracles.random_dissimilarity(rng, n)
        )
        assert_axioms(build_dendrogram(dm), dm)
    for _ in range(10):
        n = rng.randint(2, 10)
        entries = oracles.random_ultrametric(rng, n)
        dm = DistanceMatrix([f"p{i}" for i in range(n)], entries)
        assert_axioms(build_dendrogram(dm), dm)


def test_empty_matrix_rejected():
    with pytest.raises(StructuralError):
        DistanceMatrix([], [])


def brute_force_tree(entries):
    """Clusters, radii and parents from threshold components at 0 and at
    every distinct value, each cluster born at the first threshold it
    appears at; the parent is the smallest strictly larger superset."""
    n = len(entries)
    values = sorted({F(0)} | {entries[i][j] for i in range(n) for j in range(n)})
    born = {}
    for t in values:
        for block in oracles.threshold_components(entries, t):
            born.setdefault(frozenset(block), t)
    parent = {}
    for block in born:
        supersets = [b for b in born if block < b]
        parent[block] = min(supersets, key=len) if supersets else None
    return born, parent


def test_tie_heavy_corpus_matches_threshold_oracle():
    rng = random.Random(20240417)
    palettes = [
        (F(0), F(1), F(2)),
        (F(0), F(1, 3), F(1, 2), F(1)),
        (F(0), F(5, 4), F(7, 2), F(9)),
    ]
    for trial in range(120):
        n = rng.randint(1, 9)
        palette = palettes[trial % len(palettes)]
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[i][j] = entries[j][i] = rng.choice(palette)
        dm = DistanceMatrix([f"p{i}" for i in range(n)], entries)
        dendro = build_dendrogram(dm)
        born, parent = brute_force_tree(entries)
        members = [frozenset(mask_members(c.members)) for c in dendro.clusters]
        assert {m: c.radius for m, c in zip(members, dendro.clusters)} == born
        assert len(members) == len(born)
        got_parent = {
            m: None if p is None else members[p] for m, p in zip(members, dendro.parent)
        }
        assert got_parent == parent


# indices 0..9 often share a prefix; indices up to 299 give masks of mixed widths
indices = st.integers(0, 9) | st.integers(0, 299)


@settings(deadline=None)
@given(
    st.integers(0, 8).flatmap(lambda k: st.lists(st.sets(indices, min_size=k, max_size=k), max_size=12)),
    st.lists(st.sets(indices, max_size=8), max_size=12),
)
def test_member_order_sorts_by_size_then_members(same_size, mixed):
    masks = [mask_of(s) for s in same_size + mixed]
    want = sorted(masks, key=lambda m: (m.bit_count(), mask_members(m)))
    assert sorted(masks, key=member_order) == want

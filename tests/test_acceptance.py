"""Acceptance suite: one test per criterion, exact checks throughout.

Every expected value is either fixed by construction or computed by the
independent brute-force oracles in oracles.py; no tolerances are needed
because all arithmetic is exact rational.
"""

import random
from fractions import Fraction

from clusternets import (
    DistanceMatrix,
    Lattice,
    build_complex,
    build_dendrogram,
    chain_distance,
    flag_count,
    intermediary_balls,
    maximal_chains,
    merge_dendrograms,
    network_dimension,
    norm_from_chain,
    verify_correspondence,
)
from clusternets.cli import main
from clusternets.padic import NormSpec, identity_matrix, reordering_norms, ball_network

import oracles
from conftest import QUAD_A, QUAD_B, TRIO_A, TRIO_B, entry
from test_padic import independent_decomposition_check

F = Fraction

Q_BY_CASE = {
    (2, 2): (F(3, 5), F(4, 5)),
    (3, 2): (F(1, 2), F(2, 3)),
    (2, 3): (F(5, 8), F(3, 4), F(7, 8)),
}


def _ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c01_chain_distance_matches_path_oracle():
    """200 random rational dissimilarities on <= 6 points vs brute force."""
    rng = random.Random(1201)
    for _ in range(200):
        n = rng.randint(2, 6)
        entries = oracles.random_dissimilarity(rng, n)
        dm = DistanceMatrix([f"p{i}" for i in range(n)], entries)
        got = chain_distance(dm)
        assert [list(row) for row in got.entries] == oracles.minimax_matrix(entries)
    _ok("1 chain-distance oracle equivalence (200 matrices, exact)")


def test_c02_ultrametric_fixed_point():
    """100 random ultrametrics on <= 16 points come back bit-exact."""
    rng = random.Random(1202)
    for _ in range(100):
        n = rng.randint(2, 16)
        entries = oracles.random_ultrametric(rng, n)
        dm = DistanceMatrix([f"p{i:02d}" for i in range(n)], entries)
        got = chain_distance(dm)
        assert got.entries == dm.entries
        assert got.labels == dm.labels
    _ok("2 ultrametric fixed point (100 matrices, bit-exact)")


def _tree_view(dendro):
    names = lambda c: "".join(dendro.member_names(c))
    verts = {names(c) for c in dendro.clusters}
    edges = {
        (names(dendro.clusters[c]), names(dendro.clusters[p]))
        for c, p in dendro.edges
    }
    return verts, edges


def _network_view(net):
    names = lambda v: "".join(net.member_names(v))
    verts = {names(v) for v in net.vertices}
    edges = set()
    for e in net.edges:
        for mid in e.metrics:
            edges.add((names(net.vertices[e.child]), names(net.vertices[e.parent])))
    return verts, edges


def test_c03_fixture_trees_and_networks_exact():
    """Reference fixtures yield exactly the expected trees and fused networks."""
    t_a = build_dendrogram(TRIO_A)
    assert _tree_view(t_a) == (
        {"A", "B", "C", "AB", "ABC"},
        {("A", "AB"), ("B", "AB"), ("AB", "ABC"), ("C", "ABC")},
    )
    t_b = build_dendrogram(TRIO_B)
    assert _tree_view(t_b) == (
        {"A", "B", "C", "BC", "ABC"},
        {("B", "BC"), ("C", "BC"), ("BC", "ABC"), ("A", "ABC")},
    )
    net1 = merge_dendrograms([t_a, t_b], ["m1", "m2"])
    verts, edges = _network_view(net1)
    assert len(net1.vertices) == 6 and len(net1.edges) == 8
    assert verts == {"A", "B", "C", "AB", "BC", "ABC"}
    assert edges == {
        ("A", "AB"), ("B", "AB"), ("AB", "ABC"), ("C", "ABC"),
        ("B", "BC"), ("C", "BC"), ("BC", "ABC"), ("A", "ABC"),
    }
    q_a = build_dendrogram(QUAD_A)
    assert _tree_view(q_a) == (
        {"A", "B", "C", "D", "AB", "CD", "ABCD"},
        {("A", "AB"), ("B", "AB"), ("C", "CD"), ("D", "CD"),
         ("AB", "ABCD"), ("CD", "ABCD")},
    )
    q_b = build_dendrogram(QUAD_B)
    assert _tree_view(q_b) == (
        {"A", "B", "C", "D", "AC", "BD", "ABCD"},
        {("A", "AC"), ("C", "AC"), ("B", "BD"), ("D", "BD"),
         ("AC", "ABCD"), ("BD", "ABCD")},
    )
    net2 = merge_dendrograms([q_a, q_b], ["m1", "m2"])
    assert len(net2.vertices) == 9 and len(net2.edges) == 12
    _ok("3 fixture trees/networks (exact vertex and edge sets)")


def test_c04_clustering_axioms_hold_suite_wide():
    """Axioms, radius correctness, and reconstruction on a dendrogram corpus."""
    rng = random.Random(1204)
    corpus = [TRIO_A, TRIO_B, QUAD_A, QUAD_B]
    for _ in range(40):
        n = rng.randint(2, 7)
        corpus.append(
            DistanceMatrix([f"p{i}" for i in range(n)], oracles.random_dissimilarity(rng, n))
        )
    for _ in range(10):
        n = rng.randint(2, 12)
        corpus.append(
            DistanceMatrix([f"p{i:02d}" for i in range(n)], oracles.random_ultrametric(rng, n))
        )
    for dm in corpus:
        dendro = build_dendrogram(dm)
        um = chain_distance(dm)
        member_sets = [
            frozenset(dendro.labels.index(x) for x in dendro.member_names(c))
            for c in dendro.clusters
        ]
        oracles.check_tree_of_clusters(member_sets, len(dendro.labels))
        for c in dendro.clusters:
            members = dendro.member_names(c)
            assert c.radius == max(
                (entry(um, a, b) for a in members for b in members), default=F(0)
            )
        for a in dendro.labels:
            for b in dendro.labels:
                assert oracles.sup_cluster(dendro, a, b).radius == entry(um, a, b)
    _ok(f"4 clustering axioms on {len(corpus)} dendrograms")


def test_c05_lattice_and_chain_counts_match_oracle():
    """Strict intermediaries 3/4/14 and maximal chains 3/4/21, exact."""
    expected = {(2, 2): (3, 3), (3, 2): (4, 4), (2, 3): (14, 21)}
    for (p, d), (between, chains) in expected.items():
        std = Lattice.standard(p, d)
        strict = [
            k for k in oracles.lattices_between(std) if k not in (std, std.dilate(1))
        ]
        assert len(strict) == between
        found = maximal_chains(std)
        assert len(found) == chains == flag_count(p, d)
        assert len(found) == oracles.brute_force_flag_chains(p, d)
        assert len(oracles.brute_force_subspaces(p, d)) == between + 2
    _ok("5 p-adic counting vs subspace-enumeration oracle")


def test_c06_adapted_basis_decomposition_every_chain():
    """Direct-sum decomposition via exact membership, all enumerated chains."""
    total = 0
    for p, d in Q_BY_CASE:
        for chain in maximal_chains(Lattice.standard(p, d)):
            fs = oracles.basis_from_chain(chain)
            independent_decomposition_check(chain, fs)
            total += 1
    assert total == 3 + 4 + 21
    _ok(f"6 adapted-basis decomposition on {total} chains")


def test_c07_chain_norm_round_trip_bijection():
    """Round trip is the identity on 100% of chains; counts match flags."""
    for (p, d), q in Q_BY_CASE.items():
        report = verify_correspondence(p, d, q)
        assert report["round_trips_passed"] == report["chain_count"]
        assert report["chain_count"] == report["flag_count"]
        assert report["distinct_ball_chains"]
        assert report["all_passed"]
    _ok("7 chain <-> norm round trip (3 + 4 + 21 chains)")


def _suite_norms():
    """Every norm the suite constructs, for the axiom sweep."""
    norms = []
    for (p, d), q in Q_BY_CASE.items():
        for chain in maximal_chains(Lattice.standard(p, d)):
            norms.append(norm_from_chain(chain, q))
    for d in (1, 2, 3):
        q = Q_BY_CASE[(2, d)] if (2, d) in Q_BY_CASE else (F(3, 5),)
        norms.extend(n for _, n in reordering_norms(2, q))
    norms.append(NormSpec(2, (F(4, 5), F(4, 5)), identity_matrix(2)))
    return norms


def test_c08_norm_axioms_exhaustive():
    """Nondegeneracy, scaling, strong triangle over (Z/p^3)^d, every norm."""
    norms = _suite_norms()
    for norm in norms:
        report = oracles.check_norm_axioms(norm, span=3)
        assert report["ok"], report["violations"][:3]
    _ok(f"8 norm axioms exhaustive over (Z/p^3)^d on {len(norms)} norms")


def test_c09_network_dimension_examples():
    """Reordering family gives dimension d; the trio family gives 2."""
    for d in (1, 2, 3):
        q = Q_BY_CASE[(2, d)] if (2, d) in Q_BY_CASE else (F(3, 5),)
        net = ball_network(2, d, q, window=2)
        report = network_dimension(net, frozenset(net.metric_ids))
        assert report.overall == d, (d, report.overall)
        assert all(dim == d for _, dim in report.per_pair)
    trio_net = merge_dendrograms(
        [build_dendrogram(TRIO_A), build_dendrogram(TRIO_B)], ["m1", "m2"]
    )
    assert network_dimension(trio_net, {"m1", "m2"}).overall == 2
    cx = build_complex(trio_net, {"m1", "m2"})
    assert max(len(s.vertex_ids) for s in cx.simplices) == 3
    for dm, mid in ((TRIO_A, "a"), (QUAD_A, "b")):
        single = merge_dendrograms([build_dendrogram(dm)], [mid])
        assert network_dimension(single, {mid}).overall == 1
    _ok("9 dimension: d in {1,2,3} sampled families, trio=2, single tree=1")


def test_c10_degenerate_weights_shorten_chain():
    """Equal weights at d=2 leave exactly two intermediary balls."""
    norm = NormSpec(2, (F(4, 5), F(4, 5)), identity_matrix(2))
    chain = intermediary_balls(norm, Lattice.standard(2, 2))
    assert len(chain.lattices) == 2
    assert chain.lattices[0] == chain.lattices[1].dilate(1)
    _ok("10 degenerate weights: 2-ball chain at d=2")


def test_c11_cli_determinism(tmp_path, data_dir, capsys):
    """Every subcommand yields byte-identical output on repeated runs."""
    markers = data_dir / "markers"
    invocations = [
        ["cluster", str(data_dir / "trio_a.csv")],
        ["network", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
        ["network", str(data_dir / "quad_a.csv"), str(data_dir / "quad_b.csv"),
         "--format", "dot"],
        ["complex", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
        ["dimension", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
        ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "2"],
        ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_units.json")],
    ]
    for k, argv in enumerate(invocations):
        a, b = tmp_path / f"{k}a.out", tmp_path / f"{k}b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv
    _ok(f"11 CLI determinism over {len(invocations)} invocations")


def test_c12_network_cycles_span_the_cycle_space():
    """Cycle count is E - V + 1 on random 2-3-metric families; each cycle is simple."""
    rng = random.Random(1212)
    for _ in range(40):
        n, m = rng.randint(2, 7), rng.randint(2, 3)
        labels = [f"p{i}" for i in range(n)]
        dendros = [
            build_dendrogram(DistanceMatrix(labels, oracles.random_dissimilarity(rng, n)))
            for _ in range(m)
        ]
        net = merge_dendrograms(dendros, [f"m{k}" for k in range(m)])
        pairs = {frozenset((e.child, e.parent)) for e in net.edges}
        cycles = oracles.undirected_cycles(net)
        # every metric's tree holds the root, so the network is connected
        assert len(cycles) == len(pairs) - len(net.vertices) + 1
        for cycle in cycles:
            assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
            assert all(frozenset(hop) in pairs for hop in zip(cycle, cycle[1:] + cycle[:1]))
    _ok("12 network cycles: E - V + 1 simple closed walks on 40 random families")


def test_c13_adjacency_is_subspace_incidence():
    """Between p.L and L, adjacency is containment; L is adjacent to each, not to p^k.L."""
    for p, d in Q_BY_CASE:
        std = Lattice.standard(p, d)
        strict = [k for k in oracles.lattices_between(std) if k not in (std, std.dilate(1))]
        for i, first in enumerate(strict):
            assert oracles.is_adjacent(first, std) and oracles.is_adjacent(std, first)
            for second in strict[i + 1 :]:
                nested = first.contains_lattice(second) or second.contains_lattice(first)
                assert oracles.is_adjacent(first, second) == nested
        assert not any(oracles.is_adjacent(std, std.dilate(k)) for k in range(-2, 3))
    _ok("13 building adjacency: incidence of subspaces of L/pL at 3 (p, d)")

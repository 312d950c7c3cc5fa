import itertools
import random
import re
from fractions import Fraction

import pytest

from clusternets import (
    DistanceMatrix,
    MarkerSet,
    StructuralError,
    SweepGrid,
    build_dendrogram,
    combine,
    merge_dendrograms,
    sweep,
    to_json,
)
from clusternets import metric
from clusternets.phylo import load_marker_bundle, load_sweep_spec, weight_id

import oracles
from conftest import cut, entry

F = Fraction

SPLIT_AB_CD = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 1, 10, 10], [1, 0, 10, 10], [10, 10, 0, 1], [10, 10, 1, 0]],
)
SPLIT_AC_BD = DistanceMatrix(
    ["A", "B", "C", "D"],
    [[0, 10, 1, 10], [10, 0, 10, 1], [1, 10, 0, 10], [10, 1, 10, 0]],
)


@pytest.fixture
def markers():
    return MarkerSet((("marker1", SPLIT_AB_CD), ("marker2", SPLIT_AC_BD)))


class TestCombine:
    def test_single_marker_identity(self):
        ms = MarkerSet((("m", SPLIT_AB_CD),))
        assert combine(ms, (1,)) == SPLIT_AB_CD

    def test_unit_vector_scales_one_marker(self, markers):
        got = combine(markers, (0, 3))
        assert entry(got, "A", "C") == 3
        assert entry(got, "A", "B") == 30
        d_got, d_marker = build_dendrogram(got), build_dendrogram(SPLIT_AC_BD)
        assert [c.members for c in d_got.clusters] == [c.members for c in d_marker.clusters]
        assert [c.radius for c in d_got.clusters] == [3 * c.radius for c in d_marker.clusters]

    def test_equal_weights_sum(self, markers):
        got = combine(markers, (1, 1))
        assert entry(got, "A", "B") == 11
        assert entry(got, "A", "C") == 11
        assert entry(got, "A", "D") == 20

    def test_positive_scaling_rescales_distances(self, markers):
        base = combine(markers, (1, 2))
        scaled = combine(markers, (3, 6))
        assert all(
            scaled.entries[i][j] == 3 * base.entries[i][j]
            for i in range(base.n)
            for j in range(base.n)
        )
        d_base, d_scaled = build_dendrogram(base), build_dendrogram(scaled)
        assert [c.members for c in d_base.clusters] == [c.members for c in d_scaled.clusters]
        assert [c.radius * 3 for c in d_base.clusters] == [c.radius for c in d_scaled.clusters]

    def test_length_mismatch_rejected(self, markers):
        with pytest.raises(StructuralError, match="weights for"):
            combine(markers, (1,))

    def test_zero_vector_rejected(self, markers):
        with pytest.raises(StructuralError, match="zero"):
            combine(markers, (0, 0))

    def test_negative_weight_rejected(self, markers):
        with pytest.raises(StructuralError, match="negative"):
            combine(markers, (1, -1))

    def test_empty_weight_vector_rejected(self, markers):
        with pytest.raises(StructuralError, match="^empty weight vector$"):
            combine(markers, ())

    @pytest.mark.parametrize(
        "names, message",
        [((), "marker set needs at least one marker"),
         (("m", "n", "m", "n", "o"), "duplicate marker ids: ['m', 'n']")],
        ids=["empty", "repeated-ids"],
    )
    def test_bad_marker_sets_rejected(self, names, message):
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            MarkerSet(tuple((name, SPLIT_AB_CD) for name in names))


# Spellings of each value, so that one value is written several ways within
# a marker and across markers.
SPELLINGS = {
    F(0): ("0", "0.0"),
    F(1, 4): ("0.25", "1/4", "2.5e-1"),
    F(3, 7): ("3/7", "6/14"),
    F(7, 10): ("07/10", "0.7"),
    F(10): ("1e1", "10"),
    F(12): ("12", "1.2e1"),
}
WEIGHTS = (0, 1, F(1, 3), F(2, 3), F(2, 7), F(9, 7), F(3, 10), "0.7", "5/3")


def spelled_marker(rng, labels, palette):
    n = len(labels)
    value = {(i, j): rng.choice(palette) for i in range(n) for j in range(i + 1, n)}
    rows = [
        [rng.choice(SPELLINGS[value[min(i, j), max(i, j)]]) if i != j else "0" for j in range(n)]
        for i in range(n)
    ]
    return DistanceMatrix(labels, rows)


class TestCombineOracle:
    def test_integer_combine_matches_fraction_sum(self):
        rng = random.Random(17)
        names = [f"t{k:02d}" for k in range(12)]
        for _ in range(40):
            n = rng.randint(1, 12)
            labels = rng.sample(names, n)
            palette = rng.sample(sorted(SPELLINGS), rng.randint(1, 4))
            ms = MarkerSet(tuple(
                (f"m{k}", spelled_marker(rng, labels, palette))
                for k in range(rng.randint(1, 4))
            ))
            for _ in range(4):
                w = [rng.choice(WEIGHTS) for _ in ms.markers]
                if not any(F(x) for x in w):
                    w[rng.randrange(len(w))] = F(3, 10)
                got = combine(ms, w)
                want = oracles.combine_by_definition(ms, w)
                assert [list(row) for row in got.entries] == want
                assert got == DistanceMatrix(got.labels, want)
                dendro = build_dendrogram(got)
                for eps in sorted({F(0), *got.values}):
                    assert cut(dendro, eps) == oracles.threshold_components(want, eps)

    def test_fraction_built_per_distinct_value(self, data_dir, monkeypatch):
        ms = load_marker_bundle(data_dir / "markers_mixed" / "manifest.json")
        weights = (F(1, 3), F(2, 7), F(3, 10))
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        got = combine(ms, weights)
        monkeypatch.undo()
        assert len(built) <= len(got.values)
        assert [list(row) for row in got.entries] == oracles.combine_by_definition(ms, weights)

    def test_fraction_built_per_merge_of_the_tree(self, data_dir, monkeypatch):
        ms = load_marker_bundle(data_dir / "markers_mixed" / "manifest.json")
        weights = (F(1, 3), F(2, 7), F(3, 10))
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        got = combine(ms, weights)
        dendro = build_dendrogram(got)
        monkeypatch.undo()
        merges = metric._merge_ranks(got)
        assert len(built) <= len(merges) < len(got.values)
        assert dendro == build_dendrogram(DistanceMatrix(got.labels, got.entries))


class TestGrid:
    def test_explicit_normalizes_and_dedupes(self):
        grid = SweepGrid.explicit([(1, 1), (2, 2), (F(1, 2), F(1, 2))])
        assert grid.weights == ((F(1, 2), F(1, 2)),)

    def test_simplex_grid_contains_units_and_interior(self):
        grid = SweepGrid.simplex(2, 2)
        assert (F(1), F(0)) in grid.weights
        assert (F(0), F(1)) in grid.weights
        assert (F(1, 2), F(1, 2)) in grid.weights

    def test_empty_explicit_grid_rejected(self):
        with pytest.raises(StructuralError, match="^empty sweep grid$"):
            SweepGrid.explicit([])

    def test_zero_resolution_rejected(self):
        with pytest.raises(StructuralError):
            SweepGrid.simplex(2, 0)

    @pytest.mark.parametrize("n_markers", [0, -1])
    def test_simplex_without_markers_rejected(self, n_markers):
        with pytest.raises(StructuralError, match="at least one marker"):
            SweepGrid.simplex(n_markers, 2)

    @pytest.mark.parametrize("n_markers", range(1, 5))
    @pytest.mark.parametrize("resolution", range(1, 6))
    def test_simplex_is_every_composition(self, n_markers, resolution):
        compositions = [
            k for k in itertools.product(range(resolution + 1), repeat=n_markers)
            if sum(k) == resolution
        ]
        expected = sorted(tuple(F(x, resolution) for x in k) for k in compositions)
        assert SweepGrid.simplex(n_markers, resolution).weights == tuple(expected)


class TestSweep:
    def test_two_unit_vectors_give_quadrangle_network(self, markers):
        net = sweep(markers, SweepGrid.explicit([(1, 0), (0, 1)]))
        names = {"".join(net.member_names(v)) for v in net.vertices}
        assert names == {"A", "B", "C", "D", "AB", "CD", "AC", "BD", "ABCD"}
        assert len(net.edges) == 12

    def test_single_vector_single_tree(self, markers):
        net = sweep(markers, SweepGrid.explicit([(1, 0)]))
        single = merge_dendrograms([build_dendrogram(SPLIT_AB_CD)], [weight_id((F(1), F(0)))])
        assert to_json(net) == to_json(single)

    def test_duplicate_vectors_collapse(self, markers):
        once = sweep(markers, SweepGrid.explicit([(1, 0), (0, 1)]))
        padded = sweep(markers, SweepGrid.explicit([(1, 0), (0, 1), (2, 0), (0, 5)]))
        assert to_json(once) == to_json(padded)

    def test_empty_grid_is_an_empty_family(self, markers):
        with pytest.raises(StructuralError, match="^empty dendrogram family$"):
            sweep(markers, SweepGrid(()))

    def test_identical_dendrograms_deduplicated(self, markers):
        # (1,0) and (1, tiny) give the same tree only if radii agree; here
        # different weights produce different radii, so both metrics stay.
        net = sweep(markers, SweepGrid.explicit([(1, 0), (1, 1)]))
        assert len(net.metric_ids) == 2


class TestBundleLoading:
    def test_manifest_round_trip(self, data_dir):
        ms = load_marker_bundle(data_dir / "markers" / "manifest.json")
        assert [name for name, _ in ms.markers] == ["marker1", "marker2"]
        assert ms.markers[0][1] == SPLIT_AB_CD

    def test_sweep_spec_explicit(self, data_dir):
        grid = load_sweep_spec(data_dir / "markers" / "sweep_units.json", 2)
        assert set(grid.weights) == {(F(1), F(0)), (F(0), F(1))}

    def test_sweep_spec_simplex(self, data_dir):
        grid = load_sweep_spec(data_dir / "markers" / "sweep_simplex.json", 2)
        assert (F(1, 2), F(1, 2)) in grid.weights

    def test_zero_weight_vector_rejected(self, data_dir):
        with pytest.raises(StructuralError, match="zero"):
            load_sweep_spec(data_dir / "markers" / "sweep_zero.json", 2)

    def test_missing_marker_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"markers": [{"id": "x", "path": "missing.csv"}]}'
        )
        with pytest.raises(StructuralError, match="cannot read"):
            load_marker_bundle(tmp_path / "manifest.json")

    def test_non_utf8_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b'{"markers": "\xff"}')
        with pytest.raises(StructuralError, match="cannot read manifest"):
            load_marker_bundle(tmp_path / "manifest.json")

    def test_huge_exponent_in_sweep_spec_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"grid": {"type": "explicit", "weights": [[1, 1e100000000]]}}')
        with pytest.raises(StructuralError, match="1e100000000"):
            load_sweep_spec(spec, 2)

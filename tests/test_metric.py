import io
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusternets import (
    DistanceMatrix,
    StructuralError,
    as_fraction,
    build_dendrogram,
    chain_distance,
)
from clusternets.dendrogram import mask_members
from clusternets.metric import read_matrix

import oracles
from conftest import cut, entry

F = Fraction


@st.composite
def dissimilarities(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = F(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    entries = [
        [F(0) if i == j else vals[min(i, j), max(i, j)] for j in range(n)]
        for i in range(n)
    ]
    return DistanceMatrix([f"p{i}" for i in range(n)], entries)


class TestConstruction:
    @pytest.mark.parametrize(
        "literal",
        ["1e100000000", "1e5000", "1E-4301", "1" + "0" * 4299 + "e1"],
        ids=["1e100000000", "1e5000", "1E-4301", "4301-digit-value"],
    )
    def test_oversized_literal_rejected_before_expansion(self, literal):
        with pytest.raises(StructuralError, match="4300"):
            as_fraction(literal)

    def test_literal_at_digit_limit_accepted(self):
        assert as_fraction("9" * 4300 + "e-4299") == F(int("9" * 4300), 10**4299)

    def test_labels_canonicalized_lexicographically(self):
        dm = DistanceMatrix(["b", "a"], [[0, 3], [3, 0]])
        assert dm.labels == ("a", "b")
        assert entry(dm, "a", "b") == 3

    def test_asymmetry_names_cell(self):
        with pytest.raises(StructuralError, match=r"\(A,B\)"):
            DistanceMatrix(["A", "B"], [[0, 1], [2, 0]])

    def test_negative_entry_names_cell(self):
        with pytest.raises(StructuralError, match="negative"):
            DistanceMatrix(["A", "B"], [[0, "-1/2"], ["-1/2", 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(StructuralError, match="diagonal"):
            DistanceMatrix(["A", "B"], [[1, 2], [2, 0]])

    def test_immutable_with_a_short_repr(self):
        dm = DistanceMatrix(["b", "a"], [[0, 3], [3, 0]])
        with pytest.raises(AttributeError, match="^DistanceMatrix is immutable$"):
            dm.labels = ("c", "d")
        assert dm.labels == ("a", "b")
        assert repr(dm) == "DistanceMatrix(labels=['a', 'b'], n=2)"

    def test_empty_point_set_rejected(self):
        with pytest.raises(StructuralError, match="empty"):
            DistanceMatrix([], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructuralError, match="duplicate"):
            DistanceMatrix(["A", "A"], [[0, 1], [1, 0]])

    def test_float_entries_refused(self):
        with pytest.raises(StructuralError, match="float"):
            DistanceMatrix(["A", "B"], [[0, 0.5], [0.5, 0]])

    # Exact messages for matrices with several faults, captured before the
    # matrix kept ranks: the scan runs row by row in canonical label order,
    # the diagonal cell first, then each pair to the right, symmetry before
    # sign; unparsable cells are reported first, in input order. The last
    # three are shape faults.
    @pytest.mark.parametrize(
        "labels, rows, message",
        [
            (["C", "A", "B"], [["0", "1", "2"], ["1", "0", "3"], ["2", "4", "5"]],
             "asymmetry at (A,B): 3 != 4"),
            (["B", "A", "C"], [["0", "1/2", "1"], ["0.5", "0", "2"], ["1", "3", "0"]],
             "asymmetry at (A,C): 2 != 3"),
            (["A", "B", "C"], [["0", "-1", "1"], ["-2", "0", "2"], ["1", "2", "0"]],
             "asymmetry at (A,B): -1 != -2"),
            (["A", "B", "C"], [["0", "1", "-1/3"], ["1", "0", "2"], ["-1/3", "3", "7"]],
             "negative entry at (A,C): -1/3"),
            (["A", "B", "C"], [["0", "-1", "1"], ["-1", "2", "1"], ["1", "1", "0"]],
             "negative entry at (A,B): -1"),
            (["d", "c", "b", "a"],
             [["0", "1", "1", "1"], ["1", "0", "1", "1"], ["1", "1", "0", "2"],
              ["1", "1", "1", "-0.5"]],
             "nonzero diagonal at (a,a): -1/2"),
            (["A", "B"], [[0, "0.25"], ["1/3", 0]], "asymmetry at (A,B): 1/4 != 1/3"),
            (["A", "B", "C"], [["0", "1", "2"], ["3", "0", "2"], ["2", "2", "x"]],
             "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
            (["B", "A"], [["0", "1/0"], ["y", "0"]], "bad rational literal '1/0': Fraction(1, 0)"),
            (["A", "B"], [["0", 0.5], ["w", "0"]],
             "refusing float value 0.5; pass a string, int or Fraction"),
            (["a", ""], [[0, 1], [1, 0]], "empty label name"),
            (["a", "b", "c"], [[0, 1, 1], [1, 0, 1]], "matrix has 2 rows for 3 labels"),
            (["a", "b"], [[0, 1], [1]], "row 'b' has 1 entries, expected 2"),
        ],
        ids=[
            "asymmetry-before-diagonal", "asymmetry-in-row-a", "asymmetry-before-sign",
            "sign-before-asymmetry-and-diagonal", "sign-before-diagonal",
            "diagonal-after-clean-rows", "mixed-types", "literal-before-asymmetry",
            "first-bad-literal", "float-before-literal", "empty-label", "row-count", "row-length",
        ],
    )
    def test_first_fault_message(self, labels, rows, message):
        with pytest.raises(StructuralError) as info:
            DistanceMatrix(labels, rows)
        assert str(info.value) == message

    @pytest.mark.parametrize("earlier", [1, "1", 0, "0"])
    @pytest.mark.parametrize("bad", [True, False, None])
    def test_bool_and_none_refused_after_equal_cells(self, earlier, bad):
        """The literal memo must not let True pass as a repeat of 1."""
        with pytest.raises(StructuralError) as info:
            DistanceMatrix(["A", "B"], [[0, earlier], [bad, 0]])
        kind = type(bad).__name__
        assert str(info.value) == f"refusing {kind} value {bad!r}; pass a string, int or Fraction"

    def test_ranks_over_sorted_distinct_values(self):
        dm = DistanceMatrix(
            ["c", "a", "b"],
            [["0", "1/4", "07/10"], ["0.25", "0.0", "1e1"], ["0.7", "10", "0/3"]],
        )
        assert dm.labels == ("a", "b", "c")
        assert dm.values == (F(1, 4), F(7, 10), F(10))
        assert dm.ranks == (2, 0, 1)  # (a,b), (a,c), (b,c)
        assert dm.entries == (
            (0, F(10), F(1, 4)), (F(10), 0, F(7, 10)), (F(1, 4), F(7, 10), 0)
        )
        same = DistanceMatrix(["a", "b", "c"], dm.entries)
        assert same == dm and hash(same) == hash(dm)
        assert DistanceMatrix(["x"], [["0"]]).values == ()


# Cells for judging the reader against `oracles.matrix_by_fractions`. Each
# group spells one value several ways; every cell of REFUSED is refused.
SPELLINGS = [
    ["7/10", "007/010", "0.7", "14/20"],
    ["3", "003", "+3", " 3", "\u0663", "6/2", "3/1", 3],
    ["10", "010", "1e1", "1_0", "10/1", "20/2"],
    ["1/2", "0.5", "2/4", F(1, 2)],
    ["1/4", "0.25", "2/8"],
    ["1", "01", 1, F(1)],
    ["9" * 4300, "9" * 4300 + "/1"],
]
ZEROS = ["0", "0/5", "000", "0.0", "-0", 0, F(0)]
REFUSED = [
    "5/0", "0/0", "\u00b2", "3/", "/3", "3//4", "1e5000", "1" * 4301, True, 0.25, "x", "",
]


@st.composite
def cell_tables(draw):
    """Labels and a symmetric table whose equal values are spelled apart;
    half the time one cell is then replaced by any cell at all, which may
    be negative, asymmetric, a nonzero diagonal or refused."""
    n = draw(st.integers(1, 4))
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = draw(st.sampled_from(ZEROS))
        for j in range(i + 1, n):
            group = st.sampled_from(draw(st.sampled_from(SPELLINGS)))
            table[i][j], table[j][i] = draw(group), draw(group)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        accepted = [c for group in SPELLINGS for c in group] + ZEROS + ["-3"]
        table[i][j] = draw(st.sampled_from(accepted) | st.sampled_from(REFUSED))
    return ["d", "b", "a", "c"][:n], table


class TestReaderJudge:
    @settings(max_examples=200, deadline=None)
    @given(cell_tables())
    def test_same_matrix_or_same_message_as_fraction_reader(self, case):
        labels, table = case
        try:
            want = oracles.matrix_by_fractions(labels, table)
        except StructuralError as exc:
            with pytest.raises(StructuralError) as info:
                DistanceMatrix(labels, table)
            assert str(info.value) == str(exc)
            return
        got = DistanceMatrix(labels, table)
        assert got == want and hash(got) == hash(want)
        assert got.values == want.values and got.ranks == want.ranks
        assert got.entries == want.entries

    @pytest.mark.parametrize("cell", REFUSED, ids=repr)
    def test_refused_cell_gives_the_fraction_readers_message(self, cell):
        rows = [["0", "1/2"], [cell, "0"]]
        with pytest.raises(StructuralError) as want:
            oracles.matrix_by_fractions(["a", "b"], rows)
        with pytest.raises(StructuralError) as got:
            DistanceMatrix(["a", "b"], rows)
        assert str(got.value) == str(want.value)

    def test_read_matrix_builds_no_fraction(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_text("label,a,b,c\na,0,7/10,3\nb,14/20,0,010/4\nc,003,5/2,0\n")
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        dm = read_matrix(path)
        monkeypatch.undo()
        assert built == []
        assert dm.values == (F(7, 10), F(5, 2), F(3))


class TestCsv:
    def test_round_trip(self, trio_a, data_dir):
        text = (data_dir / "trio_a.csv").read_text()
        assert DistanceMatrix.from_csv(text) == trio_a

    def test_fraction_literals(self):
        dm = DistanceMatrix.from_csv("label,x,y\nx,0,3/5\ny,3/5,0\n")
        assert entry(dm, "x", "y") == F(3, 5)

    def test_oversized_field_rejected(self):
        # the csv module refuses fields over 131072 characters with csv.Error
        with pytest.raises(StructuralError, match="bad CSV"):
            DistanceMatrix.from_csv("label,A\nA," + "0" * 200_000 + "\n")

    def test_bad_header(self):
        with pytest.raises(StructuralError, match="label"):
            DistanceMatrix.from_csv("name,A\nA,0\n")

    def test_non_square(self):
        with pytest.raises(StructuralError, match="expected"):
            DistanceMatrix.from_csv("label,A,B\nA,0\nB,1,0\n")

    def test_row_label_mismatch(self):
        with pytest.raises(StructuralError, match="row labels"):
            DistanceMatrix.from_csv("label,A,B\nA,0,1\nC,1,0\n")

    def test_repeated_row_label_rejected(self):
        with pytest.raises(StructuralError, match="repeated row label 'A'"):
            DistanceMatrix.from_csv("label,A,B\nA,0,7\nA,0,1\nB,1,0\n")


class TestReadMatrix:
    def test_parse_error_names_the_file(self, tmp_path):
        bad = tmp_path / "skewed.csv"
        bad.write_text("label,A,B\nA,0,1\nB,3,0\n")
        with pytest.raises(StructuralError, match=r"^skewed: asymmetry at \(A,B\)"):
            read_matrix(bad)

    def test_unreadable_file_names_the_path(self, tmp_path):
        with pytest.raises(StructuralError, match=re.escape(f"cannot read {tmp_path}")):
            read_matrix(tmp_path / "none.csv")

    def test_only_the_string_dash_reads_stdin(self, trio_a, data_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text((data_dir / "trio_a.csv").read_text())
        monkeypatch.setattr("sys.stdin", io.StringIO("label,x\nx,1\n"))
        assert read_matrix(Path("-")) == trio_a
        with pytest.raises(StructuralError, match="^stdin: nonzero diagonal"):
            read_matrix("-")


class TestValidate:
    """Ultrametric status, judged by `oracles.strong_triangle_violations`."""

    def test_two_points_always_ultrametric(self):
        dm = DistanceMatrix(["a", "b"], [[0, 1], [1, 0]])
        assert oracles.strong_triangle_violations(dm.entries) == []
        assert chain_distance(dm) == dm

    def test_collinear_metric_not_ultrametric(self, trio_a):
        assert oracles.strong_triangle_violations(trio_a.entries) == [(0, 2, 1)]
        assert oracles.strong_triangle_violations(chain_distance(trio_a).entries) == []

    def test_triangle_violation_reported(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert oracles.strong_triangle_violations(dm.entries) == [(0, 2, 1)]
        um = chain_distance(dm)
        assert entry(um, "a", "c") == 1
        assert oracles.strong_triangle_violations(um.entries) == []

    def test_degenerate_zero_still_ultrametric(self):
        um = DistanceMatrix(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert oracles.strong_triangle_violations(um.entries) == []
        assert chain_distance(um) == um


class TestEpsilonComponents:
    """Threshold components: the oracle by hand, the dendrogram cut against it."""

    def test_threshold_two(self, trio_a):
        assert oracles.threshold_components(trio_a.entries, 2) == [(0, 1), (2,)]
        assert cut(build_dendrogram(trio_a), 2) == [(0, 1), (2,)]

    def test_threshold_three_connects_chain(self, trio_a):
        assert oracles.threshold_components(trio_a.entries, 3) == [(0, 1, 2)]
        assert cut(build_dendrogram(trio_a), 3) == [(0, 1, 2)]

    def test_zero_threshold_singletons(self, trio_a):
        assert oracles.threshold_components(trio_a.entries, 0) == [(0,), (1,), (2,)]
        assert cut(build_dendrogram(trio_a), 0) == [(0,), (1,), (2,)]

    @given(dissimilarities(), st.integers(0, 12), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_expansion(self, dm, num, den):
        eps = F(num, den)
        assert cut(build_dendrogram(dm), eps) == oracles.threshold_components(dm.entries, eps)


class TestChainDistance:
    def test_collinear_example(self, trio_a):
        um = chain_distance(trio_a)
        assert entry(um, "A", "B") == 2
        assert entry(um, "B", "C") == 3
        assert entry(um, "A", "C") == 3

    def test_two_points(self):
        um = chain_distance(DistanceMatrix(["a", "b"], [[0, 7], [7, 0]]))
        assert entry(um, "a", "b") == 7

    def test_ultrametric_fixed_point(self):
        um = DistanceMatrix(
            ["a", "b", "c", "d"],
            [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
        )
        assert chain_distance(um) == um

    @given(dissimilarities())
    @settings(max_examples=40, deadline=None)
    def test_matches_path_enumeration_oracle(self, dm):
        got = chain_distance(dm)
        want = oracles.minimax_matrix(dm.entries)
        assert [list(r) for r in got.entries] == want

    @given(dissimilarities())
    @settings(max_examples=40, deadline=None)
    def test_entrywise_domination_and_idempotence(self, dm):
        um = chain_distance(dm)
        n = dm.n
        assert all(
            um.entries[i][j] <= dm.entries[i][j] for i in range(n) for j in range(n)
        )
        assert chain_distance(um) == um

    @given(dissimilarities(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_the_input(self, dm, data):
        n = dm.n
        bumps = [
            [data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)
        ]
        bigger = [
            [
                dm.entries[i][j] + (bumps[min(i, j)][max(i, j)] if i != j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        big = DistanceMatrix(dm.labels, bigger)
        small_cd, big_cd = chain_distance(dm), chain_distance(big)
        assert all(
            small_cd.entries[i][j] <= big_cd.entries[i][j]
            for i in range(n)
            for j in range(n)
        )

    @given(dissimilarities(), st.integers(0, 12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_components_agree_with_closure(self, dm, num, den):
        eps = F(num, den)
        um = chain_distance(dm)
        want = oracles.threshold_components(dm.entries, eps)
        assert oracles.threshold_components(um.entries, eps) == want

    def test_random_seeded_oracle_sweep(self):
        rng = random.Random(20240817)
        for _ in range(30):
            n = rng.randint(2, 6)
            entries = oracles.random_dissimilarity(rng, n)
            dm = DistanceMatrix([f"p{i}" for i in range(n)], entries)
            got = chain_distance(dm)
            assert [list(r) for r in got.entries] == oracles.minimax_matrix(entries)
            assert oracles.strong_triangle_violations(got.entries) == []


class TestZeroQuotient:
    """Blocks at chain distance zero are the dendrogram's radius-0 leaves."""

    def test_all_positive_gives_singletons(self, trio_a):
        leaves = build_dendrogram(chain_distance(trio_a)).clusters[:3]
        assert [mask_members(c.members) for c in leaves] == [(0,), (1,), (2,)]
        assert {c.radius for c in leaves} == {0}

    def test_zero_pair_collapses(self):
        dm = DistanceMatrix(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        d = build_dendrogram(dm)
        leaves = [d.member_names(c) for c in d.clusters if c.radius == 0]
        assert leaves == [("c",), ("a", "b")]

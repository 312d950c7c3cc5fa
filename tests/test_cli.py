import ast
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import clusternets
from clusternets.cli import main
from clusternets.padic import verify_correspondence

SCHEMAS = Path(clusternets.__file__).parent / "schemas"
SRC = Path(clusternets.__file__).parents[1]


def fresh_python(args, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run `python args` in a new interpreter that imports the package from SRC
    and writes no bytecode, so nothing the test process imported carries over."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        preexec_fn=preexec_fn, timeout=60,
    )


def schema(name: str) -> Draft202012Validator:
    doc = json.loads((SCHEMAS / name).read_text())
    Draft202012Validator.check_schema(doc)
    return Draft202012Validator(doc)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCluster:
    def test_trio_tree_json(self, data_dir, capsys):
        code, out, err = run(["cluster", str(data_dir / "trio_a.csv")], capsys)
        assert code == 0 and not err
        doc = json.loads(out)
        schema("network.schema.json").validate(doc)
        assert len(doc["vertices"]) == 5
        assert len(doc["edges"]) == 4
        assert doc["vertices"][0]["metrics"] == ["trio_a"]

    def test_stdin_dash(self, data_dir, capsys, monkeypatch):
        import io

        text = (data_dir / "trio_a.csv").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(["cluster", "-"], capsys)
        assert code == 0
        assert json.loads(out)["vertices"][0]["metrics"] == ["stdin"]

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run(["cluster", str(empty)], capsys)
        assert code == 2 and not out
        payload = json.loads(err)
        assert payload["error"]["code"] == 2

    def test_non_square_exit_2_names_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,A,B\nA,0,1\nB,1\n")
        code, _, err = run(["cluster", str(bad)], capsys)
        assert code == 2
        assert "expected" in json.loads(err)["error"]["message"]

    def test_repeated_row_label_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "dup.csv"
        bad.write_text("label,A,B\nA,0,7\nA,0,1\nB,1,0\n")
        code, out, err = run(["cluster", str(bad)], capsys)
        assert code == 2 and not out
        assert "repeated row label 'A'" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "text, message",
        [("label,,B\n,0,1\nB,1,0\n", "empty label name"), ("label\n", "no labels in header")],
        ids=["empty-label", "no-labels"],
    )
    def test_header_without_usable_labels_exit_2(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, out, err = run(["cluster", str(bad)], capsys)
        assert code == 2 and not out
        (line,) = err.splitlines()
        error = {"code": 2, "kind": "input", "message": f"bad: {message}"}
        assert json.loads(line) == {"error": error}

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("label,Ä,B\nÄ,0,1\nB,1,0\n".encode("latin-1"))
        code, out, err = run(["cluster", str(bad)], capsys)
        assert code == 2 and not out
        assert "cannot read" in json.loads(err)["error"]["message"]

    def test_undecodable_stdin_exit_2(self, capsys, monkeypatch):
        # under the POSIX locale stdin passes a non-UTF-8 byte on as a surrogate
        monkeypatch.setattr("sys.stdin", io.StringIO("label,\udcff,B\n\udcff,0,1\nB,1,0\n"))
        code, out, err = run(["cluster", "-"], capsys)
        assert code == 2 and not out
        assert "cannot read" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("literal", ["1e100000000", "1e5000"])
    def test_huge_exponent_exit_2_names_literal(self, literal, tmp_path, capsys):
        bad = tmp_path / "huge.csv"
        bad.write_text(f"label,A,B\nA,0,{literal}\nB,{literal},0\n")
        code, out, err = run(["cluster", str(bad)], capsys)
        assert code == 2 and not out
        assert repr(literal) in json.loads(err)["error"]["message"]

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(["cluster", "no/such/file.csv"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_dot_output(self, data_dir, capsys):
        code, out, _ = run(["cluster", str(data_dir / "trio_a.csv"), "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("digraph") and '[label="ABC"]' in out


class TestNetwork:
    def test_two_trees_fig_counts(self, data_dir, capsys):
        code, out, _ = run(
            ["network", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        schema("network.schema.json").validate(doc)
        assert len(doc["vertices"]) == 6 and len(doc["edges"]) == 8

    def test_single_input_matches_cluster(self, data_dir, capsys):
        code1, out1, _ = run(["network", str(data_dir / "trio_a.csv")], capsys)
        code2, out2, _ = run(["cluster", str(data_dir / "trio_a.csv")], capsys)
        assert code1 == code2 == 0 and out1 == out2

    def test_mismatched_labels_exit_2(self, data_dir, capsys):
        code, _, err = run(
            ["network", str(data_dir / "trio_a.csv"), str(data_dir / "quad_a.csv")],
            capsys,
        )
        assert code == 2
        assert "mismatch" in json.loads(err)["error"]["message"]


class TestComplexAndDimension:
    def test_trio_family_dimension_two(self, data_dir, capsys):
        code, out, _ = run(
            ["complex", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        schema("complex.schema.json").validate(doc)
        assert doc["dimension"]["overall"] == 2
        assert "warnings" not in doc

    def test_single_tree_dimension_one(self, data_dir, capsys):
        code, out, _ = run(["dimension", str(data_dir / "trio_a.csv")], capsys)
        assert code == 0
        doc = json.loads(out)
        schema("complex.schema.json").validate(doc)
        assert doc["dimension"]["overall"] == 1
        assert "simplices" not in doc

    def test_subfamily_selector(self, data_dir, capsys):
        code, out, _ = run(
            [
                "complex",
                str(data_dir / "trio_a.csv"),
                str(data_dir / "trio_b.csv"),
                "--r",
                "trio_a",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["dimension"]["overall"] == 1

    def test_unknown_subfamily_exit_2(self, data_dir, capsys):
        code, _, err = run(
            ["complex", str(data_dir / "trio_a.csv"), "--r", "nope"], capsys
        )
        assert code == 2
        assert "unknown metric ids" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("r", ["trio_a,nope", ",", ""])
    def test_bad_subfamily_lists_available_ids(self, r, data_dir, capsys):
        code, out, err = run(["dimension", str(data_dir / "trio_a.csv"), "--r", r], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"].endswith("; available: ['trio_a']")

    def test_repeated_file_name_gets_a_numbered_metric_id(self, data_dir, tmp_path, capsys):
        paths = []
        for folder, source in (("a", "trio_a.csv"), ("b", "trio_b.csv")):
            (tmp_path / folder).mkdir()
            paths.append(str(shutil.copy(data_dir / source, tmp_path / folder / "x.csv")))
        code, out, err = run(["dimension", *paths, "--r", "nope"], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"].endswith("; available: ['x', 'x.1']")
        for r, overall in (("x", 1), ("x.1", 1), ("x,x.1", 2)):
            code, out, _ = run(["dimension", *paths, "--r", r], capsys)
            assert code == 0 and json.loads(out)["dimension"]["overall"] == overall, r

    def test_incompatible_family_warning_block(self, data_dir, capsys):
        code, out, _ = run(
            [
                "complex",
                str(data_dir / "incompat_1.csv"),
                str(data_dir / "incompat_2.csv"),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        schema("complex.schema.json").validate(doc)
        assert doc["warnings"]["incompatible_intersections"]

    def test_complex_skeleton_dot(self, data_dir, capsys):
        code, out, _ = run(
            [
                "complex",
                str(data_dir / "trio_a.csv"),
                str(data_dir / "trio_b.csv"),
                "--format",
                "dot",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("graph skeleton") and " -- " in out

    def test_dot_skips_compatibility_check(self, data_dir, tmp_path, capsys, monkeypatch):
        import clusternets.cli as cli_mod

        def boom(net):
            raise RuntimeError("the skeleton does not need the compatibility check")

        monkeypatch.setattr(cli_mod, "check_compatibility", boom)
        argv = ("complex", "trio_a.csv", "trio_b.csv", "--format", "dot")
        args = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
        out = tmp_path / "skeleton.dot"
        assert main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


class TestPadicVerify:
    def test_two_two_all_pass(self, capsys):
        code, out, _ = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        schema("padic_verify.schema.json").validate(doc)
        assert doc["chain_count"] == 3 and doc["all_passed"]
        assert doc["parameters"]["precision"] == 8

    def test_two_three_twenty_one_chains(self, capsys):
        code, out, _ = run(
            ["padic-verify", "--p", "2", "--d", "3", "--q", "5/8,3/4,7/8"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chain_count"] == 21
        assert doc["round_trips_passed"] == 21

    def test_equal_weights_degenerate_report(self, capsys):
        code, out, _ = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "4/5,4/5"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        schema("padic_verify.schema.json").validate(doc)
        assert doc["degenerate_parameters"]
        assert doc["ball_count"] == 2 < doc["full_chain_length"]

    def test_library_degenerate_report_is_the_cli_payload(self, capsys):
        report = verify_correspondence(2, 2, ("4/5", "4/5"))
        assert report["degenerate_parameters"] and report["ball_count"] == 2
        assert not verify_correspondence(2, 2, ("3/5", "4/5"))["degenerate_parameters"]
        report["parameters"]["precision"] = 8
        code, out, _ = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "4/5,4/5"], capsys
        )
        assert code == 0 and json.loads(out) == report

    def test_window_reports_sampled_dimension(self, capsys):
        code, out, _ = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        schema("padic_verify.schema.json").validate(doc)
        assert doc["sampled_network"] == {
            "window": 2,
            "points": 16,
            "metrics": 2,
            "dimension": 2,
        }

    def test_non_prime_exit_2(self, capsys):
        code, _, err = run(["padic-verify", "--p", "4", "--d", "2"], capsys)
        assert code == 2
        assert "prime" in json.loads(err)["error"]["message"]

    def test_weights_out_of_window_exit_2(self, capsys):
        code, _, err = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "1/3,4/5"], capsys
        )
        assert code == 2

    def test_invalid_default_weights_exit_2_before_enumeration(self, capsys, monkeypatch):
        import clusternets.cli as cli_mod

        def enumerate_chains(*args, **kwargs):
            raise AssertionError("chains enumerated before the weights were checked")

        monkeypatch.setattr(cli_mod, "verify_correspondence", enumerate_chains)
        # at d >= p^2 the default weights reach 1/p, outside (1/p, 1]
        code, out, err = run(["padic-verify", "--p", "2", "--d", "4"], capsys)
        assert code == 2 and not out
        message = json.loads(err)["error"]["message"]
        assert "1/2 outside (1/2, 1]" in message and "--q" in message

    def test_default_weights_refused_before_any_is_built(self, capsys):
        # d >= p^2 is decided on the least default weight alone: a million
        # weights are never built
        start = time.perf_counter()
        code, out, err = run(["padic-verify", "--p", "2", "--d", "1000000"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"] == (
            "weight 1/333334 outside (1/2, 1]; the default weights need d < p^2, so pass --q"
        )

    def test_61_bit_prime_runs(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            ["padic-verify", "--p", "2305843009213693951", "--d", "1", "--q", "1"], capsys
        )
        assert time.perf_counter() - start < 1
        doc = json.loads(out)
        assert code == 0 and doc["all_passed"] and doc["chain_count"] == 1

    def test_precision_below_one_exit_2(self, capsys):
        for precision in ("0", "-5"):
            code, out, err = run(
                ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5",
                 "--precision", precision],
                capsys,
            )
            assert code == 2 and not out
            assert "precision" in json.loads(err)["error"]["message"]

    def test_negative_window_exit_2_before_enumeration(self, capsys, monkeypatch):
        import clusternets.cli as cli_mod

        def enumerate_chains(*args, **kwargs):
            raise AssertionError("chains enumerated before the window was checked")

        monkeypatch.setattr(cli_mod, "verify_correspondence", enumerate_chains)
        code, out, err = run(
            ["padic-verify", "--p", "2", "--d", "4", "--q", "3/5,4/5,5/6,6/7",
             "--window", "-1"],
            capsys,
        )
        assert code == 2 and not out
        assert "window" in json.loads(err)["error"]["message"]

    def test_unsorted_weights_exit_2_with_hint(self, capsys):
        code, _, err = run(
            ["padic-verify", "--p", "2", "--d", "2", "--q", "4/5,3/5"], capsys
        )
        assert code == 2
        assert "3/5,4/5" in json.loads(err)["error"]["message"]


class TestPhyloSweep:
    def test_units_sweep_quadrangle(self, data_dir, capsys):
        markers = data_dir / "markers"
        code, out, _ = run(
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_units.json")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        schema("network.schema.json").validate(doc)
        names = {"".join(v["members"]) for v in doc["vertices"]}
        assert {"AB", "CD", "AC", "BD", "ABCD"} <= names

    def test_non_utf8_marker_exit_2(self, data_dir, tmp_path, capsys):
        markers = tmp_path / "markers"
        shutil.copytree(data_dir / "markers", markers)
        (markers / "split_ab_cd.csv").write_bytes(b"label,A\xff\n")
        code, out, err = run(
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_units.json")],
            capsys,
        )
        assert code == 2 and not out
        assert "split_ab_cd.csv" in json.loads(err)["error"]["message"]

    def test_malformed_marker_csv_exit_2_names_the_file(self, data_dir, tmp_path, capsys):
        markers = tmp_path / "markers"
        shutil.copytree(data_dir / "markers", markers)
        (markers / "split_ab_cd.csv").write_text("label,A,B\nA,0,1\nB,3,0\n")
        code, out, err = run(
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_units.json")],
            capsys,
        )
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"] == "split_ab_cd: asymmetry at (A,B): 1 != 3"

    def test_repeated_marker_id_exit_2_names_it(self, data_dir, tmp_path, capsys):
        markers = tmp_path / "markers"
        shutil.copytree(data_dir / "markers", markers)
        entries = [{"id": "m", "path": "split_ab_cd.csv"}, {"id": "m", "path": "split_ac_bd.csv"}]
        (markers / "manifest.json").write_text(json.dumps({"markers": entries}))
        code, out, err = run(
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_units.json")],
            capsys,
        )
        assert code == 2 and not out
        (line,) = err.splitlines()
        message = "duplicate marker ids: ['m']"
        assert json.loads(line) == {"error": {"code": 2, "kind": "input", "message": message}}

    def test_zero_vector_exit_2(self, data_dir, capsys):
        markers = data_dir / "markers"
        code, _, err = run(
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_zero.json")],
            capsys,
        )
        assert code == 2
        assert "zero" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "manifest, grid",
        [
            ([{"id": "m", "path": "x.csv"}], None),
            ("markers", None),
            ({"markers": [{"id": "m", "path": 5}]}, None),
            (
                {"markers": [
                    {"id": None, "path": "split_ab_cd.csv"},
                    {"id": "m", "path": "split_ac_bd.csv"},
                ]},
                None,
            ),
            (None, {"type": "explicit", "weights": [[None, "1"]]}),
            (None, {"type": "explicit", "weights": [[["1"], "1"]]}),
            (None, {"type": "explicit", "weights": [5]}),
            (None, {"type": "explicit", "weights": ["12"]}),
            (None, {"type": "explicit", "weights": [[True, "1"]]}),
            (None, {"type": "simplex", "resolution": 2.5}),
            (None, {"type": "simplex", "resolution": True}),
        ],
        ids=[
            "manifest-list", "manifest-string", "path-int", "id-null", "weight-null",
            "weight-nested-list", "row-number", "row-string", "weight-true",
            "resolution-float", "resolution-true",
        ],
    )
    def test_malformed_json_exit_2(self, manifest, grid, data_dir, tmp_path, capsys):
        """Malformed JSON is refused with exit 2, never crashes or gets repaired."""
        markers = tmp_path / "markers"
        shutil.copytree(data_dir / "markers", markers)
        manifest_path = markers / "manifest.json"
        spec_path = markers / "sweep_units.json"
        if manifest is not None:
            manifest_path.write_text(json.dumps(manifest))
        if grid is not None:
            spec_path = tmp_path / "sweep.json"
            spec_path.write_text(json.dumps({"grid": grid}))
        code, out, err = run(["phylo-sweep", str(manifest_path), str(spec_path)], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"weights": [[1, 1]]}, 'sweep spec must contain {"grid": {"type": ...}}'),
            (
                {"grid": {"type": "explicit", "weights": []}},
                "explicit grid needs a nonempty weights list",
            ),
            (
                {"grid": {"type": "explicit", "weights": [[1, 1], [1, 2, 3]]}},
                "weight row [1, 2, 3] has 3 entries for 2 markers",
            ),
            (
                {"grid": {"type": "explicit", "weights": [[0.5, 1.5, 3]]}},
                "weight row [1/2, 3/2, 3] has 3 entries for 2 markers",
            ),
            (
                {"grid": {"type": "explicit", "weights": [[[1], 1]]}},
                "refusing list value [1]; pass a string, int or Fraction",
            ),
            ({"grid": {"type": "hexagonal", "resolution": 2}}, "unknown grid type 'hexagonal'"),
        ],
        ids=["no-grid", "empty-weights", "row-length", "row-length-fractions", "nested-row",
             "unknown-type"],
    )
    def test_sweep_spec_refusals_exit_2_with_one_json_line(
        self, spec, message, data_dir, tmp_path, capsys
    ):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        manifest = data_dir / "markers" / "manifest.json"
        code, out, err = run(["phylo-sweep", str(manifest), str(spec_path)], capsys)
        assert code == 2 and not out
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": {"code": 2, "kind": "input", "message": message}}


# SHA-256 of payloads on tests/data, captured before the single-linkage pass
# replaced the per-threshold build (the `complex` entries before one chain
# pass replaced the per-pair walks); a changed hash is a changed output.
GOLDEN = {
    ("network", "trio_a.csv", "trio_b.csv"):
        "434b6b031d3d50a2ab9d25b11e96da384ec36ce94ccb2d95e9e9ed63c389a6b0",
    ("network", "quad_a.csv", "quad_b.csv"):
        "a94740b9785bfe2036e70d16eb0957f1e29f7ea8a5220d14a6df77daabbe2f1d",
    ("network", "incompat_1.csv", "incompat_2.csv"):
        "5a8971b5fa454b5b32a0f24f0ae06dbeb6c39e494ddd5ab0d577ce11ec36b87a",
    ("phylo-sweep", "markers/manifest.json", "markers/sweep_units.json"):
        "e08eaa6cacc3a7ad272e0ad80104bd445a5e6a125efeaa9e7e763ec3a9165cb1",
    ("phylo-sweep", "markers/manifest.json", "markers/sweep_simplex.json"):
        "33afa70be5f1cd4b9e85d0a81b48ad2bd49458d06c04a99178fcba09d117c3d7",
    # mixed literal spellings and denominators, captured before matrices
    # kept integer ranks and combine summed on ints
    ("phylo-sweep", "markers_mixed/manifest.json", "markers_mixed/sweep_simplex.json"):
        "9928baf2a4371778c607ccf34fd141f0723acde79b264802a383eeb23f4580a7",
    ("dimension", "trio_a.csv", "trio_b.csv"):
        "b3aa5e4a56f6ecbed59d36dc106174117a9b34b7d398211101b547f6f5dce7e5",
    ("dimension", "incompat_1.csv", "incompat_2.csv"):
        "09dd24468fee7f0ae06f979a77dafe162b025e24272c497aa77b1d187460ab95",
    ("complex", "trio_a.csv", "trio_b.csv"):
        "204073ea45052e34c6f7ea7b751a7937b796b16d0f08c52c15c910d0d23bbc8e",
    ("complex", "quad_a.csv", "quad_b.csv"):
        "a3ff46f745bd9d18a1d3407a1700ba3c65224b95e32da4a41bec8cfc6eb222f2",
    ("complex", "incompat_1.csv", "incompat_2.csv"):
        "a5797524a42c0a6a54cf5c22620389f79e815ea57cabe6d9c716ae29925cb64d",
    ("complex", "trio_a.csv", "trio_b.csv", "--format", "dot"):
        "cdecfbc396502923d8dc12263a737b3f1e52cfcfe35379fad8fcce1026fbc93f",
    ("complex", "trio_a.csv", "trio_b.csv", "--r", "trio_a"):
        "99f2a2435d922ee51a8bac8f18526200d7e7f85a731eb9e2a0800d717b642bf2",
    # DOT skeletons captured while the complex still listed every face.
    # random32/m1.csv and m2.csv: labels t0000..t0031, each pair i < j gets
    # Fraction(randint(1, 1000), randint(1, 7)) from random.Random(1000 * seed
    # + 32) for seeds 1 and 2, written by bench/workloads.write_matrix.
    ("complex", "quad_a.csv", "quad_b.csv", "--format", "dot"):
        "e5254c71e0906fc0bebbdd4c8e67174923ccbec93152a4abc3f1970a97f71fa6",
    ("complex", "incompat_1.csv", "incompat_2.csv", "--format", "dot"):
        "a94b0d24dddc025c7baefdef59f4b614fb2ff9d96a91cfe24264445533e25231",
    ("complex", "random32/m1.csv", "random32/m2.csv", "--format", "dot"):
        "0747288314ffb163b60d908ac153c39607f88119fa70837abe9a3230c264b2f1",
    # chains of up to 21 balls, captured while the pass walked each metric
    # from I to a J found beforehand along the first metric of r
    ("dimension", "random32/m1.csv", "random32/m2.csv"):
        "c4a916f7a9172adb63fade03a4833dd818d49b4251a0326ae43342cded677596",
    ("dimension", "random32/m1.csv", "random32/m2.csv", "--r", "m1"):
        "3aca7d2d0ce6f21c953eaa673d416f89bda8eb16a6cc544f438170282cc3a872",
    ("padic-verify", "--p", "2", "--d", "3", "--q", "5/8,3/4,7/8"):
        "c91ba789ab441d4be527cb53abc03d04263f7801cc83f9f17f89b58fdf7dcdd6",
    ("padic-verify", "--p", "3", "--d", "2", "--q", "1/2,2/3"):
        "275462d140e3a637d52558895288b0cf0db092d45484c13def402a15f13e04d9",
    ("padic-verify", "--p", "3", "--d", "2", "--q", "1/2,1/2"):
        "cf7a3664224446b6791e5300236cd69b0d9bdd3b455ae04865b7c5727d958fd3",
    ("padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "2"):
        "0e68a2f95d4089fe08ab8fafd31b6a32c01dfa6741c723ae85245ef82686f845",
    ("padic-verify", "--p", "2", "--d", "3", "--q", "3/4,3/4,7/8", "--window", "1"):
        "d12d02c968785e5bd54cdc128dcab4cfbbc2d88eeb473e09ff80e2d919580943",
    ("padic-verify", "--p", "3", "--d", "3", "--q", "5/9,2/3,7/9"):
        "b732be07a9587a5e0cdfc8a9eb7fb6c59f77c601a04e384e60eb8957d81f036f",
    ("padic-verify", "--p", "5", "--d", "2", "--q", "3/5,4/5"):
        "5645817e2da31d60d7a7d5e061cebee8bc603c6cb6ed3f7419dccf06e6f604f9",
    # the only pin at d = 4, captured while flags were built from echelon
    # rows by pivot elimination
    ("padic-verify", "--p", "2", "--d", "4", "--q", "9/16,5/8,3/4,7/8"):
        "b1ca469c0cd2eecb58dbb1c9cd51ebe007cd069809f8169b76bea5266124a1e2",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_payload_hashes(argv, data_dir, tmp_path, capsys):
    command, *rest = argv
    # file names are relative to the data directory; flags pass through as is
    args = [str(data_dir / a) if a.endswith((".csv", ".json")) else a for a in rest]
    out = tmp_path / "payload"
    assert main([command, *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("network", "incompat_1.csv", "incompat_2.csv"),
        ("phylo-sweep", "markers/manifest.json", "markers/sweep_units.json"),
        ("dimension", "random32/m1.csv", "random32/m2.csv"),
        ("complex", "incompat_1.csv", "incompat_2.csv"),
        ("padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "2"),
    ],
    ids=" ".join,
)
def test_payloads_bypass_the_stdlib_indented_encoder(argv, data_dir, tmp_path, capsys):
    """Each payload site writes through `PayloadEncoder`: with the stdlib's
    indented (pure-Python) encoder switched off, the GOLDEN bytes still come out."""
    off = AssertionError("the stdlib's indented encoder ran")
    with mock.patch("json.encoder._make_iterencode", side_effect=off):
        test_golden_payload_hashes(argv, data_dir, tmp_path, capsys)


OVERWRITES = [  # (argv, the file an output names, its role in the run)
    (["cluster", "m.csv"], "m.csv", "input matrix"),
    (["network", "m.csv", "n.csv"], "n.csv", "input matrix"),
    (["complex", "m.csv", "n.csv"], "m.csv", "input matrix"),
    (["dimension", "n.csv", "m.csv"], "m.csv", "input matrix"),
    (["phylo-sweep", "manifest.json", "sweep_units.json"], "manifest.json", "manifest"),
    (["phylo-sweep", "manifest.json", "sweep_units.json"], "sweep_units.json", "sweep spec"),
    (["phylo-sweep", "manifest.json", "sweep_units.json"], "split_ac_bd.csv", "marker file"),
]
OVERWRITE_IDS = ["cluster", "network", "complex", "dimension", "manifest", "sweep-spec", "marker"]


def one_file_with(target: str, link: str) -> str:
    """A path that is one file with target: target itself, or a new symlink or hard link to it."""
    if link == "itself":
        return target
    (os.symlink if link == "symlink" else os.link)(target, "link")
    return "link"


class TestDeterminismAndMeta:
    def test_out_files_byte_identical_across_runs(self, data_dir, tmp_path, capsys):
        markers = data_dir / "markers"
        invocations = [
            ["cluster", str(data_dir / "trio_a.csv")],
            ["cluster", str(data_dir / "trio_a.csv"), "--format", "dot"],
            ["network", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
            ["network", str(data_dir / "quad_a.csv"), str(data_dir / "quad_b.csv"), "--format", "dot"],
            ["complex", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
            ["dimension", str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")],
            ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "2"],
            ["padic-verify", "--p", "3", "--d", "2", "--q", "1/2,2/3"],
            ["phylo-sweep", str(markers / "manifest.json"), str(markers / "sweep_simplex.json")],
        ]
        for k, argv in enumerate(invocations):
            first = tmp_path / f"run{k}_a.out"
            second = tmp_path / f"run{k}_b.out"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes(), argv

    def test_internal_failure_exit_3(self, data_dir, capsys, monkeypatch):
        import clusternets.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("forced invariant break")

        monkeypatch.setattr(cli_mod, "build_dendrogram", boom)
        code, out, err = run(["cluster", str(data_dir / "trio_a.csv")], capsys)
        assert code == 3 and not out
        payload = json.loads(err)
        assert payload["error"]["kind"] == "internal"

    def test_meta_goes_to_side_channel(self, data_dir, tmp_path, capsys):
        out = tmp_path / "net.json"
        meta = tmp_path / "meta.json"
        code = main(
            ["cluster", str(data_dir / "trio_a.csv"), "--out", str(out), "--emit-meta", str(meta)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert "unix_time" not in json.dumps(payload)
        side = json.loads(meta.read_text())
        assert side["tool"] == "clusternets" and "unix_time" in side

    def test_meta_records_the_parsed_argv(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["host", "extra-arg"])
        meta = tmp_path / "meta.json"
        argv = ["cluster", str(data_dir / "trio_a.csv"), "--emit-meta", str(meta)]
        code, out, _ = run(argv, capsys)
        assert code == 0 and json.loads(out)["labels"] == ["A", "B", "C"]
        assert json.loads(meta.read_text())["argv"] == argv

    @pytest.mark.parametrize("flag", ["--out", "--emit-meta"])
    def test_unwritable_output_path_exits_2(self, flag, data_dir, tmp_path, capsys):
        target = tmp_path / "missing" / "file.json"
        code, out, err = run(["cluster", str(data_dir / "trio_a.csv"), flag, str(target)], capsys)
        assert code == 2 and err.count("\n") == 1 and not out
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and str(target) in error["message"]
        assert not target.parent.exists()

    def test_meta_to_dash_exit_2_writes_nothing(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["cluster", str(data_dir / "trio_a.csv"), "--emit-meta", "-", "--out", "-"]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out and err.count("\n") == 1
        assert "--emit-meta" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("out, meta", [("f", "f"), ("f", "./f"), ("sub/../f", "f")])
    def test_out_and_meta_on_one_file_exit_2_writes_nothing(
        self, out, meta, data_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        matrices = [str(data_dir / "trio_a.csv"), str(data_dir / "trio_b.csv")]
        code, stdout, err = run(["dimension", *matrices, "--out", out, "--emit-meta", meta], capsys)
        assert code == 2 and not stdout and err.count("\n") == 1
        message = f"--out and --emit-meta name one file: {out}"
        assert json.loads(err)["error"]["message"] == message
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("link", ["itself", "symlink", "hard link"])
    @pytest.mark.parametrize("flag", ["--out", "--emit-meta"])
    @pytest.mark.parametrize("argv, target, role", OVERWRITES, ids=OVERWRITE_IDS)
    def test_output_on_an_input_exits_2_and_leaves_it(
        self, argv, target, role, flag, link, data_dir, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(data_dir / "markers", tmp_path, dirs_exist_ok=True)
        shutil.copy(data_dir / "trio_a.csv", "m.csv")
        shutil.copy(data_dir / "trio_b.csv", "n.csv")
        name = one_file_with(target, link)
        before = {p: p.read_bytes() for p in Path().iterdir()}
        code, out, err = run([*argv, flag, name], capsys)
        assert code == 2 and not out and err.count("\n") == 1
        assert json.loads(err)["error"]["message"] == f"{flag} and {role} name one file: {name}"
        assert {p: p.read_bytes() for p in Path().iterdir()} == before

    @pytest.mark.parametrize("link", ["itself", "symlink", "hard link"])
    def test_outputs_on_one_existing_file_exit_2_and_leave_it(
        self, link, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("f.json").write_text("{}\n")
        meta = one_file_with("f.json", link)

        def never(*args):
            raise AssertionError("the run started its work before the refusal")

        monkeypatch.setattr("clusternets.cli.verify_correspondence", never, raising=False)
        before = {p: p.read_bytes() for p in Path().iterdir()}
        argv = ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--out", "f.json"]
        code, out, err = run([*argv, "--emit-meta", meta], capsys)
        assert code == 2 and not out and err.count("\n") == 1
        assert json.loads(err)["error"]["message"] == "--out and --emit-meta name one file: f.json"
        assert {p: p.read_bytes() for p in Path().iterdir()} == before

    def test_two_inputs_may_name_one_file(self, data_dir, tmp_path, capsys):
        m, link = tmp_path / "m.csv", tmp_path / "link.csv"
        shutil.copy(data_dir / "trio_a.csv", m)
        os.link(m, link)
        code, out, _ = run(["network", str(m), str(link), "--out", str(tmp_path / "net.json")], capsys)
        assert code == 0 and not out
        vertices = json.loads((tmp_path / "net.json").read_text())["vertices"]
        assert {m for v in vertices for m in v["metrics"]} == {"link", "m"}

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["cluster", "no/such.csv"], "no/such.csv"),
            (["phylo-sweep", "no/manifest.json", "no/sweep.json"], "no/manifest.json"),
            (["phylo-sweep", "{markers}/manifest.json", "no/sweep.json"], "no/sweep.json"),
            (["cluster", "{data}/trio_a.csv", "--out", "no/net.json"], "no/net.json"),
        ],
        ids=["matrix", "manifest", "sweep-spec", "out"],
    )
    def test_unusable_path_named_once(self, argv, path, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [a.format(data=data_dir, markers=data_dir / "markers") for a in argv]
        code, out, err = run(argv, capsys)
        message = json.loads(err)["error"]["message"]
        assert code == 2 and not out
        assert message.startswith("cannot ") and message.count(path) == 1, message

    def test_unwritable_out_leaves_no_meta_file(self, data_dir, tmp_path, capsys):
        out, meta = tmp_path / "missing" / "net.json", tmp_path / "meta.json"
        argv = ["cluster", str(data_dir / "trio_a.csv"), "--out", str(out)]
        code, stdout, err = run(argv + ["--emit-meta", str(meta)], capsys)
        assert code == 2 and not stdout and str(out) in json.loads(err)["error"]["message"]
        assert not meta.exists()

    def test_unwritable_meta_leaves_no_payload_file(self, data_dir, tmp_path, capsys):
        out, meta = tmp_path / "net.json", tmp_path / "missing" / "meta.json"
        argv = ["cluster", str(data_dir / "trio_a.csv"), "--out", str(out)]
        code, stdout, err = run(argv + ["--emit-meta", str(meta)], capsys)
        assert code == 2 and not stdout and str(meta) in json.loads(err)["error"]["message"]
        assert not out.exists()

    def test_payload_cut_short_leaves_no_file(self, tmp_path):
        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails instead
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

        out, meta = tmp_path / "f.json", tmp_path / "m.json"
        argv = ["padic-verify", "--p", "2", "--d", "3", "--q", "5/8,3/4,7/8"]
        proc = fresh_python(
            ["-m", "clusternets.cli", *argv, "--out", str(out), "--emit-meta", str(meta)],
            preexec_fn=limit_file_size,
        )
        assert proc.returncode == 2 and not proc.stdout
        assert json.loads(proc.stderr)["error"]["message"] == f"cannot write {out}: File too large"
        assert not out.exists() and not meta.exists()

    def test_out_that_cannot_be_opened_is_left_in_place(self, data_dir, tmp_path, capsys):
        (tmp_path / "keep").write_text("kept")
        code, stdout, err = run(["cluster", str(data_dir / "trio_a.csv"), "--out", str(tmp_path)], capsys)
        assert code == 2 and not stdout and str(tmp_path) in json.loads(err)["error"]["message"]
        assert (tmp_path / "keep").read_text() == "kept"


LAYERS = {"padic", "phylo", "simplicial"}
LAYER_RUNS = [
    (["cluster", "{data}/trio_a.csv"], set()),
    (["dimension", "{data}/trio_a.csv", "{data}/trio_b.csv"], {"simplicial"}),
    (["complex", "{data}/trio_a.csv", "{data}/trio_b.csv"], {"simplicial"}),
    (["phylo-sweep", "{data}/markers/manifest.json", "{data}/markers/sweep_simplex.json"], {"phylo"}),
    (["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5"], {"padic"}),
    (["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5", "--window", "1"],
     {"padic", "simplicial"}),
]
LOADED_AFTER = """
import json, sys
from clusternets import cli
{call}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("clusternets."))))
"""


class TestLazyLayers:
    """Each run imports only the layers its subcommand calls. Checked in a new
    interpreter, since this process has imported every module."""

    def test_parsing_loads_no_layer(self, data_dir):
        argvs = [[a.format(data=data_dir) for a in argv] for argv, _ in LAYER_RUNS]
        call = "for argv in json.loads(sys.argv[1]): cli.build_parser().parse_args(argv)"
        proc = fresh_python(["-c", LOADED_AFTER.format(call=call), json.dumps(argvs)])
        assert proc.returncode == 0, proc.stderr
        assert not {m.split(".")[1] for m in json.loads(proc.stdout)} & LAYERS

    @pytest.mark.parametrize(
        "argv, layers", LAYER_RUNS, ids=[" ".join(argv[:1] + argv[7:]) for argv, _ in LAYER_RUNS]
    )
    def test_run_loads_only_its_layers(self, argv, layers, data_dir, tmp_path):
        argv = [a.format(data=data_dir) for a in argv] + ["--out", str(tmp_path / "out")]
        call = "assert cli.main(sys.argv[1:]) == 0"
        proc = fresh_python(["-c", LOADED_AFTER.format(call=call), *argv])
        assert proc.returncode == 0, proc.stderr
        assert {m.split(".")[1] for m in json.loads(proc.stdout)} & LAYERS == layers

    def test_names_assigned_before_the_first_run_are_called(self, data_dir):
        code = """
import json, sys
from clusternets import cli
def assigned(*args):
    raise RuntimeError("the assigned name ran")
cli.check_compatibility = cli.verify_correspondence = cli.sweep = assigned
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""
        argvs = [
            ["dimension", str(data_dir / "trio_a.csv")],
            ["padic-verify", "--p", "2", "--d", "2", "--q", "3/5,4/5"],
            ["phylo-sweep", str(data_dir / "markers" / "manifest.json"),
             str(data_dir / "markers" / "sweep_simplex.json")],
        ]
        proc = fresh_python(["-c", code, json.dumps(argvs)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [3, 3, 3]
        assert proc.stderr.count("RuntimeError: the assigned name ran") == 3

    def test_package_names_resolve_to_their_modules(self):
        code = """
import sys
import clusternets
assert not [m for m in sys.modules if m.startswith("clusternets.")], "a module was loaded"
for name in clusternets.__all__:
    obj = getattr(clusternets, name)
    assert obj.__module__.startswith("clusternets."), name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert name in dir(clusternets), name
try:
    clusternets.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print(len(clusternets.__all__))
"""
        proc = fresh_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == len(clusternets.__all__) == 36

    def test_every_package_name_has_a_caller_outside_the_tests(self):
        """An exported name is read by another module of the package or by the
        README's library quick start; a name only tests call belongs in tests/oracles.py."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sources = [re.search(r"## Library quick start\s*```python\n(.*?)```", readme, re.DOTALL)[1]]
        sources += [path.read_text() for path in (SRC / "clusternets").glob("*.py")
                    if path.name != "__init__.py"]
        used = set()
        for node in (node for text in sources for node in ast.walk(ast.parse(text))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        assert sorted(set(clusternets.__all__) - used) == []


CELLS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["1/2", "0.25", "-1", "1/0", "1e3", "1e5000", "1e100000000", "nan", "x"]),
    st.text(max_size=6),
)


@st.composite
def matrix_csv(draw):
    """Mostly well-formed matrix CSV: a symmetric grid of drawn cells."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text("ABC", min_size=1, max_size=2), min_size=n, max_size=n))
    cell: dict[tuple[int, int], str] = {}
    lines = [",".join(["label", *labels])]
    for i, name in enumerate(labels):
        row = [name]
        for j in range(n):
            key = (min(i, j), max(i, j))
            if key not in cell:
                cell[key] = "0" if i == j else draw(CELLS)
            row.append(cell[key])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run_quietly(argv, key: str = "labels") -> int:
    """Run the CLI on argv; assert it exits 0 with a payload holding key, or
    2 with one JSON line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if err.getvalue():
        assert err.getvalue().count("\n") == 1
        assert json.loads(err.getvalue())["error"]["code"] == code == 2
    else:
        assert code == 0 and json.loads(out.getvalue())[key]
    return code


@given(st.one_of(st.text(), matrix_csv()))
@settings(max_examples=150, deadline=None)
def test_cluster_stdin_fuzz_exits_0_or_2(text):
    with mock.patch("sys.stdin", io.StringIO(text)):
        run_quietly(["cluster", "-"])


@given(matrix_csv(), matrix_csv())
@settings(max_examples=100, deadline=None)
def test_phylo_sweep_fuzz_exits_0_or_2(first, second):
    markers = {"markers": [{"id": "m1", "path": "m1.csv"}, {"id": "m2", "path": "m2.csv"}]}
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp)
        (bundle / "m1.csv").write_text(first)
        (bundle / "m2.csv").write_text(second)
        (bundle / "manifest.json").write_text(json.dumps(markers))
        (bundle / "sweep.json").write_text('{"grid": {"type": "simplex", "resolution": 2}}')
        run_quietly(["phylo-sweep", str(bundle / "manifest.json"), str(bundle / "sweep.json")])


WEIGHT_LITERALS = ["1/2", "3/5", "2/3", "3/4", "4/5", "7/8", "1", "0", "-1", "5/4", "1/0", "x", ""]


@given(
    st.integers(1, 4),
    st.integers(-1, 3),
    st.sampled_from([-1, 0, 1]),
    st.one_of(st.none(), st.lists(st.sampled_from(WEIGHT_LITERALS), max_size=4).map(",".join)),
)
@settings(max_examples=100, deadline=None)
def test_padic_verify_fuzz_exits_0_or_2(p, d, window, q):
    argv = ["padic-verify", f"--p={p}", f"--d={d}", f"--window={window}"]
    run_quietly(argv + ([] if q is None else [f"--q={q}"]), key="parameters")

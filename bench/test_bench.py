"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    argv_a = WORKLOADS[name].generate(7, first)
    argv_b = WORKLOADS[name].generate(7, second)
    WORKLOADS[name].generate(8, other)
    assert [a.replace(str(first), "") for a in argv_a] == [
        b.replace(str(second), "") for b in argv_b
    ]
    assert _files(first) == _files(second)
    if _files(first):
        assert _files(first) != _files(other)


def test_malformed_csv_counts_as_failure(tmp_path):
    """A failing invocation goes through the timed path and into fail_frac."""
    bad = tmp_path / "bad.csv"
    bad.write_text("label,A,B\nA,0,1\nB,2,0\n")  # asymmetric
    checker = run.Checker(WORKLOADS["family_dimension"], tmp_path)
    child, data = checker.cli(["dimension", str(bad)])
    assert child.exit_code == 2 and data is None
    assert (checker.attempted, checker.failed) == (1, 1)
    assert any("asymmetry" in p for p in checker.problems)


def test_failed_output_check_counts_as_failure(tmp_path):
    """A payload that exits 0 but breaks an invariant is a failure too."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    argv = WORKLOADS["family_dimension"].generate(1, inputs)
    checker = run.Checker(WORKLOADS["sweep"], tmp_path)  # wrong schema on purpose
    _, data = checker.cli(argv[:2])
    assert data is None and (checker.attempted, checker.failed) == (1, 1)


def test_payload_unlike_the_first_counts_as_failure(tmp_path):
    """A repeat or replay whose bytes differ from the first payload fails."""
    checker = run.Checker(WORKLOADS["family_dimension"], tmp_path)
    done = run.Child(0, 0.1, 0.1, 1.0, "")
    payload = tmp_path / "payload.json"
    first = '{"dimension": {"overall": 13, "pairs": []}}\n'
    for text in (first, first.replace(" ", "")):
        payload.write_text(text)
        checker.record("replay", done, payload)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differs from the first CLI payload" in checker.problems[0]


def test_replay_writes_the_cli_payload(tmp_path):
    """The traced run is the CLI's own code, so its payload is the CLI's."""
    argv = ["padic-verify", "--p", "2", "--d", "3", "--q", "5/8,3/4,7/8", "--window", "1"]
    cli_out, replay_out, trace = (tmp_path / n for n in ("cli.json", "replay.json", "trace.json"))
    run.spawn(
        [sys.executable, "-m", "clusternets.cli", *argv, "--out", str(cli_out)],
        tmp_path / "cli_stderr.txt",
    )
    child = run.spawn(
        [
            sys.executable, str(BENCH / "replay.py"), "--trace", str(trace),
            "--run-id", "test", "--", *argv, "--out", str(replay_out),
        ],
        tmp_path / "replay_stderr.txt",
    )
    assert child.exit_code == 0, child.stderr
    assert replay_out.read_bytes() == cli_out.read_bytes()
    doc = json.loads(trace.read_text())
    assert doc["counts"]["padic.norm_evals"] == 6 * 8**2
    assert doc["counts"]["padic.distinct_evals"] == 6 * 3**3
    names = {span[1] for span in doc["spans"]}
    assert {"padic.maximal_chains", "padic.norm_distance", "dendrogram.build", "cli.dump"} <= names


def test_chain_counts_match_the_complex(tmp_path, monkeypatch):
    from clusternets.cli import _network_from_paths
    from clusternets.simplicial import build_complex

    monkeypatch.setattr(workloads, "FAMILY_BLOCK_SIZE", 5)
    argv = workloads.generate_family_dimension(3, tmp_path)
    net = _network_from_paths(argv[1:])
    r = frozenset(net.metric_ids)
    cx = build_complex(net, r)
    facets, generated = replay.chain_counts(net, r)
    assert facets == len({s.vertex_ids for s in cx.maximal_simplices()})
    assert len(cx.simplices) <= generated


def test_self_times_subtract_children():
    spans = [[0, "a", None, 0, 100], [1, "b", 0, 10, 40], [2, "b", 0, 50, 60]]
    assert run.self_times(spans) == {"a": 60e-9, "b": 40e-9}


def test_metric_names_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)

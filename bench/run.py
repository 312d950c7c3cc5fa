"""Run one benchmark workload at one seed and print every metric by name.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one `clusternets` CLI child at a
time, each started after the previous one has exited. With `--trace 0` the
run times CLI invocations (wall, CPU and peak RSS from `wait4`) and the
set-up cost of importing the CLI and parsing the workload's argv. With
`--trace 1` it alternates untraced CLI invocations with traced replays
(`bench/replay.py`) and reports per-layer self times and counts. Every
payload is checked: exit code, SHA-256 equal across repeats, the shipped
JSON schema, the workload's invariants and, for a replay, byte equality with
the CLI payload. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from jsonschema import Draft202012Validator
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "clusternets" / "schemas"
WORK = ROOT / ".bench_work"

TIMEOUT_S = 60.0
SETUP_CODE = (
    "import json, sys\n"
    "from clusternets.cli import build_parser\n"
    "build_parser().parse_args(json.loads(sys.argv[1]))\n"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TIMES = [
    "metric.from_csv_s",
    "metric.chain_distance_s",
    "metric.matrix_build_s",
    "dendrogram.build_s",
    "network.merge_s",
    "network.to_json_s",
    "simplicial.compatibility_s",
    "simplicial.build_complex_s",
    "simplicial.dimension_s",
    "simplicial.report_s",
    "padic.maximal_chains_s",
    "padic.norm_from_chain_s",
    "padic.intermediary_balls_s",
    "padic.describe_s",
    "padic.norm_distance_s",
    "phylo.load_s",
    "phylo.combine_s",
    "cli.dump_s",
]
COUNTS = [
    "metric.points",
    "metric.distinct_values",
    "dendrogram.thresholds",
    "dendrogram.clusters",
    "network.vertices",
    "network.edges",
    "simplicial.faces",
    "simplicial.facets",
    "simplicial.pairs",
    "simplicial.incompatible",
    "padic.chains",
    "padic.norm_evals",
    "phylo.weights",
]
# yield name -> (useful count, attempted count), both recorded by the replay
YIELDS = {
    "simplicial.face_yield": ("simplicial.faces", "simplicial.subsets"),
    "padic.eval_yield": ("padic.distinct_evals", "padic.norm_evals"),
    "phylo.tree_yield": ("phylo.trees", "phylo.weights"),
}
PER_LAYER = {
    **{name: "s" for name in TIMES},
    **{name: "count" for name in COUNTS},
    **{name: "ratio" for name in YIELDS},
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Child:
    """One finished child process; `exit_code` is None when it timed out."""

    exit_code: int | None
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def spawn(cmd: list[str], stderr_path: Path, timeout: float = TIMEOUT_S) -> Child:
    """Run `cmd` to completion; time it from spawn to exit and read its rusage."""
    timed_out = threading.Event()
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        None if timed_out.is_set() else proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
        stderr_path.read_text(errors="replace").strip(),
    )


@dataclass
class Checker:
    """Checks every payload of one workload at one seed and counts failures."""

    workload: Workload
    workdir: Path
    attempted: int = 0
    failed: int = 0
    reference: str | None = None
    problems: list[str] = field(default_factory=list)
    _verdicts: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        doc = json.loads((SCHEMAS / self.workload.schema).read_text())
        self.validator = Draft202012Validator(doc)

    def payload_problems(self, data: bytes) -> list[str]:
        """Schema and invariant violations of one payload."""
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return [f"payload is not JSON: {exc}"]
        found = [f"schema: {e.message}" for e in self.validator.iter_errors(doc)]
        if found:
            return found[:5]
        try:
            return self.workload.check(doc)[:5]
        except (KeyError, TypeError, ValueError) as exc:
            return [f"invariant check raised {exc!r}"]

    def record(self, label: str, child: Child, payload: Path) -> bytes | None:
        """Count one invocation; return its payload if every check passed."""
        self.attempted += 1
        problems = []
        data = None
        if child.exit_code is None:
            problems.append(f"timed out after {TIMEOUT_S} s")
        elif child.exit_code != 0:
            problems.append(f"exit {child.exit_code}: {child.stderr[-300:]}")
        elif not payload.is_file():
            problems.append("no payload written")
        else:
            data = payload.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append(f"payload sha256 {digest} differs from the first CLI payload's")
            if digest not in self._verdicts:  # equal bytes get equal verdicts
                self._verdicts[digest] = self.payload_problems(data)
            problems += self._verdicts[digest]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
            return None
        return data

    def cli(self, argv: list[str]) -> tuple[Child, bytes | None]:
        out = self.workdir / "cli_payload.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "clusternets.cli", *argv, "--out", str(out)]
        child = spawn(cmd, self.workdir / "cli_stderr.txt")
        return child, self.record("cli", child, out)

    def replay(self, argv: list[str], run_id: str) -> tuple[Child, dict | None]:
        """Traced replay; its payload must hash like the first CLI payload."""
        out = self.workdir / "replay_payload.json"
        trace = self.workdir / f"trace-{run_id}.json"
        out.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(BENCH / "replay.py"), "--trace", str(trace),
            "--run-id", run_id, "--", *argv, "--out", str(out),
        ]
        child = spawn(cmd, self.workdir / "replay_stderr.txt")
        if self.record("replay", child, out) is None:
            return child, None
        return child, json.loads(trace.read_text())


def setup_time(checker: Checker, argv: list[str]) -> float:
    """Wall time of a child that imports the CLI and parses argv, doing no work."""
    child = spawn(
        [sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
        checker.workdir / "setup_stderr.txt",
    )
    if child.exit_code != 0:
        checker.problems.append(f"setup: exit {child.exit_code}: {child.stderr[-300:]}")
    return child.wall_s


def rounds(seconds: int):
    """Yield until `seconds` have passed. A round is not started when it would
    end more than half a round past the deadline, so runs end close to it."""
    deadline = time.perf_counter() + seconds
    last = 0.0
    started = False
    while not started or time.perf_counter() + last / 2 < deadline:
        started = True
        begin = time.perf_counter()
        yield
        last = time.perf_counter() - begin


def end_to_end(checker: Checker, argv: list[str], seconds: int) -> tuple[dict, dict]:
    setup, children = [], []
    for _ in rounds(seconds):
        # Set-up runs are spread over the run so they see the same machine
        # conditions as the invocations.
        setup.append(setup_time(checker, argv))
        child, data = checker.cli(argv)
        children.append((child, data is not None))
    timed = [c for c, ok in children if ok] or [c for c, _ in children]
    samples = {
        "wall_s": [c.wall_s for c in timed],
        "cpu_s": [c.cpu_s for c in timed],
        "peak_rss_mb": [c.peak_rss_mb for c in timed],
        "setup_s": setup,
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    walls = samples["wall_s"]
    print(f"samples: {len(timed)} timed invocations, {len(setup)} set-up runs")
    print(f"wall_s spread: min {min(walls):.4f}, max {max(walls):.4f} s")
    return values, samples


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    child_ns: Counter[int] = Counter()
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: Counter[str] = Counter()
    for sid, name, _, start, end in spans:
        out[name] += end - start - child_ns[sid]
    return {name: ns / 1e9 for name, ns in out.items()}


def per_layer(checker: Checker, argv: list[str], seconds: int, run_id: str) -> tuple[dict, dict]:
    cli_walls, replay_walls, traces = [], [], []
    for _ in rounds(seconds):
        child, data = checker.cli(argv)
        if data is None:
            continue
        cli_walls.append(child.wall_s)
        output_bytes = len(data)
        child, trace = checker.replay(argv, f"{run_id}-{len(traces)}")
        if trace is not None:
            replay_walls.append(child.wall_s)
            traces.append(trace)
    if not traces:
        return {name: 0.0 for name in PER_LAYER}, {}
    counts = traces[0]["counts"]
    if any(t["counts"] != counts for t in traces[1:]):
        checker.problems.append("replay: counts differ between repeats")
    timings = [self_times(t["spans"]) for t in traces]
    samples = {
        name: [t.get(name.removesuffix("_s"), 0.0) for t in timings] for name in TIMES
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["cli.output_bytes"] = output_bytes
    for name, (useful, tried) in YIELDS.items():
        base = counts.get(tried, 0)
        values[name] = counts.get(useful, 0) / base if base else 0.0
        print(f"{name}: {counts.get(useful, 0)} {useful} / {base} {tried}")
    values["trace.overhead"] = statistics.median(replay_walls) / statistics.median(cli_walls) - 1
    samples.update(cli_wall_s=cli_walls, replay_wall_s=replay_walls)
    counting = statistics.median(t.get("trace.count", 0.0) for t in timings)
    print(f"samples: {len(traces)} traced replays, {len(cli_walls)} untraced invocations")
    print(f"trace.count self time (counting, inside the traced total): {counting:.4f} s")
    return values, samples


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one clusternets benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "clusternets" / "cli.py").is_file():
        print(f"error: no clusternets sources under {SRC}", file=sys.stderr)
        return 2

    machine = machine_info()
    print(
        f"machine: python {machine['python']}, nproc {machine['nproc']}, "
        f"cpu {machine['cpu']!r}, loadavg {' '.join(f'{x:.2f}' for x in machine['loadavg'])}"
    )
    workload = WORKLOADS[opts.workload]
    workdir = WORK / f"{workload.name}-seed{opts.seed}-trace{opts.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    argv = workload.generate(opts.seed, workdir / "inputs")
    print(f"workload {workload.name} (seed {opts.seed}): {workload.why}")
    print("argv: clusternets " + " ".join(argv))

    checker = Checker(workload, workdir)
    if opts.trace:
        values, samples = per_layer(checker, argv, opts.seconds, f"{workload.name}-{opts.seed}")
        units = PER_LAYER
    else:
        values, samples = end_to_end(checker, argv, opts.seconds)
        units = END_TO_END
    fail_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    correct = checker.attempted > 0 and checker.failed == 0 and not checker.problems
    print(f"payload sha256: {checker.reference}")
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    print(f"fail_frac: {fail_frac:.6g} ratio ({checker.failed} of {checker.attempted} failed)")
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir / "result.json").write_text(
        json.dumps(
            {
                **result,
                "workload": workload.name,
                "seed": opts.seed,
                "seconds": opts.seconds,
                "trace": opts.trace,
                "argv": argv,
                "payload_sha256": checker.reference,
                "fail_frac": fail_frac,
                "machine": machine,
                "problems": checker.problems,
                "samples": samples,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

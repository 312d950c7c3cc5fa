"""Traced in-process run of one `clusternets` CLI invocation.

Before it calls `clusternets.cli.main(argv)`, the replay rebinds the public
names each module imported from another layer (and a few methods) to
wrappers that put a span around the call and take counts from its
arguments and result. The CLI's own code then runs unchanged and writes its
own payload to the argv's `--out` path, which the harness compares byte for
byte with an untraced invocation. Spans and counts stay in memory and are
written once, when the run ends.

Run as: python3 bench/replay.py --trace TRACE --run-id ID -- ARGV... --out OUT
with the repository's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from clusternets import cli, dendrogram, metric, network, padic, phylo


class Tracer:
    """Spans and counts of one run, kept in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, parent id or None, start ns, end ns]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def _start(self, name: str) -> list:
        record = [len(self.spans), name, self._open[-1] if self._open else None, 0, 0]
        self.spans.append(record)
        self._open.append(record[0])
        record[3] = perf_counter_ns()
        return record

    def _end(self, record: list) -> None:
        record[4] = perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn, args, kwargs):
        """`fn(*args, **kwargs)` inside a span called `name`."""
        record = self._start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(record)

    @contextmanager
    def span(self, name: str):
        record = self._start(name)
        try:
            yield
        finally:
            self._end(record)

    def wrap(self, name: str, fn, counter=None):
        """`fn` in a span; `counter(result, *args)` then runs in a `trace.count` span."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                with self.span("trace.count"):
                    counter(result, *args, **kwargs)
            return result

        return spanned

    def dump(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "name", "parent", "start_ns", "end_ns"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")


class SpannedClass:
    """Stands in for a class where a module bound it: a call constructs the
    class inside a span, and every attribute is the class's own."""

    def __init__(self, tracer: Tracer, name: str, cls):
        self._call = functools.partial(tracer.call, name, cls)

    def __call__(self, *args, **kwargs):
        return self._call(args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._call.args[1], attr)


class Namespace:
    """Stands in for a module where another module bound it, with some
    attributes replaced."""

    def __init__(self, base, **replaced):
        self._base = base
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


def _distinct_off_diagonal(dm: metric.DistanceMatrix) -> set[Fraction]:
    n = dm.n
    return {dm.entries[i][j] for i in range(n) for j in range(i + 1, n)}


def chain_counts(net, r: frozenset[str]) -> tuple[int, int]:
    """Distinct maximal chains, and chain subsets of size >= 2 generated.

    The balls of one metric that contain a ball are its ancestors in that
    metric's tree, so each (r-ball, metric) chain is the walk up the tree
    to the first ancestor that is an r-ball.
    """
    parent: dict[str, dict[int, int]] = {m: {} for m in r}
    for e in net.edges:
        for m in e.metrics & r:
            parent[m][e.child] = e.parent
    chains = set()
    generated = 0
    for v in net.vertices:
        if not r <= v.present_in:
            continue
        for m in sorted(r):
            walk = [v.vertex_id]
            while walk[-1] in parent[m]:
                walk.append(parent[m][walk[-1]])
                if r <= net.vertices[walk[-1]].present_in:
                    break
            else:
                continue  # v is the root: no superball
            chains.add(frozenset(walk))
            generated += 2 ** len(walk) - len(walk) - 1
    by_size = sorted(chains, key=len, reverse=True)
    facets = sum(
        1
        for i, c in enumerate(by_size)
        if not any(len(d) > len(c) and c < d for d in by_size[:i])
    )
    return facets, generated


def instrument(t: Tracer) -> list[tuple]:
    """Rebind the layer boundaries to spanned wrappers.

    Returns the list that collects the arguments of every
    `NormSpec.distance` call; distinct evaluations are counted from it
    when the run ends, so the count costs no time inside a span.
    """
    counts = t.counts

    def built(dendro, dm):
        counts["metric.distinct_values"] += len(_distinct_off_diagonal(dm))
        counts["dendrogram.thresholds"] += len({c.radius for c in dendro.clusters} | {0})
        counts["dendrogram.clusters"] += len(dendro.clusters)

    def merged(net, dendros, ids):
        counts["metric.points"] += len(net.labels)
        counts["network.vertices"] += len(net.vertices)
        counts["network.edges"] += len(net.edges)

    def swept(net, dendros, ids):
        merged(net, dendros, ids)
        counts["phylo.trees"] += len(dendros)

    def complex_built(cx, net, r):
        facets, generated = chain_counts(net, frozenset(r))
        counts["simplicial.faces"] += len(cx.simplices)
        counts["simplicial.facets"] += facets
        counts["simplicial.subsets"] += generated

    def count(name, size):
        def counter(result, *args, **kwargs):
            counts[name] += size(result)

        return counter

    build = t.wrap("dendrogram.build", dendrogram.build_dendrogram, built)
    merge = t.wrap("network.merge", network.merge_dendrograms, merged)
    for module in (cli, padic):
        module.build_dendrogram = build
        module.merge_dendrograms = merge
    phylo.build_dendrogram = build
    phylo.merge_dendrograms = t.wrap("network.merge", network.merge_dendrograms, swept)

    from_csv = metric.DistanceMatrix.from_csv.__func__
    metric.DistanceMatrix.from_csv = classmethod(t.wrap("metric.from_csv", from_csv))
    dendrogram.chain_distance = t.wrap("metric.chain_distance", dendrogram.chain_distance)
    for module in (phylo, padic):
        module.DistanceMatrix = SpannedClass(t, "metric.matrix_build", metric.DistanceMatrix)

    network.to_json_dict = t.wrap("network.to_json", network.to_json_dict)
    cli.to_json = t.wrap("cli.dump", cli.to_json)
    cli.json = Namespace(json, dumps=t.wrap("cli.dump", json.dumps))

    cli.load_marker_bundle = t.wrap("phylo.load", cli.load_marker_bundle)
    cli.load_sweep_spec = t.wrap("phylo.load", cli.load_sweep_spec)
    cli.sweep = t.wrap("phylo.sweep", cli.sweep)
    phylo.combine = t.wrap("phylo.combine", phylo.combine, count("phylo.weights", lambda _: 1))

    cli.build_complex = t.wrap("simplicial.build_complex", cli.build_complex, complex_built)
    cli.network_dimension = t.wrap(
        "simplicial.dimension", cli.network_dimension,
        count("simplicial.pairs", lambda dim: len(dim.per_pair)),
    )
    cli.check_compatibility = t.wrap(
        "simplicial.compatibility", cli.check_compatibility,
        count("simplicial.incompatible", lambda compat: len(compat.violations)),
    )
    cli.complex_json_dict = t.wrap("simplicial.report", cli.complex_json_dict)

    cli.verify_correspondence = t.wrap("padic.verify", cli.verify_correspondence)
    padic.maximal_chains = t.wrap(
        "padic.maximal_chains", padic.maximal_chains, count("padic.chains", len)
    )
    padic.norm_from_chain = t.wrap("padic.norm_from_chain", padic.norm_from_chain)
    padic.intermediary_balls = t.wrap("padic.intermediary_balls", padic.intermediary_balls)
    padic.Lattice.describe = t.wrap("padic.describe", padic.Lattice.describe)
    cli.ball_network = t.wrap("padic.ball_network", cli.ball_network)

    evaluations: list[tuple] = []
    distance = padic.NormSpec.distance

    @functools.wraps(distance)
    def norm_distance(norm, x, y):
        evaluations.append((norm, x, y))
        return t.call("padic.norm_distance", distance, (norm, x, y), {})

    padic.NormSpec.distance = norm_distance
    return evaluations


def count_evaluations(t: Tracer, evaluations: list[tuple]) -> None:
    distinct = {
        (norm, tuple(a - b for a, b in zip(x, y)))
        for norm, x, y in evaluations
    }
    t.counts["padic.norm_evals"] += len(evaluations)
    t.counts["padic.distinct_evals"] += len(distinct)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", required=True, help="write spans and counts here")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI argv")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    t = Tracer(opts.run_id)
    evaluations = instrument(t)
    with t.span("cli.main"):
        code = cli.main(argv)
    if code != 0:
        return code
    count_evaluations(t, evaluations)
    t.dump(Path(opts.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workload generators and the output checks fixed by construction.

Each workload is one `clusternets` CLI invocation. `generate(seed, workdir)`
writes the input files the CLI reads and returns its argv (without
`--out`); the same seed always writes byte-identical files. `check(doc)`
returns the invariants the payload violates (an empty list when it holds).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 1000), rng.randint(1, 7))


def write_matrix(path: Path, labels: list[str], dist: dict[tuple[int, int], Fraction]) -> None:
    """Write a symmetric matrix with zero diagonal; `dist` holds pairs i < j."""
    n = len(labels)
    lines = ["label," + ",".join(labels)]
    for i in range(n):
        row = [
            "0" if i == j else str(dist[(min(i, j), max(i, j))]) for j in range(n)
        ]
        lines.append(labels[i] + "," + ",".join(row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sweep: marker weighting over random rational distances

SWEEP_TAXA = 100
SWEEP_MARKERS = 3
SWEEP_RESOLUTION = 2  # simplex grid over 3 markers: 6 weight vectors


def generate_sweep(seed: int, workdir: Path) -> list[str]:
    rng = random.Random(f"sweep:{seed}")
    labels = [f"t{i:03d}" for i in range(SWEEP_TAXA)]
    entries = []
    for m in range(SWEEP_MARKERS):
        dist = {
            (i, j): _rational(rng)
            for i in range(SWEEP_TAXA)
            for j in range(i + 1, SWEEP_TAXA)
        }
        write_matrix(workdir / f"marker{m}.csv", labels, dist)
        entries.append({"id": f"marker{m}", "path": f"marker{m}.csv"})
    (workdir / "manifest.json").write_text(json.dumps({"markers": entries}, indent=2) + "\n")
    spec = {"grid": {"type": "simplex", "resolution": SWEEP_RESOLUTION}}
    (workdir / "sweep.json").write_text(json.dumps(spec, indent=2) + "\n")
    return ["phylo-sweep", str(workdir / "manifest.json"), str(workdir / "sweep.json")]


def check_sweep(doc: dict) -> list[str]:
    """Each metric tag must restrict to one tree over all labels whose
    radii increase strictly toward the root."""
    problems = []
    labels = set(doc["labels"])
    vertices = {v["id"]: v for v in doc["vertices"]}
    tags = sorted({m for v in doc["vertices"] for m in v["metrics"]})
    for tag in tags:
        mine = {i for i, v in vertices.items() if tag in v["metrics"]}
        parent = {}
        for e in doc["edges"]:
            if tag in e["metrics"]:
                if e["child"] in parent:
                    problems.append(f"{tag}: vertex {e['child']} has two parents")
                parent[e["child"]] = e["parent"]
        roots = mine - set(parent)
        if len(roots) != 1:
            problems.append(f"{tag}: {len(roots)} roots")
            continue
        if set(vertices[roots.pop()]["members"]) != labels:
            problems.append(f"{tag}: root does not hold every label")
        for child, par in parent.items():
            c, p = vertices[child], vertices[par]
            if not set(c["members"]) < set(p["members"]):
                problems.append(f"{tag}: edge {child}->{par} does not nest")
            if Fraction(c["radii"][tag]) >= Fraction(p["radii"][tag]):
                problems.append(f"{tag}: radius does not increase on {child}->{par}")
        inner = set(parent.values())
        leaves = [vertices[i]["members"] for i in mine if i not in inner]
        if sorted(x for m in leaves for x in m) != sorted(labels):
            problems.append(f"{tag}: leaves do not partition the labels")
    return problems


# ---------------------------------------------------------------------------
# family_dimension: long single-metric chains inside shared blocks

FAMILY_BLOCKS = 4
FAMILY_BLOCK_SIZE = 14  # chains of 14 balls: dimension 13, about 393k faces
FAMILY_METRICS = 3


def generate_family_dimension(seed: int, workdir: Path) -> list[str]:
    rng = random.Random(f"family_dimension:{seed}")
    size = FAMILY_BLOCK_SIZE
    labels = [f"b{b}p{i:02d}" for b in range(FAMILY_BLOCKS) for i in range(size)]
    block_of = [idx // size for idx in range(len(labels))]
    # The shared ultrametric over blocks: random agglomeration, every height
    # above the largest possible within-block height (13 * 1000).
    height = Fraction(20000)
    groups = [{b} for b in range(FAMILY_BLOCKS)]
    between: dict[tuple[int, int], Fraction] = {}
    while len(groups) > 1:
        a, b = sorted(rng.sample(range(len(groups)), 2))
        height += _rational(rng)
        for x in groups[a]:
            for y in groups[b]:
                between[(min(x, y), max(x, y))] = height
        groups[a] |= groups.pop(b)
    paths = []
    for m in range(FAMILY_METRICS):
        dist = {}
        for b in range(FAMILY_BLOCKS):
            # This metric adds the block's points one at a time in its own
            # order: the point at position k joins at height h[k].
            order = rng.sample(range(size), size)
            pos = {b * size + point: k for k, point in enumerate(order)}
            h = [Fraction(0)]
            for _ in range(size - 1):
                h.append(h[-1] + _rational(rng))
            members = [b * size + i for i in range(size)]
            for i in members:
                for j in members:
                    if i < j:
                        dist[(i, j)] = h[max(pos[i], pos[j], 1)]
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if block_of[i] != block_of[j]:
                    dist[(i, j)] = between[(block_of[i], block_of[j])]
        path = workdir / f"m{m}.csv"
        write_matrix(path, labels, dist)
        paths.append(str(path))
    return ["dimension", *paths]


def check_family_dimension(doc: dict) -> list[str]:
    overall = doc["dimension"]["overall"]
    return [] if overall == FAMILY_BLOCK_SIZE - 1 else [f"overall dimension {overall}"]


# ---------------------------------------------------------------------------
# p-adic workloads: fixed parameters, no input files

PADIC_VERIFY_ARGV = ["padic-verify", "--p", "2", "--d", "4", "--q", "9/16,5/8,3/4,7/8"]
PADIC_WINDOW_ARGV = ["padic-verify", "--p", "2", "--d", "3", "--q", "5/8,3/4,7/8", "--window", "2"]


def check_padic_verify(doc: dict) -> list[str]:
    problems = []
    if not doc.get("chain_count") == doc.get("flag_count") == 315:
        problems.append(f"chain_count {doc.get('chain_count')}, flag_count {doc.get('flag_count')}")
    if doc.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return problems


def check_padic_window(doc: dict) -> list[str]:
    problems = []
    dim = doc.get("sampled_network", {}).get("dimension")
    if dim != 3:
        problems.append(f"sampled_network.dimension {dim}")
    if doc.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schema: str
    generate: Callable[[int, Path], list[str]]
    check: Callable[[dict], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "marker-weight sweep on 100 taxa: chain distance and dendrograms dominate",
            "network.schema.json",
            generate_sweep,
            check_sweep,
        ),
        Workload(
            "family_dimension",
            "3 metrics with chains of 14 balls: the simplicial complex dominates",
            "complex.schema.json",
            generate_family_dimension,
            check_family_dimension,
        ),
        Workload(
            "padic_verify",
            "315 lattice chains at p=2, d=4: the lattice path dominates, no matrices",
            "padic_verify.schema.json",
            lambda seed, workdir: list(PADIC_VERIFY_ARGV),
            check_padic_verify,
        ),
        Workload(
            "padic_window",
            "64 window points under 6 norms: norm evaluation, then tied matrices",
            "padic_verify.schema.json",
            lambda seed, workdir: list(PADIC_WINDOW_ARGV),
            check_padic_window,
        ),
    )
}

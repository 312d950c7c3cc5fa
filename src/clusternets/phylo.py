"""Weighted combinations of per-marker distances and weight sweeps.

Marker distances arrive as ready-made matrices over one taxon set; a weight
vector combines them entrywise, and a sweep builds one dendrogram per weight
vector and fuses the results into a cluster network (scaling all weights by
a positive constant rescales distances uniformly, so weight vectors are
deduplicated after normalizing by their sum).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, pairwise
from math import lcm
from operator import add
from pathlib import Path

from .dendrogram import Dendrogram, build_dendrogram
from .errors import StructuralError, reason
from .metric import DistanceMatrix, as_fraction, read_matrix
from .network import ClusterNetwork, merge_dendrograms


@dataclass(frozen=True)
class MarkerSet:
    """Named distance matrices over a shared label set, and the files they came from."""

    markers: tuple[tuple[str, DistanceMatrix], ...]
    paths: tuple[Path, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.markers:
            raise StructuralError("marker set needs at least one marker")
        names = [name for name, _ in self.markers]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise StructuralError(f"duplicate marker ids: {repeated}")
        labels = self.markers[0][1].labels
        for name, dm in self.markers[1:]:
            if dm.labels != labels:
                raise StructuralError(f"marker {name!r} has a different label set")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.markers[0][1].labels

    @cached_property
    def _cleared(self) -> tuple[tuple[int, list[int], tuple[int, ...]], ...]:
        """Per marker: the lcm L of its values' denominators, its values
        times L as ints, and its pair ranks."""
        out = []
        for _, dm in self.markers:
            scale = lcm(*dm._dens)
            ints = [x * (scale // y) for x, y in zip(dm._nums, dm._dens)]
            out.append((scale, ints, dm.ranks))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.markers)


def weight_vector(values) -> tuple[Fraction, ...]:
    w = tuple(as_fraction(v) for v in values)
    if not w:
        raise StructuralError("empty weight vector")
    if any(x < 0 for x in w):
        raise StructuralError(f"negative weight in {[str(x) for x in w]}")
    if all(x == 0 for x in w):
        raise StructuralError("weight vector is identically zero")
    return w


def combine(markers: MarkerSet, weights) -> DistanceMatrix:
    """Entrywise weighted sum of the (symmetric) marker matrices.

    The sum runs on ints: marker j's values are x/L_j over the lcm L_j of
    their denominators, and a weight a/b becomes the integer factor
    D*a/(b*L_j) over one common denominator D, so each pair's key is a sum
    of table lookups by the pair's rank. Keys order as their values do; the
    matrix keeps the distinct keys over D as its values, so no Fraction is
    built until a value is read. The sum of validated markers with
    non-negative weights is symmetric, non-negative and zero on the
    diagonal, so it is not validated again.
    """
    w = weight_vector(weights)
    if len(w) != len(markers):
        raise StructuralError(f"{len(w)} weights for {len(markers)} markers")
    terms = [(wj, *cleared) for wj, cleared in zip(w, markers._cleared) if wj]
    den = lcm(*(wj.denominator * scale for wj, scale, _, _ in terms))
    keys = None
    for wj, scale, ints, ranks in terms:
        factor = den // (wj.denominator * scale) * wj.numerator
        table = [factor * x for x in ints]
        column = map(table.__getitem__, ranks)
        keys = list(column) if keys is None else list(map(add, keys, column))
    distinct = sorted(set(keys))
    rank = {k: r for r, k in enumerate(distinct)}
    return DistanceMatrix._from_ranks(
        markers.labels, tuple(map(rank.__getitem__, keys)), tuple(distinct), (den,) * len(distinct)
    )


@dataclass(frozen=True)
class SweepGrid:
    """Weight vectors to evaluate, deduplicated up to positive scaling."""

    weights: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def explicit(cls, vectors) -> "SweepGrid":
        normalized = []
        for vec in vectors:
            w = weight_vector(vec)
            total = sum(w)
            normalized.append(tuple(x / total for x in w))
        if not normalized:
            raise StructuralError("empty sweep grid")
        deduped = sorted(set(normalized))
        return cls(tuple(deduped))

    @classmethod
    def simplex(cls, n_markers: int, resolution: int) -> "SweepGrid":
        """All weight vectors k/resolution with integer compositions k, by stars
        and bars: n_markers - 1 bars among resolution + n_markers - 1 slots."""
        if n_markers < 1:
            raise StructuralError("simplex grid needs at least one marker")
        if resolution < 1:
            raise StructuralError("resolution must be at least 1")
        slots = resolution + n_markers - 1
        return cls.explicit(
            tuple(Fraction(b - a - 1, resolution) for a, b in pairwise((-1, *bars, slots)))
            for bars in combinations(range(slots), n_markers - 1)
        )


def weight_id(w: tuple[Fraction, ...]) -> str:
    return "w=" + ",".join(str(x) for x in w)


def sweep(markers: MarkerSet, grid: SweepGrid) -> ClusterNetwork:
    """One dendrogram per weight vector, identical trees deduplicated, fused."""
    dendros: list[Dendrogram] = []
    ids: list[str] = []
    seen: set[Dendrogram] = set()
    for w in grid.weights:
        dendro = build_dendrogram(combine(markers, w))
        if dendro in seen:
            continue
        seen.add(dendro)
        dendros.append(dendro)
        ids.append(weight_id(w))
    return merge_dendrograms(dendros, ids)


def load_marker_bundle(manifest_path: str | Path) -> MarkerSet:
    """Read a manifest {"markers": [{"id":..., "path":...}]} plus its CSVs."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise StructuralError(f"cannot read manifest {manifest_path}: {reason(exc)}") from None
    entries = manifest.get("markers") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise StructuralError("manifest must list at least one marker")
    markers, paths = [], []
    for entry in entries:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("id", "path")
        ):
            raise StructuralError(f"bad marker entry {entry!r}")
        paths.append(manifest_path.parent / entry["path"])
        markers.append((entry["id"], read_matrix(paths[-1])))
    return MarkerSet(tuple(markers), tuple(paths))


class _Number(Fraction):
    """A sweep spec's JSON number, whose repr is its value: refusals quote a
    row as `[1, 3/2]`."""

    __repr__ = Fraction.__str__


def _number(literal: str) -> _Number:
    return _Number(as_fraction(literal))


def load_sweep_spec(spec_path: str | Path, n_markers: int) -> SweepGrid:
    """Read a sweep spec: explicit weight rows or a simplex grid resolution."""
    spec_path = Path(spec_path)
    try:
        spec = json.loads(spec_path.read_text(), parse_float=_number, parse_int=_number)
    except (OSError, ValueError) as exc:  # also bad UTF-8 and as_fraction's StructuralError
        raise StructuralError(f"cannot read sweep spec {spec_path}: {reason(exc)}") from None
    grid = spec.get("grid") if isinstance(spec, dict) else None
    if not isinstance(grid, dict) or "type" not in grid:
        raise StructuralError('sweep spec must contain {"grid": {"type": ...}}')
    if grid["type"] == "explicit":
        rows = grid.get("weights")
        if not isinstance(rows, list) or not rows:
            raise StructuralError("explicit grid needs a nonempty weights list")
        for row in rows:
            if not isinstance(row, list):
                raise StructuralError(f"weight row {row!r} is not a list")
            if len(row) != n_markers:
                raise StructuralError(
                    f"weight row {row!r} has {len(row)} entries for {n_markers} markers"
                )
        return SweepGrid.explicit(rows)
    if grid["type"] == "simplex":
        resolution = grid.get("resolution")
        # JSON numbers arrive as Fractions; a bool is not a number here
        if not isinstance(resolution, Fraction) or resolution.denominator != 1 or resolution < 1:
            raise StructuralError("simplex grid needs an integer resolution >= 1")
        return SweepGrid.simplex(n_markers, int(resolution))
    raise StructuralError(f"unknown grid type {grid['type']!r}")

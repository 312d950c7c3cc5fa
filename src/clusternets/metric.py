"""Finite dissimilarity spaces and the chain distance.

All values are exact rationals (`fractions.Fraction`); merge orders and
cluster identities depend on exact ties, so no floats enter any comparison.
Labels are canonicalized to lexicographic order at construction, which makes
every downstream artifact (dendrograms, networks, serializations)
deterministic and lets matrices over the same label set share indices.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from typing import Sequence

from .errors import StructuralError

Rational = Fraction | int | str

# Python's default int-to-string limit: a value with more digits could not be
# written out, and an exponent past it would cost a 10**e first.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def as_fraction(value: Rational) -> Fraction:
    """Parse a decimal or `p/q` literal into an exact rational."""
    if type(value) is Fraction:
        return value  # immutable, so it can be shared as is
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise StructuralError(
            f"refusing {type(value).__name__} value {value!r}; pass a string, int or Fraction"
        )
    # Without an exponent, a literal of at most MAX_DIGITS characters has at
    # most MAX_DIGITS digits, so only other literals need the two checks.
    short = not isinstance(value, str) or (len(value) <= MAX_DIGITS and "e" not in value.lower())
    exp = None if short else _EXPONENT.search(value)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    # compare lengths first, so that a long exponent is never parsed as an int
    if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
        raise StructuralError(f"rational literal {value!r} has an exponent beyond ±{MAX_DIGITS}")
    try:
        x = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"bad rational literal {value!r}: {exc}") from None
    if not short and max(abs(x.numerator), x.denominator) >= 10**MAX_DIGITS:
        raise StructuralError(f"rational literal {value!r} has more than {MAX_DIGITS} digits")
    return x


class DistanceMatrix:
    """Symmetric dissimilarity over labeled points, exact rational entries.

    The triangle inequality is *not* an invariant: the chain distance is
    well defined for any symmetric dissimilarity.
    """

    __slots__ = ("labels", "entries")

    def __init__(self, labels: Sequence[str], entries: Sequence[Sequence[Rational]]):
        labels = [str(x) for x in labels]
        if not labels:
            raise StructuralError("empty point set")
        if len(set(labels)) != len(labels):
            dup = sorted({x for x in labels if labels.count(x) > 1})
            raise StructuralError(f"duplicate labels: {dup}")
        if any(not name for name in labels):
            raise StructuralError("empty label name")
        n = len(labels)
        if len(entries) != n:
            raise StructuralError(f"matrix has {len(entries)} rows for {n} labels")
        rows = []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise StructuralError(f"row {labels[i]!r} has {len(row)} entries, expected {n}")
            rows.append([as_fraction(v) for v in row])
        # Canonical lexicographic label order; permute entries to match.
        order = sorted(range(n), key=lambda i: labels[i])
        self_labels = tuple(labels[i] for i in order)
        self_entries = tuple(tuple(rows[i][j] for j in order) for i in order)
        for i in range(n):
            if self_entries[i][i] != 0:
                raise StructuralError(
                    f"nonzero diagonal at ({self_labels[i]},{self_labels[i]}): {self_entries[i][i]}"
                )
            for j in range(i + 1, n):
                if self_entries[i][j] != self_entries[j][i]:
                    raise StructuralError(
                        f"asymmetry at ({self_labels[i]},{self_labels[j]}): "
                        f"{self_entries[i][j]} != {self_entries[j][i]}"
                    )
                if self_entries[i][j] < 0:
                    raise StructuralError(
                        f"negative entry at ({self_labels[i]},{self_labels[j]}): {self_entries[i][j]}"
                    )
        object.__setattr__(self, "labels", self_labels)
        object.__setattr__(self, "entries", self_entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LookupError(f"unknown label {label!r}") from None

    def get(self, a: str, b: str) -> Fraction:
        return self.entries[self.index(a)][self.index(b)]

    def __eq__(self, other) -> bool:
        return (
            type(other) is DistanceMatrix
            and self.labels == other.labels
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(labels={list(self.labels)!r}, n={self.n})"

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        """Parse the distance-matrix CSV format.

        First row is `label,<L1>,...`; each following row is `<Li>,v1,...`.
        Values are decimal or `p/q` literals. Symmetry is validated, not
        assumed.
        """
        try:
            table = [row for row in csv.reader(io.StringIO(text)) if any(map(str.strip, row))]
        except csv.Error as exc:
            raise StructuralError(f"bad CSV: {exc}") from None
        if not table:
            raise StructuralError("empty distance matrix file")
        header = [cell.strip() for cell in table[0]]
        if not header or header[0] != "label":
            raise StructuralError("first header cell must be 'label'")
        names = header[1:]
        if not names:
            raise StructuralError("no labels in header")
        rows: dict[str, list[str]] = {}
        for raw in table[1:]:
            cells = [cell.strip() for cell in raw]
            if len(cells) != len(names) + 1:
                raise StructuralError(
                    f"row {cells[0]!r} has {len(cells) - 1} values, expected {len(names)}"
                )
            if cells[0] in rows:
                raise StructuralError(f"repeated row label {cells[0]!r}")
            rows[cells[0]] = cells[1:]
        if sorted(rows) != sorted(names):
            raise StructuralError(
                f"row labels {sorted(rows)} do not match header labels {sorted(names)}"
            )
        entries = [rows[name] for name in names]
        return cls(names, entries)


def single_linkage(dm: DistanceMatrix) -> list[tuple[Fraction, tuple[tuple[int, ...], ...]]]:
    """Exact single-linkage merge history: `(value, parts)` for every
    component that forms, in ascending value, with `parts` the sorted
    point-index tuples of the components it joins. A tie group is linked
    whole before anything is recorded, so A-B and B-C at one value give one
    merge of A, B and C. Distinct values are sorted once (floor(v * 2**64)
    decides in int arithmetic, the Fraction breaks ties) and the pairs are
    bucketed by rank.
    """
    n = dm.n
    entries = dm.entries
    values = sorted(
        {entries[i][j] for i in range(n) for j in range(i + 1, n)},
        key=lambda v: ((v.numerator << 64) // v.denominator, v),
    )
    rank = {v: r for r, v in enumerate(values)}
    buckets: list[list[tuple[int, int]]] = [[] for _ in values]
    for i in range(n):
        for j in range(i + 1, n):
            buckets[rank[entries[i][j]]].append((i, j))
    parent = list(range(n))
    members = {i: (i,) for i in range(n)}  # root -> its component's points

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = []
    for value, bucket in zip(values, buckets):
        # roots only ever link to roots, so every root met here was one before
        touched: set[int] = set()
        for i, j in bucket:
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
                touched.update((a, b))
        joined: dict[int, list[tuple[int, ...]]] = {}
        for c in touched:
            joined.setdefault(find(c), []).append(members.pop(c))
        for root, parts in joined.items():
            merges.append((value, tuple(sorted(parts))))
            members[root] = tuple(sorted(x for part in parts for x in part))
    return merges


def chain_distance(dm: DistanceMatrix) -> DistanceMatrix:
    """Minimax path closure: the largest ultrametric below the input.

    d(a,b) is the minimum over paths a -> b of the maximum edge weight along
    the path. It is read off the single-linkage pass: when components join
    at value w, every cross pair gets w.
    """
    n = dm.n
    result = [[Fraction(0)] * n for _ in range(n)]
    for value, parts in single_linkage(dm):
        for k, part in enumerate(parts):
            for other in parts[k + 1 :]:
                for a in part:
                    row = result[a]
                    for b in other:
                        row[b] = value
                        result[b][a] = value
    return DistanceMatrix(dm.labels, result)

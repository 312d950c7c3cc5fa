"""Finite dissimilarity spaces and the chain distance.

All values are exact rationals, kept as ints (numerator, denominator) until
one is read as a `fractions.Fraction`. Merge orders and cluster identities
depend on exact ties, so a matrix sorts its distinct values once, with no
float, and keeps one integer rank per pair: every later order is on ints.
Labels are canonicalized to lexicographic order at construction, which makes
every downstream artifact (dendrograms, networks, serializations)
deterministic and lets matrices over the same label set share indices.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

from .errors import StructuralError, reason

Rational = Fraction | int | str
_ZERO = Fraction(0)

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


class _Codes(dict):
    """str literal -> value code for one matrix; `codes` maps each value, as
    (numerator, denominator) in lowest terms, to its code. A literal of ASCII
    digits, or digits/digits with a nonzero denominator, within MAX_DIGITS
    characters, is read by int(); every other cell goes through as_fraction."""

    __slots__ = ("codes",)  # read once per cell that is no str: a slot is faster

    def __init__(self):
        self.codes: dict[tuple[int, int], int] = {}

    def code(self, x) -> int:
        x, codes = as_fraction(x), self.codes
        return codes.setdefault((x.numerator, x.denominator), len(codes))

    def __missing__(self, s: str) -> int:
        num, _, den = s.partition("/") if "/" in s else (s, "/", "1")
        if len(s) <= MAX_DIGITS and s.isascii() and num.isdigit() and den.isdigit() and int(den):
            n, d = int(num), int(den)
            g = gcd(n, d)
            c = self[s] = self.codes.setdefault((n // g, d // g), len(self.codes))
        else:
            c = self[s] = self.code(s)
        return c


def _check(labels: tuple[str, ...], found: list[tuple[int, int]], zero, grid) -> None:
    """Reject a nonzero diagonal, an asymmetric pair or a negative pair in a
    grid of value codes (`found[code]` is a value's (numerator, denominator),
    `zero` the code of 0). The first fault in row-major order is reported:
    each row's diagonal cell, then its pairs to the right, symmetry before
    sign. A row without a fault is passed over by one slice comparison."""
    negative = {c for c, (x, _) in enumerate(found) if x < 0}
    for i, (row, column) in enumerate(zip(grid, zip(*grid))):
        if row[i] != zero:
            raise StructuralError(
                f"nonzero diagonal at ({labels[i]},{labels[i]}): {Fraction(*found[row[i]])}"
            )
        upper = row[i + 1 :]
        if tuple(upper) == column[i + 1 :] and negative.isdisjoint(upper):
            continue
        for j in range(i + 1, len(row)):
            if row[j] != column[j]:
                raise StructuralError(
                    f"asymmetry at ({labels[i]},{labels[j]}): "
                    f"{Fraction(*found[row[j]])} != {Fraction(*found[column[j]])}"
                )
            if row[j] in negative:
                raise StructuralError(
                    f"negative entry at ({labels[i]},{labels[j]}): {Fraction(*found[row[j]])}"
                )


class DistanceMatrix:
    """Symmetric dissimilarity over labeled points, exact rational entries.

    A matrix is stored as ranks: `values` holds the distinct off-diagonal
    values in ascending order, and `ranks` one index into it for each pair
    i < j, row by row over the upper triangle. Order and ties are therefore
    decided on ints. Value r is kept as `_nums[r]` over `_dens[r]`, maybe
    not in lowest terms; `values` and `entries` build Fractions on first use.

    The triangle inequality is *not* an invariant: the chain distance is
    well defined for any symmetric dissimilarity.
    """

    __slots__ = ("labels", "ranks", "_nums", "_dens", "_values", "_entries")

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
        # Every cell becomes a code, one per distinct value. Each distinct
        # str literal is parsed once. That memo is keyed on str only: True == 1
        # and both hash alike, and a bool cell must still reach as_fraction.
        memo = _Codes()
        code, rows = memo.code, []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise StructuralError(f"row {labels[i]!r} has {len(row)} entries, expected {n}")
            rows.append([memo[v] if type(v) is str else code(v) for v in row])
        found = list(memo.codes)  # code -> (numerator, denominator)
        # Canonical lexicographic label order; permute the codes to match.
        order = sorted(range(n), key=lambda i: labels[i])
        self_labels = tuple(labels[i] for i in order)
        grid = [[row[j] for j in order] for row in map(rows.__getitem__, order)]
        _check(self_labels, found, memo.codes.get((0, 1)), grid)
        upper = list(chain.from_iterable(row[i + 1 :] for i, row in enumerate(grid)))
        # floor(v * 2**shift) orders distinct values: with denominators below
        # 2**(shift/2), two of them differ by more than 2**-shift.
        shift = 2 * max(d for _, d in found).bit_length()
        used = sorted(set(upper), key=[(x << shift) // y for x, y in found].__getitem__)
        rank = {c: r for r, c in enumerate(used)}
        nums, dens = (tuple(map(xs.__getitem__, used)) for xs in zip(*found))
        self._fill(self_labels, tuple(map(rank.__getitem__, upper)), nums, dens)

    @classmethod
    def _from_ranks(cls, labels, ranks, nums, dens) -> "DistanceMatrix":
        """A matrix that is valid by construction, so it is not checked:
        canonical labels, distinct non-negative values nums[r]/dens[r] in
        ascending order, and every value ranked by some pair."""
        self = object.__new__(cls)
        self._fill(labels, ranks, nums, dens)
        return self

    def _fill(self, labels, ranks, nums, dens) -> None:
        for name, value in zip(self.__slots__, (labels, ranks, nums, dens, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The distinct off-diagonal values in ascending order, built on first use."""
        if self._values is None:
            object.__setattr__(self, "_values", tuple(map(Fraction, self._nums, self._dens)))
        return self._values

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The full n x n table of Fractions, built on first use."""
        if self._entries is None:
            n, values = self.n, self.values
            rows = [[_ZERO] * n for _ in range(n)]
            pairs = iter(self.ranks)
            for i, row in enumerate(rows):
                for j in range(i + 1, n):
                    row[j] = rows[j][i] = values[next(pairs)]
            object.__setattr__(self, "_entries", tuple(map(tuple, rows)))
        return self._entries

    def __eq__(self, other) -> bool:
        return (
            type(other) is DistanceMatrix
            and self.labels == other.labels
            and self.ranks == other.ranks
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.values, self.ranks))

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


def matrix_name(path: str | Path) -> str:
    """The name a matrix file goes by: its stem, or "stdin" for "-"."""
    return "stdin" if path == "-" else Path(path).stem


def read_matrix(path: str | Path) -> DistanceMatrix:
    """Read and parse a distance-matrix CSV file. Only the string "-" reads
    stdin; a `Path` always names a file. Every error names the source."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        text.encode()  # stdin may pass undecodable bytes on as surrogates
    except (OSError, UnicodeError) as exc:
        raise StructuralError(f"cannot read {path}: {reason(exc)}") from None
    try:
        return DistanceMatrix.from_csv(text)
    except StructuralError as exc:
        raise StructuralError(f"{matrix_name(path)}: {exc}") from None


def mask_members(mask: int) -> tuple[int, ...]:
    """The point indices of a member bitmask, ascending."""
    bits = bin(mask)[:1:-1]  # bit i is character i
    return tuple(i for i, bit in enumerate(bits) if bit == "1")


def _merge_ranks(dm: DistanceMatrix) -> list[tuple[int, tuple[int, ...]]]:
    """Exact single-linkage merge history: `(r, parts)` for every component
    that forms, in ascending rank r of its value in `dm.values`, with
    `parts` the member bitmasks of the components it joins, in no set
    order. A tie group is linked whole before anything is recorded, so A-B
    and B-C at one value give one merge of A, B and C. The pairs are
    bucketed by their stored rank (a counting sort), so no value is
    compared again."""
    n = dm.n
    buckets: list[list[int]] = [[] for _ in dm._nums]  # pair codes i*n + j by rank
    for code, r in zip([i * n + j for i in range(n) for j in range(i + 1, n)], dm.ranks):
        buckets[r].append(code)
    parent = list(range(n))
    members = {i: 1 << i for i in range(n)}  # root -> its component's bitmask

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = []
    for r, bucket in enumerate(buckets):
        if len(members) == 1:
            break  # one component: no later pair joins anything
        # roots only ever link to roots, so every root met here was one before
        touched: set[int] = set()
        for code in bucket:
            a, b = find(code // n), find(code % n)
            if a != b:
                parent[a] = b
                touched.update((a, b))
        joined: dict[int, list[int]] = {}
        for c in touched:
            joined.setdefault(find(c), []).append(members.pop(c))
        for root, parts in joined.items():
            merges.append((r, tuple(parts)))
            members[root] = sum(parts)
    return merges


def chain_distance(dm: DistanceMatrix) -> DistanceMatrix:
    """Minimax path closure: the largest ultrametric below the input.

    d(a,b) is the minimum over paths a -> b of the maximum edge weight along
    the path. It is read off the single-linkage pass: when components join
    at value w, every cross pair gets w. The merge values are ascending, so
    their ranks are the merge order's.
    """
    n = dm.n
    # pair a < b sits at offset[a] + b of the upper triangle
    offset = [a * (2 * n - a - 1) // 2 - a - 1 for a in range(n)]
    ranks = [0] * (n * (n - 1) // 2)
    used: list[int] = []  # the input ranks that occur as merge values
    for r, masks in _merge_ranks(dm):
        if not used or used[-1] != r:
            used.append(r)
        rank = len(used) - 1
        parts = [mask_members(m) for m in masks]
        for k, part in enumerate(parts):
            for other in parts[k + 1 :]:
                for a in part:
                    for b in other:
                        ranks[offset[a] + b if a < b else offset[b] + a] = rank
    nums, dens = (tuple(map(xs.__getitem__, used)) for xs in (dm._nums, dm._dens))
    return DistanceMatrix._from_ranks(dm.labels, tuple(ranks), nums, dens)

"""Lattices in Q_p^d, weighted max-norms, and their ball chains.

Everything is exact: vectors and matrices are rationals, so valuations,
lattice memberships, and ball identities are decided with no precision
loss (a rational is a p-adic number whose expansion is eventually
periodic; all inputs here are rational, so finite-precision windows are
never needed). Norm values are decided by integer valuations: a norm
keeps its frame as an integer matrix, and only the value it returns is a
Fraction.

A lattice is stored by its canonical basis: column Hermite form over Z_p
(column j has zeros above row j, exactly p^(a_j) at row j, and truncated
p-adic expansions below), which makes lattice equality a tuple comparison.
That basis is kept as integer columns over one p-power scale and is
canonicalised on integers modulo a power of p (Hermite normal form modulo
D, Cohen, GTM 138, 2.4); Fractions appear only in `describe` and in results.

A subspace of L/pL = F_p^d is the frozenset of its points, int tuples over
{0..p-1}, grown by `_span`: `maximal_chains` builds the complete flags by
inclusion of these sets, and a chain's adapted basis is read off the same
residue spans. Its lift to a lattice is keyed by its reduced echelon rows
(`_echelon`). A chain becomes a norm with no inversion: the columns of its
integer adapted basis are the norm's inverse columns, which is all that its
balls read. `_inverse` (Bareiss), the one matrix elimination here, runs once
per norm built from a frame, and for a chain's norm only when its frame is
read. A lattice computes its hash once, when it is built.

`norm_weights` is the one weight rule (p prime, d >= 1, d weights in (1/p, 1]);
every function here that takes weights reads them through it, and a chain's
weights must also strictly increase (`_chain_weights`). Primality is
deterministic Miller-Rabin, exact below `_PRIME_BOUND` (about 3.3e24).

The maximal chains through L are the chambers at one vertex of the building
and share their lattices: at (2,4), 315 chains have 67 distinct lattices and
240 distinct cover pairs. Each lies between p.L and L, fixed by its subspace
of L/pL, the link of the vertex (Abramenko & Brown, GTM 248, ch. 6), where
`verify_correspondence` decides every round trip. Once per run, in bounded
`lru_cache`s cleared when it starts, it decides whether a cover pair strictly
increases (`_covers`), each residue span and each lift's Hermite form.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm, prod
from operator import mul, sub

from .dendrogram import build_dendrogram
from .errors import StructuralError
from .metric import DistanceMatrix, as_fraction
from .network import ClusterNetwork, merge_dendrograms

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
_EXACT = frozenset((int, Fraction))  # coordinate types read as they are


# Miller-Rabin to the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """n odd and prime to a. With n - 1 = m.2^s, m odd: a^m = 1, or
    a^(m.2^i) = -1 for some i < s (mod n)."""
    m, s = n - 1, 0
    while m % 2 == 0:
        m, s = m // 2, s + 1
    x = pow(a, m, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def require_prime(p: int) -> None:
    """p must be prime, decided by Miller-Rabin to `_PRIME_BASES`; a p at
    or above `_PRIME_BOUND`, where those bases stop being exact, is refused."""
    if p in _PRIME_BASES:
        return
    if p >= _PRIME_BOUND:
        raise StructuralError(f"p must be below {_PRIME_BOUND} to decide primality, got {p}")
    if p < 2 or any(p % a == 0 or not _strong_probable_prime(p, a) for a in _PRIME_BASES):
        raise StructuralError(f"p must be prime, got {p}")


class _ChainWeights(tuple):
    """Weights that `_chain_weights` has read for the prime `p`."""


def norm_weights(p: int, d: int, q: Iterable) -> tuple[Fraction, ...]:
    """The weights of a norm on Q_p^d: p prime, d >= 1, d rationals in (1/p, 1]."""
    require_prime(p)
    if d < 1:
        raise StructuralError(f"dimension must be positive, got {d}")
    qs = tuple(as_fraction(x) for x in q)
    if len(qs) != d:
        raise StructuralError(f"got {len(qs)} weights for dimension {d}")
    for x in qs:
        if not Fraction(1, p) < x <= 1:
            raise StructuralError(f"weight {x} outside (1/{p}, 1]")
    return qs


def _chain_weights(p: int, d: int, q: Iterable) -> _ChainWeights:
    """`norm_weights` that strictly increase, read once: those it returned come back as they are."""
    if type(q) is _ChainWeights and q.p == p and len(q) == d:
        return q
    qs = _ChainWeights(norm_weights(p, d, q))
    if any(b <= a for a, b in zip(qs, qs[1:])):
        hint = "; try " + ",".join(map(str, sorted(qs))) if len(set(qs)) == len(qs) else ""
        raise StructuralError(f"weights must strictly increase{hint}")
    qs.p = p
    return qs


def pval(x: Fraction | int, p: int) -> int:
    """Exact p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# exact linear algebra over Q

def _inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(Y, e) with rows^-1 = Y / e and e > 0, for a square integer matrix M.
    Gauss-Jordan elimination with exact integer divisions (Bareiss, Math.
    Comp. 22, 1968) turns [M | I] into [f.I | f.M^-1], f = ±det M (the sign
    of the row swaps), and e = |f|."""
    d = len(rows)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col]), None)
        if piv is None:
            raise StructuralError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        pk = top[col]
        for r in range(d):
            if r != col and (aug[r][col] or pk != prev):  # else the row stays as it is
                f = aug[r][col]
                aug[r] = [(pk * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = pk
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[d:]] for row in aug], sign * prev


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def _over_lcm(vec: Sequence) -> tuple[list[int], int]:
    """vec as (V, D): V an integer vector, D the lcm of its denominators, vec = V / D.
    Ints and Fractions are read as they are; anything else goes through
    `as_fraction`, which parses strings and refuses bools and floats."""
    xs = [x if type(x) in _EXACT else as_fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


# ---------------------------------------------------------------------------
# lattices

def _strip(p: int, cols: Sequence[Sequence[int]], scale: int) -> tuple[Sequence, int]:
    """Divide out the p-power common to every entry, down to scale 0."""
    if not scale:
        return cols, 0
    g, k = gcd(*(x for c in cols for x in c)), 0
    while k < scale and g % p ** (k + 1) == 0:
        k += 1
    if k:
        cols = tuple(tuple(x // p**k for x in c) for c in cols)
    return cols, scale - k


@dataclass(frozen=True, slots=True)
class Lattice:
    """Full-rank Z_p-lattice in canonical Hermite basis, on integers.

    The j-th basis vector is `cols[j] / p^scale`: zero above coordinate j,
    p^(a_j) at coordinate j (a_j = exponents[j]), reduced residues below.
    `scale` is the least s >= 0 that makes every entry an integer, so equal
    lattices have equal (p, cols, scale), and == and hash are structural;
    the hash is computed once, when the lattice is built.
    """

    p: int
    cols: tuple[tuple[int, ...], ...]
    scale: int
    exponents: tuple[int, ...] = field(compare=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.p, self.cols, self.scale)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _hermite(cls, p: int, vecs: Sequence[tuple[Sequence[int], int]]) -> "Lattice":
        """Canonical basis of the span of the vectors V / p^a, on integers.

        Over their least common scale p^s they are integer columns spanning
        an integral lattice M. Fraction-free elimination, pivoting on the
        least valuation, makes them triangular with diagonal p^(v_t) times
        units. M has index p^E in Z_p^d, E = sum of v_t, so p^E.e_t lies in M
        and the columns, last to first, are normalised modulo p^E: each is
        divided by its unit and reduced by the canonical columns after it.
        """
        scale = max(0, *(a for _, a in vecs))
        cols, scale = _strip(p, [[x * p ** (scale - a) for x in v] for v, a in vecs], scale)
        d = len(cols[0])
        cols = [c for c in cols if any(c)]
        pivots = []
        for t in range(d):
            nonzero = [(pval(c[t], p), i) for i, c in enumerate(cols) if c[t]]
            if not nonzero:
                raise StructuralError("vectors do not span a full-rank lattice")
            v, idx = min(nonzero)
            pivot = cols.pop(idx)
            unit, rest = pivot[t] // p**v, []
            for c in cols:
                if c[t]:
                    f = c[t] // p**v
                    c = [unit * x - f * y for x, y in zip(c, pivot)]
                if any(c):
                    rest.append(c)
            cols = rest
            pivots.append((pivot, v))
        exps = [v for _, v in pivots]
        mod = p ** sum(exps)
        out: list[tuple[int, ...]] = [()] * d
        for t in range(d - 1, -1, -1):
            pivot, v = pivots[t]
            inv = pow(pivot[t] // p**v, -1, mod)
            c = [x * inv % mod for x in pivot]
            c[t] = p**v
            for i in range(t + 1, d):
                f = c[i] // p ** exps[i]
                if f:
                    c[i:] = [(x - f * y) % mod for x, y in zip(c[i:], out[i][i:])]
            out[t] = tuple(c)
        return cls(p, tuple(out), scale, tuple(v - scale for v in exps))

    @classmethod
    def standard(cls, p: int, d: int) -> "Lattice":
        require_prime(p)
        return cls(p, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), 0, (0,) * d)

    @property
    def dimension(self) -> int:
        return len(self.cols)

    @lru_cache(maxsize=4096)
    def dilate(self, k: int) -> "Lattice":
        """p^k . L; entrywise scaling preserves the canonical form."""
        p, s, cols = self.p, self.scale - k, self.cols
        if s < 0:
            cols, s = tuple(tuple(x * p**-s for x in col) for col in cols), 0
        cols, s = _strip(p, cols, s)
        return Lattice(p, cols, s, tuple(a + k for a in self.exponents))

    def _solve(self, target: Sequence[int], a: int) -> list[int] | None:
        """Coefficients over the basis of target / p^a, or None if it is not
        in the lattice. The diagonal entries are p-powers, so the
        coefficients of a member are integers."""
        p, cols = self.p, self.cols
        k = self.scale - a
        t = [x * p**k for x in target] if k > 0 else list(target)
        m = p**-k if k < 0 else 1
        coeffs = []
        for j, col in enumerate(cols):
            f, r = divmod(t[j], m * col[j])
            if r:
                return None
            if f:
                t[j:] = [x - f * m * y for x, y in zip(t[j:], col[j:])]
            coeffs.append(f)
        return coeffs

    def _combine(self, coeffs: Sequence[int]) -> list[int]:
        """The integer vector sum of coeffs[j] * cols[j], over this scale."""
        return [sum(map(mul, coeffs, row)) for row in zip(*self.cols)]

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self._solve(col, other.scale) is not None for col in other.cols)

    def describe(self) -> dict:
        s = self.p**self.scale
        return {
            "diag_exponents": list(self.exponents),
            "basis_columns": [[str(x) if s == 1 else str(Fraction(x, s)) for x in col]
                              for col in self.cols],
        }


@dataclass(frozen=True)
class LatticeChain:
    """Strictly increasing lattices with first = p . last."""

    lattices: tuple[Lattice, ...]

    def __post_init__(self):
        if len(self.lattices) < 2:
            raise StructuralError("chain needs at least two lattices")
        if not all(map(_covers, self.lattices, self.lattices[1:])):
            raise StructuralError("chain lattices must strictly increase")
        if self.lattices[0] != self.lattices[-1].dilate(1):
            raise StructuralError("chain must run from p.L up to L")

    @property
    def top(self) -> Lattice:
        return self.lattices[-1]

    def is_maximal(self) -> bool:
        return len(self.lattices) == self.top.dimension + 1


@lru_cache(maxsize=4096)
def _covers(small: Lattice, big: Lattice) -> bool:
    """small < big, strictly: decided once per pair while the pair is cached."""
    return small != big and big.contains_lattice(small)


# ---------------------------------------------------------------------------
# subspaces of F_p^d and flags

def enumerate_subspaces(p: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """All subspaces of F_p^d as reduced row echelon rows, by dimension then
    echelon pattern."""
    out = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, d) if c not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[int(c == pc) for c in range(d)] for pc in pivots]
                for (i, c), val in zip(free, values):
                    rows[i][c] = val
                out.append(tuple(map(tuple, rows)))
    return out


def _span(p: int, points: Iterable[tuple[int, ...]], gens: Iterable[Sequence[int]]) -> frozenset:
    """The subspace of F_p^d spanned by a subspace (its points, int tuples
    over {0..p-1}) and some vectors, as a point set. Each generator outside
    the span so far adds all its multiples to every point."""
    span = frozenset(points)
    for gen in gens:
        if gen not in span:
            span = frozenset(tuple((a + c * b) % p for a, b in zip(w, gen))
                             for w in span for c in range(p))
    return span


def _echelon(p: int, rows: tuple, gen: Sequence[int]) -> tuple | None:
    """The reduced echelon rows mod p (pivots ascending, as `enumerate_subspaces`
    lists them) of the span of echelon rows and a vector; None if it adds nothing."""
    for row in rows:
        c = gen[row.index(1)]  # a row's pivot is its first nonzero entry, a 1
        gen = [(x - c * y) % p for x, y in zip(gen, row)]
    if not (lead := next((x for x in gen if x), 0)):
        return None
    inv = pow(lead, -1, p)
    gen = tuple(x * inv % p for x in gen)
    t = gen.index(1)
    rows = (tuple((x - r[t] * y) % p for x, y in zip(r, gen)) if r[t] else r for r in rows)
    return tuple(sorted((*rows, gen), reverse=True))


def flag_count(p: int, d: int) -> int:
    return prod((p**i - 1) // (p - 1) for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# lattice enumeration around one dilation step

@lru_cache(maxsize=4096)
def _lift_subspace(lattice: Lattice, rows: tuple[tuple[int, ...], ...]) -> Lattice:
    """p.L plus the lift of a subspace of L/pL (its reduced echelon rows), as a
    sublattice of L: one Hermite form per subspace while the lift is cached."""
    p, s = lattice.p, lattice.scale
    vectors = [([x * p for x in col], s) for col in lattice.cols]
    vectors.extend((lattice._combine(row), s) for row in rows)
    return Lattice._hermite(p, vectors)


def maximal_chains(lattice: Lattice) -> list[LatticeChain]:
    """All maximal chains p.L < L_1 < ... < L; one per complete flag of L/pL.

    Each subspace is lifted once and kept with its point set. Flags grow one
    dimension at a time in enumeration order, by point-set inclusion.
    """
    p, d = lattice.p, lattice.dimension
    zero = frozenset({(0,) * d})
    by_dim: list[list] = [[] for _ in range(d + 1)]
    for rows in enumerate_subspaces(p, d):
        if 0 < len(rows) < d:  # every flag runs from 0 (p.L) to F_p^d (L)
            by_dim[len(rows)].append((_span(p, zero, rows), _lift_subspace(lattice, rows)))
    flags = [(zero, ())]
    for level in by_dim[1:d]:
        flags = [(s, lifts + (lift,)) for prev, lifts in flags for s, lift in level if prev <= s]
    bottom = lattice.dilate(1)
    return [LatticeChain((bottom, *lifts, lattice)) for _, lifts in flags]


# ---------------------------------------------------------------------------
# norms

def _integer_frame(p: int, q: Sequence, matrix: Matrix) -> tuple:
    """(matrix, rows, shift, heaviest_first) for a frame A: `rows` is the
    integer matrix A.D, with D the lcm of the denominators of A, `shift` is
    v_p(D), and `heaviest_first` lists the rows by decreasing weight."""
    d = len(q)
    flat, den = _over_lcm([x for row in matrix for x in row])
    rows = tuple(tuple(flat[i : i + d]) for i in range(0, d * d, d))
    order = sorted(range(d), key=q.__getitem__, reverse=True)  # stable: ties by index
    return matrix, rows, pval(den, p), tuple(order)


class NormSpec:
    """Weighted max-norm N(z) = max_i q_i |(Az)_i|_p with q_i in (1/p, 1].

    Balls read `inverse_cols`, each column of A^-1 as (V_j, a), the column
    V_j / (p^a u) for a unit u; values are decided on the integer frame
    (`_integer_frame`). A norm built from its frame A clears it to integer
    rows = A.D and inverts those once (`_inverse`, which rejects a singular
    A): rows^-1 = Y/e, so A^-1 = D.Y/e and V_j = Y_j, a = v_p(e) - shift. A
    chain's norm (`norm_from_chain`) is built from its adapted basis
    F / p^scale, which is A^-1: V_j = F_j, a = scale. Its frame
    A = p^scale.F^-1 is derived by one `_inverse` of F when first read: by
    `eval`, `distance`, `matrix`, ==, hash or repr. A norm is immutable, and
    == and hash compare (p, q, matrix). `distance` keeps each value by its
    difference x - y, evaluated once per norm.
    """

    __slots__ = ("p", "q", "inverse_cols", "_frame", "_values")

    def __init__(self, p: int, q: Sequence, matrix: Matrix):
        if type(q) is not _ChainWeights or q.p != p:
            q = norm_weights(p, len(q), q)
        d = len(q)
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise StructuralError("frame matrix shape does not match weights")
        frame = _integer_frame(p, q, matrix)
        inv, e = _inverse(frame[1])
        a = pval(e, p) - frame[2]
        self._set(p, q, tuple((col, a) for col in zip(*inv)), frame)

    @classmethod
    def _of_basis(
        cls, p: int, q: _ChainWeights, basis: Iterable[Sequence[int]], scale: int
    ) -> "NormSpec":
        """The norm whose frame inverts the basis F / p^scale, F's columns
        given as integer vectors; q has been read by `_chain_weights`."""
        norm = object.__new__(cls)
        norm._set(p, q, tuple((tuple(f), scale) for f in basis), None)
        return norm

    def _set(self, p: int, q: Sequence, inverse_cols: tuple, frame: tuple | None) -> None:
        for name, value in zip(self.__slots__, (p, q, inverse_cols, frame, {})):  # in order
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def frame(self) -> tuple:
        """`_integer_frame` of A; for a chain's norm, F^-1 = Y/e (`_inverse`)
        gives A = p^scale.Y/e on first read, one Fraction per entry."""
        if self._frame is None:
            inv, e = _inverse(list(zip(*(v for v, _ in self.inverse_cols))))
            s = self.p ** self.inverse_cols[0][1]
            matrix = tuple(tuple(Fraction(s * y, e) for y in row) for row in inv)
            object.__setattr__(self, "_frame", _integer_frame(self.p, self.q, matrix))
        return self._frame

    matrix = property(lambda self: self.frame[0])
    rows = property(lambda self: self.frame[1])
    shift = property(lambda self: self.frame[2])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.q, self.matrix) == (other.p, other.q, other.matrix)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.matrix))

    def __repr__(self) -> str:
        return f"NormSpec(p={self.p!r}, q={self.q!r}, matrix={self.matrix!r})"

    @property
    def dimension(self) -> int:
        return len(self.q)

    def eval(self, z: Sequence) -> Fraction:
        """N(z) from integer valuations; the returned value is the only Fraction.

        The coordinates of z are read by `_over_lcm`, as frames are. With
        z = Z/e for an integer vector Z, (Az)_i = w_i/(D e) where
        w = rows.Z, so the i-th term is q_i p^(shift + v_p(e) - v_p(w_i)).
        As each q_i lies in (1/p, 1], terms with different valuations fall
        in disjoint ranges: the maximum has the least v_p(w_i), ties going
        to the heaviest weight.
        """
        p, (_, rows, shift, heaviest_first) = self.p, self.frame
        if len(z) != len(rows):
            raise StructuralError(f"point of length {len(z)} for dimension {len(rows)}")
        z, e = _over_lcm(z)
        best, arg = None, None
        for i in heaviest_first:
            w = sum(map(mul, rows[i], z))
            if w == 0:
                continue
            v = 0
            while w % p == 0 and (best is None or v < best):
                w //= p
                v += 1
            if best is None or v < best:
                best, arg = v, i
        if arg is None:
            return Fraction(0)
        q, k = self.q[arg], shift + pval(e, p) - best
        if k >= 0:
            return Fraction(q.numerator * p**k, q.denominator)
        return Fraction(q.numerator, q.denominator * p**-k)

    def distance(self, x: Sequence, y: Sequence) -> Fraction:
        # the length and the rule of `_over_lcm` come before the memo: True == 1 as a key
        d = len(self.q)
        if len(x) != d or len(y) != d:
            raise StructuralError(f"points of length {len(x)} and {len(y)} for dimension {d}")
        if not _EXACT.issuperset(map(type, (*x, *y))):
            x, y = [as_fraction(a) for a in x], [as_fraction(b) for b in y]
        z = tuple(map(sub, x, y))
        try:
            return self._values[z]
        except KeyError:
            value = self._values[z] = self.eval(z)
            return value


def intermediary_balls(norm: NormSpec, lattice: Lattice) -> LatticeChain:
    """Maximal chain of N-balls between p.L and L, read off the weights.

    If L = ball(R), the balls change only at norm values, and each weight
    q_i takes exactly one value q_i p^(-k_i) in (R/p, R]. The chain is
    ball(R/p) = p.L, then the ball of each of those values below R, then L;
    repeated weights shorten it. With c_i the inverse columns and k_i the
    least k with p^k.c_i in L, L is the span of the p^(k_i).c_i when their
    residues span L/pL (Nakayama), and is ball(R), R the largest value, when
    all values lie in (R/p, R]. Values grow with -k_i, then q_i.
    """
    if lattice.dimension != norm.dimension:
        raise StructuralError(f"lattice in dimension {lattice.dimension}, norm in {norm.dimension}")
    p, e = lattice.p, sum(lattice.exponents) + len(lattice.cols) * lattice.scale
    gens = []
    for (v, a), qi in zip(norm.inverse_cols, norm.q):
        coeffs = lattice._solve(v, lattice.scale - e)  # p^e.Z_p^d lies in p^scale.L
        m = pval(gcd(*coeffs), p)  # the least valuation of a coefficient
        gens.append((m - a, qi, [x // p**m % p for x in coeffs]))
    gens.sort()
    balls, rows = {}, ()
    for level, qi, gen in gens:  # None once a residue adds nothing
        rows = balls[level, qi] = None if rows is None else _echelon(p, rows, gen)
    if rows is None or gens[0][:2] <= (gens[-1][0] - 1, gens[-1][1]):  # least value <= R/p
        raise ValueError("lattice is not a ball of this norm")
    lifts = (_lift_subspace(lattice, r) for r in list(balls.values())[:-1])
    return LatticeChain((lattice.dilate(1), *lifts, lattice))


# ---------------------------------------------------------------------------
# chains -> bases -> norms

@lru_cache(maxsize=1024)
def _residue_span(top: Lattice, lat: Lattice) -> frozenset:
    """lat/pT in T/pT = F_p^d for p.T <= lat <= T (T the top): the span of the
    residues of lat's columns in T's coordinates. Chains share lattices."""
    p, gens = top.p, (top._solve(col, lat.scale) for col in lat.cols)
    return _span(p, {(0,) * top.dimension}, (tuple(x % p for x in g) for g in gens))


def _adapted_residues(chain: LatticeChain) -> tuple[list[frozenset], list[tuple[int, ...]]]:
    """The residue spans L_j/pL (j < d) of a maximal chain and the residues w_j of
    its adapted basis, in the top lattice's coordinates; see `_adapted_basis`."""
    top, d = chain.top, chain.top.dimension
    if not chain.is_maximal():
        raise ValueError(f"chain of {len(chain.lattices)} lattices is not maximal in dimension {d}")
    spans = [_residue_span(top, lat) for lat in chain.lattices[:-1]]
    ws = [min(big - small) for small, big in zip(spans, spans[1:])]
    units = (tuple(int(i == k) for i in range(d)) for k in reversed(range(d)))
    return spans, ws + [next(e for e in units if e not in spans[-1])]


def _adapted_basis(chain: LatticeChain) -> list[list[int]]:
    """The adapted basis of a maximal chain as integer vectors f_j over p^scale
    of the top lattice: f_j lies in L_j outside L_(j-1), and in the top's
    coordinates lifts the least vector of (L_j/pL) \\ (L_(j-1)/pL); f_d lifts
    the last unit vector outside the hyperplane L_(d-1)/pL. By induction on j,
    their residues w_1..w_j span L_j/pL (at j = d, L/pL) when w_j lies there,
    outside L_(j-1)/pL, of index p in it; so L_j = Z_p f_1 + ... + Z_p f_j +
    p Z_p f_(j+1) + ... + p Z_p f_d, checked here on residues in L/pL."""
    top = chain.top
    spans, ws = _adapted_residues(chain)
    for small, big, w in zip(spans, [*spans[1:], None], ws):
        if w in small or big and not (w in big and small < big and len(big) == top.p * len(small)):
            raise AssertionError("adapted basis fails the chain decomposition")
    return [top._combine(w) for w in ws]


def norm_from_chain(chain: LatticeChain, q: Sequence) -> NormSpec:
    """Norm taking value q_j on L_j \\ L_(j-1); its ball chain through the
    top lattice reproduces the input chain.

    Its frame A inverts the adapted basis F / p^scale, whose columns F_j are
    integers, so its inverse columns are (F_j, scale): no inversion and no
    Fraction here. The frame itself is derived when first read (`NormSpec`)."""
    top = chain.top
    qs = _chain_weights(top.p, top.dimension, q)
    return NormSpec._of_basis(top.p, qs, _adapted_basis(chain), top.scale)


def default_weights(p: int, d: int) -> tuple[Fraction, ...]:
    """(p+i)/(p+d) for i = 1..d: strictly increasing, in (1/p, 1] only for d < p^2.
    The least goes through `norm_weights` first, so d >= p^2 is refused at once."""
    require_prime(p)
    if d > 0:
        norm_weights(p, 1, [Fraction(p + 1, p + d)])
    return tuple(Fraction(p + i, p + d) for i in range(1, d + 1))


def verify_correspondence(p: int, d: int, q: Sequence) -> dict:
    """Exhaustive check of the chain <-> norm-class bijection at one (p, d).

    Every maximal lattice chain through the standard lattice is turned into a
    norm and read back into a ball chain; the round trip must be the identity
    (a top that is no ball of the norm fails it), distinct chains must give
    distinct ball chains, and the chain count must equal the flag count. Repeated
    weights give the degenerate report instead: the shortened ball chain of
    the diagonal norm. Each distinct lattice is described once, and every
    chain that holds it holds that one dict, so the report is read-only.
    """
    qs = norm_weights(p, d, q)
    lattice = Lattice.standard(p, d)
    parameters = {"p": p, "d": d, "q": [str(x) for x in qs]}
    if len(set(qs)) < d:
        chain = intermediary_balls(NormSpec(p, qs, identity_matrix(d)), lattice)
        return {
            "parameters": parameters,
            "degenerate_parameters": True,
            "ball_count": len(chain.lattices),
            "full_chain_length": d + 1,
            "balls": [lat.describe() for lat in chain.lattices],
            "note": "repeated weights: the maximal ball chain is shorter "
            "than d+1 and defines no top-dimensional simplex",
        }
    qs = _chain_weights(p, d, qs)
    for memo in (_covers, _residue_span, _lift_subspace):
        memo.cache_clear()  # so each run decides each pair, span and lift once
    chains = maximal_chains(lattice)
    expected = flag_count(p, d)
    described = {lat: lat.describe() for lat in {lat for c in chains for lat in c.lattices}}
    results, passed, ball_chains = [], 0, set()
    for idx, chain in enumerate(chains):
        norm = norm_from_chain(chain, qs)
        try:
            balls = intermediary_balls(norm, lattice).lattices
        except ValueError:  # the top is not a ball of the chain's norm: it counts as its own
            balls = idx
        ok = balls == chain.lattices
        passed += ok
        ball_chains.add(balls)
        lattices = [described[lat] for lat in chain.lattices]
        results.append({"index": idx, "lattices": lattices, "round_trip_ok": ok})
    distinct = len(ball_chains) == len(chains)
    return {
        "parameters": parameters,
        "degenerate_parameters": False,
        "flag_count": expected,
        "chain_count": len(chains),
        "round_trips_passed": passed,
        "distinct_ball_chains": distinct,
        "all_passed": passed == len(chains) == expected and distinct,
        "scope": (
            "checked for every maximal chain through the standard lattice "
            "class at these parameters"
        ),
        "chains": results,
    }


# ---------------------------------------------------------------------------
# sampled ball networks

def _point_labels(p: int, window: int, d: int) -> list[tuple[str, tuple[int, ...]]]:
    size = p**window
    width = len(str(size - 1))
    out = []
    for coords in product(range(size), repeat=d):
        out.append(("".join(str(c).zfill(width) for c in coords), coords))
    return out


def reordering_norms(p: int, q: Sequence) -> list[tuple[str, NormSpec]]:
    """One diagonal norm per distinct ordering of the weights."""
    qs = norm_weights(p, len(q), q)
    frame = identity_matrix(len(qs))
    return [
        ("A0.q" + "_".join(str(x) for x in perm), NormSpec(p, perm, frame))
        for perm in sorted(set(permutations(qs)))
    ]


def ball_network(p: int, d: int, q: Sequence, window: int = 2) -> ClusterNetwork:
    """Cluster network of the norm family sampled on (Z/p^window)^d.

    Each norm induces an ultrametric on the sample points; per-norm
    dendrograms are the ball trees restricted to the window, and their
    fusion feeds the simplicial/dimension machinery. Two distinct weight
    orderings differ already at the pair (0, e_i), so every window
    separates the norms.
    """
    qs = norm_weights(p, d, q)
    if window < 1:
        raise StructuralError(f"window must be at least 1, got {window}")
    labeled = _point_labels(p, window, d)
    labels = [name for name, _ in labeled]
    norms = reordering_norms(p, qs)
    matrices = []
    for name, norm in norms:
        entries = [
            [norm.distance(x, y) for _, y in labeled] for _, x in labeled
        ]
        matrices.append((name, DistanceMatrix(labels, entries)))
    dendros = [build_dendrogram(m) for _, m in matrices]
    return merge_dendrograms(dendros, [name for name, _ in matrices])

"""Independent reference implementations used to freeze expected values.

These deliberately use brute force (path enumeration, subset closure) so
they share no code path with the library implementations they check.
`ball_network_by_definition` reuses the library's matrix, dendrogram and
fusion code: it judges how a window's points and norm values are formed.
`round_trip_by_hermite` reuses the library's choice of adapted basis, its
norms and its Hermite forms: it judges the round trip that the library
decides on residues in L/pL, by comparing canonical forms instead.
`matrix_by_fractions` reuses `as_fraction` and `_from_ranks`: it judges how
the matrix reader parses, checks and sorts cells. `undirected_cycles` (C12)
and `minimal_common_superball` read the library's networks;
`lattice_from_basis`, `contains_vector`, `lattices_between`,
`class_representative`, `is_adjacent` (C13), `basis_from_chain`,
`ball_of_radius` and `check_norm_axioms` (the judge of C08) run on the
library's integer lattices and norms. No code of the package calls them, so
they live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, permutations, product
from math import isqrt
from operator import sub
from types import SimpleNamespace

from clusternets import padic
from clusternets.dendrogram import build_dendrogram
from clusternets.errors import StructuralError
from clusternets.metric import DistanceMatrix, as_fraction
from clusternets.network import chain_to_superball, merge_dendrograms, subfamily


def is_prime_by_trial_division(n: int) -> bool:
    """n >= 2 with no divisor in [2, sqrt(n)]."""
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


def _order_by_fraction(v: Fraction) -> tuple[int, Fraction]:
    """Sort key of a rational: floor(v * 2**64) decides in int arithmetic,
    the Fraction breaks ties."""
    return ((v.numerator << 64) // v.denominator, v)


def _check_fractions(labels, found: list[Fraction], zero, grid: list[list[int]]) -> None:
    """The matrix checks over Fraction values, first fault in row-major order."""
    negative = {c for c, x in enumerate(found) if x.numerator < 0}
    for i, (row, column) in enumerate(zip(grid, zip(*grid))):
        if row[i] != zero:
            raise StructuralError(
                f"nonzero diagonal at ({labels[i]},{labels[i]}): {found[row[i]]}"
            )
        upper = row[i + 1 :]
        if tuple(upper) == column[i + 1 :] and negative.isdisjoint(upper):
            continue
        for j in range(i + 1, len(row)):
            if row[j] != column[j]:
                raise StructuralError(
                    f"asymmetry at ({labels[i]},{labels[j]}): "
                    f"{found[row[j]]} != {found[column[j]]}"
                )
            if row[j] in negative:
                raise StructuralError(
                    f"negative entry at ({labels[i]},{labels[j]}): {found[row[j]]}"
                )


def matrix_by_fractions(labels, entries) -> DistanceMatrix:
    """A matrix read by parsing every cell with `as_fraction` and sorting the
    distinct values as Fractions. It judges the library's reader, which reads
    plain literals with int() and sorts on integer keys: value for value and
    message for message."""
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
    # Each distinct str literal is parsed once. That memo is keyed on str
    # only: True == 1 and both hash alike, and a bool cell must still reach
    # as_fraction.
    literals: dict[str, int] = {}
    codes: dict[tuple[int, int], int] = {}  # (numerator, denominator) -> code
    found: list[Fraction] = []  # code -> value
    rows = []
    for i, row in enumerate(entries):
        if len(row) != n:
            raise StructuralError(f"row {labels[i]!r} has {len(row)} entries, expected {n}")
        coded = []
        for v in row:
            c = literals.get(v) if type(v) is str else None
            if c is None:
                x = as_fraction(v)
                c = codes.setdefault((x.numerator, x.denominator), len(found))
                if c == len(found):
                    found.append(x)
                if type(v) is str:
                    literals[v] = c
            coded.append(c)
        rows.append(coded)
    order = sorted(range(n), key=lambda i: labels[i])
    sorted_labels = tuple(labels[i] for i in order)
    grid = [[row[j] for j in order] for row in map(rows.__getitem__, order)]
    _check_fractions(sorted_labels, found, codes.get((0, 1)), grid)
    upper = list(chain.from_iterable(row[i + 1 :] for i, row in enumerate(grid)))
    used = sorted(set(upper), key=lambda c: _order_by_fraction(found[c]))
    rank = [0] * len(found)
    for r, c in enumerate(used):
        rank[c] = r
    values = [found[c] for c in used]
    return DistanceMatrix._from_ranks(
        sorted_labels,
        tuple(map(rank.__getitem__, upper)),
        tuple(x.numerator for x in values),
        tuple(x.denominator for x in values),
    )


def minimax_path_distance(entries, a: int, b: int) -> Fraction:
    """Minimum over all simple paths a -> b of the path's largest edge."""
    if a == b:
        return Fraction(0)
    n = len(entries)
    others = [k for k in range(n) if k not in (a, b)]
    best = entries[a][b]
    for r in range(1, len(others) + 1):
        for mid in permutations(others, r):
            path = (a, *mid, b)
            cost = max(entries[x][y] for x, y in zip(path, path[1:]))
            if cost < best:
                best = cost
    return best


def minimax_matrix(entries):
    n = len(entries)
    return [
        [minimax_path_distance(entries, i, j) for j in range(n)] for i in range(n)
    ]


def threshold_components(entries, eps: Fraction) -> list[tuple[int, ...]]:
    """Components of the graph with edges d <= eps, by repeated expansion."""
    n = len(entries)
    blocks = []
    unseen = set(range(n))
    while unseen:
        seed = min(unseen)
        block = {seed}
        grew = True
        while grew:
            grew = False
            for i in list(block):
                for j in range(n):
                    if j not in block and entries[i][j] <= eps:
                        block.add(j)
                        grew = True
        blocks.append(tuple(sorted(block)))
        unseen -= block
    return sorted(blocks)


def combine_by_definition(markers, weights) -> list[list[Fraction]]:
    """Weighted sum of the markers' Fraction tables, cell by cell."""
    tables = [dm.entries for _, dm in markers.markers]
    n = len(tables[0])
    return [
        [sum((Fraction(w) * t[i][j] for w, t in zip(weights, tables)), Fraction(0))
         for j in range(n)]
        for i in range(n)
    ]


def strong_triangle_violations(entries) -> list[tuple[int, int, int]]:
    """Every triple (i, j, k), i < j, with d(i,j) > max(d(i,k), d(k,j))."""
    n = len(entries)
    return [
        (i, j, k)
        for i, j in combinations(range(n), 2)
        for k in range(n)
        if k not in (i, j) and entries[i][j] > max(entries[i][k], entries[k][j])
    ]


def balls_by_definition(entries, labels) -> set[frozenset]:
    """Every threshold component of a dissimilarity, as a set of labels.

    The thresholds are 0 and each entry, so the components at 0 are the
    leaves and the last one is the whole point set.
    """
    values = {Fraction(0)} | {v for row in entries for v in row}
    return {
        frozenset(labels[i] for i in block)
        for eps in values
        for block in threshold_components(entries, eps)
    }


def complex_by_definition(balls: dict, r) -> tuple[dict, dict]:
    """Simplices and per-pair dimensions of a cluster system, from member sets.

    `balls` maps each metric id to its balls as frozensets of labels. The
    r-balls are the sets that are balls of every metric in r. Each r-ball I
    pairs with J, the smallest r-ball strictly containing it, found by
    scanning. The chain of metric m is every m-ball B with I <= B <= J,
    ordered by size. Pairs are visited by (size, sorted labels) of I and
    metrics in sorted order; the first chain to give a vertex set names its
    metric and anchor. Returns ({simplex: (metric, (I, J))}, {(I, J): dim}),
    each simplex a tuple of member sets from smallest to largest.
    """
    metrics = sorted(r)
    r_balls = set.intersection(*(set(balls[m]) for m in metrics))
    simplices: dict = {}
    dims: dict = {}
    for inner in sorted(r_balls, key=lambda s: (len(s), sorted(s))):
        above = [b for b in r_balls if inner < b]
        if not above:
            continue
        outer = min(above, key=len)
        chains = [
            (m, sorted((b for b in balls[m] if inner <= b <= outer), key=len))
            for m in metrics
        ]
        dims[inner, outer] = max(len(chain) for _, chain in chains) - 1
        for m, chain in chains:
            for size in range(2, len(chain) + 1):
                for subset in combinations(chain, size):
                    simplices.setdefault(subset, (m, (inner, outer)))
    return simplices, dims


def violations_by_definition(balls: dict) -> list[tuple[list, list, list]]:
    """Incompatible intersections of a cluster system, from member sets.

    `balls` maps each metric id to its balls as frozensets of labels. Every
    pair of balls that share no metric, taken in (size, sorted labels)
    order, whose intersection is nonempty and no ball of any metric is a
    violation, listed as (first, second, intersection) sorted labels.
    """
    every = set().union(*balls.values())
    metrics_of = {b: {m for m, bs in balls.items() if b in bs} for b in every}
    ordered = sorted(every, key=lambda s: (len(s), sorted(s)))
    return [
        (sorted(a), sorted(b), sorted(a & b))
        for a, b in combinations(ordered, 2)
        if not metrics_of[a] & metrics_of[b] and a & b and a & b not in every
    ]


def random_rational(rng, max_num=40, max_den=6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_dissimilarity(rng, n: int):
    """Random symmetric rational matrix with zero diagonal.

    Ties are likely and off-diagonal zeros occasionally appear, so both the
    simultaneous-merge and the degenerate paths get exercised.
    """
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.08:
                v = Fraction(0)
            else:
                v = Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4]))
            entries[i][j] = entries[j][i] = v
    return entries


def random_ultrametric(rng, n: int):
    """Random ultrametric by recursive splitting with decreasing heights.

    Occasionally leaves a block of several points at height zero, to
    exercise degenerate (zero) distances.
    """
    entries = [[Fraction(0)] * n for _ in range(n)]

    def split(indices, bound: Fraction):
        if len(indices) <= 1:
            return
        if bound <= 0 or (len(indices) > 1 and rng.random() < 0.08):
            return  # leave the block at pairwise distance zero
        height = bound * Fraction(rng.randint(1, 16), 16)
        if height == 0:
            return
        k = rng.randint(2, len(indices))
        rng.shuffle(indices)
        blocks: list[list[int]] = [[] for _ in range(k)]
        for pos, idx in enumerate(indices):
            blocks[pos % k].append(idx)
        blocks = [b for b in blocks if b]
        for bi, bj in combinations(range(len(blocks)), 2):
            for x in blocks[bi]:
                for y in blocks[bj]:
                    entries[x][y] = entries[y][x] = height
        shrink = height * Fraction(rng.randint(1, 15), 16)
        for b in blocks:
            split(b, shrink)

    split(list(range(n)), Fraction(rng.randint(4, 64)))
    return entries


def check_tree_of_clusters(member_sets: list[frozenset], n: int) -> None:
    """Assert the clustering axioms on a family of member sets.

    Coverage, unique minimal common cluster for each pair, and no duplicate
    sets (chains are finite automatically on finite inputs).
    """
    assert len(set(member_sets)) == len(member_sets), "duplicate member sets"
    covered = set().union(*member_sets)
    assert covered == set(range(n)), "leaves do not cover the point set"
    for a in range(n):
        for b in range(n):
            containing = [m for m in member_sets if a in m and b in m]
            assert containing, f"no cluster contains {{{a},{b}}}"
            smallest = min(containing, key=len)
            assert all(smallest <= m for m in containing), (
                f"minimal common cluster of ({a},{b}) is not unique"
            )


def sup_cluster(dendro, a: str, b: str):
    """The minimal cluster of a dendrogram containing both labels; its radius
    is d(a, b). Found by scanning the clusters in canonical (size-ascending)
    order."""
    try:
        ia = dendro.labels.index(a)
        ib = dendro.labels.index(b)
    except ValueError as exc:
        raise LookupError(f"unknown label: {exc}") from None
    want = (1 << ia) | (1 << ib)
    for c in dendro.clusters:
        if c.members & want == want:
            return c
    raise AssertionError("root cluster must contain every pair")


def contains(big, small) -> bool:
    """Cluster `big` holds every member of cluster `small`."""
    return small.members & big.members == small.members


def leaves(dendro) -> list[int]:
    """Indices of the dendrogram's clusters that are no cluster's parent."""
    parents = set(dendro.parent)
    return [i for i in range(len(dendro.clusters)) if i not in parents]


def _closure(p: int, points) -> frozenset:
    """The least superset of points closed under addition and scaling in F_p^d."""
    closed = set(points)
    todo = list(closed)
    while todo:
        x = todo.pop()
        reached = [tuple(a * c % p for a in x) for c in range(2, p)]
        reached += [tuple((a + b) % p for a, b in zip(x, y)) for y in closed]
        for z in reached:
            if z not in closed:
                closed.add(z)
                todo.append(z)
    return frozenset(closed)


def brute_force_subspaces(p: int, d: int) -> list[frozenset]:
    """Subsets of F_p^d closed under addition and scaling (includes 0).

    Grown from {0} by adding one vector and closing again, instead of
    testing all 2^(p^d) subsets. A closed set T is the closure of {0} plus
    its points added one at a time, so none is missed. A vector w of the
    closure t of s and v, outside s, is skipped: as p is prime, v is a
    multiple of w plus a point of s, so the closure of s and w is t again.
    """
    vectors = list(product(range(p), repeat=d))
    found = {_closure(p, [(0,) * d])}
    frontier = set(found)
    while frontier:
        grown = set()
        for s in frontier:
            covered = set(s)
            for v in vectors:
                if v not in covered:
                    t = _closure(p, s | {v})
                    grown.add(t)
                    covered |= t
        frontier = grown - found
        found |= grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def gaussian_binomial(d: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^d, by the product formula."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def brute_force_flag_chains(p: int, d: int) -> int:
    """Number of maximal strictly increasing chains of subspaces of F_p^d."""
    subspaces = brute_force_subspaces(p, d)
    sizes = sorted({len(s) for s in subspaces})
    assert sizes == [p**k for k in range(d + 1)]
    chains = [[frozenset([(0,) * d])]]
    for k in range(1, d + 1):
        level = [s for s in subspaces if len(s) == p**k]
        chains = [c + [s] for c in chains for s in level if c[-1] < s]
    return len(chains)


def norm_by_definition(norm, z) -> Fraction:
    """max_i q_i p^(-v_p((Az)_i)) by the definition, in Fraction arithmetic."""
    p = norm.p
    best = Fraction(0)
    for qi, row in zip(norm.q, norm.matrix):
        w = sum(Fraction(a) * Fraction(x) for a, x in zip(row, z))
        if w == 0:
            continue
        num, den, v = w.numerator, w.denominator, 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        best = max(best, qi * Fraction(p) ** -v)
    return best


def ball_network_by_definition(p: int, d: int, q, window: int):
    """`padic.ball_network` by the matrix path: for each distinct ordering of
    the weights, every ordered pair (x, y) of (Z/p^window)^d valued by
    `norm_by_definition` at x - y, one `DistanceMatrix`, single linkage, then
    fusion. Pairs with one difference share its value, so the definition
    runs once per difference; the Fraction arithmetic is slow."""
    size = p**window
    width = len(str(size - 1))
    points = list(product(range(size), repeat=d))
    labels = ["".join(str(c).zfill(width) for c in x) for x in points]
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))
    names, dendros = [], []
    for perm in sorted(set(permutations(Fraction(x) for x in q))):
        value = cache(partial(norm_by_definition, SimpleNamespace(p=p, q=perm, matrix=identity)))
        entries = [[value(tuple(map(sub, x, y))) for y in points] for x in points]
        names.append("A0.q" + "_".join(str(x) for x in perm))
        dendros.append(build_dendrogram(DistanceMatrix(labels, entries)))
    return merge_dendrograms(dendros, names)


def _pval(x: Fraction, p: int) -> int:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def hermite_by_definition(p: int, vectors) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Column Hermite form over Z_p of a spanning set, in Fraction arithmetic.

    Row by row, the column with the least valuation there is the pivot; it
    is divided by its unit part, so the pivot is p^(a_j), and it clears that
    row in every other column. Then each entry below a pivot is replaced by
    its truncated p-adic expansion modulo p^(a_i). Returns (basis columns,
    exponents a_j); raises StructuralError when the span is not full rank.
    """
    cols = [[Fraction(x) for x in v] for v in vectors]
    d = len(cols[0])
    cols = [c for c in cols if any(c)]
    basis = []
    for row in range(d):
        nonzero = [(_pval(c[row], p), i) for i, c in enumerate(cols) if c[row] != 0]
        if not nonzero:
            raise StructuralError("vectors do not span a full-rank lattice")
        v, idx = min(nonzero)
        pivot = cols.pop(idx)
        unit = pivot[row] / Fraction(p) ** v
        pivot = [x / unit for x in pivot]
        for c in cols:
            coef = c[row] / pivot[row]
            for i in range(row, d):
                c[i] -= coef * pivot[i]
        basis.append(pivot)
        cols = [c for c in cols if any(c)]
    exps = tuple(_pval(basis[j][j], p) for j in range(d))
    for j in range(d):
        for i in range(j + 1, d):
            x = basis[j][i]
            if x == 0 or _pval(x, p) >= exps[i]:
                residue = Fraction(0)
            else:
                v = _pval(x, p)
                unit, mod = x / Fraction(p) ** v, p ** (exps[i] - v)
                residue = Fraction(p) ** v * (unit.numerator * pow(unit.denominator, -1, mod) % mod)
            coef = (x - residue) / basis[i][i]
            for t in range(i, d):
                basis[j][t] -= coef * basis[i][t]
    return tuple(tuple(c) for c in basis), exps


def member_by_definition(p: int, basis, vec) -> bool:
    """True iff vec is a Z_p-combination of the triangular basis columns,
    by a Fraction triangular solve."""
    x = [Fraction(v) for v in vec]
    for j, col in enumerate(basis):
        c = x[j] / col[j]
        if c != 0 and _pval(c, p) < 0:
            return False
        for i in range(j, len(x)):
            x[i] -= c * col[i]
    return True


def inverse_by_definition(m):
    """Inverse over Q by Gauss-Jordan elimination in Fraction arithmetic;
    raises StructuralError("singular matrix") when no pivot is left."""
    d = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(m)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if piv is None:
            raise StructuralError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def lattice_basis(lat):
    """A lattice's Hermite basis vectors `cols[j] / p^scale` as Fractions."""
    s = lat.p**lat.scale
    return tuple(tuple(Fraction(x, s) for x in col) for col in lat.cols)


def adapted_basis_by_definition(chain):
    """For each step L_(j-1) < L_j of a maximal chain, the first w of F_p^d
    in lexicographic order whose lift sum_i w_i b_i (b_i the top's basis
    columns) lies in L_j and not in L_(j-1), by Fraction membership.
    Returns the lifts as Fraction vectors."""
    bases = [lattice_basis(lat) for lat in chain.lattices]
    p, top = chain.lattices[-1].p, bases[-1]
    d = len(top)
    lifts = [
        tuple(sum((c * col[i] for c, col in zip(w, top)), Fraction(0)) for i in range(d))
        for w in product(range(p), repeat=d)
    ]
    return tuple(
        next(
            vec
            for vec in lifts
            if member_by_definition(p, larger, vec) and not member_by_definition(p, smaller, vec)
        )
        for smaller, larger in zip(bases, bases[1:])
    )


# ---------------------------------------------------------------------------
# network queries that only the tests use


def minimal_common_superball(net, ball, r):
    """Smallest r-ball strictly containing `ball`, or None at the root: the end
    of `chain_to_superball`'s walk along the first metric of r."""
    r = frozenset(r)
    if not subfamily(net, r) <= ball.present_in:
        raise ValueError(f"vertex {ball.vertex_id} is not an r-ball for {sorted(r)}")
    chain = chain_to_superball(net, ball.vertex_id, r, min(r))
    return None if chain is None else net.vertices[chain[-1]]


def undirected_cycles(net) -> list[tuple[int, ...]]:
    """Fundamental cycle basis of the underlying undirected graph.

    One cycle per non-tree edge of a BFS spanning forest; each cycle is
    rotated to start at its smallest vertex id and oriented toward the
    smaller neighbor, and the list is sorted, so output is canonical.
    """
    n = len(net.vertices)
    pairs = sorted({(min(e.child, e.parent), max(e.child, e.parent)) for e in net.edges})
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    for start in range(n):
        if start in parent:
            continue
        parent[start] = None
        queue = [start]
        for u in queue:  # breadth first: the loop reaches what it appends
            for w in sorted(adj[u]):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
    tree = {(min(v, p), max(v, p)) for v, p in parent.items() if p is not None}
    cycles = []
    for a, b in pairs:
        if (a, b) in tree:
            continue
        path_a, path_b = [a], [b]
        seen_a = {a: 0}
        u = a
        while parent[u] is not None:
            u = parent[u]
            seen_a[u] = len(path_a)
            path_a.append(u)
        u = b
        while u not in seen_a:
            u = parent[u]
            path_b.append(u)
        lca = u
        cycle = path_a[: seen_a[lca] + 1] + path_b[-2::-1]
        cycles.append(_canonical_cycle(cycle))
    return sorted(cycles, key=lambda c: (len(c), c))


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


# ---------------------------------------------------------------------------
# lattice and norm helpers that only the tests use, on the library's ints


def cleared(p: int, vec) -> tuple[list[int], int]:
    """vec as (V, a) with vec = V / (p^a u): u is a unit, which keeps the Z_p-span.
    Entries are read by `padic._over_lcm`, as the library reads frames and points."""
    ints, den = padic._over_lcm(vec)
    return ints, padic.pval(den, p)


def lattice_from_basis(p: int, vectors):
    """The lattice spanned by any spanning set (at least d vectors of rank d),
    canonicalised by `Lattice._hermite`."""
    padic.require_prime(p)
    vecs = [cleared(p, v) for v in vectors]
    if not vecs:
        raise StructuralError("no basis vectors")
    if any(len(c) != len(vecs[0][0]) for c, _ in vecs):
        raise StructuralError("basis vectors of unequal length")
    return padic.Lattice._hermite(p, vecs)


def contains_vector(lattice, vec) -> bool:
    """Whether the vector lies in the lattice, its entries read as the library reads them."""
    return lattice._solve(*cleared(lattice.p, vec)) is not None


def class_representative(lattice):
    """The lattice's class modulo p-power dilations, as its primitive scaling:
    the dilation that is integral but not contained in p.Z_p^d."""
    shift = min(padic.pval(x, lattice.p) for col in lattice.cols for x in col if x) - lattice.scale
    return lattice.dilate(-shift)


def is_adjacent(first, second) -> bool:
    """Building adjacency (Abramenko and Brown, GTM 248, ch. 6): some rescaling
    of one lies strictly between p.other and other."""
    ra, rb = class_representative(first), class_representative(second)
    if ra.p != rb.p or ra.dimension != rb.dimension:
        raise StructuralError("lattices live in different spaces")
    if ra == rb:
        return False
    d, gap, pa = ra.dimension, sum(ra.exponents) - sum(rb.exponents), ra.dilate(1)
    cands = map(rb.dilate, range(-(-gap // d), (gap + d) // d + 1))  # ceil(gap/d)..gap//d + 1
    return any(ra.contains_lattice(c) and c.contains_lattice(pa) for c in cands)


def basis_from_chain(chain) -> tuple[tuple[Fraction, ...], ...]:
    """The library's adapted basis of a maximal chain (`padic._adapted_basis`)
    as Fraction vectors: f_j over p^scale of the top lattice."""
    s = chain.top.p ** chain.top.scale
    return tuple(tuple(Fraction(x, s) for x in f) for f in padic._adapted_basis(chain))


def lattices_between(lattice):
    """All K with p.L <= K <= L, via subspaces of L/pL (endpoints included)."""
    subspaces = padic.enumerate_subspaces(lattice.p, lattice.dimension)
    return [padic._lift_subspace(lattice, s) for s in subspaces]


def min_exponent_with(p: int, q: Fraction, radius: Fraction) -> int:
    """Smallest v with q.p^(-v) <= radius (q, radius > 0), that is p^v >=
    num/den with num/den = q/radius, compared on integers."""
    num, den = q.numerator * radius.denominator, q.denominator * radius.numerator
    v = 0
    while p**v * den < num:
        v += 1
    while v <= 0 and den >= num * p ** (1 - v):
        v -= 1
    return v


def ball_of_radius(norm, radius):
    """The ball {z : N(z) <= R} around zero, as a lattice.

    In the frame coordinates the bound is coordinatewise: val((Az)_i) must
    be at least the smallest v_i with q_i p^(-v_i) <= R.
    """
    radius = as_fraction(radius)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    ks = [min_exponent_with(norm.p, qj, radius) for qj in norm.q]
    return padic.Lattice._hermite(norm.p, [(v, a - k) for (v, a), k in zip(norm.inverse_cols, ks)])


def check_norm_axioms(norm, span: int = 3) -> dict:
    """Exhaustively test nondegeneracy, scaling, and the strong triangle
    inequality over representatives (Z/p^span)^d.

    The pair loop compares precomputed value ranks (integers), so the
    exhaustive strong-triangle pass stays cheap.
    """
    p, d = norm.p, norm.dimension
    size = p**span
    points = list(product(range(size), repeat=d))
    violations: list[dict] = []
    if norm.eval((0,) * d) != 0:
        violations.append({"axiom": "nondegeneracy", "point": [0] * d})
    # Sums of two points lie in [0, 2*size-2]^d. Coded in radix 2*size-1
    # (the code of s is its index in the product order), code(x + y) is
    # code(x) + code(y), since no digit carries.
    radix = 2 * size - 1
    values = [norm.eval(s) for s in product(range(radix), repeat=d)]
    codes = [sum(c * radix ** (d - 1 - k) for k, c in enumerate(x)) for x in points]
    for x, code in zip(points, codes):
        if code == 0:
            continue
        vx = values[code]
        if vx <= 0:
            violations.append({"axiom": "nondegeneracy", "point": list(x)})
        if norm.eval(tuple(c * p for c in x)) != vx / p:
            violations.append({"axiom": "scaling", "point": list(x), "factor": p})
        if norm.eval(tuple(Fraction(c, p) for c in x)) != vx * p:
            violations.append({"axiom": "scaling", "point": list(x), "factor": f"1/{p}"})
        for unit in range(2, p):
            if norm.eval(tuple(c * unit for c in x)) != vx:
                violations.append({"axiom": "scaling", "point": list(x), "factor": unit})
    ranking = {val: i for i, val in enumerate(sorted(set(values)))}
    ranks = [ranking[v] for v in values]
    point_ranks = [ranks[c] for c in codes]
    n = len(points)
    for i in range(n):
        ci, ri = codes[i], point_ranks[i]
        for j in range(i, n):
            rj = point_ranks[j]
            if ranks[ci + codes[j]] > (ri if ri >= rj else rj):
                violations.append(
                    {"axiom": "strong_triangle", "x": list(points[i]), "y": list(points[j])}
                )
    return {
        "points_checked": n,
        "pairs_checked": n * (n + 1) // 2,
        "ok": not violations,
        "violations": violations[:20],
    }


# ---------------------------------------------------------------------------
# the chain -> norm -> ball chain round trip, decided by Hermite forms


def adapted_basis_by_hermite(chain):
    """The library's adapted basis f_j (`padic._adapted_residues`, lifted to
    integer vectors over the top's scale), re-verified by comparing the
    canonical form of Z_p f_1 + ... + Z_p f_j + p Z_p f_(j+1) + ... + p Z_p f_d
    with L_j for every j = 0..d."""
    top = chain.top
    p = top.p
    fs = [top._combine(w) for w in padic._adapted_residues(chain)[1]]
    for j in range(len(fs) + 1):
        vectors = [(f if i < j else [x * p for x in f], top.scale) for i, f in enumerate(fs)]
        if padic.Lattice._hermite(p, vectors) != chain.lattices[j]:
            raise AssertionError("adapted basis fails the chain decomposition")
    return fs


def norm_from_chain_by_hermite(chain, q):
    """The norm whose frame inverts `adapted_basis_by_hermite`, built from that
    frame (`padic.NormSpec(p, q, matrix)`), where `padic.norm_from_chain`
    builds it from the basis: F^-1 = Y / e, A = p^scale . Y / e."""
    top = chain.top
    qs = padic.norm_weights(top.p, top.dimension, q)
    inv, e = padic._inverse(list(zip(*adapted_basis_by_hermite(chain))))
    s = top.p**top.scale
    return padic.NormSpec(top.p, qs, tuple(tuple(Fraction(s * y, e) for y in row) for row in inv))


def ball_radius_by_hermite(norm, lattice):
    """Smallest R with ball(R) = L, or None when L is not an N-ball: R is the
    largest norm of L's basis, and ball(R) must have L's canonical form."""
    r = max(norm.eval(col) for col in lattice.cols) * lattice.p**lattice.scale
    return r if ball_of_radius(norm, r) == lattice else None


def intermediary_balls_by_hermite(norm, lattice):
    """ball(R/p) = p.L, the ball of each value q_i.p^(-k_i) in (R/p, R)
    (`ball_of_radius`, a Hermite form each), then L = ball(R); None when L
    is no ball, as in `padic.intermediary_balls`."""
    radius = ball_radius_by_hermite(norm, lattice)
    if radius is None:
        return None
    p = norm.p
    values = {qi * Fraction(p) ** -min_exponent_with(p, qi, radius) for qi in norm.q}
    radii = sorted(values - {radius} | {radius / p})
    return padic.LatticeChain((*(ball_of_radius(norm, r) for r in radii), lattice))


def round_trip_by_hermite(chain, q) -> bool:
    """Whether the ball chain of the chain's norm through its top is the
    chain, every lattice compared by its Hermite form; a top that is not a
    ball of the norm is a failed round trip, as in `verify_correspondence`,
    and so is a corrupted basis whose forms lose rank."""
    try:
        norm = norm_from_chain_by_hermite(chain, q)
    except StructuralError:
        return False
    balls = intermediary_balls_by_hermite(norm, chain.top)
    return balls is not None and balls.lattices == chain.lattices


def round_trip_disagreements(p: int, d: int, q) -> list[int]:
    """The indices of the chains through the standard lattice on which
    `verify_correspondence` and `round_trip_by_hermite` disagree; every round
    trip of the report must pass."""
    report = padic.verify_correspondence(p, d, q)
    chains = padic.maximal_chains(padic.Lattice.standard(p, d))
    assert report["all_passed"] and len(report["chains"]) == len(chains)
    return [
        idx
        for idx, (chain, entry) in enumerate(zip(chains, report["chains"]))
        if entry["round_trip_ok"] != round_trip_by_hermite(chain, q)
    ]

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusternets import (
    Lattice,
    LatticeChain,
    NormSpec,
    StructuralError,
    ball_network,
    enumerate_subspaces,
    flag_count,
    intermediary_balls,
    maximal_chains,
    network_dimension,
    norm_from_chain,
    verify_correspondence,
)
from clusternets import padic
from clusternets.padic import (
    default_weights,
    identity_matrix,
    norm_weights,
    pval,
    reordering_norms,
    require_prime,
)

import oracles

F = Fraction

Q22 = (F(3, 5), F(4, 5))
Q32 = (F(1, 2), F(2, 3))
Q23 = (F(5, 8), F(3, 4), F(7, 8))
CASES = [(2, 2, Q22), (3, 2, Q32), (2, 3, Q23)]


def diag_norm(p, q):
    return NormSpec(p, tuple(q), identity_matrix(len(q)))


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_require_prime_rejects_non_primes(p):
    with pytest.raises(StructuralError, match=f"p must be prime, got {p}"):
        require_prime(p)


class TestPrimality:
    def test_agrees_with_trial_division_below_10_5(self):
        def accepted(n):
            try:
                require_prime(n)
            except StructuralError:
                return False
            return True

        judge = oracles.is_prime_by_trial_division
        assert [n for n in range(-2, 10**5) if accepted(n) != judge(n)] == []

    @pytest.mark.parametrize(
        "n",
        [
            3825123056546413051,  # strong pseudoprime to the bases 2..23
            318665857834031151167461,  # strong pseudoprime to the bases 2..37
            (2**61 - 1) * 1000003,
        ],
    )
    def test_strong_pseudoprimes_to_the_first_bases_are_rejected(self, n):
        with pytest.raises(StructuralError, match=f"p must be prime, got {n}"):
            require_prime(n)

    @pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59, 2**80 - 65])
    def test_large_primes_below_the_bound_are_accepted(self, p):
        require_prime(p)

    @pytest.mark.parametrize("n", [padic._PRIME_BOUND, padic._PRIME_BOUND + 2, 2**89 - 1])
    def test_at_or_above_the_bound_is_refused_and_names_it(self, n):
        with pytest.raises(StructuralError, match=f"below {padic._PRIME_BOUND}.*got {n}"):
            require_prime(n)

    def test_small_bases_decide_without_a_power(self, monkeypatch):
        def no_test(n, a):
            raise AssertionError("Miller-Rabin round for a base prime")

        monkeypatch.setattr(padic, "_strong_probable_prime", no_test)
        for p in padic._PRIME_BASES:
            require_prime(p)


class TestWeightRule:
    def test_parses_literals(self):
        assert norm_weights(3, 2, ["1/2", 1]) == (F(1, 2), F(1))
        assert NormSpec(2, ("3/5", "4/5"), identity_matrix(2)).q == Q22

    @pytest.mark.parametrize(
        "p, d, q, message",
        [
            (4, 2, Q22, "p must be prime, got 4"),
            (2, 0, (), "dimension must be positive, got 0"),
            (2, 2, (F(3, 5),), "got 1 weights for dimension 2"),
            (2, 2, (F(1, 2), F(4, 5)), r"weight 1/2 outside \(1/2, 1\]"),
            (2, 2, (F(3, 5), F(5, 4)), r"weight 5/4 outside \(1/2, 1\]"),
            (2, 2, ("3/5", "x"), "bad rational literal 'x'"),
        ],
    )
    def test_faults(self, p, d, q, message):
        with pytest.raises(StructuralError, match=message):
            norm_weights(p, d, q)


STD22 = Lattice.standard(2, 2)


def _chain22():
    return maximal_chains(STD22)[0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: norm_from_chain(_chain22(), (F(3, 5),)), "got 1 weights for dimension 2"),
        (lambda: norm_from_chain(_chain22(), Q22[::-1]), "strictly increase; try 3/5,4/5$"),
        (lambda: norm_from_chain(_chain22(), (F(4, 5),) * 2), "strictly increase$"),
        (lambda: verify_correspondence(2, 3, Q22), "got 2 weights for dimension 3"),
        (lambda: verify_correspondence(2, 2, Q22[::-1]), "strictly increase; try 3/5,4/5$"),
        (lambda: ball_network(2, 3, Q22, window=1), "got 2 weights for dimension 3"),
        (lambda: ball_network(2, 2, Q22, window=0), "window must be at least 1, got 0"),
        (lambda: oracles.lattice_from_basis(2, []), "^no basis vectors$"),
        (
            lambda: oracles.lattice_from_basis(2, [(1, 0), (1,)]),
            "^basis vectors of unequal length$",
        ),
        (lambda: LatticeChain((STD22,)), "^chain needs at least two lattices$"),
        (
            lambda: LatticeChain((STD22.dilate(2), STD22.dilate(1), STD22)),
            r"^chain must run from p\.L up to L$",
        ),
        (
            lambda: oracles.is_adjacent(STD22, Lattice.standard(3, 2)),
            "^lattices live in different spaces$",
        ),
        (
            lambda: oracles.is_adjacent(STD22, Lattice.standard(2, 3)),
            "^lattices live in different spaces$",
        ),
        (
            lambda: NormSpec(2, Q22, identity_matrix(3)),
            "^frame matrix shape does not match weights$",
        ),
        (
            lambda: NormSpec(2, Q22, ((1, 0), (0,))),
            "^frame matrix shape does not match weights$",
        ),
    ],
    ids=[
        "norm_from_chain-count",
        "norm_from_chain-unsorted",
        "norm_from_chain-repeated",
        "verify_correspondence-count",
        "verify_correspondence-unsorted",
        "ball_network-count",
        "ball_network-window",
        "from_basis-empty",
        "from_basis-ragged",
        "chain-one-lattice",
        "chain-not-from-pL",
        "is_adjacent-other-p",
        "is_adjacent-other-d",
        "frame-rows",
        "frame-ragged",
    ],
)
def test_padic_argument_faults_raise_structural_error(call, message):
    with pytest.raises(StructuralError, match=message):
        call()


def test_valuation_of_zero_is_refused():
    with pytest.raises(ValueError, match="^valuation of zero is undefined$"):
        pval(F(0), 2)


def test_a_norm_equals_no_other_type():
    norm = diag_norm(2, Q22)
    assert norm.__eq__(Q22) is NotImplemented
    assert norm != Q22 and norm == diag_norm(2, Q22)


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "refusing bool value True"),
        (0.5, "refusing float value 0.5"),
        (1e-300, "refusing float value 1e-300"),
        ("abc", "bad rational literal 'abc'"),
    ],
    ids=["bool", "float", "tiny-float", "bad-string"],
)
def test_frame_and_basis_entries_follow_the_literal_rule(entry, message):
    calls = (
        lambda: NormSpec(2, Q22, ((entry, 0), (0, 1))),
        lambda: oracles.lattice_from_basis(2, [(entry, 0), (0, 1)]),
        lambda: oracles.contains_vector(Lattice.standard(2, 2), (entry, 0)),
    )
    for call in calls:
        with pytest.raises(StructuralError, match=message):
            call()


@pytest.mark.parametrize(
    "entry, twin, message",
    [
        (True, 1, "refusing bool value True"),
        (0.5, F(1, 2), "refusing float value 0.5"),
        (1e-300, F(1e-300), "refusing float value 1e-300"),
        ("abc", 0, "bad rational literal 'abc'"),
    ],
    ids=["bool", "float", "tiny-float", "bad-string"],
)
def test_points_follow_the_literal_rule_with_the_memo_cold_and_warm(entry, twin, message):
    # twin == entry where it can be, so a memo warmed with twin holds the key
    # that the refused point would read
    norm = diag_norm(2, Q22)
    calls = (
        lambda: norm.eval((entry, 0)),
        lambda: norm.distance((entry, 0), (0, 0)),
        lambda: norm.distance((0, 0), (0, entry)),
    )
    for memo in ("cold", "warm"):
        for call in calls:
            with pytest.raises(StructuralError, match=message):
                call()
        assert norm.distance((twin, 0), (0, 0)) == norm.eval((twin, 0))
        assert norm.distance((0, 0), (0, twin)) == norm.eval((0, -twin))


def test_points_of_the_wrong_length_are_refused_with_the_memo_cold_and_warm():
    norm = diag_norm(2, Q22)
    calls = (
        (lambda: norm.eval((1,)), "point of length 1 for dimension 2"),
        (lambda: norm.eval((0, 1, 7)), "point of length 3 for dimension 2"),
        (lambda: norm.distance((1, 0, 5), (0, 0)), "points of length 3 and 2 for dimension 2"),
        (lambda: norm.distance((1, 0), (0, 0, 0)), "points of length 2 and 3 for dimension 2"),
        (lambda: norm.distance((1,), (0,)), "points of length 1 and 1 for dimension 2"),
    )
    for memo in ("cold", "warm"):
        for call, message in calls:
            with pytest.raises(StructuralError, match=message):
                call()
        # warm the keys that a truncated point would read: (1, 0), (1,) and (0, 1)
        assert norm.distance((1, 0), (0, 0)) == F(3, 5)
        assert norm.distance((0, 1), (0, 0)) == F(4, 5)


def test_string_entries_are_read_as_rationals():
    assert NormSpec(2, Q22, (("1/2", 0), (0, 1))).rows == ((1, 0), (0, 2))
    half = oracles.lattice_from_basis(2, [(F(1, 2), 0), (0, 1)])
    assert oracles.lattice_from_basis(2, [("1/2", 0), (0, "1")]) == half
    assert oracles.contains_vector(Lattice.standard(2, 2), ("2/3", 0))
    assert not oracles.contains_vector(Lattice.standard(2, 2), ("1/2", 0))
    norm = diag_norm(2, Q22)
    want = oracles.norm_by_definition(norm, (F(1, 2), -1))
    for memo in ("cold", "warm"):
        assert norm.eval(("1/2", "-1")) == want
        assert norm.distance(("1/2", 0), (0, "1")) == want


small_fractions = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=9)


class TestNormEval:
    def test_unit_vector_unit_weights(self):
        n = NormSpec(2, (F(1), F(1)), identity_matrix(2))
        assert n.eval((1, 0)) == 1

    def test_weighted_example(self):
        assert diag_norm(2, Q22).eval((2, 1)) == F(4, 5)

    def test_zero_iff_zero(self):
        n = diag_norm(2, Q22)
        assert n.eval((0, 0)) == 0
        assert n.eval((0, 4)) > 0

    @given(st.tuples(small_fractions, small_fractions))
    @settings(max_examples=60, deadline=None)
    def test_scaling_by_p(self, z):
        n = diag_norm(2, Q22)
        assert n.eval(tuple(2 * x for x in z)) == n.eval(z) / 2

    def test_weights_outside_window_rejected(self):
        with pytest.raises(StructuralError, match="outside"):
            NormSpec(2, (F(1, 3), F(4, 5)), identity_matrix(2))

    def test_singular_frame_rejected(self):
        with pytest.raises(StructuralError, match="singular"):
            NormSpec(2, Q22, ((F(1), F(1)), (F(1), F(1))))


def oracle_frames(p, d):
    """The identity, two chain frames, the identity over p, and a
    non-diagonal integer frame."""
    chains = maximal_chains(Lattice.standard(p, d))
    chain_frames = [norm_from_chain(c, default_weights(p, d)).matrix for c in chains[::7][:2]]
    mixed = tuple(
        tuple(F(i + 2 * j + 1) if j >= i else F(p * (i - j)) for j in range(d))
        for i in range(d)
    )
    over_p = tuple(tuple(x / p for x in row) for row in identity_matrix(d))
    return [identity_matrix(d), *chain_frames, over_p, mixed]


def oracle_point(rng, p, d):
    kinds = (
        lambda: rng.randint(0, 40),
        lambda: -rng.randint(1, 40),
        lambda: F(rng.randint(-40, 40), rng.choice((1, 3, 5, 7))),
        lambda: F(rng.randint(-40, 40), p ** rng.randint(1, 3) * rng.choice((1, 3))),
    )
    return tuple(rng.choice(kinds)() for _ in range(d))


class TestNormKernelAgainstDefinition:
    @pytest.mark.parametrize("p, d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_eval_and_distance_match_definition(self, p, d):
        rng = random.Random(1000 * p + d)
        distinct = default_weights(p, d)
        repeated = (distinct[0],) * (d - 1) + (distinct[-1],)
        for frame in oracle_frames(p, d):
            for q in (distinct, repeated, distinct[::-1]):
                norm = NormSpec(p, q, frame)
                assert norm.eval((0,) * d) == oracles.norm_by_definition(norm, (0,) * d) == 0
                for _ in range(40):
                    x, y = oracle_point(rng, p, d), oracle_point(rng, p, d)
                    want = oracles.norm_by_definition(norm, x)
                    assert norm.eval(x) == want, (frame, q, x)
                    diff = tuple(F(a) - F(b) for a, b in zip(x, y))
                    assert norm.distance(x, y) == norm.eval(diff)
                    assert norm.distance(x, y) == oracles.norm_by_definition(norm, diff)
                    assert norm.distance(x, x) == 0

    def test_frame_kept_as_integer_rows(self):
        norm = NormSpec(2, Q22, ((F(1), F(1, 2)), (F(3, 4), F(1))))
        assert norm.rows == ((4, 2), (3, 4)) and norm.shift == 2
        assert norm.distance((5, -3), (1, 1)) == oracles.norm_by_definition(norm, (4, -4))

    def test_inverse_columns_are_the_frame_inverse_up_to_units(self):
        for p, d in ((2, 2), (3, 2), (2, 3)):
            for frame in oracle_frames(p, d):
                norm = NormSpec(p, default_weights(p, d), frame)
                want = oracles.inverse_by_definition(frame)
                for j, (v, a) in enumerate(norm.inverse_cols):
                    # V_j / p^a = u . (column j of A^-1), u a p-adic unit
                    assert [x == 0 for x in v] == [w[j] == 0 for w in want], (frame, j)
                    ratios = {x / F(p) ** a / w[j] for x, w in zip(v, want) if x}
                    assert len(ratios) == 1 and pval(ratios.pop(), p) == 0, (frame, j)

    def test_each_construction_inverts_once_on_ints(self, monkeypatch):
        calls = []
        invert = padic._inverse

        def counted(rows):
            calls.append(rows)
            return invert(rows)

        monkeypatch.setattr(padic, "_inverse", counted)
        for frame in (identity_matrix(2), ((F(1), F(1, 2)), (F(3, 4), F(1)))):
            calls.clear()
            norm = NormSpec(2, Q22, frame)
            assert calls == [norm.rows]
        chain = maximal_chains(Lattice.standard(2, 3))[5]
        calls.clear()
        norm = norm_from_chain(chain, Q23)
        assert calls == []  # the chain's norm holds its basis, not its frame
        fs = oracles.basis_from_chain(chain)
        frame = tuple(tuple(f[i] for f in fs) for i in range(3))
        assert [v for v, _ in norm.inverse_cols] == list(zip(*frame)) and calls == []
        assert norm.matrix == oracles.inverse_by_definition(frame)
        # the integer adapted basis (scale 0 on the standard lattice), once, when the frame is read
        assert [tuple(map(tuple, rows)) for rows in calls] == [frame]
        assert all(type(x) is int for rows in calls for row in rows for x in row)
        assert norm.rows and norm.shift == 0 and norm.eval((1, 0, 0)) and len(calls) == 1


class TestChainNormFrame:
    """A chain's norm is built from its adapted basis; its frame is derived by
    one `_inverse` when first read, and equals the frame-built norm's."""

    READS = (  # each, read first, derives the frame
        lambda got, want: repr(got) == repr(want),
        lambda got, want: hash(got) == hash(want),
        lambda got, want: got == want,
        lambda got, want: got.matrix == want.matrix,
        lambda got, want: got.eval((1,) * want.dimension) == want.eval((1,) * want.dimension),
        lambda got, want: got.distance((3,) * want.dimension, (1,) * want.dimension)
        == want.eval((2,) * want.dimension),
    )

    @pytest.mark.parametrize("p, d, q", [(2, 3, Q23), (3, 2, Q32)], ids=["2-3", "3-2"])
    def test_frame_once_read_is_the_frame_built_norm(self, monkeypatch, p, d, q):
        calls = []
        invert = padic._inverse

        def counted(rows):
            calls.append(rows)
            return invert(rows)

        monkeypatch.setattr(padic, "_inverse", counted)
        std, reads, chains = Lattice.standard(p, d), self.READS, 0
        for top in (std, std.dilate(-1)):  # scale 0, then scale 1
            for k, chain in enumerate(maximal_chains(top)):
                want = oracles.norm_from_chain_by_hermite(chain, q)  # p^scale.Y/e, from its frame
                calls.clear()
                got = norm_from_chain(chain, q)
                assert calls == [] and [a for _, a in got.inverse_cols] == [top.scale] * d
                assert reads[k % len(reads)](got, want) and len(calls) == 1, k
                assert got.matrix == want.matrix and got.rows == want.rows
                assert got.shift == want.shift and got.q == want.q
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
                assert all(read(got, want) for read in reads) and len(calls) == 1, k
                # the basis columns over p^scale are A^-1, exactly
                inverse = oracles.inverse_by_definition(got.matrix)
                assert [[F(x, p**a) for x in v] for v, a in got.inverse_cols] == [
                    list(col) for col in zip(*inverse)
                ]
                chains += 1
        assert chains == 2 * flag_count(p, d)
        with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
            got.p = 3  # norms are immutable, as their hash needs


class TestBallOfRadius:
    def test_unit_weights_radius_one_standard(self):
        n = NormSpec(3, (F(1), F(1)), identity_matrix(2))
        assert oracles.ball_of_radius(n, 1) == Lattice.standard(3, 2)

    def test_intermediate_ball(self):
        got = oracles.ball_of_radius(diag_norm(2, Q22), F(3, 5))
        assert got == oracles.lattice_from_basis(2, [(1, 0), (0, 2)])

    def test_radius_scaled_by_inverse_p_dilates(self):
        n = diag_norm(2, Q22)
        for r in (F(4, 5), F(3, 5), F(7, 10)):
            assert oracles.ball_of_radius(n, r / 2) == oracles.ball_of_radius(n, r).dilate(1)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            oracles.ball_of_radius(diag_norm(2, Q22), 0)

    def test_balls_never_invert_the_frame(self, monkeypatch):
        chain = maximal_chains(Lattice.standard(2, 3))[5]
        norms = [NormSpec(2, Q22, ((F(1), F(1)), (F(0), F(1)))), norm_from_chain(chain, Q23)]

        def no_inverse(rows):
            raise AssertionError("frame inverted again")

        monkeypatch.setattr(padic, "_inverse", no_inverse)
        assert oracles.contains_vector(oracles.ball_of_radius(norms[0], F(4, 5)), (0, 1))
        assert intermediary_balls(norms[1], chain.top) == chain


class TestIntermediaryBalls:
    def test_generic_chain_d2(self):
        chain = intermediary_balls(diag_norm(2, Q22), Lattice.standard(2, 2))
        assert [lat.exponents for lat in chain.lattices] == [(1, 1), (0, 1), (0, 0)]

    def test_equal_weights_shorten_chain(self):
        n = NormSpec(2, (F(4, 5), F(4, 5)), identity_matrix(2))
        chain = intermediary_balls(n, Lattice.standard(2, 2))
        assert len(chain.lattices) == 2

    def test_generic_chain_d3_has_four_balls(self):
        chain = intermediary_balls(diag_norm(2, Q23), Lattice.standard(2, 3))
        assert len(chain.lattices) == 4
        assert [lat.exponents for lat in chain.lattices] == [
            (1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0),
        ]

    def test_lattice_of_another_dimension_rejected(self):
        for d in (1, 3):
            with pytest.raises(StructuralError, match=f"lattice in dimension {d}, norm in 2"):
                intermediary_balls(diag_norm(2, Q22), Lattice.standard(2, d))

    def test_non_ball_rejected(self):
        skew = oracles.lattice_from_basis(2, [(1, 1), (0, 4)])
        with pytest.raises(ValueError, match="not a ball"):
            intermediary_balls(diag_norm(2, Q22), skew)

    def test_chain_of_dilated_lattice_is_dilated_chain(self):
        n = diag_norm(2, Q22)
        base = intermediary_balls(n, Lattice.standard(2, 2))
        for k in (-2, 1, 3):
            shifted = intermediary_balls(n, Lattice.standard(2, 2).dilate(k))
            assert shifted.lattices == tuple(l.dilate(k) for l in base.lattices)

    def test_chain_of_rotated_norm_ball(self):
        frame = ((F(1), F(1)), (F(0), F(1)))
        n = NormSpec(2, Q22, frame)
        top = oracles.ball_of_radius(n, F(4, 5))
        chain = intermediary_balls(n, top)
        assert len(chain.lattices) == 3
        assert chain.lattices[0] == top.dilate(1)

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_chain_matches_definition(self, p, d):
        # the chain is every N-ball K with p.L <= K <= L, smallest first
        rng = random.Random(100 * p + d)
        chain_frame = norm_from_chain(
            rng.choice(maximal_chains(Lattice.standard(p, d))), default_weights(p, d)
        ).matrix
        for _ in range(6):
            dens = [rng.randint(2, 30) for _ in range(d)]
            pool = [F(rng.randint(den // p + 1, den), den) for den in dens]
            q = tuple(rng.choice(pool) for _ in range(d))
            radius = F(rng.randint(1, 20), rng.randint(1, 20))
            for frame in (identity_matrix(d), chain_frame):
                norm = NormSpec(p, q, frame)
                top = oracles.ball_of_radius(norm, radius)
                balls = [
                    k for k in oracles.lattices_between(top)
                    if oracles.ball_radius_by_hermite(norm, k) is not None
                ]
                balls.sort(key=lambda k: sum(k.exponents), reverse=True)
                assert intermediary_balls(norm, top).lattices == tuple(balls), (q, frame)


class TestLatticeCanonicalForm:
    def test_gamma_invariance(self):
        lat = oracles.lattice_from_basis(2, [(2, 1), (0, 2)])
        for k in (-2, -1, 1, 3):
            assert oracles.class_representative(lat.dilate(k)) == oracles.class_representative(lat)

    def test_class_representative_is_primitive(self):
        lat = oracles.lattice_from_basis(3, [(9, 0), (0, 27)])
        rep = oracles.class_representative(lat)
        vals = [pval(x, 3) for col in oracles.lattice_basis(rep) for x in col if x != 0]
        assert min(vals) == 0

    def test_dilation_shifts_exponents(self):
        lat = Lattice.standard(5, 2)
        assert lat.dilate(2).exponents == (2, 2)

    def test_recombined_basis_same_canonical_form(self):
        rng = random.Random(7)
        for p in (2, 3):
            for _ in range(25):
                d = rng.choice((2, 3))
                while True:
                    cols = [
                        tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d)
                    ]
                    try:
                        lat = oracles.lattice_from_basis(p, cols)
                        break
                    except StructuralError:
                        continue
                mixed = [list(c) for c in cols]
                for _ in range(6):
                    i, j = rng.randrange(d), rng.randrange(d)
                    if i != j:
                        f = rng.randint(-3, 3)
                        mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
                unit = rng.choice([u for u in range(1, 8) if u % p])
                mixed[0] = [unit * x for x in mixed[0]]
                assert oracles.lattice_from_basis(p, mixed) == lat

    def test_membership(self):
        lat = oracles.lattice_from_basis(2, [(1, 1), (0, 2)])
        assert oracles.contains_vector(lat, (1, 1))
        assert oracles.contains_vector(lat, (1, 3))
        assert not oracles.contains_vector(lat, (0, 1))
        assert not oracles.contains_vector(lat, (F(1, 2), 0))


def hermite_entry(rng, p):
    """An int (often negative), a Fraction over a p-power or over a
    denominator coprime to p, or the str of a Fraction."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-30, 30)
    if kind == 1:
        return -p * rng.randint(1, 9)
    if kind == 2:
        return F(rng.randint(-30, 30), p ** rng.randint(1, 3))
    if kind == 3:
        return F(rng.randint(-30, 30), rng.choice([u for u in range(2, 12) if u % p]))
    return str(F(rng.randint(-30, 30), rng.choice((1, p, p * p, 7))))


def hermite_input(rng, p, d):
    """d to d+2 vectors; about one input in six spans too little."""
    vectors = [
        [hermite_entry(rng, p) for _ in range(d)] for _ in range(d + rng.randint(0, 2))
    ]
    if rng.randrange(6) == 0:
        drop = rng.randrange(d)
        for v in vectors:
            v[drop] = 0
    return vectors


class TestHermiteAgainstDefinition:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_canonical_form_dilation_and_membership(self, p):
        rng = random.Random(31 * p)
        outcomes = {"deficient": 0, True: 0, False: 0}
        for d in range(1, 5):
            previous = None
            for _ in range(20):
                vectors = hermite_input(rng, p, d)
                try:
                    basis, exps = oracles.hermite_by_definition(p, vectors)
                except StructuralError:
                    with pytest.raises(StructuralError, match="full-rank"):
                        oracles.lattice_from_basis(p, vectors)
                    outcomes["deficient"] += 1
                    continue
                lat = oracles.lattice_from_basis(p, vectors)
                assert (oracles.lattice_basis(lat), lat.exponents) == (basis, exps), vectors
                assert lat.describe() == {
                    "diag_exponents": list(exps),
                    "basis_columns": [[str(x) for x in col] for col in basis],
                }
                assert oracles.lattice_from_basis(p, basis) == lat
                for k in range(-3, 4):
                    scaled = [[x * F(p) ** k for x in col] for col in basis]
                    got = lat.dilate(k)
                    want = oracles.hermite_by_definition(p, scaled)
                    assert (oracles.lattice_basis(got), got.exponents) == want
                    rebuilt = oracles.lattice_from_basis(p, scaled)
                    assert got == rebuilt and hash(got) == hash(rebuilt)
                for _ in range(8):
                    coeffs = [F(rng.randint(-9, 9), rng.choice((1, 1, p, 3 * p + 1))) for _ in basis]
                    vec = [sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(d)]
                    vec = [str(x) if rng.randrange(3) == 0 else x for x in vec]
                    member = oracles.member_by_definition(p, basis, vec)
                    assert oracles.contains_vector(lat, vec) == member, (vectors, vec)
                    outcomes[member] += 1
                for other in (previous, lat.dilate(1), lat.dilate(-1)):
                    if other is not None:
                        want = all(
                            oracles.member_by_definition(p, basis, c)
                            for c in oracles.lattice_basis(other)
                        )
                        assert lat.contains_lattice(other) == want
                previous = lat
        assert min(outcomes.values()) > 0, outcomes

    def test_class_shift_matches_fraction_definition(self):
        rng = random.Random(53)
        checked = 0
        for p in (2, 3, 5):
            for _ in range(30):
                d = rng.randint(1, 4)
                try:
                    lat = oracles.lattice_from_basis(p, hermite_input(rng, p, d))
                except StructuralError:
                    continue
                for k in (-3, -1, 0, 1, 2):
                    scaled = lat.dilate(k)
                    cols = oracles.lattice_basis(scaled)
                    shift = min(pval(x, p) for col in cols for x in col if x != 0)
                    rep = oracles.class_representative(scaled)
                    assert rep == scaled.dilate(-shift) == oracles.class_representative(lat)
                    cols = oracles.lattice_basis(rep)
                    assert min(pval(x, p) for col in cols for x in col if x != 0) == 0
                    checked += 1
        assert checked > 300


def point_set(p, d, rows):
    """The points of the span of echelon rows in F_p^d, over every coefficient vector."""
    return frozenset(
        tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(d))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    )


class TestOncePerRun:
    @pytest.mark.parametrize(
        "p, d, q, pairs", [(2, 3, Q23, 35), (2, 4, (F(9, 16), F(5, 8), F(3, 4), F(7, 8)), 240)]
    )
    def test_each_cover_pair_is_decided_once(self, monkeypatch, p, d, q, pairs):
        decided = []
        contains = Lattice.contains_lattice

        def counted(big, small):
            decided.append((small, big))
            return contains(big, small)

        monkeypatch.setattr(Lattice, "contains_lattice", counted)
        report = verify_correspondence(p, d, q)
        assert report["all_passed"] and report["chain_count"] == flag_count(p, d)
        assert len(decided) == len(set(decided)) == pairs

    def test_each_lattice_is_described_once(self, monkeypatch):
        """315 chains at (2,4) hold 67 distinct lattices, and every chain
        holding a lattice holds that lattice's one dict."""
        described = []
        describe = Lattice.describe

        def counted(lat):
            described.append(lat)
            return describe(lat)

        monkeypatch.setattr(Lattice, "describe", counted)
        report = verify_correspondence(2, 4, (F(9, 16), F(5, 8), F(3, 4), F(7, 8)))
        assert len(described) == len(set(described)) == 67
        dict_of: dict[Lattice, int] = {}
        for chain, entry in zip(maximal_chains(Lattice.standard(2, 4)), report["chains"]):
            for lat, desc in zip(chain.lattices, entry["lattices"]):
                assert dict_of.setdefault(lat, id(desc)) == id(desc)
        assert len(dict_of) == 67

    def test_bad_chains_are_refused_after_a_run(self):
        verify_correspondence(2, 3, Q23)  # every cover pair at (2, 3) is now decided
        std = Lattice.standard(2, 3)
        chains = maximal_chains(std)
        bottom, line, plane, _ = chains[0].lattices
        other = next(c.lattices[2] for c in chains if not c.lattices[2].contains_lattice(line))
        for lattices in [
            (bottom, line, line, plane, std),  # not increasing
            (bottom, plane, line, std),  # decreasing
            (bottom, line, other, std),  # not contained
        ]:
            with pytest.raises(StructuralError, match="chain lattices must strictly increase"):
                LatticeChain(lattices)


class TestCounting:
    @pytest.mark.parametrize("p,d,strict", [(2, 2, 3), (3, 2, 4), (2, 3, 14)])
    def test_lattices_between_counts(self, p, d, strict):
        lats = oracles.lattices_between(Lattice.standard(p, d))
        lat = Lattice.standard(p, d)
        strictly = [k for k in lats if k != lat and k != lat.dilate(1)]
        assert len(strictly) == strict
        assert len(lats) == strict + 2

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (2, 3)])
    def test_subspace_enumeration_matches_brute_force(self, p, d):
        ours = enumerate_subspaces(p, d)
        brute = oracles.brute_force_subspaces(p, d)
        assert len(ours) == len(brute)
        assert {point_set(p, d, rows) for rows in ours} == set(brute)
        for k in range(d + 1):
            assert sum(1 for rows in ours if len(rows) == k) == oracles.gaussian_binomial(d, k, p)

    @pytest.mark.parametrize("p,d,count", [(2, 2, 3), (3, 2, 4), (2, 3, 21)])
    def test_maximal_chain_counts(self, p, d, count):
        chains = maximal_chains(Lattice.standard(p, d))
        assert len(chains) == count
        assert len(chains) == flag_count(p, d)
        assert len(chains) == oracles.brute_force_flag_chains(p, d)
        assert len({tuple(c.lattices) for c in chains}) == count

    @pytest.mark.parametrize("p,d", [(2, 1), (5, 2), (2, 3), (3, 3), (2, 4)])
    def test_flags_are_every_nested_chain_in_enumeration_order(self, p, d):
        """Every chain of brute-force subspaces of dimensions 1 .. d-1, in
        lexicographic order of enumeration index, lifted, is the chain list."""
        std = Lattice.standard(p, d)
        subspaces = enumerate_subspaces(p, d)
        index = {point_set(p, d, rows): i for i, rows in enumerate(subspaces)}
        spaces = oracles.brute_force_subspaces(p, d)
        flags = [()]
        for k in range(1, d):
            level = [s for s in spaces if len(s) == p**k]
            flags = [f + (s,) for f in flags for s in level if not f or f[-1] < s]
        assert len(flags) == flag_count(p, d)
        keys = sorted(tuple(index[s] for s in flag) for flag in flags)
        expected = [
            (std.dilate(1), *(padic._lift_subspace(std, subspaces[i]) for i in key), std)
            for key in keys
        ]
        assert [c.lattices for c in maximal_chains(std)] == expected

    def test_each_subspace_lifted_once(self, monkeypatch):
        lifts = []
        lift = padic._lift_subspace

        def counted(lattice, sub):
            lifts.append(sub)
            return lift(lattice, sub)

        monkeypatch.setattr(padic, "_lift_subspace", counted)
        assert len(maximal_chains(Lattice.standard(2, 4))) == 315
        # the ends of every flag, 0 and F_2^4, are p.L and L: only the 65 between are lifted
        inner = {s for s in enumerate_subspaces(2, 4) if 0 < len(s) < 4}
        assert len(lifts) == len(set(lifts)) == len(inner) == 65 and set(lifts) == inner

    def test_chains_are_strict_and_wrap_one_dilation(self):
        for chain in maximal_chains(Lattice.standard(2, 3)):
            assert chain.is_maximal()
            assert chain.lattices[0] == chain.lattices[-1].dilate(1)

    def test_lattices_between_are_distinct_and_nested(self):
        std = Lattice.standard(2, 3)
        lats = oracles.lattices_between(std)
        assert len(set(lats)) == len(lats)
        dilated = std.dilate(1)
        for k in lats:
            assert std.contains_lattice(k) and k.contains_lattice(dilated)


class TestAdjacency:
    def test_intermediaries_are_adjacent(self):
        std = Lattice.standard(2, 2)
        for k in oracles.lattices_between(std):
            if k != std and k != std.dilate(1):
                assert oracles.is_adjacent(std, k)
                assert oracles.is_adjacent(k, std)

    def test_self_not_adjacent(self):
        std = Lattice.standard(2, 2)
        assert not oracles.is_adjacent(std, std)
        assert not oracles.is_adjacent(std, std.dilate(5))

    def test_rescaled_intermediary_still_adjacent(self):
        std = Lattice.standard(2, 2)
        mid = oracles.lattice_from_basis(2, [(1, 0), (0, 2)])
        assert oracles.is_adjacent(std, mid.dilate(2))
        assert oracles.is_adjacent(mid.dilate(-3), std)

    def test_distant_lattice_not_adjacent(self):
        std = Lattice.standard(2, 2)
        far = oracles.lattice_from_basis(2, [(1, 0), (0, 4)])
        assert not oracles.is_adjacent(std, far)


def mat_vec(m, v):
    return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in m)


def independent_decomposition_check(chain, fs):
    """Check the adapted-basis property by direct coordinate solving."""
    top = chain.top
    p, d = top.p, top.dimension
    frame = tuple(tuple(fs[j][i] for j in range(d)) for i in range(d))
    inv = oracles.inverse_by_definition(frame)
    for j, lat in enumerate(chain.lattices):
        for i, f in enumerate(fs):
            coords = mat_vec(inv, f)  # unit vector e_i
            assert [x != 0 for x in coords] == [t == i for t in range(d)]
            needed = 0 if i < j else 1
            scaled = tuple(x * p**needed for x in f)
            assert oracles.contains_vector(lat, scaled), (j, i)
        for col in oracles.lattice_basis(lat):
            coords = mat_vec(inv, col)
            for i, c in enumerate(coords):
                want = 0 if i < j else 1
                assert c == 0 or pval(c, p) >= want


class TestBasisFromChain:
    def test_standard_chain_coordinates(self):
        std = Lattice.standard(2, 2)
        mid = oracles.lattice_from_basis(2, [(1, 0), (0, 2)])
        chain = LatticeChain((std.dilate(1), mid, std))
        fs = oracles.basis_from_chain(chain)
        assert fs == ((F(1), F(0)), (F(0), F(1)))

    def test_diagonal_line_chain_picks_the_line(self):
        std = Lattice.standard(2, 2)
        diag = oracles.lattice_from_basis(2, [(1, 1), (0, 2)])
        chain = LatticeChain((std.dilate(1), diag, std))
        fs = oracles.basis_from_chain(chain)
        assert fs[0] == (F(1), F(1))

    def test_determinant_valuation_oracle(self):
        for p, d, _ in CASES:
            lat = Lattice.standard(p, d)
            for chain in maximal_chains(lat):
                fs = oracles.basis_from_chain(chain)
                frame = [[fs[j][i] for j in range(d)] for i in range(d)]
                det = _det(frame)
                assert det != 0
                assert pval(det, p) == sum(lat.exponents)

    @pytest.mark.parametrize("p,d,q", CASES)
    def test_decomposition_all_chains(self, p, d, q):
        for chain in maximal_chains(Lattice.standard(p, d)):
            independent_decomposition_check(chain, oracles.basis_from_chain(chain))

    def test_permuted_coordinates_give_permuted_basis(self):
        std = Lattice.standard(2, 2)
        first = LatticeChain(
            (std.dilate(1), oracles.lattice_from_basis(2, [(1, 0), (0, 2)]), std)
        )
        second = LatticeChain(
            (std.dilate(1), oracles.lattice_from_basis(2, [(0, 1), (2, 0)]), std)
        )
        fs1 = oracles.basis_from_chain(first)
        fs2 = oracles.basis_from_chain(second)
        swap = tuple(tuple(reversed(f)) for f in fs1)
        assert fs2 == swap

    def test_non_maximal_chain_rejected(self):
        std = Lattice.standard(2, 2)
        with pytest.raises(ValueError, match="not maximal"):
            oracles.basis_from_chain(LatticeChain((std.dilate(1), std)))


class TestAdaptedBasisAgainstDefinition:
    @pytest.mark.parametrize("p,d", [(p, d) for p, d, _ in CASES] + [(2, 4)])
    def test_every_chain_through_the_standard_lattice(self, p, d):
        chains = maximal_chains(Lattice.standard(p, d))
        assert len(chains) == flag_count(p, d)
        for chain in chains:
            assert oracles.basis_from_chain(chain) == oracles.adapted_basis_by_definition(chain)

    @pytest.mark.parametrize(
        "p,vectors,scale",
        [
            (3, [(1, 2, 5), (0, 3, 1), (0, 0, 9)], 0),
            (2, [(F(1, 2), F(1, 4), 0), (0, 1, F(3, 2)), (0, 0, 2)], 2),
        ],
        ids=["non_diagonal_top", "top_with_scale"],
    )
    def test_chains_through_other_tops(self, p, vectors, scale):
        top = oracles.lattice_from_basis(p, vectors)
        assert top.scale == scale and any(x for col in top.cols for x in col[1:] if x)
        chains = maximal_chains(top)
        assert len(chains) == flag_count(p, 3)
        for chain in chains:
            assert oracles.basis_from_chain(chain) == oracles.adapted_basis_by_definition(chain)


def random_square(rng, d, kind):
    """A d x d matrix of one kind: "int" entries, "rational" entries,
    "zero_lead" (every leading entry but the last row's is zero, so the
    first pivots come from lower rows), or "singular" (one row a rational
    combination of the others, or a zero column)."""
    if kind == "int":
        return [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
    m = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d)] for _ in range(d)]
    if kind == "zero_lead":
        for t in range(d - 1):
            m[t][0] = 0
            if t + 1 < d - 1:
                m[t][1] = 0
        m[d - 1][0] = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    elif kind == "singular":
        if d == 1 or rng.randrange(3) == 0:
            col = rng.randrange(d)
            for row in m:
                row[col] = 0
        else:
            i = rng.randrange(d)
            j, k = (rng.choice([t for t in range(d) if t != i]) for _ in range(2))
            a, b = F(rng.randint(-4, 4), rng.randint(1, 5)), F(rng.randint(-4, 4), 3)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def inverse_over_q(m):
    """m^-1 through `padic._inverse`: each row cleared to ints over its lcm
    denominator (m = D^-1 M), then m^-1 = M^-1 D = Y D / e."""
    rows, dens = zip(*map(padic._over_lcm, m))
    inv, e = padic._inverse(rows)
    assert e > 0 and all(type(y) is int for row in inv for y in row), m
    return tuple(tuple(F(y * den, e) for y, den in zip(row, dens)) for row in inv)


class TestInverseAgainstDefinition:
    def test_matches_gauss_jordan_in_fractions(self):
        rng = random.Random(41)
        inverted = {"int": 0, "rational": 0, "zero_lead": 0}
        singular = 0
        for _ in range(500):
            d = rng.randint(1, 5)
            kind = rng.choice(["int", "rational", "zero_lead", "singular"])
            m = random_square(rng, d, kind)
            try:
                want = oracles.inverse_by_definition(m)
            except StructuralError:
                with pytest.raises(StructuralError, match="singular matrix"):
                    inverse_over_q(m)
                singular += 1
                continue
            assert kind != "singular", m
            assert inverse_over_q(m) == want, m
            inverted[kind] += 1
        assert min(inverted.values()) > 50 and singular > 100, (inverted, singular)

    def test_string_entries(self):
        m = (("1/2", "3"), (F(0), 4))
        want = ((F(2), F(-3, 2)), (F(0), F(1, 4)))
        assert inverse_over_q(m) == oracles.inverse_by_definition(m) == want


def _det(m):
    d = len(m)
    if d == 1:
        return m[0][0]
    total = F(0)
    for j in range(d):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestNormFromChain:
    def test_standard_chain_round_trip(self):
        std = Lattice.standard(2, 2)
        chain = LatticeChain(
            (std.dilate(1), oracles.lattice_from_basis(2, [(1, 0), (0, 2)]), std)
        )
        n = norm_from_chain(chain, Q22)
        assert intermediary_balls(n, std).lattices == chain.lattices

    def test_diagonal_chain_frame(self):
        std = Lattice.standard(2, 2)
        chain = LatticeChain(
            (std.dilate(1), oracles.lattice_from_basis(2, [(1, 1), (0, 2)]), std)
        )
        n = norm_from_chain(chain, Q22)
        assert n.eval((1, 1)) == F(3, 5)
        assert n.eval((0, 1)) == F(4, 5)
        assert intermediary_balls(n, std).lattices == chain.lattices

    @pytest.mark.parametrize("p,d,q", CASES)
    def test_round_trip_every_chain(self, p, d, q):
        std = Lattice.standard(p, d)
        for chain in maximal_chains(std):
            n = norm_from_chain(chain, q)
            assert intermediary_balls(n, std).lattices == chain.lattices

    def test_bad_weights_rejected(self):
        std = Lattice.standard(2, 2)
        chain = maximal_chains(std)[0]
        with pytest.raises(ValueError, match="strictly increase"):
            norm_from_chain(chain, (F(4, 5), F(3, 5)))


class TestVerifyCorrespondence:
    @pytest.mark.parametrize("p,d,q", CASES)
    def test_all_round_trips_pass(self, p, d, q):
        report = verify_correspondence(p, d, q)
        assert report["all_passed"]
        assert report["chain_count"] == report["flag_count"] == flag_count(p, d)
        assert report["round_trips_passed"] == report["chain_count"]
        assert report["distinct_ball_chains"]

    def test_two_chains_with_one_ball_chain_are_caught(self, monkeypatch):
        """The second chain is given the first chain's norm, so both read back
        into the first chain's balls."""
        chains = maximal_chains(Lattice.standard(2, 2))
        build = padic.norm_from_chain
        monkeypatch.setattr(
            padic, "norm_from_chain",
            lambda chain, q: build(chains[0] if chain == chains[1] else chain, q),
        )
        report = verify_correspondence(2, 2, (F(3, 5), F(4, 5)))
        assert report["round_trips_passed"] == report["chain_count"] - 1
        assert report["distinct_ball_chains"] is False
        assert report["all_passed"] is False

    def test_default_weights_satisfy_window(self):
        for p, d in ((2, 1), (2, 2), (2, 3), (3, 2)):
            q = default_weights(p, d)
            assert all(F(1, p) < x <= 1 for x in q)
            assert all(b > a for a, b in zip(q, q[1:]))


Q24 = (F(9, 16), F(5, 8), F(3, 4), F(7, 8))
Q33 = (F(2, 3), F(7, 9), F(8, 9))
Q52 = (F(5, 7), F(6, 7))


class TestRoundTripOnResidues:
    """The round trip is decided on residues in L/pL; `oracles.round_trip_by_hermite`
    decides it by Hermite forms, as the library did before."""

    @pytest.mark.parametrize(
        "p, d, q",
        [(2, 3, Q23), (2, 4, Q24), (3, 3, Q33), (5, 2, Q52)],
        ids=["2-3", "2-4", "3-3", "5-2"],
    )
    def test_the_hermite_judge_agrees_on_every_chain(self, p, d, q):
        assert verify_correspondence(p, d, q)["all_passed"]
        assert oracles.round_trip_disagreements(p, d, q) == []

    @pytest.mark.parametrize(
        "p, d, q, distinct", [(2, 3, Q23, 16), (2, 4, Q24, 67), (3, 3, Q33, 28)]
    )
    def test_hermite_forms_only_for_the_lifts(self, monkeypatch, p, d, q, distinct):
        """One Hermite form per lattice that `maximal_chains` lifts (all but p.L
        and L), against 3,215 per run at (2,4) when the round trip compared forms."""
        forms = []
        hermite = Lattice._hermite.__func__

        def counted(cls, p, vecs):
            forms.append(vecs)
            return hermite(cls, p, vecs)

        monkeypatch.setattr(Lattice, "_hermite", classmethod(counted))
        report = verify_correspondence(p, d, q)
        chains = maximal_chains(Lattice.standard(p, d))
        lattices = {lat for chain in chains for lat in chain.lattices}
        assert report["all_passed"] and len(lattices) == distinct
        assert len(forms) == distinct - 2

    def test_weights_are_read_per_run_not_per_chain(self, monkeypatch):
        reads = []
        read = padic.norm_weights

        def counted(p, d, q):
            reads.append(q)
            return read(p, d, q)

        monkeypatch.setattr(padic, "norm_weights", counted)
        for p, d, q in ((2, 3, Q23), (2, 4, Q24)):
            reads.clear()
            assert verify_correspondence(p, d, q)["all_passed"]
            assert len(reads) == 2  # the report's parameters, then the chains' weights
        chain = maximal_chains(Lattice.standard(2, 4))[7]
        reads.clear()
        weights = padic._chain_weights(2, 4, Q24)
        assert norm_from_chain(chain, weights).q is weights and len(reads) == 1
        # weights read for p = 3 are read again for p = 2, and for another dimension
        read_for_3 = padic._chain_weights(3, 2, (F(2, 5), F(3, 5)))
        for call in (
            lambda: padic._chain_weights(2, 2, read_for_3),
            lambda: NormSpec(2, read_for_3, identity_matrix(2)),
        ):
            with pytest.raises(StructuralError, match=r"weight 2/5 outside \(1/2, 1\]"):
                call()
        with pytest.raises(StructuralError, match="got 2 weights for dimension 3"):
            padic._chain_weights(3, 3, read_for_3)

    @pytest.mark.parametrize("p, d", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_ball_decisions_match_hermite_forms(self, p, d):
        """Every lattice between p.top and top, for random weights and frames:
        a ball exactly when the Hermite judge finds one, with the same chain."""
        rng = random.Random(10 * p + d)
        frames = oracle_frames(p, d)
        balls = decided = 0
        for _ in range(5):
            dens = [rng.randint(2, 30) for _ in range(d)]
            pool = [F(rng.randint(den // p + 1, den), den) for den in dens]
            q = tuple(rng.choice(pool) for _ in range(d))
            norm = NormSpec(p, q, rng.choice(frames))
            top = oracles.ball_of_radius(norm, F(rng.randint(1, 20), rng.randint(1, 20)))
            for lat in [*oracles.lattices_between(top), top.dilate(-1), Lattice.standard(p, d)]:
                decided += 1
                if oracles.ball_radius_by_hermite(norm, lat) is None:
                    with pytest.raises(ValueError, match="not a ball"):
                        intermediary_balls(norm, lat)
                    continue
                balls += 1
                want = oracles.intermediary_balls_by_hermite(norm, lat)
                assert intermediary_balls(norm, lat) == want, (q, norm.matrix, lat)
        assert balls >= 10 and decided - balls >= 10, (balls, decided)


def swap_into_previous(j):
    """`padic._adapted_residues` with f_j swapped for a vector in L_(j-1): f_(j-1),
    or p.f_1 for j = 1."""
    pick = padic._adapted_residues

    def corrupted(chain):
        spans, ws = pick(chain)
        p = chain.top.p
        ws[j - 1] = ws[j - 2] if j > 1 else tuple(p * x for x in ws[0])
        return spans, ws

    return corrupted


def scale_one_inverse_column(monkeypatch, power):
    """Every `NormSpec`, built from a frame (`__init__`) or from a chain's
    basis (`_of_basis`), with its first inverse column c_1 replaced by
    p^power.c_1, so the inverse columns are not a basis of L."""
    init, of_basis = NormSpec.__init__, NormSpec._of_basis.__func__

    def corrupt(norm):
        (v, a), *rest = norm.inverse_cols
        object.__setattr__(norm, "inverse_cols", ((v, a - power), *rest))
        return norm

    def corrupted_init(norm, *args):
        init(norm, *args)
        corrupt(norm)

    monkeypatch.setattr(NormSpec, "__init__", corrupted_init)
    monkeypatch.setattr(
        NormSpec, "_of_basis", classmethod(lambda cls, *args: corrupt(of_basis(cls, *args)))
    )


class TestRoundTripMutations:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_corrupted_adapted_basis(self, monkeypatch, j):
        chains = maximal_chains(Lattice.standard(2, 3))
        monkeypatch.setattr(padic, "_adapted_residues", swap_into_previous(j))
        with pytest.raises(AssertionError, match="adapted basis fails"):
            verify_correspondence(2, 3, Q23)
        for chain in chains:  # the judge's forms may also lose rank: a failed round trip
            try:
                assert not oracles.round_trip_by_hermite(chain, Q23)
            except AssertionError as exc:
                assert "adapted basis fails" in str(exc)

    @pytest.mark.parametrize("power", [1, -1, 2])
    def test_inverse_columns_not_a_basis(self, monkeypatch, power):
        chains = maximal_chains(Lattice.standard(2, 3))
        scale_one_inverse_column(monkeypatch, power)
        report = verify_correspondence(2, 3, Q23)
        assert not report["all_passed"] and report["round_trips_passed"] == 0
        assert not any(entry["round_trip_ok"] for entry in report["chains"])
        assert not any(oracles.round_trip_by_hermite(chain, Q23) for chain in chains)

    def test_the_unmutated_round_trip_passes(self):
        chains = maximal_chains(Lattice.standard(2, 3))
        assert verify_correspondence(2, 3, Q23)["round_trips_passed"] == len(chains) == 21
        assert all(oracles.round_trip_by_hermite(chain, Q23) for chain in chains)


class TestNormAxioms:
    def test_diagonal_norm_axioms_small_window(self):
        rep = oracles.check_norm_axioms(diag_norm(2, Q22), span=2)
        assert rep["ok"], rep["violations"][:3]

    def test_rotated_norm_axioms(self):
        frame = ((F(1), F(1)), (F(0), F(1)))
        rep = oracles.check_norm_axioms(NormSpec(2, Q22, frame), span=2)
        assert rep["ok"], rep["violations"][:3]

    @pytest.mark.parametrize(
        "axiom, broken",
        [
            # a seminorm: blind to the first coordinate, so N(e_1) = 0
            ("nondegeneracy", lambda evaluate, norm, z: evaluate(norm, (0, *z[1:]))),
            # monotone in N, so still ultrametric, but N(p.z) = N(z)^2 / p^2
            ("scaling", lambda evaluate, norm, z: evaluate(norm, z) ** 2),
            # homogeneous and nondegenerate, but a sum of two norms is no ultrametric
            (
                "strong_triangle",
                lambda evaluate, norm, z: evaluate(norm, z) + evaluate(norm, z[::-1]),
            ),
        ],
        ids=["nondegeneracy", "scaling", "strong-triangle"],
    )
    @pytest.mark.parametrize("p, d, q", [(2, 3, Q23), (3, 2, Q32)], ids=["2-3", "3-2"])
    def test_the_judge_reports_each_broken_axiom(self, monkeypatch, axiom, broken, p, d, q):
        """The judge of C08, on chain norms whose `eval` breaks one axiom each."""
        norm = norm_from_chain(maximal_chains(Lattice.standard(p, d))[-1], q)
        assert oracles.check_norm_axioms(norm, span=2)["ok"]
        evaluate = NormSpec.eval
        monkeypatch.setattr(NormSpec, "eval", lambda norm, z: broken(evaluate, norm, tuple(z)))
        rep = oracles.check_norm_axioms(norm, span=2)
        assert not rep["ok"] and {v["axiom"] for v in rep["violations"]} == {axiom}, rep

    @given(
        st.tuples(small_fractions, small_fractions),
        st.tuples(small_fractions, small_fractions),
    )
    @settings(max_examples=80, deadline=None)
    def test_strong_triangle_on_random_rationals(self, x, y):
        n = diag_norm(2, Q22)
        s = tuple(a + b for a, b in zip(x, y))
        assert n.eval(s) <= max(n.eval(x), n.eval(y))


class TestBallNetwork:
    def test_dimension_matches_parameter_count(self):
        for d, q in ((1, (F(3, 5),)), (2, Q22)):
            net = ball_network(2, d, q, window=2)
            assert network_dimension(net, frozenset(net.metric_ids)).overall == d

    def test_complex_of_plane_family_has_triangle_tops(self):
        from clusternets import build_complex

        net = ball_network(2, 2, Q22, window=2)
        cx = build_complex(net, frozenset(net.metric_ids))
        tops = {len(s.vertex_ids) for s in cx.maximal_simplices()}
        assert tops == {3}

    def test_point_count_and_metric_count(self):
        net = ball_network(2, 2, Q22, window=2)
        assert len(net.labels) == 16
        assert len(net.metric_ids) == 2

    def test_equal_weights_collapse_orderings(self):
        net = ball_network(2, 2, (F(4, 5), F(4, 5)), window=1)
        assert len(net.metric_ids) == 1

    def test_each_norm_evaluates_each_distinct_difference_once(self, monkeypatch):
        calls = []
        evaluate = NormSpec.eval

        def counted(norm, z):
            calls.append((norm, z))
            return evaluate(norm, z)

        monkeypatch.setattr(NormSpec, "eval", counted)
        # (2 p^m - 1)^d differences on (Z/p^m)^d, under each of the 3! norms
        for window, differences in ((1, 3**3), (2, 7**3)):
            calls.clear()
            ball_network(2, 3, Q23, window=window)
            assert len(calls) == len(set(calls)) == 6 * differences

    def test_a_warm_norm_equals_a_fresh_one(self):
        warm, fresh = diag_norm(2, Q23), diag_norm(2, Q23)
        points = list(itertools.product(range(4), repeat=3))
        for x in points:
            for y in points:
                warm.distance(x, y)
        assert len(warm._values) == 7**3 and not fresh._values
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)

    @pytest.mark.parametrize(
        "p, d, windows",
        [(2, 1, (1, 2)), (2, 2, (1, 2)), (2, 3, (1, 2)), (3, 2, (1, 2)), (5, 2, (1,))],
    )
    def test_network_matches_the_matrix_path_by_definition(self, p, d, windows):
        distinct = default_weights(p, d)
        # all weights equal at d = 2, the two lightest equal at d = 3
        repeated = distinct[:1] * (d // 2 + 1) + distinct[d // 2 + 1 :]
        for q in (distinct, repeated):
            for window in windows:
                want = oracles.ball_network_by_definition(p, d, q, window)
                assert ball_network(p, d, q, window) == want, (q, window)

    def test_reordering_norm_ids_are_deterministic(self):
        names = [name for name, _ in reordering_norms(2, Q22)]
        assert names == ["A0.q3/5_4/5", "A0.q4/5_3/5"]

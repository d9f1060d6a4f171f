import random
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, strategies as st

import magball.algebra
import magball.codec
from magball import (
    BallSpec,
    DomainError,
    LinearCode,
    ModPDecoderContext,
    S2DecoderContext,
    ball_size,
    bch_code,
    bose_chowla_s2,
    build_syndrome_decoder,
    code_lattice,
    decode_mod_p,
    decode_s2,
    enumerate_ball,
    kernel_lattice,
    lattice_contains,
)
from magball.codec import _power_of_y
from magball.errors import ResourceLimitError
from magball.limits import limits_overridden
from references import (
    TupleField,
    decode_s2_by_tuples,
    min_poly_by_tuples,
    power_of_y_by_general_product,
    s2_splitter_set,
    syndrome,
)


def _binary_patterns(n, t):
    out = [(0,) * n]
    for w in range(1, t + 1):
        for support in combinations(range(n), w):
            v = [0] * n
            for p in support:
                v[p] = 1
            out.append(tuple(v))
    return out


def _lattice_points(basis, count, seed, spread=25):
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = [rng.randint(-spread, spread) for _ in range(basis.n)]
        yield tuple(
            sum(c * row[j] for c, row in zip(coeffs, basis.rows))
            for j in range(basis.n)
        )


@pytest.fixture(scope="module")
def s2_ctx():
    return S2DecoderContext.from_s2(bose_chowla_s2(4, 2))


@pytest.fixture(scope="module")
def modp_ctx():
    return ModPDecoderContext.build(bch_code(3, 2, 5), 1, 1)


def _dense(entry, n):
    v = [0] * n
    for pos, val in entry:
        v[pos] = val
    return tuple(v)


@lru_cache(maxsize=None)
def _reference_leaders(code):
    """Slow reference: a leader for every one of the p^(n-k) cosets, by
    increasing weight (supports lexicographic, residues ascending)."""
    total = code.p ** (code.n - code.k)
    leaders = {}
    for w in range(code.n + 1):
        for support in combinations(range(code.n), w):
            for vals in product(range(1, code.p), repeat=w):
                vec = [0] * code.n
                for pos, v in zip(support, vals):
                    vec[pos] = v
                leaders.setdefault(syndrome(code, vec), tuple(vec))
                if len(leaders) == total:
                    return leaders
    raise AssertionError("could not cover every syndrome")


def _reference_decode(code, kplus, y):
    """Correct ``y mod p`` by its coset leader and lift the leader back to
    the signed integers: residues above kplus wrap down by p."""
    leader = _reference_leaders(code)[syndrome(code, [v % code.p for v in y])]
    return tuple(v - (e if e <= kplus else e - code.p) for v, e in zip(y, leader))


class TestS2Decoder:
    def test_zero_error_returns_input(self, s2_ctx):
        result = decode_s2(s2_ctx, (0, 0, 0, 0))
        assert result.status == "ok" and result.codeword == (0, 0, 0, 0)

    def test_all_patterns_from_zero(self, s2_ctx):
        for e in _binary_patterns(4, 2):
            result = decode_s2(s2_ctx, e)
            assert result.status == "ok"
            assert result.codeword == (0, 0, 0, 0)
            assert result.positions == tuple(i for i, x in enumerate(e) if x)

    def test_position_zero_is_decodable(self, s2_ctx):
        result = decode_s2(s2_ctx, (1, 0, 0, 0))
        assert result.status == "ok" and result.positions == (0,)

    def test_round_trip_from_seeded_lattice_points(self, s2_ctx):
        basis = kernel_lattice(s2_splitter_set(s2_ctx))
        patterns = _binary_patterns(4, 2)
        for x in _lattice_points(basis, 100, seed=5):
            for e in patterns:
                y = tuple(a + b for a, b in zip(x, e))
                result = decode_s2(s2_ctx, y)
                assert result.status == "ok" and result.codeword == x

    def test_beyond_radius_fails_or_miscorrects_into_lattice(self, s2_ctx):
        basis = kernel_lattice(s2_splitter_set(s2_ctx))
        for support in combinations(range(4), 3):
            v = [0] * 4
            for p in support:
                v[p] = 1
            result = decode_s2(s2_ctx, tuple(v))
            if result.status == "ok":
                diff = tuple(a - b for a, b in zip(v, result.codeword))
                assert sum(1 for x in diff if x) <= 2
                from magball import lattice_contains

                assert lattice_contains(basis, result.codeword)
            else:
                assert result.codeword is None

    def test_length_gate(self, s2_ctx):
        with pytest.raises(DomainError):
            decode_s2(s2_ctx, (0, 0, 0))

    def test_ops_grow_linearly_at_fixed_t(self):
        averages = {}
        for q in (4, 8, 16):
            ctx = S2DecoderContext.from_s2(bose_chowla_s2(q, 2))
            basis = kernel_lattice(s2_splitter_set(ctx))
            patterns = _binary_patterns(q, 2)
            total = count = 0
            for x in _lattice_points(basis, 20, seed=11, spread=10):
                for e in patterns:
                    y = tuple(a + b for a, b in zip(x, e))
                    result = decode_s2(ctx, y)
                    assert result.status == "ok"
                    total += result.ops.total
                    count += 1
            averages[q] = total / count
        assert averages[4] < averages[8] < averages[16]
        # Doubling n should not blow past a generous linear envelope.
        assert averages[16] < 3 * averages[8]

    def test_zero_beta_is_rejected(self, s2_ctx):
        data = s2_ctx.to_json()
        data["betas"][1] = [0] * 6
        with pytest.raises(DomainError, match="violate"):
            S2DecoderContext.from_json(data)

    def test_an_alpha_without_a_position_is_rejected(self, s2_ctx):
        data = s2_ctx.to_json()
        data["alphas"].append(data["alphas"][1])
        with pytest.raises(DomainError, match="one entry per position"):
            S2DecoderContext.from_json(data)

    def test_context_serialization_round_trip(self, s2_ctx):
        other = S2DecoderContext.from_json(s2_ctx.to_json())
        assert other.svals == s2_ctx.svals
        assert other.min_poly == s2_ctx.min_poly
        assert decode_s2(other, (0, 1, 1, 0)).codeword == (0, 0, 0, 0)


def _s2_vectors(data, count, seed):
    """Codewords plus binary errors of every weight up to t + 1, and
    vectors that are not near any chosen codeword."""
    rng = random.Random(seed)
    q, N, svals = data.q, data.N, data.svals
    inv0 = pow(svals[0], -1, N)
    out = []
    for k in range(count):
        x = [rng.randint(-9, 9) for _ in range(q)]
        # solve position 0 so that sum x_i s_i = 0 mod N
        x[0] = -sum(a * s for a, s in zip(x[1:], svals[1:])) * inv0 % N
        errors = [0] * q
        for i in rng.sample(range(q), min(q, k % (data.t + 2))):
            errors[i] = 1
        out.append([a + e for a, e in zip(x, errors)])
    out += [[rng.randint(-5, 5) for _ in range(q)] for _ in range(count // 4)]
    return out


def _assert_decodes_as_the_tuple_decoder(ctx, data):
    q, t = data.q, data.t
    from_log = TupleField(data.field).from_log
    assert list(map(from_log, ctx.min_poly)) == min_poly_by_tuples(data.field, q, t + 1)
    oks = 0
    for y in _s2_vectors(data, 24 if q**t > 10**4 else 60, seed=q * 10 + t):
        got = decode_s2(ctx, y)
        # The reference's identity check on the located roots never changes
        # its result: r(y) is already a unit times prod (y + alpha_i).
        for verify_identity in (False, True):
            status, codeword, positions, ops = decode_s2_by_tuples(data, y, verify_identity)
            assert (got.status, got.codeword, got.positions) == (status, codeword, positions)
            assert (got.ops.mul, got.ops.add) == (ops.mul, ops.add)
        oks += got.status == "ok"
    assert oks  # the comparison covered successful decodes, not only failures


class TestS2AgainstTuples:
    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 27])
    @pytest.mark.parametrize("t", [2, 3])
    def test_decode_matches_the_tuple_decoder(self, q, t):
        data = bose_chowla_s2(q, t)
        _assert_decodes_as_the_tuple_decoder(S2DecoderContext.from_s2(data), data)

    # Loading a context and decoding need only the subfield of size q, as the
    # construction does (tests/test_constructions.py::TestBoseChowlaLogs).
    @pytest.mark.parametrize("q", [3, 4, 5, 8, 9, 16, 27])
    @pytest.mark.parametrize("t", [2, 3])
    def test_a_loaded_context_decodes_without_the_field_tables(self, q, t, monkeypatch):
        data = bose_chowla_s2(q, t)
        tables = magball.algebra._subfield_tables

        def subfield_only(field, size):
            if size == field.size:
                raise AssertionError(f"the tables of F_{field.p}^{field.m} were built")
            return tables(field, size)

        for module in (magball.algebra, magball.codec):
            monkeypatch.setattr(module, "_subfield_tables", subfield_only)
        ctx = S2DecoderContext.from_json(S2DecoderContext.from_s2(data).to_json())
        _assert_decodes_as_the_tuple_decoder(ctx, data)

    # The decoder steps by y with a shift and a fold; every power it can be
    # asked for must come out as by the general product, op count included.
    @pytest.mark.parametrize("q,t", [(4, 2), (16, 3)])
    def test_y_step_matches_the_general_product(self, q, t):
        ctx = S2DecoderContext.from_s2(bose_chowla_s2(q, t))
        for s in range(ctx.N):
            assert _power_of_y(ctx, s) == power_of_y_by_general_product(ctx, s), s


@st.composite
def _systematic_code(draw):
    """A code over F_p with G = [I_k | A] and H = [-A^T | I_(n-k)], every
    entry shifted by a multiple of p, so that H holds entries outside [0, p),
    negative ones included."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    r = n - k
    A = [draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)) for _ in range(k)]
    G = [[int(i == j) for j in range(k)] + A[i] for i in range(k)]
    H = [[-A[j][i] for j in range(k)] + [int(i == j) for j in range(r)] for i in range(r)]

    def lift(rows):
        shifts = draw(st.lists(st.integers(-3, 3), min_size=n * len(rows), max_size=n * len(rows)))
        return tuple(tuple(x + p * c for x, c in zip(row, shifts[i * n:]))
                     for i, row in enumerate(rows))

    return p, n, k, lift(G), lift(H)


class TestPackedSyndrome:
    @given(_systematic_code(), st.data())
    def test_matches_the_row_sums(self, shape, data):
        code = LinearCode(*shape, 1)
        entries = st.integers(-10**6, 10**6)
        for v in data.draw(st.lists(st.lists(entries, min_size=code.n, max_size=code.n),
                                    min_size=1, max_size=5)):
            assert code.syndrome(v) == syndrome(code, v)
        for g in code.generator:
            assert not any(syndrome(code, g))

    # Every product is (p-1)^2, so each field of the dot product holds its
    # largest sum, n (p-1)^2.
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 4, 12, 63])
    def test_largest_field_sums_do_not_carry(self, p, n):
        code = LinearCode(p, n, 0, (), ((-1,) * n,) * n, 1)
        v = [p - 1] * n
        assert code.syndrome(v) == syndrome(code, v) == ((n * (p - 1) ** 2) % p,) * n

    @given(_systematic_code())
    def test_generator_off_the_kernel_is_rejected(self, shape):
        p, n, k, G, H = shape
        assume(0 < k < n)
        # Row 0 of G gains 1 at position k, where H's row 0 holds 1 mod p.
        bumped = (tuple(x + (j == k) for j, x in enumerate(G[0])),) + G[1:]
        with pytest.raises(DomainError, match="inconsistent"):
            LinearCode(p, n, k, bumped, H, 1)

    @pytest.mark.parametrize("p, m, d, kplus, kminus",
                             [(3, 2, 5, 1, 1), (2, 6, 5, 1, 0), (5, 2, 4, 2, 2), (7, 2, 3, 3, 3)])
    def test_table_keys_are_the_syndromes_of_their_leaders(self, p, m, d, kplus, kminus):
        code = bch_code(p, m, d)
        for key, leader in build_syndrome_decoder(code, kplus, kminus).leaders.items():
            assert key == syndrome(code, _dense(leader, code.n))


class TestSyndromeTable:
    def test_full_coverage(self, modp_ctx):
        assert len(modp_ctx.table.leaders) == ball_size(BallSpec(8, 2, 1, 1)) == 129

    def test_zero_syndrome_zero_leader(self, modp_ctx):
        code = modp_ctx.code
        assert modp_ctx.table.leaders[code.syndrome((0,) * 8)] == ()

    def test_low_weight_patterns_are_their_own_leaders(self, modp_ctx):
        code = modp_ctx.code
        for e in enumerate_ball(BallSpec(8, 2, 1, 1)):
            entry = modp_ctx.table.leaders[code.syndrome([v % 3 for v in e])]
            assert _dense(entry, 8) == e

    def test_table_limit(self):
        from magball.limits import limits_overridden

        with limits_overridden(syndrome_table=10):
            from magball.errors import ResourceLimitError

            with pytest.raises(ResourceLimitError):
                build_syndrome_decoder(bch_code(3, 2, 5), 1, 1)

    def test_declared_distance_too_high_is_rejected(self):
        # t = 3 would need 576 distinct cosets; this code has 2^8 = 256.
        code = replace(bch_code(2, 4, 5), d=7)
        with pytest.raises(DomainError, match="declared d = 7"):
            build_syndrome_decoder(code, 1, 0)


    def test_overstated_distance_names_both_ball_vectors(self):
        # The ternary repetition code has d = 3: (0, 0, 1) and (-1, -1, 0)
        # differ by a codeword, so they share a syndrome in the radius-2 ball.
        code = LinearCode(3, 3, 1, ((1, 1, 1),), ((1, 2, 0), (1, 0, 2)), 5)
        with pytest.raises(DomainError) as info:
            build_syndrome_decoder(code, 1, 1)
        assert str(info.value) == (
            "ball vectors {2: 1} and {0: -1, 1: -1} share a syndrome: "
            "the code's minimum distance is below the declared d = 5"
        )

    def test_only_the_table_limit_bounds_the_build(self):
        # The ball walk checks no limit of its own: the enumeration limit does
        # not apply, and the syndrome_table limit stops the build below |B|.
        code = bch_code(3, 2, 5)
        with limits_overridden(enumeration=1):
            assert len(build_syndrome_decoder(code, 1, 1).leaders) == 129
            with limits_overridden(syndrome_table=128):
                with pytest.raises(ResourceLimitError, match="syndrome_table workload 129"):
                    build_syndrome_decoder(code, 1, 1)


class TestModPDecoder:
    def test_zero_error(self, modp_ctx):
        result = decode_mod_p(modp_ctx, (0,) * 8)
        assert result.status == "ok" and result.codeword == (0,) * 8
        assert result.guaranteed

    def test_full_ball_from_zero(self, modp_ctx):
        for e in enumerate_ball(BallSpec(8, 2, 1, 1)):
            result = decode_mod_p(modp_ctx, e)
            assert result.status == "ok" and result.codeword == (0,) * 8

    def test_round_trip_from_seeded_lattice_points(self, modp_ctx):
        basis = code_lattice(modp_ctx.code, 1, 1)
        errors = list(enumerate_ball(BallSpec(8, 2, 1, 1)))
        for x in _lattice_points(basis, 25, seed=13, spread=8):
            for e in errors:
                y = tuple(a + b for a, b in zip(x, e))
                result = decode_mod_p(modp_ctx, y)
                assert result.status == "ok" and result.codeword == x

    def test_beyond_design_distance_is_flagged(self, modp_ctx):
        basis = code_lattice(modp_ctx.code, 1, 1)
        flagged = 0
        for support in combinations(range(8), 3):
            v = [0] * 8
            for p in support:
                v[p] = 1
            result = decode_mod_p(modp_ctx, tuple(v))
            if result.status == "ok":
                assert result.guaranteed and lattice_contains(basis, result.codeword)
                assert result.codeword == _reference_decode(modp_ctx.code, 1, v)
            else:
                assert result.status == "fail" and result.codeword is None
                assert not result.guaranteed
                flagged += 1
        assert flagged > 0

    @pytest.mark.parametrize("p, m, kplus, kminus", [(3, 2, 1, 1), (3, 2, 1, 0), (2, 4, 1, 0)])
    def test_matches_the_coset_leader_reference(self, p, m, kplus, kminus):
        code = bch_code(p, m, 5)
        ctx = ModPDecoderContext.build(code, kplus, kminus)
        basis = code_lattice(code, kplus, kminus)
        errors = list(enumerate_ball(BallSpec(code.n, 2, kplus, kminus)))
        for x in _lattice_points(basis, 5, seed=17, spread=6):
            for e in errors:
                y = tuple(a + b for a, b in zip(x, e))
                assert decode_mod_p(ctx, y).codeword == _reference_decode(code, kplus, y) == x

    def test_magnitude_gate(self):
        with pytest.raises(DomainError, match=r"kplus \+ kminus < p"):
            ModPDecoderContext.build(bch_code(3, 2, 5), 2, 1)

    def test_context_serialization_round_trip(self, modp_ctx):
        other = ModPDecoderContext.from_json(modp_ctx.to_json())
        assert other.code == modp_ctx.code
        assert decode_mod_p(other, (1, 0, 0, -1, 0, 0, 0, 0)).codeword == (0,) * 8

import random
import tracemalloc
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, log
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from magball import (
    BallSpec,
    DomainError,
    GroupSpec,
    OracleDisagreement,
    ResourceLimitError,
    bch_code,
    behrend_ruzsa_splitter,
    behrend_sphere_sets,
    bose_chowla_s1,
    bose_chowla_s2,
    bt_pm1_splitter,
    bt_shift_to_splitter,
    check_complete_split,
    check_partial_split,
    code_lattice,
    covering_base_split,
    density,
    hamming_covering_baseline,
    is_bt_set,
    is_kfold_sidon,
    kernel_lattice,
    kfold_sidon_splitter,
    product_splitter,
    sample_lambda_splitter,
    search_bt_set,
    search_kfold_sidon,
    verify_covering_geometric,
    verify_packing_geometric,
)
from magball import constructions
from magball.cli import main
from magball.constructions import (
    LinearCode,
    _floor_ln,
    _sidon_blocked,
    _sidon_relations,
    _trivial_solution,
    min_distance,
)
from magball.limits import limits_overridden
from references import (
    TupleField,
    code_lattice_by_hnf,
    search_bt_set_by_recheck,
    search_bt_set_unpruned,
    search_kfold_sidon_by_recheck,
    search_kfold_sidon_unpruned,
    subgroup_order,
    trivial_solution_by_partitions,
)


class TestBtSets:
    def test_s1_smallest_instance(self):
        bt = bose_chowla_s1(2, 2)
        assert bt.N == 3 and bt.elements == (1, 2)

    def test_s1_q3_verified(self):
        bt = bose_chowla_s1(3, 2)
        assert bt.N == 8 and len(bt.elements) == 3
        assert is_bt_set(bt.elements, bt.N, 2)[0]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("t", [2, 3])
    def test_s1_family_is_always_bt(self, q, t):
        bt = bose_chowla_s1(q, t)
        assert len(bt.elements) == q
        assert bt.N == q**t - 1
        assert is_bt_set(bt.elements, bt.N, t)[0]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("t", [2, 3])
    def test_s2_family_is_always_bt(self, q, t):
        data = bose_chowla_s2(q, t)
        assert len(data.bt.elements) == q + 1
        assert 0 in data.bt.elements
        assert data.N == (q ** (t + 1) - 1) // (q - 1)
        assert is_bt_set(data.bt.elements, data.N, t)[0]

    def test_s2_defining_identity(self):
        # beta_i * eta^s_i == eta + alpha_i, with the logs turned into
        # tuples and multiplied schoolbook.
        for q, t in [(4, 2), (3, 2), (5, 2), (4, 3)]:
            data = bose_chowla_s2(q, t)
            f = TupleField(data.field)
            for alpha, s, beta in zip(data.alphas, data.svals, data.betas):
                assert f.mul(f.from_log(beta), f.from_log(s)) == f.add(f.gen, f.from_log(alpha))

    def test_is_bt_examples(self):
        assert is_bt_set([0, 1, 3], 8, 2) == (True, None)
        ok, witness = is_bt_set([0, 1, 2], 8, 2)
        assert not ok
        a, b = witness
        assert sum(a) % 8 == sum(b) % 8 and sorted(a) != sorted(b)
        assert is_bt_set([0], 11, 3) == (True, None)

    def test_search_finds_the_canonical_set(self):
        bt, reached = search_bt_set(8, 2, 3)
        assert reached and bt.elements == (0, 1, 3)


class TestBtSplitters:
    def test_shift_example(self):
        from magball.constructions import BtSet

        bt = BtSet(8, (0, 1, 3), 2, "search")
        s = bt_shift_to_splitter(bt)
        assert [e.residues[0] for e in s.elements] == [1, 3]
        assert check_partial_split(s).verified

    def test_shift_normalises_any_representative(self):
        from magball.constructions import BtSet

        bt = BtSet(8, (1, 2, 4), 2, "search")
        s = bt_shift_to_splitter(bt)
        assert [e.residues[0] for e in s.elements] == [1, 3]

    def test_shift_rejects_singletons(self):
        from magball.constructions import BtSet

        with pytest.raises(DomainError):
            bt_shift_to_splitter(BtSet(11, (0,), 2, "search"))

    def test_cor6_density_at_q4(self):
        s = bt_shift_to_splitter(bose_chowla_s1(4, 2))
        assert check_partial_split(s).verified
        frac = density(kernel_lattice(s), s.ball())
        assert frac == Fraction(sum(comb(3, i) for i in range(3)), (3 + 1) ** 2 - 1)
        assert frac == Fraction(7, 15)

    def test_second_variant_density_at_q4(self):
        # n = q = 4 over Z_{(q^3-1)/(q-1)} = Z_21: density sum C(4,i) / 21.
        s = bt_shift_to_splitter(bose_chowla_s2(4, 2).bt)
        assert s.group.moduli == (21,) and s.n == 4
        assert check_partial_split(s).verified
        frac = density(kernel_lattice(s), s.ball())
        assert frac == Fraction(sum(comb(4, i) for i in range(3)), 21)
        assert frac == Fraction(11, 21)

    def test_pm1_example(self):
        from magball.constructions import BtSet

        s = bt_pm1_splitter(BtSet(8, (0, 1, 3), 2, "search"), 2)
        assert s.group.moduli == (8, 5)
        assert [e.residues for e in s.elements] == [(0, 1), (1, 1), (3, 1)]
        assert check_partial_split(s).verified

    def test_cor7_density_at_q3(self):
        s = bt_pm1_splitter(bose_chowla_s1(3, 2), 2)
        assert check_partial_split(s).verified
        assert density(kernel_lattice(s), s.ball()) == Fraction(19, 40)

    def test_lagrange_for_constructed_splitters(self):
        for s in [
            bt_shift_to_splitter(bose_chowla_s1(4, 2)),
            bt_pm1_splitter(bose_chowla_s1(3, 2), 2),
        ]:
            assert s.group.order % subgroup_order(s.group, list(s.elements)) == 0


class TestKfoldSidon:
    def test_k1_is_plain_sidon(self):
        assert is_kfold_sidon([0, 1, 3], 7, 1)[0]
        ok, witness = is_kfold_sidon([0, 1, 2], 7, 1)
        assert not ok
        cs, xs = witness
        assert sum(cs) == 0
        assert sum(c * x for c, x in zip(cs, xs)) % 7 == 0

    def test_singletons_always_pass(self):
        assert is_kfold_sidon([5], 11, 2)[0]

    def test_gcd_gate(self):
        with pytest.raises(DomainError):
            is_kfold_sidon([0, 1], 10, 2)  # gcd(10, 2!) != 1

    def test_k1_agrees_with_b2_on_random_subsets(self):
        rng = random.Random(123)
        for _ in range(100):
            N = rng.choice([7, 9, 11, 15, 21, 25, 35, 45, 63, 81, 101])
            size = rng.randint(1, 6)
            subset = sorted(rng.sample(range(N), size))
            assert is_kfold_sidon(subset, N, 1)[0] == is_bt_set(subset, N, 2)[0]

    def test_search_examples(self):
        params, reached = search_kfold_sidon(7, 1, 3)
        assert reached and params.elements == (0, 1, 3)
        params, reached = search_kfold_sidon(11, 2, 1)
        assert reached and params.elements == (0,)

    def test_search_outputs_always_valid(self):
        for N, k in [(11, 2), (13, 2), (31, 2)]:
            params, _ = search_kfold_sidon(N, k, 4)
            assert is_kfold_sidon(params.elements, N, k)[0]

    def test_splitter_verified(self):
        params, _ = search_kfold_sidon(31, 2, 4)
        s = kfold_sidon_splitter(params, 2, 0)
        assert s.group.moduli == (5, 31)
        assert s.n == len(params.elements)
        assert check_partial_split(s).verified

    def test_parameter_gate(self):
        params, _ = search_kfold_sidon(11, 1, 3)
        with pytest.raises(DomainError):
            kfold_sidon_splitter(params, 2, 0)  # kplus exceeds the fold
        s = kfold_sidon_splitter(params, 1, 1)
        assert s.group.moduli == (5, 11)


def _sidon_moduli(k: int, top: int):
    return st.integers(1, top).filter(lambda N: gcd(N, factorial(k)) == 1)


def _assert_blocked_matches_full_check(accepted: list[int], N: int, k: int) -> None:
    """What each element of ``accepted`` newly bars, over the prefixes, is
    exactly the residues outside it that fail the full check."""
    blocked = set()
    for i in range(len(accepted)):
        blocked.update(_sidon_blocked(accepted[: i + 1], N, _sidon_relations(k)))
    assert blocked <= set(range(N))
    for y in set(range(N)) - set(accepted):
        assert (y in blocked) != is_kfold_sidon(accepted + [y], N, k)[0]


# The first window the searches filter past the root.  Every modulus the
# reference tests draw fits in the default one, so they also run with small
# windows, where nodes count the residues past theirs as candidates and
# widen on demand.
_windows = st.sampled_from([1, 2, 5, constructions._WINDOW])


def _window(size: int):
    return mock.patch.object(constructions, "_WINDOW", size)


class TestIncrementalSearch:
    """The searches start at 0 alone, draw candidates from bit masks over a
    window of residues and skip subtrees that cannot outgrow the best set;
    the unpruned references walk every root and candidate, and the
    ``_by_recheck`` references re-run the full checker on every candidate
    set."""

    @pytest.mark.parametrize(
        "search, args, elements, reached",
        [
            (search_kfold_sidon, (301, 2, 8), (0, 1, 4, 11, 27, 39, 48, 84), True),
            (search_kfold_sidon, (13, 1, 5), (0, 1, 3, 9), False),
            (search_bt_set, (80, 2, 9), (0, 1, 3, 9, 22, 27, 34, 38, 66), True),
            (search_bt_set, (30, 2, 7), (0, 1, 3, 7, 12), False),
            (search_kfold_sidon, (55, 2, 6), (0, 1, 4, 13, 20), False),
            (search_bt_set, (60, 3, 7), (0, 1, 4, 13), False),
            # Reached within a few candidates of 0: only a lazy search at
            # this N finishes at once.
            (search_bt_set, (1000003, 2, 8), (0, 1, 3, 7, 12, 20, 30, 44), True),
            (search_kfold_sidon, (1000003, 1, 6), (0, 1, 3, 7, 12, 20), True),
        ],
    )
    def test_desk_scale_results(self, search, args, elements, reached):
        found, hit = search(*args)
        assert (found.elements, hit) == (elements, reached)

    # The unpruned references take up to seconds on the exhaustive corners of
    # these ranges (B_2 sets of 7 or 8 beyond N = 30, B_3 sets beyond N = 40,
    # k-fold Sidon sets past 5 (k = 1) or 3 (k = 2, 3) beyond N = 25), and the
    # _by_recheck references already beyond B_2 sets of 6 at N = 26 and Sidon
    # sets of 4; each is diffed where it takes well under a second.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 44), st.sampled_from([1, 2, 3]), st.integers(1, 8), _windows)
    def test_bt_search_matches_reference(self, N, t, target, window):
        assume(t != 2 or target <= 6 or N <= 30)
        assume(t != 3 or target <= 4 or N <= 40)
        with _window(window):
            found, reached = search_bt_set(N, t, target)
        ref, ref_reached = search_bt_set_unpruned(N, t, target)
        assert (found.elements, reached) == (ref.elements, ref_reached)
        if (t != 2 or target <= 5 or N <= 26) and target <= 7:
            ref, ref_reached = search_bt_set_by_recheck(N, t, target)
            assert (found.elements, reached) == (ref.elements, ref_reached)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sidon_search_matches_reference(self, data):
        k = data.draw(st.sampled_from([1, 2, 3]))
        N = data.draw(_sidon_moduli(k, 61))
        target = data.draw(st.integers(1, 6))
        assume(target <= {1: 5, 2: 3, 3: 3}[k] or N <= {1: 23, 2: 23, 3: 25}[k])
        with _window(data.draw(_windows, label="window")):
            found, reached = search_kfold_sidon(N, k, target)
        ref, ref_reached = search_kfold_sidon_unpruned(N, k, target)
        assert (found.elements, reached) == (ref.elements, ref_reached)
        if target <= (4 if k == 1 else 3):
            ref, ref_reached = search_kfold_sidon_by_recheck(N, k, target)
            assert (found.elements, reached) == (ref.elements, ref_reached)

    # Only nodes that test a candidate check the enumeration workload, so the
    # pruned search stops where the unpruned one does, with the same message,
    # or finishes with its unlimited result where it never tests a candidate
    # of the size the unpruned search stops at.
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_enumeration_limit_matches_the_unpruned_search(self, data):
        if data.draw(st.booleans(), label="bt"):
            param = data.draw(st.sampled_from([1, 2, 3]), label="t")
            N = data.draw(st.integers(1, 26), label="N")
            searches = (search_bt_set, search_bt_set_unpruned)
            workload = lambda size: comb(size + param - 1, param)
        else:
            param = data.draw(st.sampled_from([1, 2, 3]), label="k")
            N = data.draw(_sidon_moduli(param, 40), label="N")
            searches = (search_kfold_sidon, search_kfold_sidon_unpruned)
            workload = lambda size: size**4 * (2 * param + 1) ** 3
        target = data.draw(st.integers(1, 6 if searches[0] is search_bt_set else 4))
        size = data.draw(st.integers(1, target), label="size")
        limit = workload(size) - data.draw(st.integers(0, 1), label="below")
        window = data.draw(_windows, label="window")

        def run(search):
            with limits_overridden(enumeration=limit), _window(window):
                try:
                    found, reached = search(N, param, target)
                except ResourceLimitError as exc:
                    return str(exc)
            return found.elements, reached

        got, expected = run(searches[0]), run(searches[1])
        if isinstance(got, str) or not isinstance(expected, str):
            assert got == expected
        else:
            found, reached = searches[0](N, param, target)
            assert got == (found.elements, reached)

    def test_enumeration_limit_past_the_last_tested_size(self):
        # No set of 5 extends to 6 over Z_21; the pruned search tests no
        # sixth candidate, while the unpruned one checks C(7, 2) = 21 first.
        with limits_overridden(enumeration=20):
            found, reached = search_bt_set(21, 2, 6)
            assert (found.elements, reached) == ((0, 1, 4, 14, 16), False)
            with pytest.raises(ResourceLimitError, match="enumeration workload 21 exceeds"):
                search_bt_set_unpruned(21, 2, 6)

    # Each is reached within a few candidates of 0, so no node widens its
    # window past 256 residues and no mask outgrows a few words, while one
    # bit per residue of Z_N would take 1.25 MB.
    @pytest.mark.parametrize(
        "search, args, elements",
        [
            (search_bt_set, (10000019, 2, 8), (0, 1, 3, 7, 12, 20, 30, 44)),
            (search_bt_set, (10000019, 3, 7), (0, 1, 4, 13, 32, 71, 124)),
            (search_kfold_sidon, (10000019, 1, 6), (0, 1, 3, 7, 12, 20)),
            (search_kfold_sidon, (10000019, 2, 6), (0, 1, 4, 11, 27, 39)),
        ],
    )
    def test_reachable_search_stays_in_its_window(self, search, args, elements):
        tracemalloc.start()
        try:
            with limits_overridden(group_order=256):
                found, reached = search(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found.elements, reached) == (elements, True)
        assert peak < 1 << 17

    def test_window_past_the_group_order_limit_raises(self):
        # The first B_2 set of 60 ends at 7546, so the window doubles past
        # the limit of 4096 residues before it is found.
        assert search_bt_set(10000019, 2, 60)[0].elements[-1] == 7546
        with limits_overridden(group_order=4096):
            with pytest.raises(ResourceLimitError, match="group_order workload 8192 exceeds limit 4096"):
                search_bt_set(10000019, 2, 60)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sidon_shortcut_matches_full_check(self, data):
        k = data.draw(st.sampled_from([1, 2, 3]))
        N = data.draw(_sidon_moduli(k, 40))
        order = data.draw(st.permutations(range(N)))
        size = data.draw(st.integers(0, 5))
        accepted: list[int] = []
        for x in order:  # a random k-fold Sidon set, grown greedily
            if len(accepted) == size:
                break
            if is_kfold_sidon(accepted + [x], N, k)[0]:
                accepted.append(x)
        _assert_blocked_matches_full_check(accepted, N, k)

    # A multiplier above k may share a factor with N (gcd(N, k!) == 1 only
    # covers those up to k), and then s y == v has gcd(s, N) roots or none.
    @pytest.mark.parametrize("N, k", [(2, 1), (4, 1), (10, 1), (9, 2), (15, 2), (25, 3)])
    def test_sidon_multiplier_need_not_be_a_unit(self, N, k):
        assert any(gcd(s, N) > 1 for s, _ in _sidon_relations(k))
        for target in range(1, 5):
            found, reached = search_kfold_sidon(N, k, target)
            ref, ref_reached = search_kfold_sidon_unpruned(N, k, target)
            assert (found.elements, reached) == (ref.elements, ref_reached)
        _assert_blocked_matches_full_check(list(search_kfold_sidon(N, k, 6)[0].elements), N, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sidon_relations_cover_every_vector(self, k):
        # Each class (vector up to permutation and sign, y at one nonzero
        # coefficient) with support >= 3 appears once, before y's other
        # positions are folded into s.
        vectors = [
            c for c in product(range(-k, k + 1), repeat=4)
            if sum(c) == 0 and sum(1 for x in c if x) >= 3
        ]
        expected = set()
        for c in vectors:
            for i in range(4):
                if c[i]:
                    sign = 1 if c[i] > 0 else -1
                    others = sorted(sign * c[j] for j in range(4) if j != i and c[j])
                    expected.add((sign * c[i], tuple(others)))
        folded = set()
        for c1, rest in expected:
            for mask in range(1 << len(rest)):
                s = c1 + sum(c for b, c in enumerate(rest) if mask >> b & 1)
                others = [c for b, c in enumerate(rest) if not mask >> b & 1]
                if s and len(others) >= 2:
                    sign = 1 if s > 0 else -1
                    folded.add((sign * s, tuple(sorted(sign * c for c in others))))
        assert sorted(folded) == _sidon_relations(k)

    def test_trivial_solution_matches_partitions(self):
        # Every coefficient vector of fold 3 against every equality pattern.
        for cs in product(range(-3, 4), repeat=4):
            if sum(cs) or not any(cs):
                continue
            for xs in product(range(4), repeat=4):
                if all(xs[i] <= max(xs[:i], default=-1) + 1 for i in range(4)):
                    assert _trivial_solution(cs, xs) == trivial_solution_by_partitions(cs, xs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: search_bt_set(0, 2, 3),
            lambda: search_bt_set(10, 0, 3),
            lambda: search_bt_set(10, -1, 3),
            lambda: search_bt_set(10, 2, 0),
            lambda: search_kfold_sidon(-7, 1, 3),
            lambda: search_kfold_sidon(7, 0, 3),
            lambda: search_kfold_sidon(7, 1, -1),
            lambda: is_bt_set([0, 1], 0, 2),
            lambda: is_bt_set([0, 1], 10, -1),
            lambda: is_kfold_sidon([0, 1], 7, 0),
        ],
    )
    def test_bad_arguments(self, call):
        with pytest.raises(DomainError, match="need "):
            call()

    def test_disagreement_with_the_full_check(self, monkeypatch, capsys):
        import magball.constructions as constructions

        monkeypatch.setattr(constructions, "is_bt_set", lambda *a: (False, ((0, 0), (1, 2))))
        with pytest.raises(OracleDisagreement):
            search_bt_set(8, 2, 3)
        monkeypatch.setattr(
            constructions, "is_kfold_sidon", lambda *a: (False, ((1, 1, -1, -1), (0, 3, 1, 2)))
        )
        with pytest.raises(OracleDisagreement):
            search_kfold_sidon(7, 1, 3)
        assert main(["search", "--kind", "sidon", "--N", "7", "--k", "1",
                     "--target-size", "3"]) == 3
        assert "oracle disagreement" in capsys.readouterr().err


class TestBehrend:
    def test_sphere_sets_example(self):
        sets = behrend_sphere_sets(2, 1, 3)
        assert sets == {0: (0,), 1: (1, 4), 2: (5,)}

    def test_partition_and_pigeonhole(self):
        for D, K, alpha in [(2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 8)]:
            sets = behrend_sphere_sets(D, K, alpha)
            assert sum(len(v) for v in sets.values()) == (K + 1) ** D
            assert max(len(v) for v in sets.values()) * (D * K * K + 1) >= (K + 1) ** D

    def test_instance_17(self):
        s = behrend_ruzsa_splitter(1, 0, 2, 1, 17)
        assert s.group.moduli == (4, 17, 17)
        assert [e.residues for e in s.elements] == [(1, 1, 1), (1, 4, 16)]
        assert check_partial_split(s).verified

    def test_kplus_gate(self):
        # kplus = 3 forces alpha = 18, so the prime must clear (18K+1)^D = 361.
        assert behrend_ruzsa_splitter(3, 0, 2, 1, 367) is not None
        with pytest.raises(DomainError):
            behrend_ruzsa_splitter(4, 0, 2, 1, 1093)

    def test_congruence_and_size_gates(self):
        with pytest.raises(DomainError):
            behrend_ruzsa_splitter(1, 0, 2, 1, 13)  # 13 = 1 mod 12
        with pytest.raises(DomainError):
            behrend_ruzsa_splitter(1, 0, 2, 1, 7)  # (3K+1)^2 = 16 > 7

    def test_larger_instance_verifies(self):
        s = behrend_ruzsa_splitter(2, 1, 2, 1, 101)  # alpha = 8, 81 <= 101
        assert s.group.moduli == (9, 101, 101)
        assert check_partial_split(s).verified


class TestBch:
    def test_ternary_instance(self):
        code = bch_code(3, 2, 5)
        assert (code.n, code.k) == (8, 2)
        assert min_distance(code) >= 5

    def test_binary_classic(self):
        code = bch_code(2, 4, 5)
        assert (code.n, code.k) == (15, 7)
        assert min_distance(code) == 5

    def test_dimension_formula(self):
        for p, m, d in [(3, 2, 5), (2, 4, 5), (5, 2, 5)]:
            code = bch_code(p, m, d)
            n = p**m - 1
            assert code.k == n - ((d - 1) - (d - 1) // p) * m

    def test_dimension_above_formula_is_flagged_not_failed(self):
        # For (2,4,7) the classical value 3 is not exactly reachable by whole
        # cosets, so the plain defining set (dimension 5) is kept and flagged.
        with pytest.warns(UserWarning, match="exceeds the classical value"):
            code = bch_code(2, 4, 7)
        assert code.k == 5
        assert min_distance(code) >= 7

    def test_parity_check_consistency(self):
        code = bch_code(3, 2, 5)
        for g in code.generator:
            for h in code.parity_check:
                assert sum(a * b for a, b in zip(g, h)) % 3 == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            bch_code(3, 2, 1)
        with pytest.raises(DomainError):
            bch_code(4, 2, 5)  # p must be prime


class TestCodeLattice:
    def test_volume_is_p_power(self):
        assert code_lattice(bch_code(3, 2, 5), 1, 1).volume == 729

    def test_trivial_code_gives_unit_lattice(self):
        triv = LinearCode(3, 2, 2, ((1, 0), (0, 1)), (), 1)
        assert code_lattice(triv, 1, 1).volume == 1

    def test_magnitude_gate(self):
        with pytest.raises(DomainError):
            code_lattice(bch_code(3, 2, 5), 2, 1)  # 3 errors of magnitude >= p

    def test_packing_density(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        assert density(basis, BallSpec(8, 2, 1, 1)) == Fraction(129, 729)

    def test_rank_deficient_parity_check_is_refused(self):
        # A repeated check row: the kernel of H has volume 2, not 2^(n-k) = 4.
        code = LinearCode(2, 3, 1, ((1, 1, 1),), ((1, 1, 0), (1, 1, 0)), 1)
        with pytest.raises(DomainError, match=r"p\^\(n-k\)"):
            code_lattice(code, 1, 0)

    def test_not_gated_by_group_order(self):
        with limits_overridden(group_order=8):
            assert code_lattice(bch_code(3, 2, 5), 1, 1).volume == 729

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_systematic_codes_against_stacked_rows(self, data):
        # G = [I | A] and H = [-A^T | I], columns permuted, H entries lifted
        # by multiples of p; k = 0 and k = n included.
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(0, n))
        A = [[data.draw(st.integers(0, p - 1)) for _ in range(n - k)] for _ in range(k)]
        G = [[int(i == j) for j in range(k)] + A[i] for i in range(k)]
        H = [[-A[j][i] for j in range(k)] + [int(i == j) for j in range(n - k)]
             for i in range(n - k)]
        perm = data.draw(st.permutations(range(n)))
        code = LinearCode(
            p, n, k,
            tuple(tuple(row[j] for j in perm) for row in G),
            tuple(tuple(row[j] + p * data.draw(st.integers(-2, 2)) for j in perm) for row in H),
            1,
        )
        assert code_lattice(code, 1, 0) == code_lattice_by_hnf(code)

    @pytest.mark.parametrize("p,m,d", [(3, 2, 5), (2, 6, 5), (3, 3, 5), (2, 7, 7), (5, 2, 5)])
    def test_bch_codes_against_stacked_rows(self, p, m, d):
        code = bch_code(p, m, d)
        assert code_lattice(code, 1, 0) == code_lattice_by_hnf(code)


class TestCoveringFamilies:
    def test_base_split_z4(self):
        s = covering_base_split(2, 2, 1, 0)
        assert [e.residues[0] for e in s.elements] == [1, 2, 3]
        assert s.magnitudes.values() == (1,)
        assert check_complete_split(s).verified
        assert check_partial_split(s).verified  # tiling

    def test_base_split_z9(self):
        s = covering_base_split(3, 2, 1, 1)
        assert [e.residues[0] for e in s.elements] == [1, 3, 4, 7]
        assert s.magnitudes.values() == (-1, 1)
        assert check_complete_split(s).verified
        assert check_partial_split(s).verified

    def test_base_split_m1(self):
        s = covering_base_split(3, 1, 1, 1)
        assert [e.residues[0] for e in s.elements] == [1]
        assert check_complete_split(s).verified

    def test_prime_gate(self):
        with pytest.raises(DomainError):
            covering_base_split(4, 2, 2, 1)
        with pytest.raises(DomainError):
            covering_base_split(5, 2, 1, 0)  # p > kplus + kminus + 1

    def test_product_example_and_density(self):
        base = covering_base_split(2, 2, 1, 0)
        s = product_splitter(base, 2)
        assert [e.residues for e in s.elements] == [
            (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3),
        ]
        assert check_complete_split(s).verified
        frac = density(kernel_lattice(s), s.ball())
        assert frac == Fraction(22, 16)
        n, p, t = s.n, 2, 2
        assert (n * (p - 1) // t + 1) ** t == 16

    def test_product_identity_at_t1(self):
        base = covering_base_split(2, 2, 1, 0)
        assert product_splitter(base, 1) is base

    def test_product_larger_instance(self):
        base = covering_base_split(3, 1, 1, 1)
        s = product_splitter(base, 3)
        assert s.n == 3 and s.group.moduli == (3, 3, 3)
        assert check_complete_split(s).verified

    def test_product_with_multi_factor_base_group(self):
        from magball import GroupSpec, MagnitudeSet, SplitterSet

        g = GroupSpec((2, 2))
        base = SplitterSet(
            g,
            tuple(g.element(e) for e in [(0, 1), (1, 0), (1, 1)]),
            MagnitudeSet(1, 0),
            1,
        )
        assert check_complete_split(base).verified
        s = product_splitter(base, 2)
        assert s.group.moduli == (2, 2, 2, 2) and s.n == 6
        assert s.elements[0].residues == (0, 1, 0, 0)
        assert s.elements[3].residues == (0, 0, 0, 1)
        assert check_complete_split(s).verified

    def test_covering_density_at_least_one(self):
        for s in [
            product_splitter(covering_base_split(2, 2, 1, 0), 2),
            product_splitter(covering_base_split(3, 1, 1, 1), 2),
        ]:
            assert density(kernel_lattice(s), s.ball()) >= 1


class TestBaseline:
    def test_lower_bound(self):
        for n, t, kp, km, ell in [(6, 2, 1, 0, 2), (4, 2, 1, 1, 3)]:
            value = hamming_covering_baseline(n, t, kp, km, ell)
            assert value >= Fraction(n) * Fraction(int(log(ell) * 10**9), 10**9)

    def test_frozen_instance(self):
        # ceil(6 * 64 * ln_up(2) / 22) = 13 codewords; 13 * 22 / 64 = 143/32.
        assert hamming_covering_baseline(6, 2, 1, 0, 2) == Fraction(143, 32)

    def test_exactness_is_rational(self):
        value = hamming_covering_baseline(6, 2, 1, 0, 2)
        assert isinstance(value, Fraction)

    @pytest.mark.parametrize("ell", range(2, 65))
    def test_floor_ln_matches_high_precision(self, ell):
        # 60 significant digits leave about 50 past the 10^-9 place, far
        # more than any ln(ell) with ell <= 64 needs to settle its floor.
        ln = Decimal(ell).ln(Context(prec=60))
        expected = int((ln * 10**9).to_integral_value(rounding=ROUND_FLOOR))
        assert _floor_ln(ell, 10**9) == expected


class TestLambdaSampler:
    def test_reproducibility(self):
        a = sample_lambda_splitter(53, 2, 1, 0, 0.25, seed=1)
        b = sample_lambda_splitter(53, 2, 1, 0, 0.25, seed=1)
        assert a.splitter == b.splitter
        assert a.lambda_ == b.lambda_
        assert a.report.to_json() == b.report.to_json()

    def test_lambda_is_histogram_max(self):
        sample = sample_lambda_splitter(53, 2, 1, 0, 0.25, seed=1)
        assert sample.lambda_ == max(
            m for m, cnt in sample.report.histogram.items() if cnt
        )

    def test_lambda_one_iff_partial_verified(self):
        for seed in range(1, 8):
            try:
                sample = sample_lambda_splitter(53, 2, 1, 0, 0.25, seed=seed)
            except DomainError:
                continue
            partial = check_partial_split(sample.splitter)
            assert (sample.lambda_ == 1) == partial.verified

    def test_gcd_gate(self):
        with pytest.raises(DomainError):
            sample_lambda_splitter(54, 2, 2, 0, 0.25, seed=1)

    def test_epsilon_gate(self):
        with pytest.raises(DomainError):
            sample_lambda_splitter(53, 2, 1, 0, 0.75, seed=1)


class TestCrossOracle:
    def test_constructed_instances_agree_with_geometry(self):
        sidon, _ = search_kfold_sidon(31, 2, 4)
        instances = [
            ("packing", bt_shift_to_splitter(bose_chowla_s1(4, 2))),
            ("packing", bt_shift_to_splitter(bose_chowla_s2(4, 2).bt)),
            ("packing", bt_pm1_splitter(bose_chowla_s1(3, 2), 2)),
            ("packing", kfold_sidon_splitter(sidon, 2, 0)),
            ("packing", behrend_ruzsa_splitter(1, 0, 2, 1, 17)),
            ("covering", covering_base_split(2, 2, 1, 0)),
            ("covering", covering_base_split(3, 2, 1, 1)),
            ("covering", product_splitter(covering_base_split(2, 2, 1, 0), 2)),
        ]
        for kind, s in instances:
            basis = kernel_lattice(s)
            if kind == "packing":
                assert check_partial_split(s).verified
                assert verify_packing_geometric(basis, s.ball()).verified
            else:
                assert check_complete_split(s).verified
                assert basis.volume == s.group.order
                assert verify_covering_geometric(basis, s.ball()).verified

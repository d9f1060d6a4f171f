"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines stream."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from magball import (
    BallSpec,
    DomainError,
    GroupSpec,
    MagnitudeSet,
    ModPDecoderContext,
    S2DecoderContext,
    SplitterSet,
    ball_size,
    bch_code,
    behrend_ruzsa_splitter,
    bose_chowla_s1,
    bose_chowla_s2,
    bt_pm1_splitter,
    bt_shift_to_splitter,
    check_complete_split,
    check_partial_split,
    code_lattice,
    covering_base_split,
    decode_mod_p,
    decode_s2,
    density,
    enumerate_ball,
    kernel_lattice,
    multiplicity_histogram,
    product_splitter,
    sample_lambda_splitter,
    verify_covering_geometric,
    verify_packing_geometric,
)
from magball.constructions import min_distance
from references import s2_splitter_set, subgroup_order


def _announce(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def _binary_patterns(n, t):
    out = [(0,) * n]
    for w in range(1, t + 1):
        for support in combinations(range(n), w):
            v = [0] * n
            for p in support:
                v[p] = 1
            out.append(tuple(v))
    return out


def _lattice_points(basis, count, seed, spread=20):
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = [rng.randint(-spread, spread) for _ in range(basis.n)]
        yield tuple(
            sum(c * row[j] for c, row in zip(coeffs, basis.rows))
            for j in range(basis.n)
        )


def test_criterion_1_ball_arithmetic():
    started = time.perf_counter()
    spec = BallSpec(3, 2, 2, 1)
    assert ball_size(spec) == 37
    assert sum(1 for _ in enumerate_ball(spec)) == 37
    checked = 0
    for n in range(1, 9):
        for t in range(0, min(n, 3) + 1):
            for kplus in range(1, 5):
                for kminus in range(0, kplus + 1):
                    if kplus + kminus > 4:
                        continue
                    s = BallSpec(n, t, kplus, kminus)
                    assert sum(1 for _ in enumerate_ball(s)) == ball_size(s)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(1, f"ball formula == enumeration on {checked} specs in {elapsed:.3f}s")


def test_criterion_2_bose_chowla_q4_density():
    started = time.perf_counter()
    bt = bose_chowla_s1(4, 2)
    splitter = bt_shift_to_splitter(bt)
    assert splitter.group.moduli == (15,)
    assert splitter.n == 3 and splitter.t == 2
    assert check_partial_split(splitter).verified
    frac = density(kernel_lattice(splitter), splitter.ball())
    n = 3
    expected = Fraction(sum(comb(n, i) for i in range(3)), (n + 1) ** 2 - 1)
    assert frac == expected == Fraction(7, 15)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(2, f"verified 2-split of Z_15 with density exactly 7/15 in {elapsed:.3f}s")


def test_criterion_3_pm1_density():
    started = time.perf_counter()
    for bt in [bose_chowla_s1(3, 2)]:
        splitter = bt_pm1_splitter(bt, 2)
        assert splitter.group.moduli == (8, 5)
        assert check_partial_split(splitter).verified
        frac = density(kernel_lattice(splitter), splitter.ball())
        expected = Fraction(sum(comb(3, i) * 2**i for i in range(3)), 40)
        assert frac == expected == Fraction(19, 40)
    # the literal B_2[8;1] set gives the same instance
    from magball.constructions import BtSet

    splitter = bt_pm1_splitter(BtSet(8, (0, 1, 3), 2, "search"), 2)
    assert check_partial_split(splitter).verified
    assert density(kernel_lattice(splitter), splitter.ball()) == Fraction(19, 40)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(3, f"verified 2-split of Z_8 x Z_5 with density exactly 19/40 in {elapsed:.3f}s")


def test_criterion_4_bch_chain():
    started = time.perf_counter()
    code = bch_code(3, 2, 5)
    assert code.k == code.n - ((code.d - 1) - (code.d - 1) // code.p) * 2 == 2
    words = list(code.codewords())
    assert len(words) == 9
    assert min(sum(1 for x in w if x) for w in words if any(w)) >= 5
    assert min_distance(code) >= 5
    basis = code_lattice(code, 1, 1)
    assert basis.volume == 3**6 == 729
    ball = BallSpec(8, 2, 1, 1)
    assert verify_packing_geometric(basis, ball).verified
    assert density(basis, ball) == Fraction(129, 729)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _announce(4, f"[8,2,>=5]_3 lattice: volume 729, density 129/729 in {elapsed:.3f}s")


def test_criterion_5_behrend_instance():
    started = time.perf_counter()
    splitter = behrend_ruzsa_splitter(1, 0, 2, 1, 17)
    assert splitter.group.moduli == (4, 17, 17)
    assert splitter.n == 2
    assert [e.residues for e in splitter.elements] == [(1, 1, 1), (1, 4, 16)]
    assert check_partial_split(splitter).verified
    with pytest.raises(DomainError):
        behrend_ruzsa_splitter(4, 0, 2, 1, 1093)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(5, f"sphere-class 2-split of Z_4 x Z_17 x Z_17 verified, kplus=4 refused, in {elapsed:.3f}s")


def test_criterion_6_covering_product():
    started = time.perf_counter()
    base = covering_base_split(2, 2, 1, 0)
    assert [e.residues[0] for e in base.elements] == [1, 2, 3]
    assert check_complete_split(base).verified
    prod = product_splitter(base, 2)
    assert prod.group.moduli == (4, 4) and prod.n == 6
    assert check_complete_split(prod).verified
    frac = density(kernel_lattice(prod), prod.ball())
    assert frac == Fraction(22, 16)
    assert (prod.n * (2 - 1) // 2 + 1) ** 2 == 16
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(6, f"complete 2-split of Z_4 x Z_4 with density exactly 22/16 in {elapsed:.3f}s")


def test_criterion_7_decoder_round_trips():
    started = time.perf_counter()
    ctx = S2DecoderContext.from_s2(bose_chowla_s2(4, 2))
    basis = kernel_lattice(s2_splitter_set(ctx))
    patterns = _binary_patterns(4, 2)
    assert len(patterns) == 11
    successes = 0
    for x in _lattice_points(basis, 100, seed=2024):
        for e in patterns:
            y = tuple(a + b for a, b in zip(x, e))
            result = decode_s2(ctx, y, verify_identity=True)
            assert result.status == "ok" and result.codeword == x
            successes += 1
    assert successes == 1100

    mctx = ModPDecoderContext.build(bch_code(3, 2, 5), 1, 1)
    mbasis = code_lattice(mctx.code, 1, 1)
    errors = list(enumerate_ball(BallSpec(8, 2, 1, 1)))
    assert len(errors) == 129
    for x in _lattice_points(mbasis, 100, seed=4096, spread=10):
        for e in errors:
            y = tuple(a + b for a, b in zip(x, e))
            result = decode_mod_p(mctx, y)
            assert result.status == "ok" and result.codeword == x
            successes += 1
    assert successes == 1100 + 12900
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(7, f"14000/14000 decode round trips in {elapsed:.2f}s")


def test_criterion_8_decoder_complexity_fit():
    averages = {}
    for q in (4, 8, 16):
        ctx = S2DecoderContext.from_s2(bose_chowla_s2(q, 2))
        basis = kernel_lattice(s2_splitter_set(ctx))
        patterns = _binary_patterns(q, 2)
        total = count = 0
        for x in _lattice_points(basis, 40, seed=31, spread=10):
            for e in patterns:
                y = tuple(a + b for a, b in zip(x, e))
                result = decode_s2(ctx, y)
                assert result.status == "ok"
                total += result.ops.total
                count += 1
        averages[q] = total / count
    xs = sorted(averages)
    ys = [averages[q] for q in xs]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    c1 = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    c2 = ybar - c1 * xbar
    residuals = {q: abs(c1 * q + c2 - averages[q]) / averages[q] for q in xs}
    assert max(residuals.values()) <= 0.20, (averages, residuals)
    _announce(
        8,
        "op counts "
        + ", ".join(f"n={q}: {averages[q]:.1f}" for q in xs)
        + f" fit {c1:.1f} n + {c2:.1f} with max residual {max(residuals.values()):.1%}",
    )


def _random_generating_splitter(rng):
    while True:
        r = rng.randint(1, 2)
        if r == 1:
            moduli = (rng.randint(2, 60),)
        else:
            moduli = (rng.randint(2, 18), rng.randint(2, 18))
        group = GroupSpec(moduli)
        if group.order > 5000:
            continue
        n = rng.randint(1, 6)
        seen = list(
            dict.fromkeys(
                tuple(rng.randrange(m) for m in moduli) for _ in range(4 * n)
            )
        )[:n]
        if len(seen) < 1:
            continue
        kplus = rng.randint(1, 2)
        kminus = rng.randint(0, min(kplus, 3 - kplus))
        t = rng.randint(1, min(2, len(seen)))
        splitter = SplitterSet(
            group,
            tuple(group.element(e) for e in seen),
            MagnitudeSet(kplus, kminus),
            t,
        )
        if subgroup_order(group, list(splitter.elements)) != group.order:
            continue  # the oracle pair assumes the splitters generate the group
        return splitter


def test_criterion_9_oracle_equivalence():
    rng = random.Random(777)
    packing_agree = covering_agree = lambda_agree = 0
    for _ in range(110):
        splitter = _random_generating_splitter(rng)
        basis = kernel_lattice(splitter)
        ball = splitter.ball()

        partial = check_partial_split(splitter).verified
        packing = verify_packing_geometric(basis, ball).verified
        assert partial == packing, (splitter.to_json(), partial, packing)
        packing_agree += 1

        complete = check_complete_split(splitter).verified
        covering = verify_covering_geometric(basis, ball).verified
        assert complete == covering, (splitter.to_json(), complete, covering)
        covering_agree += 1

        lam = multiplicity_histogram(splitter).lambda_
        assert (lam == 1) == partial
        lambda_agree += 1
    _announce(
        9,
        f"{packing_agree} packing, {covering_agree} covering, and "
        f"{lambda_agree} lambda equivalences with zero disagreements",
    )


def test_criterion_10_lambda_sampler():
    started = time.perf_counter()
    summaries = []
    for N in (53, 101, 211):
        first = sample_lambda_splitter(N, 2, 1, 0, 0.25, seed=1)
        again = sample_lambda_splitter(N, 2, 1, 0, 0.25, seed=1)
        blob = json.dumps(first.report.to_json(), sort_keys=True)
        assert blob == json.dumps(again.report.to_json(), sort_keys=True)
        assert first.splitter == again.splitter
        assert first.lambda_ == max(
            m for m, cnt in first.report.histogram.items() if cnt > 0
        )
        summaries.append(f"N={N}: |S|={first.splitter.n}, lambda={first.lambda_}, "
                         f"in_window={first.size_in_range}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(10, "; ".join(summaries) + f" ({elapsed:.2f}s)")

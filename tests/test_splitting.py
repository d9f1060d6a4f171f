import random
from collections import Counter
from itertools import product

import pytest

from magball import (
    DomainError,
    GroupSpec,
    MagnitudeSet,
    SplitterSet,
    check_complete_split,
    check_partial_split,
    enumerate_ball,
    multiplicity_histogram,
    phi,
)


def _splitter(moduli, elements, kplus, kminus, t):
    g = GroupSpec(moduli)
    return SplitterSet(
        g, tuple(g.element(e) for e in elements), MagnitudeSet(kplus, kminus), t
    )


# --- independent oracle: classify every coefficient vector by direct product ---

def _oracle(splitter):
    vals = list(splitter.magnitudes.values()) + [0]
    images = {}
    zero_hit = None
    collision = None
    reachable = {splitter.group.identity().residues}
    counts = {splitter.group.identity().residues: 1}
    for e in product(vals, repeat=splitter.n):
        w = sum(1 for x in e if x)
        if w == 0 or w > splitter.t:
            continue
        img = phi(splitter, e).residues
        counts[img] = counts.get(img, 0) + 1
        reachable.add(img)
        if img == splitter.group.identity().residues and zero_hit is None:
            zero_hit = e
        elif img in images and collision is None:
            collision = (images[img], e)
        images.setdefault(img, e)
    partial_ok = zero_hit is None and collision is None
    complete_ok = len(reachable) == splitter.group.order
    lam = max(counts.values())
    return partial_ok, complete_ok, lam, reachable


class TestPhi:
    def test_examples(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        assert phi(s, (1, 1)).residues == (4,)
        assert phi(s, (0, 0)) == s.group.identity()
        s2 = _splitter((8, 5), [(0, 1), (1, 1), (3, 1)], 1, 1, 2)
        assert phi(s2, (1, -1, 1)).residues == (2, 1)

    def test_length_mismatch(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        with pytest.raises(DomainError):
            phi(s, (1, 1, 1))


class TestPartial:
    def test_verified_z8(self):
        report = check_partial_split(_splitter((8,), [(1,), (3,)], 1, 0, 2))
        assert report.verified and report.witness is None

    def test_refuted_with_zero_witness(self):
        report = check_partial_split(_splitter((8,), [(1,), (7,)], 1, 0, 2))
        assert not report.verified
        assert report.witness.kind == "zero"
        assert report.witness.e == (1, 1)

    def test_verified_z8_z5_pm1(self):
        s = _splitter((8, 5), [(0, 1), (1, 1), (3, 1)], 1, 1, 2)
        assert check_partial_split(s).verified

    def test_collision_witness_images_match(self):
        # {1, 2, 3} with t=2 and M={1}: the pair 1+2 collides with 3 itself.
        s = _splitter((8,), [(1,), (2,), (3,)], 1, 0, 2)
        report = check_partial_split(s)
        assert not report.verified
        assert report.witness.kind == "collision"
        assert phi(s, report.witness.e) == phi(s, report.witness.e_other)
        assert report.witness.e != report.witness.e_other


class TestComplete:
    def test_verified_z4(self):
        assert check_complete_split(_splitter((4,), [(1,), (2,), (3,)], 1, 0, 1)).verified

    def test_refuted_with_uncovered_witness(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        report = check_complete_split(s)
        assert not report.verified
        assert report.witness.kind == "uncovered"
        # Oracle: the reachable image set is exactly {0, 1, 3, 4}.
        _, _, _, reachable = _oracle(s)
        assert reachable == {(0,), (1,), (3,), (4,)}
        assert report.witness.g not in reachable

    def test_product_set_covers_z4_squared(self):
        elements = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
        s = _splitter((4, 4), elements, 1, 0, 2)
        assert check_complete_split(s).verified


class TestMultiplicity:
    def test_verified_partial_means_lambda_one(self):
        report = multiplicity_histogram(_splitter((8,), [(1,), (3,)], 1, 0, 2))
        assert report.lambda_ == 1 and report.verified

    def test_zero_sum_pair_gives_lambda_two(self):
        report = multiplicity_histogram(_splitter((8,), [(1,), (7,)], 1, 0, 2))
        assert report.lambda_ == 2
        assert not report.verified and report.witness.kind == "zero"

    def test_histogram_sums_to_group_order(self):
        for elements, moduli in [([(1,), (7,)], (8,)), ([(1,), (3,)], (8,))]:
            s = _splitter(moduli, elements, 1, 0, 2)
            report = multiplicity_histogram(s)
            assert sum(report.histogram.values()) == s.group.order


def _random_splitter(rng):
    moduli = tuple(rng.randint(2, 15) for _ in range(rng.randint(1, 2)))
    g = GroupSpec(moduli)
    n = rng.randint(1, 4)
    pool = [tuple(rng.randrange(m) for m in moduli) for _ in range(3 * n)]
    distinct = list(dict.fromkeys(pool))[:n]
    if not distinct:
        distinct = [tuple(0 for _ in moduli)]
    kplus = rng.randint(1, 2)
    kminus = rng.randint(0, kplus)
    t = rng.randint(1, min(2, len(distinct)))
    return _splitter(moduli, distinct, kplus, kminus, t)


class TestInvariants:
    def test_partial_iff_lambda_one_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(120):
            s = _random_splitter(rng)
            partial = check_partial_split(s)
            hist = multiplicity_histogram(s)
            oracle_partial, _, oracle_lambda, _ = _oracle(s)
            assert partial.verified == oracle_partial
            assert hist.lambda_ == oracle_lambda
            assert (hist.lambda_ == 1) == partial.verified

    def test_complete_matches_oracle_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(80):
            s = _random_splitter(rng)
            _, oracle_complete, _, _ = _oracle(s)
            assert check_complete_split(s).verified == oracle_complete

    def test_tiling_iff_reachable_count_is_group_order(self):
        # Complete + partial together force |G| == 1 + sum C(n,i) |M|^i.
        s = _splitter((4,), [(1,), (2,), (3,)], 1, 0, 1)
        assert check_partial_split(s).verified and check_complete_split(s).verified
        assert s.group.order == 1 + 3  # 1 + C(3,1) * 1

    def test_verdict_invariant_under_permutation(self):
        rng = random.Random(99)
        for _ in range(30):
            s = _random_splitter(rng)
            perm = list(s.elements)
            rng.shuffle(perm)
            permuted = SplitterSet(s.group, tuple(perm), s.magnitudes, s.t)
            assert check_partial_split(s).verified == check_partial_split(permuted).verified

    def test_verdict_invariant_under_negation_when_balanced(self):
        rng = random.Random(5)
        found = 0
        while found < 20:
            s = _random_splitter(rng)
            if s.magnitudes.kplus != s.magnitudes.kminus:
                continue
            try:
                negated = SplitterSet(
                    s.group,
                    tuple(
                        s.group.element(tuple(-x for x in e.residues))
                        for e in s.elements
                    ),
                    s.magnitudes,
                    s.t,
                )
            except DomainError:
                continue  # negation can collide elements like m/2
            found += 1
            assert check_partial_split(s).verified == check_partial_split(negated).verified


def _reference_scan(splitter):
    """Walk ``enumerate_ball`` in order with ``phi``.

    Returns the partial-split witness as JSON (the first nonzero vector whose
    image is the identity or an image an earlier vector reached), lambda, the
    histogram and the set of reachable images.
    """
    identity = splitter.group.identity().residues
    first = {}
    counts = Counter()
    witness = None
    for e in enumerate_ball(splitter.ball()):
        img = phi(splitter, e).residues
        counts[img] += 1
        if witness is None and any(e):
            if img == identity:
                witness = {"kind": "zero", "e": list(e)}
            elif img in first:
                witness = {"kind": "collision", "e": list(first[img]), "e_other": list(e)}
        first.setdefault(img, e)
    histogram = Counter(counts.values())
    if len(counts) < splitter.group.order:
        histogram[0] = splitter.group.order - len(counts)
    return witness, max(counts.values()), dict(histogram), set(counts)


def _assert_single_path(s):
    """Reruns agree byte for byte, and each report matches the ordered reference."""
    partial = check_partial_split(s).to_json()
    complete = check_complete_split(s).to_json()
    hist = multiplicity_histogram(s).to_json()
    assert check_partial_split(s).to_json() == partial
    assert check_complete_split(s).to_json() == complete
    assert multiplicity_histogram(s).to_json() == hist

    witness, lam, histogram, reachable = _reference_scan(s)
    verdict = "verified" if witness is None else "refuted"
    assert partial == {"verdict": verdict, "witness": witness, "lambda": None, "histogram": None}
    assert hist == {
        "verdict": verdict,
        "witness": witness,
        "lambda": lam,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    missing = [g.residues for g in s.group.elements() if g.residues not in reachable]
    if missing:
        assert complete["witness"] == {"kind": "uncovered", "g": list(missing[0])}
    else:
        assert complete == {"verdict": "verified", "witness": None, "lambda": None, "histogram": None}


class TestScanOrder:
    def test_reports_identical_across_reruns(self):
        cases = [
            _splitter((8,), [(1,), (7,)], 1, 0, 2),
            _splitter((8,), [(1,), (3,)], 1, 0, 2),
            _splitter((8, 5), [(0, 1), (1, 1), (3, 1)], 1, 1, 2),
            _splitter((30,), [(1,), (4,), (9,), (11,)], 2, 1, 2),
            # Collisions only: the first witness pairs two nonzero vectors.
            _splitter((8,), [(1,), (2,), (3,)], 1, 0, 2),
        ]
        for s in cases:
            _assert_single_path(s)

    def test_large_scan_matches_the_ordered_reference(self):
        # n = 14, t = 3, |M| = 3 gives 10689 nonzero vectors.
        g = GroupSpec((1009,))
        s = SplitterSet(
            g,
            tuple(g.element((3**i % 1009,)) for i in range(14)),
            MagnitudeSet(2, 1),
            3,
        )
        _assert_single_path(s)

    def test_first_witness_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(150):
            _assert_single_path(_random_splitter(rng))


class TestDegenerateGroups:
    def test_trivial_group_factor(self):
        g = GroupSpec((1,))
        s = SplitterSet(g, (g.identity(),), MagnitudeSet(1, 0), 1)
        assert not check_partial_split(s).verified  # the identity is a zero image
        assert check_complete_split(s).verified
        report = multiplicity_histogram(s)
        assert report.lambda_ == 2  # empty combination plus the unit coefficient
        assert sum(report.histogram.values()) == 1

    def test_identity_element_always_refutes_partial(self):
        g = GroupSpec((5,))
        s = SplitterSet(
            g, (g.element((0,)), g.element((2,))), MagnitudeSet(1, 0), 1
        )
        report = check_partial_split(s)
        assert report.witness.kind == "zero"
        assert report.witness.e == (1, 0)


class TestSerialization:
    def test_round_trip(self):
        s = _splitter((8, 5), [(0, 1), (1, 1), (3, 1)], 1, 1, 2)
        assert SplitterSet.from_json(s.to_json()) == s

    def test_invariants_enforced(self):
        g = GroupSpec((8,))
        with pytest.raises(DomainError):
            SplitterSet(g, (g.element((1,)), g.element((1,))), MagnitudeSet(1, 0), 1)
        with pytest.raises(DomainError):
            SplitterSet(g, (g.element((1,)),), MagnitudeSet(1, 0), 2)  # t > n
        with pytest.raises(DomainError):
            MagnitudeSet(0, 0)

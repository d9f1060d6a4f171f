import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from magball import (
    BallSpec,
    GroupSpec,
    LatticeBasis,
    MagnitudeSet,
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
    density,
    enumerate_ball,
    kernel_lattice,
    kfold_sidon_splitter,
    lattice_contains,
    product_splitter,
    sample_lambda_splitter,
    search_kfold_sidon,
    verify_covering_geometric,
    verify_packing_geometric,
)
from magball.errors import DomainError, ResourceLimitError
from magball.lattice import GeometricReport, basis_from_rows, hermite_normal_form
from magball.limits import limits_overridden
from references import (
    _snf_full,
    covering_by_membership,
    det_from_hnf,
    relation_matrix,
    smith_normal_form,
    subgroup_order,
)


def _splitter(moduli, elements, kplus, kminus, t):
    g = GroupSpec(moduli)
    return SplitterSet(
        g, tuple(g.element(e) for e in elements), MagnitudeSet(kplus, kminus), t
    )


# --- independent oracle: fraction-free Bareiss determinant ---

def _bareiss_det(matrix):
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestHermite:
    def test_transform_is_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            a = _rand_matrix(rng, n + rng.randint(0, 2), n)
            h, u, pivots = hermite_normal_form(a)
            # U @ A == H
            for i in range(len(a)):
                for j in range(n):
                    assert sum(u[i][r] * a[r][j] for r in range(len(a))) == h[i][j]
            assert abs(_bareiss_det(u)) == 1  # unimodular
            for r, c in pivots:
                assert h[r][c] > 0
                assert all(h[i][c] == 0 for i in range(len(a)) if i > r)
                assert all(0 <= h[i][c] < h[r][c] for i in range(r))

    def test_det_matches_bareiss(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = _rand_matrix(rng, n, n)
            assert det_from_hnf(a) == abs(_bareiss_det(a))


class TestSmith:
    def test_identity(self):
        u, d, v = smith_normal_form([[1, 0], [0, 1]])
        assert d == [[1, 0], [0, 1]]

    def test_divisibility_chain_kept(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 4]])
        assert d == [[2, 0], [0, 4]]

    def test_classic_example(self):
        _, d, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [d[i][i] for i in range(3)] == [2, 2, 156]

    def test_transforms_and_chain_on_random(self):
        rng = random.Random(23)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = _rand_matrix(rng, rows, cols)
            u, d, v = smith_normal_form(a)
            # U @ A @ V == D
            ua = [
                [sum(u[i][r] * a[r][j] for r in range(rows)) for j in range(cols)]
                for i in range(rows)
            ]
            uav = [
                [sum(ua[i][r] * v[r][j] for r in range(cols)) for j in range(cols)]
                for i in range(rows)
            ]
            assert uav == d
            assert abs(_bareiss_det(u)) == 1
            assert abs(_bareiss_det(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            for x, y in zip(diag, diag[1:]):
                if x:
                    assert y % x == 0
                else:
                    assert y == 0
            assert all(x >= 0 for x in diag)

    def test_tracked_inverses_are_exact(self):
        rng = random.Random(51)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = _rand_matrix(rng, rows, cols)
            _, _, v, vinv = _snf_full(a)
            eye_c = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
            vv = [
                [sum(vinv[i][r] * v[r][j] for r in range(cols)) for j in range(cols)]
                for i in range(cols)
            ]
            assert vv == eye_c

    def test_hnf_and_snf_agree_on_det(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = _rand_matrix(rng, n, n, bound=6)
            _, d, _ = smith_normal_form(a)
            snf_det = 1
            for i in range(n):
                snf_det *= d[i][i]
            assert det_from_hnf(a) == snf_det


class TestKernelLattice:
    def test_z8_example(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        basis = kernel_lattice(s)
        assert basis.volume == 8
        assert basis.rows == ((1, 5), (0, 8))
        assert not lattice_contains(basis, (1, 1))  # phi((1,1)) = 4 != 0
        assert lattice_contains(basis, (1, 5))

    def test_volume_equals_subgroup_order(self):
        rng = random.Random(31)
        for _ in range(40):
            moduli = tuple(rng.randint(2, 10) for _ in range(rng.randint(1, 2)))
            g = GroupSpec(moduli)
            n = rng.randint(1, 4)
            elems = list(
                dict.fromkeys(
                    tuple(rng.randrange(m) for m in moduli) for _ in range(3 * n)
                )
            )[:n]
            if not elems:
                continue
            s = SplitterSet(
                g,
                tuple(g.element(e) for e in elems),
                MagnitudeSet(1, 0),
                min(2, len(elems)),
            )
            basis = kernel_lattice(s)
            assert basis.volume == subgroup_order(g, list(s.elements))

    def test_membership_respects_row_shifts(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        basis = kernel_lattice(s)
        for row in basis.rows:
            assert lattice_contains(basis, row)
        v = (2, 2)
        shifted = tuple(a + b for a, b in zip(v, basis.rows[0]))
        assert lattice_contains(basis, v) == lattice_contains(basis, shifted)

    def test_code_lattice_volume(self):
        code = bch_code(3, 2, 5)
        basis = code_lattice(code, 1, 1)
        assert basis.volume == 729


# --- slow reference for the subgroup-chain kernel walk ---


def _reference_kernel_lattice(splitter):
    """The left kernel of the relation matrix (residue rows, then modulus
    rows), read off its HNF transform and re-canonicalised by a second HNF."""
    n = splitter.n
    H, U, pivots = hermite_normal_form(relation_matrix(splitter.group, splitter.elements))
    kernel_rows = [U[i][:n] for i in range(len(pivots), len(H))]
    if len(kernel_rows) != n:
        raise DomainError("relation matrix was not full column rank")
    return basis_from_rows(kernel_rows, n)


@dataclass(frozen=True)
class _Images:
    """Any list of images in ``group``; unlike a SplitterSet it may repeat."""

    group: GroupSpec
    elements: tuple

    @property
    def n(self):
        return len(self.elements)


def _kernel_outcome(kernel, images):
    try:
        basis = kernel(images)
    except DomainError:
        return "DomainError"
    return basis.rows, basis.volume


@st.composite
def _image_lists(draw):
    # Moduli in 1..12 give trivial factors and non-coprime pairs; up to eight
    # images give repeats and sets that generate only a subgroup.
    moduli = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    g = GroupSpec(moduli)
    residues = draw(
        st.lists(st.tuples(*(st.integers(0, m - 1) for m in moduli)), min_size=1, max_size=8)
    )
    return _Images(g, tuple(g.element(r) for r in residues))


_FAMILY_SPLITTERS = {
    "bc10-q8": lambda: bt_shift_to_splitter(bose_chowla_s1(8, 2)),
    "bc10-q27": lambda: bt_shift_to_splitter(bose_chowla_s1(27, 2)),
    "bc10-q256": lambda: bt_shift_to_splitter(bose_chowla_s1(256, 2)),
    "s2-q16-t3": lambda: bt_shift_to_splitter(bose_chowla_s2(16, 3).bt),
    "bc11-q13": lambda: bt_pm1_splitter(bose_chowla_s1(13, 2), 2),
    "sidon-31-2-4": lambda: kfold_sidon_splitter(search_kfold_sidon(31, 2, 4)[0], 2, 0),
    "behrend-1-0-2-1-17": lambda: behrend_ruzsa_splitter(1, 0, 2, 1, 17),
    "cov-2-5-2": lambda: product_splitter(covering_base_split(2, 5, 1, 0), 2),
    "lam-1009-0": lambda: sample_lambda_splitter(1009, 2, 1, 0, 0.1, seed=3).splitter,
}


class TestKernelWalkAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_image_lists())
    def test_random_image_lists(self, images):
        outcome = _kernel_outcome(kernel_lattice, images)
        assert outcome == _kernel_outcome(_reference_kernel_lattice, images)
        # Z^n / ker(phi) is the image of phi, so the volume is its order.
        assert outcome[1] == subgroup_order(images.group, list(images.elements))

    @pytest.mark.parametrize("family", sorted(_FAMILY_SPLITTERS))
    def test_family_splitters(self, family):
        splitter = _FAMILY_SPLITTERS[family]()
        assert _kernel_outcome(kernel_lattice, splitter) == _kernel_outcome(
            _reference_kernel_lattice, splitter
        )


class TestGeometricOracles:
    def test_unit_lattice_refutes_packing(self):
        basis = basis_from_rows([[1, 0], [0, 1]], 2)
        report = verify_packing_geometric(basis, BallSpec(2, 1, 1, 0))
        assert not report.verified

    def test_unit_lattice_verifies_covering(self):
        basis = basis_from_rows([[1, 0], [0, 1]], 2)
        assert verify_covering_geometric(basis, BallSpec(2, 1, 1, 0)).verified

    def test_code_lattice_packs_its_ball(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        assert verify_packing_geometric(basis, BallSpec(8, 2, 1, 1)).verified

    def test_packing_witness_difference_is_lattice_point(self):
        s = _splitter((8,), [(1,), (7,)], 1, 0, 2)
        basis = kernel_lattice(s)
        report = verify_packing_geometric(basis, s.ball())
        assert not report.verified
        b1, b2 = report.witness
        assert lattice_contains(basis, tuple(x - y for x, y in zip(b2, b1)))

    def test_covering_witness_is_uncovered(self):
        s = _splitter((8,), [(1,), (3,)], 1, 0, 2)
        basis = kernel_lattice(s)
        report = verify_covering_geometric(basis, s.ball())
        assert not report.verified
        rep = report.witness
        for b in enumerate_ball(s.ball()):
            assert not lattice_contains(basis, tuple(r - x for r, x in zip(rep, b)))

    def test_packing_witness_is_smallest_recurring_index(self):
        # cov-2-2-2: the origin's coset recurs first at e1 + e3.  The first
        # repeat met in scan order would be (e3, e1 + e2) instead.
        s = product_splitter(covering_base_split(2, 2, 1, 0), 2)
        report = verify_packing_geometric(kernel_lattice(s), s.ball())
        assert report.witness == ((0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0))

    @pytest.mark.parametrize("oracle", [verify_packing_geometric, verify_covering_geometric])
    @pytest.mark.parametrize("n", [1, 3])
    def test_ball_of_another_dimension_is_rejected(self, oracle, n):
        basis = basis_from_rows([[1, 5], [0, 8]], 2)
        with pytest.raises(DomainError, match="ball n"):
            oracle(basis, BallSpec(n, 1, 1, 0))

    def test_packing_is_not_gated_by_cosets(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)  # volume 729
        ball = BallSpec(8, 2, 1, 1)
        with limits_overridden(cosets=10):
            assert verify_packing_geometric(basis, ball).verified
            with pytest.raises(ResourceLimitError):
                verify_covering_geometric(basis, ball)


# --- slow references for the Hermite-label oracles ---


def _pair_scan_packing(basis, ball):
    """The O(|B|^2) difference scan: the first pair i < j, in enumerate_ball
    order, whose difference is a lattice point."""
    points = list(enumerate_ball(ball))
    for i, bi in enumerate(points):
        for bj in points[i + 1:]:
            if lattice_contains(basis, tuple(y - x for x, y in zip(bi, bj))):
                return GeometricReport("refuted", witness=(bi, bj))
    return GeometricReport("verified")


def _full_width_covering(basis, ball):
    """Smith labels over every invariant, unit ones included."""
    _, D, V, Vinv = _snf_full([list(r) for r in basis.rows])
    n = basis.n
    diag = [D[i][i] for i in range(n)]

    def label(vec):
        return tuple(sum(vec[r] * V[r][c] for r in range(n)) % diag[c] for c in range(n))

    covered = {label(b) for b in enumerate_ball(ball)}
    if len(covered) == basis.volume:
        return GeometricReport("verified")
    for cand in product(*(range(d) for d in diag)):
        if cand not in covered:
            rep = tuple(sum(cand[r] * Vinv[r][c] for r in range(n)) for c in range(n))
            return GeometricReport("refuted", witness=rep)


@st.composite
def _balls(draw, n):
    kplus = draw(st.integers(1, 2))
    return BallSpec(n, draw(st.integers(0, n)), kplus, draw(st.integers(0, kplus)))


@st.composite
def _triangular_rows(draw):
    n = draw(st.integers(1, 4))
    return [
        [0] * i + [draw(st.integers(1, 6))] + [draw(st.integers(-6, 6)) for _ in range(n - i - 1)]
        for i in range(n)
    ]


@st.composite
def _hnf_bases(draw):
    rows = draw(_triangular_rows())
    return basis_from_rows(rows, len(rows))


@st.composite
def _unreduced_bases(draw):
    """Upper-triangular bases built directly, so the entries above each
    pivot, unit ones included, stay as drawn."""
    rows = draw(_triangular_rows())
    return LatticeBasis(len(rows), tuple(map(tuple, rows)), prod(r[i] for i, r in enumerate(rows)))


@st.composite
def _splitters(draw):
    moduli = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=2)))
    g = GroupSpec(moduli)
    residues = draw(
        st.lists(
            st.tuples(*(st.integers(0, m - 1) for m in moduli)),
            min_size=1, max_size=4, unique=True,
        )
    )
    kplus = draw(st.integers(1, 2))
    mags = MagnitudeSet(kplus, draw(st.integers(0, kplus)))
    t = draw(st.integers(1, len(residues)))
    return SplitterSet(g, tuple(g.element(r) for r in residues), mags, t)


def _assert_covering_matches_references(basis, ball):
    covering = verify_covering_geometric(basis, ball)
    assert covering.to_json() == covering_by_membership(basis, ball).to_json()
    assert covering.verified == _full_width_covering(basis, ball).verified


class TestHermiteLabelsAgainstReferences:
    @pytest.mark.parametrize("bases", [_hnf_bases, _unreduced_bases], ids=["hnf", "unreduced"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_bases(self, bases, data):
        basis = data.draw(bases())
        ball = data.draw(_balls(basis.n))
        assert verify_packing_geometric(basis, ball).to_json() == _pair_scan_packing(basis, ball).to_json()
        _assert_covering_matches_references(basis, ball)

    @settings(max_examples=80, deadline=None)
    @given(_splitters())
    def test_kernel_lattices_of_random_splitters(self, s):
        basis, ball = kernel_lattice(s), s.ball()
        packing = verify_packing_geometric(basis, ball)
        assert packing.to_json() == _pair_scan_packing(basis, ball).to_json()
        assert packing.verified == check_partial_split(s).verified
        _assert_covering_matches_references(basis, ball)

    def test_bose_chowla_q256_kernel_packs(self):
        # n = 255 with one pivot of 65,535: every other row is a unit row.
        s = _FAMILY_SPLITTERS["bc10-q256"]()
        basis = kernel_lattice(s)
        assert [r[i] for i, r in enumerate(basis.rows) if r[i] > 1] == [65535]
        assert verify_packing_geometric(basis, s.ball()).verified
        assert check_partial_split(s).verified


class TestDensity:
    def test_examples(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        assert density(basis, BallSpec(8, 2, 1, 1)) == Fraction(129, 729)

    def test_ball_of_another_dimension_is_refused(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        with pytest.raises(DomainError, match="ball n = 5 != lattice n = 8"):
            density(basis, BallSpec(5, 2, 1, 1))

    def test_rows_of_another_length_are_refused(self):
        for rows in ([[1, 0, 5], [0, 1, 7]], [[1], [0, 1]]):
            with pytest.raises(DomainError, match="n = 2 entries"):
                basis_from_rows(rows, 2)

    def test_repetition_code_lattice_tiles(self):
        # The binary [5,1,5] repetition code lattice tiles with B(5,2,1,0).
        from magball.constructions import LinearCode

        gen = ((1, 1, 1, 1, 1),)
        par = tuple(
            tuple(1 if j in (0, i + 1) else 0 for j in range(5)) for i in range(4)
        )
        code = LinearCode(2, 5, 1, gen, par, 5)
        basis = code_lattice(code, 1, 0)
        ball = BallSpec(5, 2, 1, 0)
        assert density(basis, ball) == 1
        assert verify_packing_geometric(basis, ball).verified
        assert verify_covering_geometric(basis, ball).verified

    def test_packing_density_at_most_one(self):
        rng = random.Random(4)
        for _ in range(30):
            moduli = (rng.randint(4, 40),)
            g = GroupSpec(moduli)
            n = rng.randint(1, 3)
            elems = list(
                dict.fromkeys((rng.randrange(moduli[0]),) for _ in range(2 * n))
            )[:n]
            if not elems:
                continue
            s = SplitterSet(
                g, tuple(g.element(e) for e in elems), MagnitudeSet(1, 0),
                min(2, len(elems)),
            )
            basis = kernel_lattice(s)
            if check_partial_split(s).verified:
                assert density(basis, s.ball()) <= 1
            if check_complete_split(s).verified:
                assert Fraction(ball_size(s.ball()), s.group.order) >= 1


class TestSerialization:
    def test_round_trip(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        other = LatticeBasis.from_json(basis.to_json())
        assert other.rows == basis.rows and other.volume == basis.volume

    def test_volume_is_decimal_string(self):
        basis = code_lattice(bch_code(3, 2, 5), 1, 1)
        assert basis.to_json()["volume"] == "729"

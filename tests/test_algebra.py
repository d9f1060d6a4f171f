import random
from functools import lru_cache, partial
from itertools import product

import pytest
from hypothesis import given, strategies as st

from magball import (
    DomainError,
    FieldSpec,
    GroupSpec,
    find_primitive_polynomial,
    group_add,
    group_neg,
    scalar_mul,
)
from magball.algebra import (
    _is_primitive,
    _log_add,
    _log_mul,
    _poly_from_roots,
    _subfield_tables,
    factor_prime_power,
    is_prime,
    subfield_logs,
)
from references import (
    TupleField,
    min_poly_by_tuples,
    mul_by_x,
    power_table,
    subgroup_order,
    subgroup_order_by_diagonalization,
)


# --- independent oracle: order of x in F_p[x]/(f) by schoolbook arithmetic ---

def _oracle_order_of_x(p, modulus):
    m = len(modulus) - 1
    one = tuple([1] + [0] * (m - 1))
    cur = mul_by_x(p, modulus, one)
    for k in range(1, p**m):
        if cur == one:
            return k
        cur = mul_by_x(p, modulus, cur)
    return None


def _oracle_first_primitive_quadratic_f3():
    # Exhaust the 9 monic quadratics over F_3 in descending-coefficient order.
    for c1, c0 in product(range(3), repeat=2):
        if c0 == 0:
            continue
        modulus = (c0, c1, 1)
        # Irreducible quadratic over F_3 iff it has no root.
        if any((x * x + c1 * x + c0) % 3 == 0 for x in range(3)):
            continue
        if _oracle_order_of_x(3, modulus) == 8:
            return modulus
    raise AssertionError("no primitive quadratic found")


class TestPrimitivePolynomials:
    def test_f4_is_the_unique_quadratic(self):
        assert find_primitive_polynomial(2, 2).modulus == (1, 1, 1)

    def test_f2_degree_one(self):
        assert find_primitive_polynomial(2, 1).modulus == (1, 1)

    def test_f9_matches_exhaustive_oracle(self):
        expected = _oracle_first_primitive_quadratic_f3()
        assert expected == (2, 1, 1)  # frozen from the oracle above
        assert find_primitive_polynomial(3, 2).modulus == expected

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 8), (3, 4), (5, 3), (7, 2), (13, 1)])
    def test_order_of_x_is_full(self, p, m):
        spec = find_primitive_polynomial(p, m)
        assert _oracle_order_of_x(p, spec.modulus) == p**m - 1

    def test_rejects_composite_characteristic(self):
        with pytest.raises(DomainError):
            find_primitive_polynomial(4, 2)

    @pytest.mark.parametrize(
        "p,m", [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 5)]
        + [(5, 1), (5, 2), (5, 3), (7, 2)]
    )
    def test_order_test_matches_the_walk(self, p, m):
        # Every monic candidate with a nonzero constant term.
        for rest in product(range(p), repeat=m):
            if rest[0] == 0:
                continue
            modulus = rest + (1,)
            assert _is_primitive(p, modulus) == (_oracle_order_of_x(p, modulus) == p**m - 1)

    @pytest.mark.parametrize(
        "p,m,modulus",
        [
            # Pinned: the walk in _oracle_order_of_x takes up to 16 s here.
            (2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            (2, 18, (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            (2, 20, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
            (3, 12, (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1)),
        ],
    )
    def test_large_fields_are_pinned(self, p, m, modulus):
        assert find_primitive_polynomial(p, m).modulus == modulus

    def test_first_primitive_polynomials_are_pinned(self):
        # Found by the search over tuple arithmetic; coefficients constant term first.
        pins = {
            (2, 1): "11", (2, 2): "111", (2, 3): "1101", (2, 4): "11001", (2, 5): "101001",
            (2, 6): "1100001", (2, 7): "11000001", (2, 8): "101110001",
            (2, 9): "1000100001", (2, 10): "10010000001", (2, 11): "101000000001",
            (2, 12): "1100101000001", (2, 13): "11011000000001",
            (2, 14): "110101000000001", (2, 15): "1100000000000001",
            (2, 16): "10110100000000001",
            (3, 1): "11", (3, 2): "211", (3, 3): "1201", (3, 4): "21001", (3, 5): "120001",
            (3, 6): "2100001", (3, 7): "12100001", (3, 8): "200100001",
            (5, 1): "21", (5, 2): "211", (5, 3): "2301", (5, 4): "22101", (5, 5): "240001",
            (7, 1): "21", (7, 2): "311", (7, 3): "2301", (7, 4): "53101",
            (11, 1): "31", (11, 2): "711", (11, 3): "4101",
            (13, 1): "21", (13, 2): "211", (13, 3): "6101",
        }
        for (p, m), modulus in pins.items():
            assert find_primitive_polynomial(p, m).modulus == tuple(map(int, modulus)), (p, m)


def _log(field, e):
    """The exponent d with x^d = e, or -1 for zero, read off the field's tables."""
    return field.tables()[1][field.pack(e)]


class TestDiscreteLog:
    def test_f4_examples(self):
        f = find_primitive_polynomial(2, 2)
        assert _log(f, (1, 1)) == 2  # x^2 = x + 1
        assert _log(f, (1, 0)) == 0
        assert _log(f, (0, 1)) == 1

    def test_zero_rejected(self):
        # Zero is no power of x: its log is -1, which absorbs products.
        f = find_primitive_polynomial(2, 2)
        assert _log(f, (0, 0)) == -1
        assert (0, 0) not in {f.power_of_gen(d) for d in range(3)}
        assert _log_mul(3, -1, 2) == _log_mul(3, 2, -1) == -1

    @pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (7, 2)])
    def test_bijection_and_inverse(self, p, m):
        f = find_primitive_polynomial(p, m)
        seen = set()
        e = (1,) + (0,) * (m - 1)
        for _ in range(p**m - 1):
            d = _log(f, e)
            assert f.power_of_gen(d) == e
            seen.add(d)
            e = mul_by_x(p, f.modulus, e)
        assert seen == set(range(p**m - 1))


# Fields small enough for the tuple reference's power table.
SMALL_FIELDS = [(2, m) for m in (1, 2, 3, 5, 8)] + [(3, m) for m in (1, 2, 4)] + [
    (p, m) for p in (5, 7) for m in (1, 2, 3)
]


@lru_cache(maxsize=None)
def _tuple_reference(p, m):
    field = find_primitive_polynomial(p, m)
    return field, TupleField(field), power_table(field)


@st.composite
def _field_case(draw):
    p, m = draw(st.sampled_from(SMALL_FIELDS))
    element = st.tuples(*[st.integers(0, p - 1)] * m)
    return (p, m), draw(element), draw(element), draw(st.integers(-3 * p**m, 3 * p**m))


class TestPackedFieldAgainstTuples:
    @given(_field_case())
    def test_operations_agree(self, case):
        (p, m), a, b, e = case
        field, ref, (powers, log) = _tuple_reference(p, m)
        n, zech = field.size - 1, field.tables()[2]
        la, lb = _log(field, a), _log(field, b)
        assert la == log.get(a, -1) and lb == log.get(b, -1)
        assert ref.from_log(_log_mul(n, la, lb)) == ref.mul(a, b)
        assert ref.from_log(_log_add(zech, n, la, lb)) == ref.add(a, b)
        assert field.power_of_gen(e) == powers[e % n]

    @pytest.mark.parametrize("p,m", SMALL_FIELDS + [(2, m) for m in (4, 6, 7, *range(9, 13), 16)])
    def test_tables_match_the_power_table(self, p, m):
        field, ref, (powers, log) = _tuple_reference(p, m)
        exp, packed_log, zech = field.tables()
        assert [field.unpack(v) for v in exp] == powers
        assert [packed_log[field.pack(e)] for e in powers] == list(range(field.size - 1))
        assert packed_log[0] == -1
        # zech[k] = log(1 + x^k), -1 where that sum is zero
        assert list(zech) == [log.get(ref.add(ref.one, e), -1) for e in powers]
        assert powers[field.minus_one] == ref.neg(ref.one)

    @given(st.sampled_from(SMALL_FIELDS), st.data())
    def test_poly_from_roots_matches_the_tuple_product(self, pm, data):
        field, ref, _ = _tuple_reference(*pm)
        # -1 is a zero root, as alpha_0 = 0 is in the S2 identity product.
        roots = data.draw(st.lists(st.integers(-1, field.size - 2), max_size=5))
        expected = [ref.one]
        for r in roots:
            root = ref.from_log(r)
            expected = [ref.sub(hi, ref.mul(lo, root))
                        for hi, lo in zip([ref.zero, *expected], [*expected, ref.zero])]
        got = _poly_from_roots(field, field.tables()[2], roots)
        assert [ref.from_log(c) for c in got] == expected

    @pytest.mark.parametrize(
        "e", [(1, 0), [1, 0, 1, 0, 0], (2, 0, 0, 0), (1, -1, 0, 0), (True, 0, 0, 0),
              (1.0, 0, 0, 0), ("1", 0, 0, 0), "1000", 5],
    )
    def test_pack_rejects_what_is_not_an_element(self, e):
        field = find_primitive_polynomial(2, 4)
        for op in (field.pack, partial(_log, field)):
            with pytest.raises(DomainError, match="not an element of F_2"):
                op(e)

    def test_a_list_is_an_element_too(self):
        field = find_primitive_polynomial(3, 2)
        assert field.pack([1, 2]) == field.pack((1, 2)) == 7
        assert _log(field, [0, 1]) == 1

    # x^2: x is nilpotent; x^2 + 1 and x^3 + 1: reducible, x is a unit of
    # order 2 and 3; x^4 + x^3 + x^2 + x + 1: irreducible, x has order 5;
    # x^2 + 1 over F_3: irreducible, x has order 4.
    @pytest.mark.parametrize("p,modulus", [(2, (0, 0, 1)), (2, (1, 0, 1)), (2, (1, 0, 0, 1)),
                                           (2, (1, 1, 1, 1, 1)), (3, (1, 0, 1))])
    def test_non_primitive_modulus_is_rejected_at_table_build(self, p, modulus):
        field = FieldSpec(p, len(modulus) - 1, modulus)
        with pytest.raises(DomainError, match="not primitive: power table is degenerate"):
            field.tables()

    # Each is a primitive modulus with one coefficient off by a multiple of p.
    @pytest.mark.parametrize("p,modulus", [(2, (1, 3, 1)), (2, (3, 1, 0, 1)), (2, (1, -1, 1)),
                                           (3, (2, 4, 1)), (3, (-1, 1, 1))])
    def test_unreduced_modulus_coefficients_are_rejected(self, p, modulus):
        with pytest.raises(DomainError, match=rf"modulus coefficients must lie in \[0, {p}\)"):
            FieldSpec(p, len(modulus) - 1, modulus)


class TestGroupOps:
    def test_componentwise_add(self):
        g = GroupSpec((8, 5))
        assert group_add(g.element((3, 4)), g.element((7, 2))).residues == (2, 1)

    def test_negative_scalar(self):
        g = GroupSpec((8, 5))
        assert scalar_mul(-1, g.element((3, 4))).residues == (5, 1)

    def test_zero_scalar_gives_identity(self):
        g = GroupSpec((8, 5))
        assert scalar_mul(0, g.element((3, 4))) == g.identity()

    @pytest.mark.parametrize("residues", [1, [3], ["1", 2], [1.5, 2], [True, 2], "12"])
    def test_residues_that_are_not_a_list_of_ints_are_rejected(self, residues):
        with pytest.raises(DomainError):
            GroupSpec((8, 5)).element(residues)

    def test_spec_mismatch_rejected(self):
        a = GroupSpec((8,)).element((1,))
        b = GroupSpec((9,)).element((1,))
        with pytest.raises(DomainError):
            group_add(a, b)

    @given(
        st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-30, max_value=30),
    )
    def test_scalar_mul_distributes(self, moduli, c1, c2):
        g = GroupSpec(tuple(moduli))
        x = g.element(tuple(random.Random(0).randrange(m) for m in moduli))
        lhs = scalar_mul(c1 + c2, x)
        rhs = group_add(scalar_mul(c1, x), scalar_mul(c2, x))
        assert lhs == rhs

    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3))
    def test_neg_is_additive_inverse(self, moduli):
        g = GroupSpec(tuple(moduli))
        for e in list(g.elements())[:20]:
            assert group_add(e, group_neg(e)) == g.identity()


class TestSubgroupOrder:
    def test_examples(self):
        z8 = GroupSpec((8,))
        assert subgroup_order(z8, [z8.element((2,))]) == 4
        assert subgroup_order(z8, [z8.element((1,)), z8.element((3,))]) == 8
        z44 = GroupSpec((4, 4))
        gens = [z44.element((1, 0)), z44.element((0, 1))]
        assert subgroup_order(z44, gens) == 16

    def test_bfs_agrees_with_diagonalization(self):
        rng = random.Random(42)
        for _ in range(60):
            moduli = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
            g = GroupSpec(moduli)
            gens = [
                g.element(tuple(rng.randrange(m) for m in moduli))
                for _ in range(rng.randint(1, 3))
            ]
            bfs = subgroup_order(g, gens)
            diag = subgroup_order_by_diagonalization(g, gens)
            assert bfs == diag
            assert g.order % bfs == 0  # Lagrange


class TestPrimitives:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_factor_prime_power(self):
        assert factor_prime_power(8) == (2, 3)
        assert factor_prime_power(81) == (3, 4)
        assert factor_prime_power(7) == (7, 1)
        with pytest.raises(DomainError):
            factor_prime_power(12)

    def test_subfield_enumeration(self):
        for p, m, q in [(2, 4, 2), (2, 4, 4), (2, 4, 16), (3, 2, 3), (3, 2, 9), (2, 6, 8),
                        (2, 6, 64), (5, 2, 5)]:
            f = find_primitive_polynomial(p, m)
            ref = TupleField(f)
            sub = list(map(ref.from_log, subfield_logs(f, q)))
            assert len(set(sub)) == q and sub[0] == ref.zero
            for a in sub:
                assert ref.pow(a, q) == a  # fixed by the q-power Frobenius
                assert all(ref.add(a, b) in sub and ref.mul(a, b) in sub for b in sub)

    @pytest.mark.parametrize("p,m,q", [(2, 4, 2), (2, 4, 4), (2, 4, 16), (3, 2, 3), (3, 2, 9),
                                       (2, 6, 8), (2, 6, 64), (5, 2, 5), (3, 4, 9), (7, 3, 7)])
    def test_subfield_tables_match_the_field_tables(self, p, m, q):
        f = find_primitive_polynomial(p, m)
        exp, _, zech = f.tables()
        logs = subfield_logs(f, q)[1:]
        sub_log, sub_zech, min_poly = _subfield_tables(f, q)
        assert sub_log == {0: -1, **{exp[k]: k for k in logs}}
        assert sub_zech == {k: zech[k] for k in logs}
        degree = m // factor_prime_power(q)[1]
        assert list(map(TupleField(f).from_log, min_poly)) == min_poly_by_tuples(f, q, degree)

    # x^6 + 1 = (x^3 + 1)^2, where x has order 6; x^6 + x^3 + 1 is
    # irreducible, but x has order 9.
    @pytest.mark.parametrize("modulus", [(1, 0, 0, 0, 0, 0, 1), (1, 0, 0, 1, 0, 0, 1)])
    def test_subfield_tables_refuse_a_modulus_that_is_not_primitive(self, modulus):
        with pytest.raises(DomainError, match="modulus is not primitive"):
            _subfield_tables(FieldSpec(2, 6, modulus), 4)

    # 6 is not a prime power; 5 and 2 are not powers of 3; 8 = 2^3 and 3 does not divide 4.
    @pytest.mark.parametrize("p,m,q", [(2, 4, 6), (3, 2, 5), (3, 2, 2), (2, 4, 8), (2, 4, 1)])
    def test_subfield_sizes_that_are_not_subfields_are_rejected(self, p, m, q):
        with pytest.raises(DomainError):
            subfield_logs(find_primitive_polynomial(p, m), q)

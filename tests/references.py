"""Slow reference routines that only the tests use.

The package walks the error ball once, extending each vector's image from
its prefix's (:func:`magball.ball.ball_images`); the reference enumerates it
by nested loops over weights, supports and value tuples.

The package computes kernel volumes by a subgroup-chain walk
(:func:`magball.lattice.kernel_lattice`); these are independent routes to the
same numbers: the subgroup order by breadth-first closure, and by the Smith
form of the relation matrix.  The same walk over the columns of ``H`` builds
the code lattice (:func:`magball.code_lattice`); the reference takes the
Hermite form of the generator rows stacked on ``p I``.  Determinants come
from the Hermite pivots.  The Smith form lives here only: the package's
geometric oracles read their coset labels off the Hermite rows, and the
covering reference finds its witness by lattice membership against every
ball point instead.

The package builds the BCH check polynomial ``h`` from the roots of
``x^n - 1`` that ``g`` leaves out (:func:`magball.bch_code`); the reference
divides ``x^n - 1`` by ``g``.

The package's B_t and k-fold Sidon searches prune: the root tries 0 alone,
candidates are bit masks filtered at each node, and a subtree that cannot
outgrow the largest set seen is skipped.  The unpruned references walk every
root and every candidate, testing each only against the sums and relations
it adds; the ``_by_recheck`` references re-run the full public checker on
every candidate set, and triviality of a Sidon solution is decided by trying
every partition.

The package holds a field element as its discrete log, multiplies by
adding logs and adds by Zech lookups in tables built over elements packed
into integers (:mod:`magball.algebra`), and decodes the B_t-set lattice that
way (:func:`magball.decode_s2`); the references keep coefficient tuples,
multiply them schoolbook modulo the field polynomial, take logs from a power
table walked one multiplication by x at a time, read the package's logs back
as powers of x by square-and-multiply, and decode with that tuple
arithmetic, counting the same field operations.  The package reads the
Bose-Chowla logs ``log(x + alpha)`` off one walk of the classes of
``F* / F_q*`` and steps the decoder's powers of y by a shift and a fold; the
references look each log up in the whole field's tuple power table and step
by the general polynomial product.

The package computes a mod-p syndrome as one integer dot product over
columns of ``H`` packed into bit fields (:meth:`magball.LinearCode.syndrome`);
the reference sums each row of ``H`` against the vector and reduces it.
"""

from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence

from magball import (
    BallSpec,
    BtSet,
    DomainError,
    FieldSpec,
    GroupSpec,
    LinearCode,
    MagnitudeSet,
    S2Data,
    S2DecoderContext,
    SidonParams,
    SplitterSet,
    ball_size,
    enumerate_ball,
    is_bt_set,
    is_kfold_sidon,
)
from magball.algebra import subfield_logs
from magball.codec import OpCounter, _poly_mul_mod, _poly_trim
from magball.constructions import _sidon_relations
from magball.lattice import (
    GeometricReport,
    LatticeBasis,
    Matrix,
    _identity,
    _row_sub,
    basis_from_rows,
    hermite_normal_form,
    lattice_contains,
)
from magball.limits import check

FieldElement = tuple[int, ...]


def enumerate_ball_by_loops(spec: BallSpec) -> Iterator[tuple[int, ...]]:
    """Ball vectors, weight-major, support lexicographic, values lexicographic."""
    check("enumeration", ball_size(spec))
    values = sorted(spec.nonzero_values())
    zero = (0,) * spec.n
    yield zero
    for w in range(1, spec.t + 1):
        for support in combinations(range(spec.n), w):
            for vals in product(values, repeat=w):
                vec = list(zero)
                for pos, v in zip(support, vals):
                    vec[pos] = v
                yield tuple(vec)


def syndrome(code: LinearCode, v: Sequence[int]) -> tuple[int, ...]:
    """``H v mod p``, one nested sum per row of ``H``."""
    return tuple(sum(a * b for a, b in zip(h, v)) % code.p for h in code.parity_check)


def subgroup_order(group: GroupSpec, gens: Sequence[tuple[int, ...]]) -> int:
    """Order of the subgroup generated by ``gens``, by breadth-first closure.

    In a finite group the additive closure of the generators already contains
    all inverses, so a plain forward BFS suffices.
    """
    check("group_order", group.order)
    for g in gens:
        if group.element(g) != tuple(g):
            raise DomainError("generator does not belong to the group")
    moduli = group.moduli
    gen_res = list(gens)
    identity = (0,) * group.rank
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gen_res:
                cand = tuple((x + y) % m for x, y, m in zip(cur, g, moduli))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return len(seen)


def _snf_full(
    matrix: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Smith normal form ``(U, D, V, Vinv)``: ``U @ A @ V == D`` diagonal with
    the diagonal a divisibility chain, ``U`` and ``V`` unimodular, and the
    inverse of ``V`` tracked alongside."""
    D = [list(map(int, row)) for row in matrix]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    if any(len(r) != cols for r in D):
        raise DomainError("ragged matrix")
    U = _identity(rows)
    V, Vinv = _identity(cols), _identity(cols)

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        _row_sub(D, i, j, q)
        _row_sub(U, i, j, q)

    def col_op(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        if q:
            for r in range(rows):
                D[r][i] -= q * D[r][j]
            for r in range(cols):
                V[r][i] -= q * V[r][j]
            for c in range(cols):
                Vinv[j][c] += q * Vinv[i][c]

    def row_swap(i: int, j: int) -> None:
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i: int) -> None:
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    k = 0
    while k < min(rows, cols):
        # Locate the smallest-magnitude nonzero entry in the trailing block.
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(k, best[0])
        col_swap(k, best[1])
        while True:
            # Clear column k, then row k, restarting when a remainder pops up.
            dirty = False
            for i in range(k + 1, rows):
                if D[i][k]:
                    q = D[i][k] // D[k][k]
                    row_op(i, k, q)
                    if D[i][k]:
                        row_swap(k, i)
                        dirty = True
            for j in range(k + 1, cols):
                if D[k][j]:
                    q = D[k][j] // D[k][k]
                    col_op(j, k, q)
                    if D[k][j]:
                        col_swap(k, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility: the pivot must divide the trailing block.
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if D[i][j] % D[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)  # add offending row into the pivot row
        if D[k][k] < 0:
            row_negate(k)
        k += 1
    return U, D, V, Vinv


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form ``(U, D, V)`` with ``U @ A @ V == D`` diagonal,
    ``U`` and ``V`` unimodular, and the diagonal a divisibility chain."""
    U, D, V, _ = _snf_full(matrix)
    return U, D, V


def det_from_hnf(matrix: Sequence[Sequence[int]]) -> int:
    """Absolute determinant of a square matrix via its HNF pivots (0 if singular)."""
    H, _, pivots = hermite_normal_form(matrix)
    if len(pivots) < len(H):
        return 0
    out = 1
    for r, c in pivots:
        out *= H[r][c]
    return out


def code_lattice_by_hnf(code: LinearCode) -> LatticeBasis:
    """``C + p Z^n``: the Hermite form of the generator rows stacked on ``p I``."""
    p, n = code.p, code.n
    rows = [list(r) for r in code.generator]
    rows.extend([p if i == j else 0 for j in range(n)] for i in range(n))
    return basis_from_rows(rows, n)


def _poly_divmod_p(num: list[int], den: list[int], p: int) -> list[int]:
    """Quotient of num / den over F_p; raises if the division is not exact."""
    num = [x % p for x in num]
    den = [x % p for x in den]
    while den and den[-1] == 0:
        den.pop()
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(quot) - 1, -1, -1):
        coef = (rem[i + len(den) - 1] * inv_lead) % p
        quot[i] = coef
        if coef:
            for j, dc in enumerate(den):
                rem[i + j] = (rem[i + j] - coef * dc) % p
    if any(rem):
        raise DomainError("polynomial division was not exact")
    return quot


def bch_check_polynomial_by_division(code: LinearCode) -> list[int]:
    """``h = (x^n - 1) / g`` by long division, with ``g`` read off the first
    generator row (whose trailing zeros are the remaining shifts)."""
    g = list(code.generator[0][: code.n - code.k + 1])
    return _poly_divmod_p([-1] + [0] * (code.n - 1) + [1], g, code.p)


def covering_by_membership(basis: LatticeBasis, ball: BallSpec) -> GeometricReport:
    """The covering oracle's witness rule by brute force: try every label in
    lexicographic order of ``prod [0, h_pp)``, placed at the positions ``p``
    whose pivot ``h_pp`` exceeds 1, and test it against every ball point by
    lattice membership.  The first label no ball point reaches is the witness."""
    tail = [p for p in range(basis.n) if basis.rows[p][p] > 1]
    points = list(enumerate_ball(ball))
    for cand in product(*(range(basis.rows[p][p]) for p in tail)):
        rep = ball.vector(tail, cand)
        if not any(lattice_contains(basis, [x - y for x, y in zip(rep, b)]) for b in points):
            return GeometricReport("refuted", witness=rep)
    return GeometricReport("verified")


def s2_splitter_set(ctx: S2DecoderContext) -> SplitterSet:
    """The B_t-set splitter ``{s_i} in Z_N`` whose kernel lattice an S2
    decoder context decodes."""
    group = GroupSpec((ctx.N,))
    return SplitterSet(
        group, tuple(group.element((s,)) for s in ctx.svals), MagnitudeSet(1, 0), ctx.t
    )


def relation_matrix(group: GroupSpec, elements: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """The elements' residues as rows, followed by the modulus rows ``m_j e_j``."""
    moduli = group.moduli
    return [list(g) for g in elements] + [
        [m if i == j else 0 for i in range(len(moduli))] for j, m in enumerate(moduli)
    ]


def subgroup_order_by_diagonalization(
    group: GroupSpec, gens: Sequence[tuple[int, ...]]
) -> int:
    """Subgroup order via Smith diagonalization of the relation matrix: the
    quotient of Z^r by (generator lifts + modulus rows) has order equal to the
    product of the Smith diagonal, and the subgroup order is |G| over that.
    """
    _, D, _ = smith_normal_form(relation_matrix(group, gens))
    quotient = 1
    for i in range(group.rank):
        quotient *= D[i][i]
    if quotient == 0:
        raise DomainError("relation matrix lost rank")
    return group.order // quotient


def _backtrack_by_recheck(N: int, target_size: int, accepts) -> tuple[list[int], bool]:
    best: list[int] = []

    def extend(current: list[int], start: int) -> list[int] | None:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if len(current) >= target_size:
            return current
        for y in range(start, N):
            cand = current + [y]
            if accepts(cand):
                hit = extend(cand, y + 1)
                if hit is not None:
                    return hit
        return None

    found = extend([], 0)
    return (found, True) if found is not None else (best, False)


def search_bt_set_by_recheck(N: int, t: int, target_size: int) -> tuple[BtSet, bool]:
    """Backtracking for a B_t set that runs :func:`is_bt_set` on every candidate set."""
    found, reached = _backtrack_by_recheck(N, target_size, lambda cand: is_bt_set(cand, N, t)[0])
    return BtSet(N, tuple(found), t), reached


def search_kfold_sidon_by_recheck(N: int, k: int, target_size: int) -> tuple[SidonParams, bool]:
    """Backtracking for a k-fold Sidon set that runs :func:`is_kfold_sidon` on
    every candidate set."""
    found, reached = _backtrack_by_recheck(
        N, target_size, lambda cand: is_kfold_sidon(cand, N, k)[0]
    )
    return SidonParams(N, k, tuple(found)), reached


def _backtrack_unpruned(N: int, target_size: int, workload, node) -> tuple[list[int], bool]:
    """Depth-first search over all of Z_N, extending in increasing order, with
    no pruning: every root, every candidate.  ``workload(size)`` is checked
    at every node with a candidate left, before it is tested.  ``node(current)``
    returns the test of a candidate ``y``: None if ``current + [y]`` is
    rejected, else a callable that undoes what accepting ``y`` recorded."""
    current: list[int] = []
    best: list[int] = []

    def extend(start: int) -> bool:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if len(current) >= target_size:
            return True
        if start >= N:
            return False
        check("enumeration", workload(len(current) + 1))
        admit = node(current)
        for y in range(start, N):
            undo = admit(y)
            if undo is None:
                continue
            current.append(y)
            if extend(y + 1):
                return True
            current.pop()
            undo()
        return False

    if extend(0):
        return current, True
    return best, False


def search_bt_set_unpruned(N: int, t: int, target_size: int) -> tuple[BtSet, bool]:
    """Backtracking for a B_t set that tests a candidate ``y`` against the
    stored t-sums only by the sums ``j y + sigma`` it adds, one at a time."""
    sums: list[list[int]] = [[0]] + [[] for _ in range(t - 1)]
    tsums: set[int] = set()

    def admit(y: int):
        fresh: set[int] = set()
        for j in range(1, t + 1):
            for sigma in sums[t - j]:
                v = (j * y + sigma) % N
                if v in tsums or v in fresh:
                    return None
                fresh.add(v)
        marks = [len(level) for level in sums]
        for s in range(t - 1, 0, -1):
            sums[s].extend((j * y + sigma) % N for j in range(1, s + 1) for sigma in sums[s - j])
        tsums.update(fresh)

        def undo() -> None:
            tsums.difference_update(fresh)
            for level, mark in zip(sums, marks):
                del level[mark:]

        return undo

    found, reached = _backtrack_unpruned(
        N, target_size, lambda size: comb(size + t - 1, t), lambda current: admit
    )
    return BtSet(N, tuple(found), t), reached


def _sidon_blocked_values(accepted: Sequence[int], N: int, k: int) -> list[tuple[int, set[int]]]:
    """For each multiplier ``s`` of the Sidon relations, the residues that
    ``s y`` must avoid for ``y``, outside the k-fold Sidon set ``accepted``,
    to extend it; rebuilt from the whole set."""
    blocked: dict[int, set[int]] = {}
    for s, others in _sidon_relations(k):
        values = {0}
        for c in others:
            values = {(v - c * x) % N for v in values for x in accepted}
        blocked.setdefault(s, set()).update(values)
    return list(blocked.items())


def search_kfold_sidon_unpruned(N: int, k: int, target_size: int) -> tuple[SidonParams, bool]:
    """Backtracking for a k-fold Sidon set that tests each candidate ``y`` by
    ``s y`` against the values every relation's multiplier ``s`` must avoid."""

    def node(current: list[int]):
        blocked = _sidon_blocked_values(current, N, k)
        return lambda y: _no_undo if all(s * y % N not in v for s, v in blocked) else None

    found, reached = _backtrack_unpruned(
        N, target_size, lambda size: size**4 * (2 * k + 1) ** 3, node
    )
    return SidonParams(N, k, tuple(found)), reached


def _no_undo() -> None:
    pass


def trivial_solution_by_partitions(cs: Sequence[int], xs: Sequence[int]) -> bool:
    """Whether the nonzero-coefficient positions split into two parts, each with
    coefficient sum zero and x constant on it."""
    nz = [i for i in range(len(cs)) if cs[i] != 0]
    for mask in range(1 << len(nz)):
        part = [nz[b] for b in range(len(nz)) if mask >> b & 1]
        rest = [i for i in nz if i not in part]
        if sum(cs[i] for i in part) != 0:
            continue
        if len({xs[i] for i in part}) <= 1 and len({xs[i] for i in rest}) <= 1:
            return True
    return False


# ---------------------------------------------------------------------------
# finite fields on coefficient tuples
# ---------------------------------------------------------------------------


def mul_by_x(p: int, modulus: tuple[int, ...], e: FieldElement) -> FieldElement:
    """Multiply by the residue class of x with one reduction step."""
    m = len(modulus) - 1
    carry = e[m - 1]
    shifted = (0,) + e[: m - 1]
    if carry == 0:
        return shifted
    return tuple((s - carry * modulus[i]) % p for i, s in enumerate(shifted))


def mul_mod(p: int, modulus: tuple[int, ...], a: FieldElement, b: FieldElement) -> FieldElement:
    """Product of two residues mod the monic ``modulus`` over ``F_p``."""
    m = len(modulus) - 1
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        c = out[top] % p
        if c:
            for i in range(m):
                out[top - m + i] -= c * modulus[i]
    return tuple(c % p for c in out[:m])


def x_plus_subfield_logs_by_table(field: FieldSpec, q: int) -> list[int]:
    """``log(x + alpha)`` for every alpha in ``subfield_logs`` order, each
    ``x + alpha`` summed on tuples and looked up in the whole field's power
    table.  The table is built per call, so a sweep over many fields holds
    one at a time."""
    ref, (_, log) = TupleField(field), power_table(field)
    return [log[ref.add(ref.gen, ref.from_log(alpha))] for alpha in subfield_logs(field, q)]


def power_of_y_by_general_product(ctx: S2DecoderContext, s: int) -> tuple[list[int], int]:
    """``y^s mod min_poly`` as the decoder computes it, with each step by y a
    general product by ``[0, 1]``, and the field multiplications spent."""
    n, zech, minus_modulus = ctx.field.size - 1, ctx.zech, ctx.minus_modulus
    r, count = [0], 0
    for bit in bin(s)[2:] if s else "":
        r, spent = _poly_mul_mod(zech, n, r, r, minus_modulus)
        count += spent
        if bit == "1":
            r, spent = _poly_mul_mod(zech, n, r, [-1, 0], minus_modulus)
            count += spent
    return _poly_trim(r), count


def power_table(field: FieldSpec) -> tuple[list[FieldElement], dict[FieldElement, int]]:
    """The powers of x, one ``mul_by_x`` each, and the map back to exponents."""
    powers = [(1,) + (0,) * (field.m - 1)]
    for _ in range(field.size - 2):
        powers.append(mul_by_x(field.p, field.modulus, powers[-1]))
    log = {e: i for i, e in enumerate(powers)}
    if len(log) != field.size - 1:
        raise DomainError("modulus is not primitive: power table is degenerate")
    return powers, log


class TupleField:
    """``F_{p^m}`` on coefficient tuples: schoolbook products, powers by
    square-and-multiply and inverses by Fermat, with no tables."""

    def __init__(self, field: FieldSpec) -> None:
        self.p, self.modulus, self.size = field.p, field.modulus, field.size
        self.zero, self.one = (0,) * field.m, (1,) + (0,) * (field.m - 1)
        self.gen = mul_by_x(self.p, self.modulus, self.one)

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        return tuple(-x % self.p for x in a)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return mul_mod(self.p, self.modulus, a, b)

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one
        for bit in bin(e)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def inv(self, a: FieldElement) -> FieldElement:
        if a == self.zero:
            raise DomainError("zero has no inverse")
        return self.pow(a, self.size - 2)

    def from_log(self, d: int) -> FieldElement:
        """x^d by square-and-multiply, zero for d = -1: the package's log form
        read back without its tables."""
        return self.zero if d < 0 else self.pow(self.gen, d)


def _poly_mul_mod_by_tuples(f: TupleField, a, b, modulus, ops: OpCounter) -> list[FieldElement]:
    prod_ = [f.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == f.zero:
            continue
        for j, cb in enumerate(b):
            if cb == f.zero:
                continue
            ops.mul += 1
            ops.add += 1
            prod_[i + j] = f.add(prod_[i + j], f.mul(ca, cb))
    deg_m = len(modulus) - 1
    for i in range(len(prod_) - 1, deg_m - 1, -1):
        lead = prod_[i]
        if lead == f.zero:
            continue
        for j in range(deg_m):
            ops.mul += 1
            ops.add += 1
            prod_[i - deg_m + j] = f.sub(prod_[i - deg_m + j], f.mul(lead, modulus[j]))
        prod_[i] = f.zero
    return prod_[:deg_m]


def _monic_by_tuples(f: TupleField, poly: Sequence[FieldElement]) -> list[FieldElement]:
    out = list(poly)
    while out and out[-1] == f.zero:
        out.pop()
    if not out:
        return out
    inv_lead = f.inv(out[-1])
    return [f.mul(c, inv_lead) for c in out]


def min_poly_by_tuples(field: FieldSpec, q: int, degree: int) -> list[FieldElement]:
    """prod (y - x^(q^i)) for i in [0, degree) on coefficient tuples."""
    f = TupleField(field)
    poly, conj = [f.one], f.gen
    for _ in range(degree):
        nxt = [f.zero] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = f.add(nxt[i + 1], c)
            nxt[i] = f.sub(nxt[i], f.mul(c, conj))
        poly = nxt
        conj = f.pow(conj, q)
    return poly


def generator_from_roots_by_tuples(field: FieldSpec, exponents: Sequence[int]) -> tuple[int, ...]:
    """``prod (y - x^j)`` over the exponents, as a polynomial over F_p, for
    exponents that are a union of cyclotomic cosets ``{j, pj, p^2 j, ...}``
    mod ``n = p^m - 1``.  Each coset's factor is multiplied out on
    coefficient tuples; it is the minimal polynomial of ``x^j``, so its
    coefficients must lie in F_p.  The factors of the fewer roots, the
    exponents or the rest, are multiplied as integer polynomials mod p; the
    rest's product is ``y^n - 1``, the product over every j, divided by it."""
    f, n, p = TupleField(field), field.size - 1, field.p
    powers = power_table(field)[0]
    exponents = set(exponents)
    left = exponents if 2 * len(exponents) <= n else set(range(n)) - exponents
    out = [1]
    while left:
        coset, k = set(), min(left)
        while k not in coset:
            coset.add(k)
            k = k * p % n
        if not coset <= left:
            raise DomainError(f"exponents hold part of the cyclotomic coset {sorted(coset)}")
        left -= coset
        factor = [f.one]
        for k in coset:
            factor = [f.sub(hi, f.mul(lo, powers[k]))
                      for hi, lo in zip([f.zero, *factor], [*factor, f.zero])]
        if any(any(c[1:]) for c in factor):
            raise DomainError("a coset's factor left the prime field")
        prod_ = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, c in enumerate(factor):
                prod_[i + j] += a * c[0]
        out = [c % p for c in prod_]
    if 2 * len(exponents) <= n:
        return tuple(out)
    # y^n - 1 = quotient * out, long division by the monic out from the top.
    rest, quotient = [p - 1] + [0] * (n - 1) + [1], []
    for top in range(n, len(out) - 2, -1):
        c = rest[top]
        quotient.append(c)
        for i, a in enumerate(out):
            rest[top - len(out) + 1 + i] = (rest[top - len(out) + 1 + i] - c * a) % p
    if any(rest):
        raise DomainError("y^n - 1 left a remainder")
    return tuple(reversed(quotient))


def decode_s2_by_tuples(
    data: S2Data, y: Sequence[int], verify_identity: bool = False
) -> tuple[str, tuple[int, ...] | None, tuple[int, ...], OpCounter]:
    """The locator-polynomial decoder on coefficient tuples: status,
    codeword, positions and the field operations counted.  The logs in
    ``data`` become tuples through :meth:`TupleField.from_log`."""
    f = TupleField(data.field)
    alphas = list(map(f.from_log, data.alphas))
    min_poly = min_poly_by_tuples(data.field, data.q, data.t + 1)
    ops = OpCounter()
    ops.mul = ops.add = data.q  # one of each per weighted-sum term
    s = sum(yi * si for yi, si in zip(y, data.svals)) % data.N
    r = [f.one]
    if s:
        for bit in bin(s)[2:]:
            r = _poly_mul_mod_by_tuples(f, r, r, min_poly, ops)
            if bit == "1":
                r = _poly_mul_mod_by_tuples(f, r, [f.zero, f.one], min_poly, ops)
    while r and r[-1] == f.zero:
        r.pop()
    degree = len(r) - 1 if r else 0
    positions = []
    for i, alpha in enumerate(alphas):
        acc = f.zero
        for c in reversed(r):
            ops.mul += 1
            ops.add += 1
            acc = f.add(f.mul(acc, f.neg(alpha)), c)
        if acc == f.zero:
            positions.append(i)
    fail = ("fail", None, tuple(positions), ops)
    if degree != len(positions):
        return fail
    corrected = list(y)
    for i in positions:
        corrected[i] -= 1
    if sum(c * si for c, si in zip(corrected, data.svals)) % data.N != 0:
        return fail
    if verify_identity and positions:
        beta_prod = f.one
        for i in positions:
            beta_prod = f.mul(beta_prod, f.from_log(data.betas[i]))
        rhs = [f.one]
        for i in positions:
            nxt = [f.zero] * (len(rhs) + 1)
            for j, c in enumerate(rhs):
                nxt[j + 1] = f.add(nxt[j + 1], c)
                nxt[j] = f.add(nxt[j], f.mul(c, alphas[i]))
            rhs = nxt
        if _monic_by_tuples(f, [f.mul(beta_prod, c) for c in r]) != _monic_by_tuples(f, rhs):
            return fail
    return "ok", tuple(corrected), tuple(positions), ops

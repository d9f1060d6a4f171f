"""Integer lattice machinery: kernel lattices of splitting homomorphisms,
Hermite and Smith normal forms, and geometric packing/covering oracles.

Both geometric oracles label each ball point by its coset of ``Z^n / L``,
read off the Smith form of the basis: the ball packs iff the labels are
distinct and covers iff they reach all ``vol(L)`` cosets.  They walk the
ball as the splitting checkers do (:func:`~magball.ball.ball_images`), but
their labels come from the lattice's Smith form, not from group images, so
the two act as mutual cross-checks.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Sequence

from .ball import BallSpec, ball_images, ball_size
from .errors import DomainError
from .limits import check
from .splitting import SplitterSet

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_sub(M: Matrix, i: int, j: int, q: int) -> None:
    if q:
        Mi, Mj = M[i], M[j]
        for c in range(len(Mi)):
            Mi[c] -= q * Mj[c]


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, list[tuple[int, int]]]:
    """Row-style Hermite normal form.

    Returns ``(H, U, pivots)`` with ``U`` unimodular, ``U @ A == H``, ``H`` in
    row echelon form with positive pivots and entries above each pivot reduced
    into ``[0, pivot)``.  ``pivots`` lists ``(row, col)`` pairs.
    """
    M = [list(map(int, row)) for row in matrix]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(r) != cols for r in M):
        raise DomainError("ragged matrix")
    U = _identity(rows)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # Euclidean elimination below row r in column c.
        while True:
            nonzero = [i for i in range(r, rows) if M[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(M[i][c]), i))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, rows):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    _row_sub(M, i, r, q)
                    _row_sub(U, i, r, q)
                    if M[i][c]:
                        done = False
            if done:
                break
        if M[r][c] == 0:
            continue
        if M[r][c] < 0:
            M[r] = [-x for x in M[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            _row_sub(M, i, r, q)
            _row_sub(U, i, r, q)
        pivots.append((r, c))
        r += 1
    return M, U, pivots


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form ``(U, D, V)`` with ``U @ A @ V == D`` diagonal,
    ``U`` and ``V`` unimodular, and the diagonal a divisibility chain."""
    U, D, V, _ = _snf_full(matrix)
    return U, D, V


def _snf_full(
    matrix: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """SNF ``(U, D, V, Vinv)`` with the inverse of ``V`` tracked alongside."""
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


def det_from_hnf(matrix: Sequence[Sequence[int]]) -> int:
    """Absolute determinant of a square matrix via its HNF pivots (0 if singular)."""
    H, _, pivots = hermite_normal_form(matrix)
    n = len(H)
    if len(pivots) < n:
        return 0
    out = 1
    for r, c in pivots:
        out *= H[r][c]
    return out


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank integer lattice in row-HNF form.

    Membership testing relies on the Hermite shape, so construction enforces
    an upper-triangular matrix with positive diagonal; arbitrary spanning rows
    go through :func:`basis_from_rows` first.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    volume: int
    source: str | None = None

    def __post_init__(self) -> None:
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise DomainError("basis must be a square n x n matrix")
        product = 1
        for i, row in enumerate(self.rows):
            if row[i] <= 0 or any(row[j] for j in range(i)):
                raise DomainError("rows must be in upper-triangular Hermite form")
            product *= row[i]
        if self.volume != product:
            raise DomainError("volume disagrees with the basis diagonal")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": [list(r) for r in self.rows],
            "volume": str(self.volume),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatticeBasis":
        """Load a basis, canonicalising arbitrary spanning rows to HNF."""
        rows = [[int(x) for x in r] for r in data["rows"]]
        basis = basis_from_rows(rows, int(data["n"]), data.get("source"))
        if int(data["volume"]) != basis.volume:
            raise DomainError(
                f"stored volume {data['volume']} != computed {basis.volume}"
            )
        return basis


def basis_from_rows(rows: Sequence[Sequence[int]], n: int, source: str | None = None) -> LatticeBasis:
    """Canonicalise spanning rows (possibly more than n of them) into a basis."""
    H, _, pivots = hermite_normal_form(rows)
    if len(pivots) != n or any(r != c for r, c in pivots):
        raise DomainError("rows do not span a full-rank sublattice of Z^n")
    top = tuple(tuple(H[i][:n]) for i in range(n))
    volume = 1
    for i in range(n):
        volume *= top[i][i]
    return LatticeBasis(n, top, volume, source)


def _solve_upper(B: Matrix, v: Sequence[int]) -> list[Fraction]:
    """The rational ``z`` with ``z @ B == v`` for upper-triangular ``B``."""
    z: list[Fraction] = []
    for c in range(len(B)):
        z.append(Fraction(v[c] - sum(zk * B[k][c] for k, zk in enumerate(z)), B[c][c]))
    return z


def _combine(coefs: Sequence[int], vecs: Sequence[dict[int, int]]) -> dict[int, int]:
    """``sum coefs[k] * vecs[k]`` over sparse integer vectors."""
    out: dict[int, int] = {}
    for coef, vec in zip(coefs, vecs):
        for j, c in vec.items():
            out[j] = out.get(j, 0) + coef * c
    return out


def kernel_lattice(splitter: SplitterSet) -> LatticeBasis:
    """The lattice of integer vectors whose splitter combination is the identity.

    Walk the subgroup chain from the right (Cohen, GTM 138, §2.4).  With
    residue lifts ``a_j`` and ``L_i = span(a_j : j >= i) + diag(m) Z^r``, the
    HNF diagonal ``d_i`` is the order of ``a_i`` modulo ``L_{i+1}``, and row
    ``i`` is ``d_i e_i`` minus an expression of ``d_i a_i`` over later
    generators, reduced against the later rows.  Only the tail positions, those
    with ``d_j > 1`` (at most log2 |G| of them), carry such entries.  So each
    row of ``B``, the r x r HNF of ``L_{i+1}``, is kept as a combination of
    tail generators, and ``B`` is only re-formed when ``d_i > 1``.
    """
    check("group_order", splitter.group.order)
    group, n, r = splitter.group, splitter.n, splitter.group.rank
    B = [[m if i == j else 0 for j in range(r)] for i, m in enumerate(group.moduli)]
    combos: list[dict[int, int]] = [{} for _ in range(r)]  # B[k] = sum combos[k][j] a_j mod m
    tail: list[int] = []
    rows: dict[int, dict[int, int]] = {}

    def reduce(x: dict[int, int]) -> dict[int, int]:
        for j in tail:  # ascending, so reduced columns stay reduced
            q = x.get(j, 0) // rows[j][j]
            if q:
                for k, h in rows[j].items():
                    x[k] = x.get(k, 0) - q * h
        return {k: v for k, v in x.items() if v}

    for i in reversed(range(n)):
        a = list(splitter.elements[i].residues)
        z = _solve_upper(B, a)
        d = lcm(*(zk.denominator for zk in z))
        rows[i] = {i: d, **reduce(_combine([-int(zk * d) for zk in z], combos))}
        if d > 1:
            H, U, _ = hermite_normal_form(B + [a])
            B = H[:r]
            combos = [_combine(u, combos + [{i: 1}]) for u in U[:r]]
            tail.insert(0, i)
    volume = prod(rows[i][i] for i in range(n))
    if volume * prod(B[k][k] for k in range(r)) != group.order:
        raise DomainError("kernel volume disagrees with the subgroup chain")
    dense = tuple(tuple(rows[i].get(j, 0) for j in range(n)) for i in range(n))
    return LatticeBasis(n, dense, volume, source="kernel")


def lattice_contains(basis: LatticeBasis, v: Sequence[int]) -> bool:
    """Membership by back-substitution against the HNF rows."""
    if len(v) != basis.n:
        raise DomainError(f"vector length {len(v)} != n = {basis.n}")
    res = list(map(int, v))
    for i in range(basis.n):
        pivot = basis.rows[i][i]
        q, rem = divmod(res[i], pivot)
        if rem:
            return False
        if q:
            row = basis.rows[i]
            for c in range(i, basis.n):
                res[c] -= q * row[c]
    return not any(res)


@dataclass(frozen=True)
class GeometricReport:
    verdict: str  # "verified" | "refuted"
    witness: tuple | None = None

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [list(w) for w in self.witness] if isinstance(self.witness[0], tuple) else list(self.witness)
        return {"verdict": self.verdict, "witness": witness}


def _smith_coordinates(basis: LatticeBasis, ball: BallSpec):
    """Coset labels of ``Z^n / basis`` from its Smith form ``U B V = D``:
    ``x`` and ``y`` are congruent iff ``x V`` and ``y V`` agree modulo the
    diagonal.  Unit invariants always give 0, so only the non-unit ones,
    ``mods``, are kept.  Returns ``(rows, mods, inverse)``: a ball point's
    label is its :func:`ball_images` image under ``rows`` and ``mods``, and
    ``cand @ inverse`` represents the coset labelled ``cand``."""
    if ball.n != basis.n:
        raise DomainError(f"ball n = {ball.n} != lattice n = {basis.n}")
    check("enumeration", ball_size(ball))
    _, D, V, Vinv = _snf_full([list(r) for r in basis.rows])
    keep = [c for c in range(basis.n) if D[c][c] != 1]
    rows = [[V[i][c] for c in keep] for i in range(basis.n)]
    return rows, [D[c][c] for c in keep], [Vinv[c] for c in keep]


def verify_packing_geometric(basis: LatticeBasis, ball: BallSpec) -> GeometricReport:
    """The ball's translates are disjoint iff its points lie in distinct
    cosets.  Witness: the first point ``b_i`` (in :func:`enumerate_ball`
    order) whose coset holds a later point, with the first such ``b_j``."""
    rows, mods, _ = _smith_coordinates(basis, ball)
    first: dict[tuple[int, ...], tuple] = {}
    witness = None
    for j, (support, values, label) in enumerate(ball_images(ball, rows, mods)):
        i, i_support, i_values = first.setdefault(label, (j, support, values))
        if i < j and (witness is None or i < witness[0]):
            witness = (i, ball.vector(i_support, i_values), ball.vector(support, values))
    if witness is None:
        return GeometricReport("verified")
    return GeometricReport("refuted", witness=witness[1:])


def verify_covering_geometric(basis: LatticeBasis, ball: BallSpec) -> GeometricReport:
    """Every coset must hold a ball point; the witness represents the first
    uncovered coset label in lexicographic order."""
    check("cosets", basis.volume)
    rows, mods, inverse = _smith_coordinates(basis, ball)
    covered = {label for _, _, label in ball_images(ball, rows, mods)}
    if len(covered) == basis.volume:
        return GeometricReport("verified")
    for cand in product(*(range(d) for d in mods)):
        if cand not in covered:
            rep = tuple(
                sum(x * row[c] for x, row in zip(cand, inverse)) for c in range(basis.n)
            )
            return GeometricReport("refuted", witness=rep)
    raise AssertionError("unreachable: count mismatch without an uncovered coset")


def density(basis: LatticeBasis, ball: BallSpec) -> Fraction:
    """Exact packing/covering density: ball size over fundamental volume."""
    return Fraction(ball_size(ball), basis.volume)

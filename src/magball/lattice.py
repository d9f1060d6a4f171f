"""Integer lattice machinery: kernel lattices of maps onto finite Abelian
groups, Hermite normal forms, and geometric packing/covering oracles.

Every lattice the package builds is the kernel of a map ``Z^n -> G`` read
off one subgroup-chain walk: a splitter's residues into its group, or the
columns of a parity-check matrix into ``Z_p^(n-k)``.

Both geometric oracles label each ball point by its coset of ``Z^n / L``,
read off the Hermite rows of the basis: back-substituting the unit rows
leaves the cosets as ``Z^P`` modulo a triangular relation matrix on the
positions ``P`` whose pivot exceeds 1.  The ball packs iff the labels are
distinct and covers iff they reach all ``vol(L)`` cosets.  They walk the
ball as the splitting checkers do (:func:`~magball.ball.ball_images`), but
their labels come from the basis alone, not from group images, so the two
act as mutual cross-checks.  All arithmetic is exact."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mod, mul
from typing import Sequence

from .ball import BallSpec, ball_images, ball_size
from .errors import DomainError, exact_int, exact_ints
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

    def __post_init__(self) -> None:
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise DomainError("basis must be a square n x n matrix")
        product = 1
        for i, row in enumerate(self.rows):
            if row[i] <= 0 or any(row[:i]):
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
        rows = [exact_ints(r, "integers") for r in data["rows"]]
        basis = basis_from_rows(rows, exact_int(data["n"], "n"))
        volume = data["volume"]
        if not isinstance(volume, str):
            raise DomainError(f"volume must be a decimal string, got {volume!r}")
        if volume != str(basis.volume):
            raise DomainError(f"stored volume {volume} != computed {basis.volume}")
        return basis


def basis_from_rows(rows: Sequence[Sequence[int]], n: int) -> LatticeBasis:
    """Canonicalise spanning rows (possibly more than n of them) into a basis."""
    if any(len(row) != n for row in rows):
        raise DomainError(f"every row must have n = {n} entries")
    H, _, pivots = hermite_normal_form(rows)
    if len(pivots) != n or any(r != c for r, c in pivots):
        raise DomainError("rows do not span a full-rank sublattice of Z^n")
    top = tuple(tuple(H[i][:n]) for i in range(n))
    volume = 1
    for i in range(n):
        volume *= top[i][i]
    return LatticeBasis(n, top, volume)


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
    """The lattice of integer vectors whose splitter combination is the identity."""
    check("group_order", splitter.group.order)
    return _chain_kernel(splitter.group.moduli, splitter.elements)


def _chain_kernel(moduli: Sequence[int], columns: Sequence[Sequence[int]]) -> LatticeBasis:
    """The kernel of ``Z^n -> Z_m1 x ... x Z_mr`` sending ``e_j`` to ``columns[j]``.

    Walk the subgroup chain from the right (Cohen, GTM 138, §2.4).  With
    ``a_j = columns[j]`` and ``L_i = span(a_j : j >= i) + diag(m) Z^r``, the
    HNF diagonal ``d_i`` is the order of ``a_i`` modulo ``L_{i+1}``, and row
    ``i`` is ``d_i e_i`` minus an expression of ``d_i a_i`` over later
    generators, reduced against the later rows.  Only the tail positions, those
    with ``d_j > 1`` (at most log2 of the group order of them), carry such
    entries.  So each row of ``B``, the r x r HNF of ``L_{i+1}``, is kept as a
    combination of tail generators, and ``B`` is only re-formed when ``d_i > 1``.
    """
    n, r = len(columns), len(moduli)
    B = [[m if i == j else 0 for j in range(r)] for i, m in enumerate(moduli)]
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
        a = list(columns[i])
        z = _solve_upper(B, a)
        d = lcm(*(zk.denominator for zk in z))
        rows[i] = {i: d, **reduce(_combine([-int(zk * d) for zk in z], combos))}
        if d > 1:
            H, U, _ = hermite_normal_form(B + [a])
            B = H[:r]
            combos = [_combine(u, combos + [{i: 1}]) for u in U[:r]]
            tail.insert(0, i)
    volume = prod(rows[i][i] for i in range(n))
    if volume * prod(B[k][k] for k in range(r)) != prod(moduli):
        raise DomainError("kernel volume disagrees with the subgroup chain")
    dense = []
    for i in range(n):
        row = [0] * n
        for j, h in rows[i].items():
            row[j] = h
        dense.append(tuple(row))
    return LatticeBasis(n, tuple(dense), volume)


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


def _hermite_labels(basis: LatticeBasis, ball: BallSpec):
    """Coset labels of ``Z^n / basis`` read off its Hermite rows ``h``.

    Let ``P`` be the positions whose pivot ``h_pp`` exceeds 1.  From the
    right, a unit row sends ``e_i`` to ``phi(e_i) = -sum_{j>i} h_ij phi(e_j)``
    and ``phi(e_p) = e_p`` for ``p`` in ``P``, so ``phi`` maps ``Z^n`` onto
    ``Z^P`` and the rows at ``P`` onto an upper-triangular relation matrix
    with the pivots on its diagonal: ``Z^n / basis == Z^P / relations``.
    ``V Z^P`` lies in the relations' span, so the walk reduces ``phi`` modulo
    the volume ``V``; reducing each image from the left against the relation
    rows then gives the one label with ``0 <= y_k < h_pp``.  Returns
    ``(P, pivots, walk)``: ``walk`` yields ``(support, values, label)`` for
    every ball point in :func:`ball_images` order, and the vector holding a
    label at ``P`` represents its coset."""
    if ball.n != basis.n:
        raise DomainError(f"ball n = {ball.n} != lattice n = {basis.n}")
    check("enumeration", ball_size(ball))
    n, h, V = basis.n, basis.rows, basis.volume
    tail = [p for p in range(n) if h[p][p] > 1]
    pivots = [h[p][p] for p in tail]
    cols = [[0] * n for _ in tail]  # cols[k][j]: entry k of phi(e_j), modulo V
    reducers = []  # (k, h_pp, nonzero off-diagonal entries of relation row k)
    for i in reversed(range(n)):
        # sum_{j>i} h_ij phi(e_j): each cols[k][i] is still 0 here.
        tail_sum = [sum(map(mul, h[i], col)) % V for col in cols]
        if h[i][i] == 1:
            for col, x in zip(cols, tail_sum):
                col[i] = -x % V
            continue
        k = tail.index(i)
        cols[k][i] = 1
        off = [(c, tail_sum[c]) for c in range(k + 1, len(tail)) if tail_sum[c]]
        if off:
            reducers.insert(0, (k, h[i][i], off))

    rows = [tuple(col[j] for col in cols) for j in range(n)]
    if not reducers:  # diagonal relations: the walk's images are the labels
        return tail, pivots, ball_images(ball, rows, pivots)

    def label(y):
        y = list(y)
        for k, d, off in reducers:
            q = y[k] // d
            if q:
                for c, x in off:
                    y[c] -= q * x
        return tuple(map(mod, y, pivots))

    images = ball_images(ball, rows, [V] * len(tail))
    return tail, pivots, ((support, values, label(y)) for support, values, y in images)


def verify_packing_geometric(basis: LatticeBasis, ball: BallSpec) -> GeometricReport:
    """The ball's translates are disjoint iff its points lie in distinct
    cosets.  Witness: the first point ``b_i`` (in :func:`enumerate_ball`
    order) whose coset holds a later point, with the first such ``b_j``."""
    first: dict[tuple[int, ...], tuple] = {}
    witness = None
    for j, (support, values, label) in enumerate(_hermite_labels(basis, ball)[2]):
        i, i_support, i_values = first.setdefault(label, (j, support, values))
        if i < j and (witness is None or i < witness[0]):
            witness = (i, ball.vector(i_support, i_values), ball.vector(support, values))
    if witness is None:
        return GeometricReport("verified")
    return GeometricReport("refuted", witness=witness[1:])


def verify_covering_geometric(basis: LatticeBasis, ball: BallSpec) -> GeometricReport:
    """Every coset must hold a ball point.  Witness: the first uncovered
    label in lexicographic order of ``prod [0, h_pp)``, placed at the
    positions ``p`` whose pivot ``h_pp`` exceeds 1."""
    check("cosets", basis.volume)
    tail, pivots, walk = _hermite_labels(basis, ball)
    covered = {label for _, _, label in walk}
    if len(covered) == basis.volume:
        return GeometricReport("verified")
    for cand in product(*(range(d) for d in pivots)):
        if cand not in covered:
            return GeometricReport("refuted", witness=ball.vector(tail, cand))
    raise AssertionError("unreachable: count mismatch without an uncovered coset")


def density(basis: LatticeBasis, ball: BallSpec) -> Fraction:
    """Exact packing/covering density: ball size over fundamental volume."""
    if ball.n != basis.n:
        raise DomainError(f"ball n = {ball.n} != lattice n = {basis.n}")
    return Fraction(ball_size(ball), basis.volume)

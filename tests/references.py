"""Slow reference routines that only the tests use.

The package walks the error ball once, extending each vector's image from
its prefix's (:func:`magball.ball.ball_images`); the reference enumerates it
by nested loops over weights, supports and value tuples.

The package computes kernel volumes by a subgroup-chain walk
(:func:`magball.lattice.kernel_lattice`); these are independent routes to the
same numbers: the subgroup order by breadth-first closure, and by the Smith
form of the relation matrix.

The package's B_t and k-fold Sidon searches test each candidate only against
the sums and relations it adds; the references below re-run the full public
checker on every candidate set, and triviality of a Sidon solution is decided
by trying every partition.
"""

from itertools import combinations, product
from typing import Iterator, Sequence

from magball import (
    BallSpec,
    BtSet,
    DomainError,
    GroupElement,
    GroupSpec,
    SidonParams,
    ball_size,
    is_bt_set,
    is_kfold_sidon,
    smith_normal_form,
)
from magball.limits import check


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


def subgroup_order(group: GroupSpec, gens: Sequence[GroupElement]) -> int:
    """Order of the subgroup generated by ``gens``, by breadth-first closure.

    In a finite group the additive closure of the generators already contains
    all inverses, so a plain forward BFS suffices.
    """
    check("group_order", group.order)
    for g in gens:
        if g.spec != group:
            raise DomainError("generator does not belong to the group")
    moduli = group.moduli
    gen_res = [g.residues for g in gens]
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


def relation_matrix(group: GroupSpec, elements: Sequence[GroupElement]) -> list[list[int]]:
    """The elements' residues as rows, followed by the modulus rows ``m_j e_j``."""
    moduli = group.moduli
    return [list(g.residues) for g in elements] + [
        [m if i == j else 0 for i in range(len(moduli))] for j, m in enumerate(moduli)
    ]


def subgroup_order_by_diagonalization(
    group: GroupSpec, gens: Sequence[GroupElement]
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
    return BtSet(N, tuple(found), t, "search"), reached


def search_kfold_sidon_by_recheck(N: int, k: int, target_size: int) -> tuple[SidonParams, bool]:
    """Backtracking for a k-fold Sidon set that runs :func:`is_kfold_sidon` on
    every candidate set."""
    found, reached = _backtrack_by_recheck(
        N, target_size, lambda cand: is_kfold_sidon(cand, N, k)[0]
    )
    return SidonParams(N, k, tuple(found)), reached


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

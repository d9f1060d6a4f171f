"""Slow reference routines that only the tests use.

The package computes kernel volumes by a subgroup-chain walk
(:func:`magball.lattice.kernel_lattice`); these are independent routes to the
same numbers: the subgroup order by breadth-first closure, and by the Smith
form of the relation matrix.
"""

from typing import Sequence

from magball import DomainError, GroupElement, GroupSpec, smith_normal_form
from magball.limits import check


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

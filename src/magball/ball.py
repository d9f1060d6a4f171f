"""The limited-magnitude error ball: up to ``t`` entries, each in
``[-kminus, kplus]``."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, mod
from typing import Iterator, Sequence

from .errors import DomainError, exact_int
from .limits import check


@dataclass(frozen=True)
class BallSpec:
    n: int
    t: int
    kplus: int
    kminus: int

    def __post_init__(self) -> None:
        if not 0 <= self.kminus <= self.kplus:
            raise DomainError("need 0 <= kminus <= kplus")
        if self.kplus + self.kminus < 1:
            raise DomainError("need kplus + kminus >= 1")
        if not 0 <= self.t <= self.n:
            raise DomainError("need 0 <= t <= n")

    def nonzero_values(self) -> tuple[int, ...]:
        return tuple(range(-self.kminus, 0)) + tuple(range(1, self.kplus + 1))

    def vector(self, support: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
        """The length-n vector holding ``values`` at the positions ``support``."""
        vec = [0] * self.n
        for pos, v in zip(support, values):
            vec[pos] = v
        return tuple(vec)

    def to_json(self) -> dict:
        return {"n": self.n, "t": self.t, "kplus": self.kplus, "kminus": self.kminus}

    @classmethod
    def from_json(cls, data: dict) -> "BallSpec":
        return cls(*(exact_int(data[key], key) for key in ("n", "t", "kplus", "kminus")))


def ball_size(spec: BallSpec) -> int:
    """Exact number of ball points: sum over weights i of C(n,i) (kplus+kminus)^i."""
    k = spec.kplus + spec.kminus
    return sum(comb(spec.n, i) * k**i for i in range(spec.t + 1))


def ball_images(
    spec: BallSpec, rows: Sequence[Sequence[int]], moduli: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """``(support, values, image)`` of every ball vector ``e``, zero vector
    first, in :func:`enumerate_ball` order: ``e`` holds ``values`` at the
    positions ``support``, and ``image`` is ``sum e_i rows[i]`` modulo
    ``moduli``, entry by entry.

    Each weight is walked depth first over its supports.  A support prefix
    holds the partial images of all its value tuples, and a vector's image is
    its prefix's plus one precomputed contribution ``v * rows[pos]``, so each
    vector costs one vector addition.  The walk keeps one prefix list per
    level, at most ``(kplus + kminus)^(t-1)`` entries each, and checks no
    limit: each caller bounds it by the limit its result stands for.
    """
    moduli = tuple(moduli)
    if len(rows) != spec.n or any(len(row) != len(moduli) for row in rows):
        raise DomainError(f"need {spec.n} rows of {len(moduli)} entries")
    if any(m < 1 for m in moduli):
        raise DomainError("moduli must be positive")
    steps = [
        [(v, tuple(v * x % m for x, m in zip(row, moduli))) for v in spec.nonzero_values()]
        for row in rows
    ]
    n = spec.n

    def walk(support, prefixes, start, left):
        if left == 1:
            for pos in range(start, n):
                here = support + (pos,)
                for vals, img in prefixes:
                    for v, step in steps[pos]:
                        yield here, vals + (v,), tuple(map(mod, map(add, img, step), moduli))
            return
        for pos in range(start, n - left + 1):
            grown = [
                (vals + (v,), tuple(map(add, img, step)))
                for vals, img in prefixes
                for v, step in steps[pos]
            ]
            yield from walk(support + (pos,), grown, pos + 1, left - 1)

    zero = (0,) * len(moduli)
    yield (), (), zero
    for w in range(1, spec.t + 1):
        yield from walk((), [((), zero)], 0, w)


def enumerate_ball(spec: BallSpec) -> Iterator[tuple[int, ...]]:
    """Ball vectors, weight-major, support lexicographic, values lexicographic."""
    check("enumeration", ball_size(spec))
    for support, values, _ in ball_images(spec, [()] * spec.n, ()):
        yield spec.vector(support, values)


def ball_contains(spec: BallSpec, v: Sequence[int]) -> bool:
    if len(v) != spec.n:
        raise DomainError(f"vector length {len(v)} != n = {spec.n}")
    weight = 0
    for x in v:
        if not -spec.kminus <= x <= spec.kplus:
            return False
        if x != 0:
            weight += 1
    return weight <= spec.t

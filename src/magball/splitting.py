"""Exhaustive splitting checkers over finite Abelian groups.

A splitter set pairs group elements ``s_1..s_n`` with a magnitude interval
``M = [-kminus, kplus] \\ {0}``.  The checkers scan every coefficient vector
``e`` over ``M u {0}`` of weight at most ``t`` and classify the map
``e -> sum e_i s_i``:

* partial verification: all images of weight >= 1 are distinct and nonzero
  (the packing condition);
* complete verification: every group element is some image (the covering
  condition);
* multiplicity histogram: representation counts per group element, whose
  maximum is the list size ``lambda`` (the zero vector counts as one
  representation of the identity).

Enumeration order is fixed (weight-major, then support lexicographic, then
per-position values in ascending order), and the reported witness is always
the first offending event in that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .algebra import GroupSpec
from .ball import BallSpec, ball_images, ball_size
from .errors import DomainError, exact_int
from .limits import check


@dataclass(frozen=True)
class MagnitudeSet:
    """The nonzero coefficient interval ``[-kminus, kplus]*``."""

    kplus: int
    kminus: int

    def __post_init__(self) -> None:
        if not 0 <= self.kminus <= self.kplus:
            raise DomainError("need 0 <= kminus <= kplus")
        if self.kplus + self.kminus < 1:
            raise DomainError("need kplus + kminus >= 1")

    @property
    def size(self) -> int:
        return self.kplus + self.kminus

    def values(self) -> tuple[int, ...]:
        return tuple(range(-self.kminus, 0)) + tuple(range(1, self.kplus + 1))


@dataclass(frozen=True)
class SplitterSet:
    """Elements ``s_1..s_n`` of ``group``, each its reduced residue tuple."""

    group: GroupSpec
    elements: tuple[tuple[int, ...], ...]
    magnitudes: MagnitudeSet
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(map(tuple, self.elements)))
        if len(self.elements) < 1:
            raise DomainError("splitter set must be nonempty")
        moduli = self.group.moduli
        for s in self.elements:
            if len(s) != len(moduli) or not all(0 <= r < m for r, m in zip(s, moduli)):
                raise DomainError(f"splitter element {list(s)} outside the group {list(moduli)}")
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("splitter elements must be pairwise distinct")
        if not 1 <= self.t <= len(self.elements):
            raise DomainError("need 1 <= t <= n")

    @property
    def n(self) -> int:
        return len(self.elements)

    def ball(self) -> BallSpec:
        return BallSpec(self.n, self.t, self.magnitudes.kplus, self.magnitudes.kminus)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "elements": [list(s) for s in self.elements],
            "kplus": self.magnitudes.kplus,
            "kminus": self.magnitudes.kminus,
            "t": self.t,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SplitterSet":
        group = GroupSpec.from_json(data["group"])
        kplus, kminus, t = (exact_int(data[key], key) for key in ("kplus", "kminus", "t"))
        elements = tuple(map(group.element, data["elements"]))
        return cls(group, elements, MagnitudeSet(kplus, kminus), t)


@dataclass(frozen=True)
class SplitWitness:
    """Refutation evidence.

    ``kind`` is ``"zero"`` (a nonzero-weight vector maps to the identity),
    ``"collision"`` (two distinct vectors share an image), or ``"uncovered"``
    (a group element no vector reaches).
    """

    kind: str
    e: tuple[int, ...] | None = None
    e_other: tuple[int, ...] | None = None
    g: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.e is not None:
            out["e"] = list(self.e)
        if self.e_other is not None:
            out["e_other"] = list(self.e_other)
        if self.g is not None:
            out["g"] = list(self.g)
        return out


@dataclass
class SplitReport:
    verdict: str  # "verified" | "refuted"
    witness: SplitWitness | None = None
    lambda_: int | None = None
    histogram: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.verdict == "refuted") != (self.witness is not None):
            raise DomainError("witness must be present exactly when refuted")

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.to_json(),
            "lambda": self.lambda_,
            "histogram": None
            if self.histogram is None
            else {str(k): v for k, v in sorted(self.histogram.items())},
        }


def phi(splitter: SplitterSet, e: Sequence[int]) -> tuple[int, ...]:
    """The homomorphism image ``sum e_i s_i`` of an integer coefficient vector."""
    if len(e) != splitter.n:
        raise DomainError(f"coefficient length {len(e)} != n = {splitter.n}")
    moduli = splitter.group.moduli
    total = [0] * len(moduli)
    for c, s in zip(e, splitter.elements):
        if c:
            for j, r in enumerate(s):
                total[j] += c * r
    return tuple(x % m for x, m in zip(total, moduli))


def _images(splitter: SplitterSet):
    """``(support, values, image)`` of every ball vector, zero vector first."""
    return ball_images(splitter.ball(), splitter.elements, splitter.group.moduli)


def _first_event(splitter: SplitterSet) -> SplitWitness | None:
    """The first vector in enumeration order whose image an earlier vector
    already reached; the scan stops there.  The zero vector comes first, so a
    nonzero vector mapping to the identity is a ``"zero"`` event."""
    ball = splitter.ball()
    first: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for support, vals, img in _images(splitter):
        entry = (support, vals)
        prev = first.setdefault(img, entry)
        if prev is not entry:
            e = ball.vector(support, vals)
            if not prev[0]:
                return SplitWitness(kind="zero", e=e)
            return SplitWitness(kind="collision", e=ball.vector(*prev), e_other=e)
    return None


def _workload(splitter: SplitterSet) -> int:
    return ball_size(splitter.ball()) - 1


def check_partial_split(splitter: SplitterSet) -> SplitReport:
    """Verify that all weight-1..t images are pairwise distinct and nonzero."""
    check("enumeration", _workload(splitter))
    witness = _first_event(splitter)
    return SplitReport("verified" if witness is None else "refuted", witness=witness)


def check_complete_split(splitter: SplitterSet) -> SplitReport:
    """Verify that every group element is an image of some weight-<=t vector."""
    check("enumeration", _workload(splitter))
    check("group_order", splitter.group.order)
    reachable = {img for _, _, img in _images(splitter)}
    if len(reachable) == splitter.group.order:
        return SplitReport("verified")
    for g in splitter.group.elements():
        if g not in reachable:
            return SplitReport("refuted", witness=SplitWitness(kind="uncovered", g=g))
    raise AssertionError("unreachable: count mismatch without a missing element")


def multiplicity_histogram(splitter: SplitterSet) -> SplitReport:
    """Representation counts per group element and their maximum ``lambda``.

    The empty combination counts as one representation of the identity, so a
    verified partial split is exactly the ``lambda == 1`` case, and the witness
    of a refuted one is that of :func:`check_partial_split`.
    """
    check("enumeration", _workload(splitter))
    counts = Counter(img for _, _, img in _images(splitter))
    lam = max(counts.values())
    histogram = Counter(counts.values())
    histogram[0] += splitter.group.order - len(counts)
    if histogram[0] == 0:
        del histogram[0]
    witness = None if lam == 1 else _first_event(splitter)
    return SplitReport(
        "verified" if witness is None else "refuted",
        witness=witness,
        lambda_=lam,
        histogram=dict(histogram),
    )

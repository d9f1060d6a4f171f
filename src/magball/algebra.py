"""Exact arithmetic in finite Abelian groups and small finite fields.

Groups are products of cyclic groups ``Z_m1 x ... x Z_mr`` with elements kept
reduced at all times.  Fields ``F_{p^m}`` are realised as ``F_p[x]/(f)`` for a
monic primitive ``f``, so the residue class of ``x`` generates the
multiplicative group and discrete logarithms come from one full table build.
All types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .errors import DomainError
from .limits import check

FieldElement = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """Finite Abelian group given by its list of cyclic moduli."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if len(self.moduli) < 1:
            raise DomainError("a group needs at least one modulus")
        if any(m < 1 for m in self.moduli):
            raise DomainError(f"moduli must be >= 1, got {list(self.moduli)}")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, residues: Sequence[int]) -> "GroupElement":
        """Build an element, reducing each residue into ``[0, m_i)``."""
        if len(residues) != self.rank:
            raise DomainError(
                f"expected {self.rank} residues, got {len(residues)}"
            )
        return GroupElement(
            self, tuple(int(r) % m for r, m in zip(residues, self.moduli))
        )

    def elements(self) -> Iterator["GroupElement"]:
        """All group elements in lexicographic residue order."""
        for residues in product(*(range(m) for m in self.moduli)):
            yield GroupElement(self, residues)

    def to_json(self) -> list[int]:
        return list(self.moduli)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "GroupSpec":
        return cls(tuple(data))


@dataclass(frozen=True)
class GroupElement:
    spec: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", tuple(int(r) for r in self.residues))
        if len(self.residues) != self.spec.rank:
            raise DomainError("residue count does not match the group rank")
        if any(not 0 <= r < m for r, m in zip(self.residues, self.spec.moduli)):
            raise DomainError(f"unreduced residues {list(self.residues)}")

    def is_identity(self) -> bool:
        return all(r == 0 for r in self.residues)

    def to_json(self) -> list[int]:
        return list(self.residues)


def _require_same_spec(a: GroupElement, b: GroupElement) -> None:
    if a.spec != b.spec:
        raise DomainError("elements belong to different groups")


def group_add(a: GroupElement, b: GroupElement) -> GroupElement:
    _require_same_spec(a, b)
    return GroupElement(
        a.spec,
        tuple((x + y) % m for x, y, m in zip(a.residues, b.residues, a.spec.moduli)),
    )


def group_neg(a: GroupElement) -> GroupElement:
    return GroupElement(
        a.spec, tuple((-x) % m for x, m in zip(a.residues, a.spec.moduli))
    )


def scalar_mul(c: int, a: GroupElement) -> GroupElement:
    """``c * a`` for any integer ``c``; negatives reduce at the end."""
    return GroupElement(
        a.spec, tuple((c * x) % m for x, m in zip(a.residues, a.spec.moduli))
    )


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


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write ``q = p^m`` with ``p`` prime, or raise ``DomainError``."""
    if q < 2:
        raise DomainError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        m = 0
        rest = q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest != 1:
            raise DomainError(f"{q} is not a prime power")
        return p, m
    return q, 1  # q itself is prime


@dataclass(frozen=True)
class FieldSpec:
    """``F_{p^m}`` as ``F_p[x]/(modulus)`` with primitive residue class ``x``.

    ``modulus`` is the coefficient tuple in ascending degree order, monic of
    degree ``m``.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", tuple(int(c) for c in self.modulus))
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.m < 1 or len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree m")

    @property
    def size(self) -> int:
        return self.p**self.m

    def zero(self) -> FieldElement:
        return (0,) * self.m

    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.m - 1)

    def gen(self) -> FieldElement:
        """The residue class of ``x`` (reduced when ``m == 1``)."""
        if self.m == 1:
            return ((-self.modulus[0]) % self.p,)
        return (0, 1) + (0,) * (self.m - 2)

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        if len(coeffs) > self.m:
            raise DomainError("coefficient vector longer than the field degree")
        padded = list(coeffs) + [0] * (self.m - len(coeffs))
        return tuple(c % self.p for c in padded)

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        return tuple((-x) % self.p for x in a)

    def scale(self, c: int, a: FieldElement) -> FieldElement:
        return tuple((c * x) % self.p for x in a)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        zero = self.zero()
        if a == zero or b == zero:
            return zero
        powers, log = _field_tables(self)
        return powers[(log[a] + log[b]) % (self.size - 1)]

    def inv(self, a: FieldElement) -> FieldElement:
        if a == self.zero():
            raise DomainError("zero has no inverse")
        powers, log = _field_tables(self)
        return powers[(-log[a]) % (self.size - 1)]

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        if a == self.zero():
            if e == 0:
                return self.one()
            if e < 0:
                raise DomainError("zero has no inverse")
            return self.zero()
        powers, log = _field_tables(self)
        return powers[(log[a] * e) % (self.size - 1)]

    def power_of_gen(self, e: int) -> FieldElement:
        powers, _ = _field_tables(self)
        return powers[e % (self.size - 1)]

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(int(data["p"]), int(data["m"]), tuple(data["modulus"]))


def _mul_by_x(p: int, modulus: tuple[int, ...], e: FieldElement) -> FieldElement:
    """Multiply by the residue class of x with one reduction step."""
    m = len(modulus) - 1
    carry = e[m - 1]
    shifted = (0,) + e[: m - 1]
    if carry == 0:
        return shifted
    return tuple((s - carry * modulus[i]) % p for i, s in enumerate(shifted))


def _order_of_x(p: int, modulus: tuple[int, ...]) -> int | None:
    """Multiplicative order of x mod ``modulus``, or None if x never cycles."""
    m = len(modulus) - 1
    one = (1,) + (0,) * (m - 1)
    limit = p**m - 1
    cur = _mul_by_x(p, modulus, one)
    for k in range(1, limit + 1):
        if cur == one:
            return k
        cur = _mul_by_x(p, modulus, cur)
    return None


@lru_cache(maxsize=None)
def find_primitive_polynomial(p: int, m: int) -> FieldSpec:
    """Smallest monic primitive polynomial of degree ``m`` over ``F_p``.

    Candidates are ordered lexicographically by their coefficient list written
    from the highest degree down to the constant term, so the result is
    reproducible bit for bit.  Primitivity of x already forces irreducibility:
    if x has multiplicative order p^m - 1 then the residue ring has p^m - 1
    units and hence no zero divisors.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 1:
        raise DomainError("degree must be >= 1")
    check("field_size", p**m)
    target = p**m - 1
    for desc in product(range(p), repeat=m):
        # desc = (c_{m-1}, ..., c_1, c_0); constant term last
        if desc[-1] == 0:
            continue  # x would not be a unit
        modulus = tuple(reversed(desc)) + (1,)
        if _order_of_x(p, modulus) == target:
            return FieldSpec(p, m, modulus)
    raise DomainError(f"no primitive polynomial of degree {m} over F_{p}")


@lru_cache(maxsize=None)
def _field_tables(
    spec: FieldSpec,
) -> tuple[tuple[FieldElement, ...], dict[FieldElement, int]]:
    """Power table of x and its inverse map; built once per field."""
    powers: list[FieldElement] = [spec.one()]
    cur = spec.one()
    for _ in range(spec.size - 2):
        cur = _mul_by_x(spec.p, spec.modulus, cur)
        powers.append(cur)
    log = {e: i for i, e in enumerate(powers)}
    if len(log) != spec.size - 1:
        raise DomainError("modulus is not primitive: power table is degenerate")
    return tuple(powers), log


def discrete_log(field: FieldSpec, e: FieldElement) -> int:
    """The exponent d with x^d = e; requires e != 0."""
    if tuple(e) == field.zero():
        raise DomainError("discrete log of zero is undefined")
    _, log = _field_tables(field)
    try:
        return log[tuple(e)]
    except KeyError:
        raise DomainError(f"{e} is not an element of the field") from None


def subfield_elements(field: FieldSpec, q: int) -> list[FieldElement]:
    """Elements of the subfield of size ``q``, zero first then powers of the
    canonical subfield generator x^((p^m - 1)/(q - 1))."""
    total = field.size - 1
    if q < 2 or (q > 2 and total % (q - 1) != 0):
        raise DomainError(f"no subfield of size {q} in a field of size {field.size}")
    out: list[FieldElement] = [field.zero()]
    if q == 2:
        out.append(field.one())
        return out
    step = total // (q - 1)
    out.extend(field.power_of_gen(j * step) for j in range(q - 1))
    return out

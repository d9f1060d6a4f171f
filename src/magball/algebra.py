"""Exact arithmetic in finite Abelian groups and small finite fields.

Groups are products of cyclic groups ``Z_m1 x ... x Z_mr`` with elements kept
reduced at all times.  Fields ``F_{p^m}`` are realised as ``F_p[x]/(f)`` for a
monic primitive ``f``, so the residue class of ``x`` generates the
multiplicative group; one walk over elements packed into integers gives
discrete and Zech logarithms, of the field or of a subfield alone.  Inside
the package a field element is its discrete log, with -1 for zero: a product
adds logs and a sum is one Zech lookup.  Coefficient tuples are only the
JSON form.  All types are immutable.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError
from .limits import check


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
        """Build an element from a list or tuple of exact ints, reducing each
        residue into ``[0, m_i)``."""
        if not isinstance(residues, (list, tuple)) or not set(map(type, residues)) <= {int}:
            raise DomainError(f"{residues!r} is not a list of integer residues")
        if len(residues) != self.rank:
            raise DomainError(
                f"expected {self.rank} residues, got {len(residues)}"
            )
        return GroupElement(self, tuple(r % m for r, m in zip(residues, self.moduli)))

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
    degree ``m``.  The package holds an element as its discrete log (-1 for
    zero) and computes with :func:`_log_mul`, :func:`_log_add` and the tables
    of :func:`_field_tables`, where ``c_0 + ... + c_{m-1} x^{m-1}`` is the
    packed integer ``sum c_i p^i``.  Coefficient tuples appear only in
    :meth:`pack`, :meth:`unpack` and :meth:`power_of_gen`, for the JSON
    form.
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
        if not all(0 <= c < self.p for c in self.modulus):
            raise DomainError(f"modulus coefficients must lie in [0, {self.p})")

    @property
    def size(self) -> int:
        return self.p**self.m

    @property
    def minus_one(self) -> int:
        """The log of -1: 0 for p = 2, where -1 = 1, else ``(p^m - 1)/2``."""
        return 0 if self.p == 2 else (self.size - 1) // 2

    def pack(self, e: Sequence[int]) -> int:
        """``sum c_i p^i`` for an element given as a list or tuple of ``m``
        exact ints in ``[0, p)``; anything else raises DomainError."""
        if not (isinstance(e, (list, tuple)) and len(e) == self.m
                and set(map(type, e)) <= {int} and 0 <= min(e) and max(e) < self.p):
            raise DomainError(f"{e!r} is not an element of F_{self.p}^{self.m}")
        return _pack(self.p, e)

    def unpack(self, v: int) -> tuple[int, ...]:
        return tuple(v // self.p**i % self.p for i in range(self.m))

    def tables(self) -> tuple[array, array, array]:
        """The ``(exp, log, zech)`` tables of :func:`_field_tables`."""
        return _field_tables(self)

    def power_of_gen(self, e: int) -> tuple[int, ...]:
        return self.unpack(_field_tables(self)[0][e % (self.size - 1)])

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(int(data["p"]), int(data["m"]), tuple(data["modulus"]))


def _pack(p: int, digits: Sequence[int]) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def _packed_ring(p: int, modulus: tuple[int, ...]) -> tuple[Callable[..., int], ...]:
    """Multiplication by x, multiplication and addition of two residues, on
    packed residues modulo the monic ``modulus`` over ``F_p``."""
    m = len(modulus) - 1
    top = p ** (m - 1)
    # What a carry c out of the top digit folds back to: -c (modulus - x^m).
    fold = [_pack(p, [(-c * a) % p for a in modulus[:-1]]) for c in range(p)]
    places = [p**i for i in range(m)]

    def add(a: int, b: int) -> int:
        # XOR for p = 2, else digit by digit: the i-th digit of v is v // p^i mod p.
        return a ^ b if p == 2 else sum((a // place + b // place) % p * place for place in places)

    def times_x(v: int) -> int:
        carry, rest = divmod(v, top)
        shifted, f = rest * p, fold[carry]
        return shifted ^ f if not carry or p == 2 else add(shifted, f)

    def mul(a: int, b: int) -> int:
        """Shift-and-XOR Horner for p = 2, else schoolbook on the digits."""
        if p == 2:
            acc = 0
            for place in reversed(places):
                acc = times_x(acc) ^ (a if b & place else 0)
            return acc
        out = [0] * (2 * m - 1)
        bs = [b // place % p for place in places]
        for i, c in enumerate(a // place % p for place in places):
            if c:
                for j, d in enumerate(bs):
                    out[i + j] += c * d
        for k in range(2 * m - 2, m - 1, -1):
            c = out[k] % p
            if c:
                for i in range(m):
                    out[k - m + i] -= c * modulus[i]
        return sum(c % p * place for c, place in zip(out, places))

    return times_x, mul, add


def _x_power(times_x: Callable[[int], int], mul: Callable[[int, int], int], e: int) -> int:
    """``x^e`` packed, by left-to-right square-and-multiply."""
    acc = 1
    for bit in bin(e)[2:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = times_x(acc)
    return acc


def _is_primitive(p: int, modulus: tuple[int, ...]) -> bool:
    """Whether x has order exactly ``N = p^m - 1`` mod ``modulus``: ``x^N = 1``
    and ``x^(N/r) != 1`` for every prime ``r | N`` (Lidl & Niederreiter,
    Thm 3.18), with the primes found by trial division."""
    times_x, mul, _ = _packed_ring(p, modulus)
    N = rest = p ** (len(modulus) - 1) - 1
    exponents = []
    for r in range(2, isqrt(N) + 1):
        if rest % r == 0:
            exponents.append(N // r)
            while rest % r == 0:
                rest //= r
    exponents += [N // rest] if rest > 1 else []
    return _x_power(times_x, mul, N) == 1 and all(_x_power(times_x, mul, e) != 1 for e in exponents)


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
    for desc in product(range(p), repeat=m):
        # desc = (c_{m-1}, ..., c_1, c_0); constant term last
        if desc[-1] == 0:
            continue  # x would not be a unit
        modulus = tuple(reversed(desc)) + (1,)
        if _is_primitive(p, modulus):
            return FieldSpec(p, m, modulus)
    raise DomainError(f"no primitive polynomial of degree {m} over F_{p}")


@lru_cache(maxsize=None)
def _field_tables(spec: FieldSpec) -> tuple[array, array, array]:
    """Built once per field, over the ``N = p^m - 1`` powers of x:
    ``exp[k]`` is ``x^k`` packed, ``log`` maps a packed element back to its
    exponent (-1 at zero), and ``zech[k]`` is the Zech logarithm
    ``log(1 + x^k)`` (-1 where ``1 + x^k = 0``), so that
    ``x^a + x^b = x^(a + zech[b - a])``.  Gated by the field_size limit."""
    check("field_size", spec.size)
    p, n = spec.p, spec.size - 1
    times_x, _, _ = _packed_ring(p, spec.modulus)
    exp = array("l", [0]) * n
    log = array("l", [-1]) * spec.size
    v = 1
    for k in range(n):
        exp[k] = v
        log[v] = k
        v = times_x(v)
    # x is primitive exactly when its first n powers are distinct and nonzero
    # and the next is 1 again.
    if v != 1 or log.count(-1) != 1:
        raise DomainError("modulus is not primitive: power table is degenerate")
    # Adding 1 changes only the constant digit.
    zech = array("l", (log[v - v % p + (v + 1) % p] for v in exp))
    return exp, log, zech


def subfield_logs(field: FieldSpec, q: int) -> list[int]:
    """Logs of the subfield of size ``q = p^k`` (``k | m``): -1 for zero,
    then the powers of its generator x^((p^m - 1)/(q - 1))."""
    p, k = factor_prime_power(q)
    if p != field.p or field.m % k:
        raise DomainError(f"no subfield of size {q} in a field of size {field.size}")
    step = (field.size - 1) // (q - 1)
    return [-1] + [j * step for j in range(q - 1)]


@lru_cache(maxsize=None)
def _subfield_tables(field: FieldSpec, q: int) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
    """The subfield of size ``q`` of a field with primitive x, walked as the
    powers of ``x^((p^m - 1)/(q - 1))``: ``log`` of its packed elements (-1 at
    zero), ``zech[k] = log(1 + x^k)`` on its nonzero logs, and the coefficient
    logs, low degree first, of x's minimal polynomial ``prod (y - x^(q^i))``."""
    check("field_size", field.size)
    logs = subfield_logs(field, q)
    if not _is_primitive(field.p, field.modulus):
        raise DomainError("modulus is not primitive")
    times_x, mul, add = _packed_ring(field.p, field.modulus)
    gen, v, log = _x_power(times_x, mul, (field.size - 1) // (q - 1)), 1, {0: -1}
    for k in logs[1:]:
        log[v] = k
        v = mul(v, gen)
    zech = {k: log[add(v, 1)] for v, k in log.items() if k >= 0}
    poly = [1]
    for i in range(field.m // factor_prime_power(q)[1]):
        minus_root = mul(field.p - 1, _x_power(times_x, mul, q**i))
        # y * poly - root * poly: coefficient i is poly[i - 1] - root * poly[i]
        poly = [add(hi, mul(minus_root, lo)) for hi, lo in zip([0, *poly], [*poly, 0])]
    if any(c not in log for c in poly):
        raise DomainError("minimal polynomial left the subfield")
    return log, zech, tuple(log[c] for c in poly)


# Below the JSON boundary a field element is its discrete log to the base x,
# with -1 for zero, and n = p^m - 1 is the order of x.


def _log_mul(n: int, a: int, b: int) -> int:
    return -1 if a < 0 or b < 0 else (a + b) % n


def _log_add(zech: Mapping[int, int] | Sequence[int], n: int, a: int, b: int) -> int:
    """x^a + x^b = x^a (1 + x^(b - a))."""
    if a < 0:
        return b
    if b < 0:
        return a
    z = zech[(b - a) % n]
    return -1 if z < 0 else (a + z) % n


def _poly_from_roots(field: FieldSpec, zech: Mapping[int, int], root_logs: Iterable[int]) -> list[int]:
    """Coefficient logs, low degree first, of prod (y - x^r) over the root
    logs r (-1 for a zero root), summed through ``zech``: the field's own
    table, or a subfield's that holds the roots."""
    n = field.size - 1
    poly = [0]
    for r in root_logs:
        minus_root = _log_mul(n, r, field.minus_one)
        # y * poly - root * poly: coefficient i is poly[i - 1] - root * poly[i]
        poly = [_log_add(zech, n, hi, _log_mul(n, lo, minus_root))
                for hi, lo in zip([-1, *poly], [*poly, -1])]
    return poly

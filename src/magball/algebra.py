"""Exact arithmetic in finite Abelian groups and small finite fields.

Groups are products of cyclic groups ``Z_m1 x ... x Z_mr`` with elements kept
reduced at all times.  Fields ``F_{p^m}`` are realised as ``F_p[x]/(f)`` for a
monic primitive ``f``, so the residue class of ``x`` generates the
multiplicative group; one walk over elements packed into integers gives
discrete and Zech logarithms, of the field or of a subfield alone, and one
walk of the classes modulo a subfield gives the logs of ``x + alpha``.  Inside
the package a field element is its discrete log, with -1 for zero: a product
adds logs and a sum is one Zech lookup.  Coefficient tuples are only the
JSON form.  All types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, exact_int, exact_ints, is_int_list
from .limits import check, check_power


@dataclass(frozen=True)
class GroupSpec:
    """Finite Abelian group given by its list of cyclic moduli.  An element
    is its tuple of residues, each reduced into ``[0, m_i)``."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(self.moduli))
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

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def element(self, residues: Sequence[int]) -> tuple[int, ...]:
        """The element of a list or tuple of exact ints, each residue reduced
        into ``[0, m_i)``."""
        residues = exact_ints(residues, "integer residues")
        if len(residues) != self.rank:
            raise DomainError(
                f"expected {self.rank} residues, got {len(residues)}"
            )
        return tuple(r % m for r, m in zip(residues, self.moduli))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All group elements in lexicographic residue order."""
        return product(*(range(m) for m in self.moduli))

    def to_json(self) -> list[int]:
        return list(self.moduli)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "GroupSpec":
        return cls(exact_ints(data, "group moduli"))


def group_add(group: GroupSpec, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return group.element([x + y for x, y in zip(group.element(a), group.element(b))])


def group_neg(group: GroupSpec, a: Sequence[int]) -> tuple[int, ...]:
    return group.element([-x for x in group.element(a)])


def scalar_mul(group: GroupSpec, c: int, a: Sequence[int]) -> tuple[int, ...]:
    """``c * a`` for any integer ``c``; negatives reduce at the end."""
    return group.element([c * x for x in group.element(a)])


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
    zero) and computes with :func:`_log_mul` and :func:`_log_add`, whose Zech
    logs come from :func:`_subfield_tables`: of a subfield alone for the
    Bose-Chowla logs and S2 decoding, of the whole field, its own subfield of
    size ``p^m``, for the BCH roots.  ``c_0 + ... + c_{m-1} x^{m-1}`` is
    packed as the integer ``sum c_i p^i``.  Coefficient tuples appear only in
    :meth:`pack` and :meth:`unpack`, for the JSON form.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", tuple(self.modulus))
        if self.m < 1 or len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree m")
        check_power("field_size", self.p, self.m)  # bounds the trial division of p
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
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
        if not (is_int_list(e) and len(e) == self.m and 0 <= min(e) and max(e) < self.p):
            raise DomainError(f"{e!r} is not an element of F_{self.p}^{self.m}")
        return _pack(self.p, e)

    def unpack(self, v: int) -> tuple[int, ...]:
        return tuple(v // self.p**i % self.p for i in range(self.m))

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(exact_int(data["p"], "p"), exact_int(data["m"], "m"),
                   exact_ints(data["modulus"], "integers"))


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


@lru_cache(maxsize=None)
def _is_primitive(p: int, modulus: tuple[int, ...]) -> bool:
    """Whether x has order exactly ``N = p^m - 1`` mod ``modulus``: ``x^N = 1``
    and ``x^(N/r) != 1`` for every prime ``r | N`` (Lidl & Niederreiter,
    Thm 3.18), with the primes found by trial division.  Cached: the tables
    of a field retest the modulus its search has just certified."""
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
    if m < 1:
        raise DomainError("degree must be >= 1")
    check_power("field_size", p, m)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    for desc in product(range(p), repeat=m):
        # desc = (c_{m-1}, ..., c_1, c_0); constant term last
        if desc[-1] == 0:
            continue  # x would not be a unit
        modulus = tuple(reversed(desc)) + (1,)
        if _is_primitive(p, modulus):
            return FieldSpec(p, m, modulus)
    raise DomainError(f"no primitive polynomial of degree {m} over F_{p}")


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


def _x_plus_subfield_logs(field: FieldSpec, q: int) -> list[int]:
    """``log(x + alpha)`` for every alpha in :func:`subfield_logs` order, from
    the subfield tables alone, for a subfield of degree at least 2 below the
    field.

    The classes of ``F* / F_q*`` form a cyclic group of order
    ``N = (p^m - 1)/(q - 1)`` generated by the class of x (Singer 1938), so
    the powers ``x^k``, ``k < N``, meet every class once, each ``x + alpha``
    among them.
    The walk keeps ``x^k`` as coefficient logs over ``F_q`` in the basis
    ``1, y, ...`` of ``F_q[y]/min_poly``, one :func:`_times_y` a step; where
    ``x^k = c (y + alpha)``, ``log(x + alpha) = k - log c``.  A walk that
    finds other than q such classes, or whose ``x^N`` is not the subfield's
    generator, is refused."""
    _, zech, min_poly = _subfield_tables(field, q)
    n = field.size - 1
    N = n // (q - 1)
    minus_modulus = [_log_mul(n, c, field.minus_one) for c in min_poly[:-1]]
    found: dict[int, int] = {}
    hits = 0
    v = [0] + [-1] * (len(minus_modulus) - 1)
    for k in range(N):
        if v[1] >= 0 and max(v[2:], default=-1) < 0:
            c, hits = v[1], hits + 1
            found[-1 if v[0] < 0 else (v[0] - c) % n] = (k - c) % n
        v = _times_y(zech, n, v, minus_modulus)
    if hits != q or len(found) != q or v != [N % n] + [-1] * (len(v) - 1):
        raise DomainError("minimal polynomial is degenerate: the walk of x^k over F_q is not a cycle")
    return [found[alpha] for alpha in subfield_logs(field, q)]


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


def _times_y(zech: Mapping[int, int], n: int, v: Sequence[int], minus_modulus: Sequence[int]) -> list[int]:
    """``y * v`` modulo the monic polynomial whose lower coefficients are the
    negatives of ``minus_modulus``, for ``v`` of at most that many coefficient
    logs, low degree first: shift up, then fold the top coefficient ``c`` back
    as ``c * minus_modulus``."""
    out = [-1, *v]
    if len(out) > len(minus_modulus):
        c = out.pop()
        if c >= 0:
            for i, m in enumerate(minus_modulus):
                if m >= 0:
                    out[i] = _log_add(zech, n, out[i], (c + m) % n)
    return out


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

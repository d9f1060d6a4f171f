"""Decoders for the lattice codes built in :mod:`magball.constructions`.

Two schemes are implemented:

* a syndrome decoder for mod-p code lattices whose table holds one entry
  per vector of the error ball, not one per coset;
* the locator-polynomial decoder for the lattice of the size-(q+1) B_t set:
  the weighted power sum of the received vector is turned into
  ``r(x) = x^s mod p(x)`` over the subfield, whose roots ``-alpha_i`` name
  the error positions.  It computes on the discrete logs and the
  arithmetic of :mod:`magball.algebra`; coefficient tuples appear only in
  the context's JSON form.

Decode failure is an explicit result status, never an exception, so batches
keep flowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .algebra import FieldSpec, _log_add, _log_mul, _poly_from_roots, _subfield_tables
from .ball import BallSpec, ball_images, ball_size
from .constructions import LinearCode, S2Data
from .errors import DomainError
from .limits import check


class OpCounter:
    """Counts multiplications and additions at the field-operation level."""

    __slots__ = ("mul", "add")

    def __init__(self) -> None:
        self.mul = 0
        self.add = 0

    @property
    def total(self) -> int:
        return self.mul + self.add


# ---------------------------------------------------------------------------
# Locator-polynomial decoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class S2DecoderContext:
    """Tables for decoding the kernel lattice of the size-(q+1) B_t set.

    Field elements are held as discrete logs to the base x (-1 for zero), so
    the decoder multiplies by adding exponents and adds with the Zech logs
    ``zech`` of the subfield of size q, which holds every element it touches.
    ``min_poly`` is the degree-(t+1) minimal polynomial of x over that
    subfield, low-degree-first; ``minus_modulus`` negates its lower terms.
    """

    q: int
    t: int
    N: int
    field: FieldSpec
    alphas: tuple[int, ...]
    svals: tuple[int, ...]
    betas: tuple[int, ...]
    min_poly: tuple[int, ...] = field(init=False)
    minus_modulus: tuple[int, ...] = field(init=False, repr=False)
    zech: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _, zech, min_poly = _subfield(self.field, self.q, self.t, self.N)
        n, minus_one = self.field.size - 1, self.field.minus_one
        object.__setattr__(self, "zech", zech)
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "minus_modulus", tuple(_log_mul(n, c, minus_one) for c in min_poly[:-1]))
        for alpha, s, beta in zip(self.alphas, self.svals, self.betas):
            # beta * y^s == y + alpha mod min_poly, and beta != 0: over F_q,
            # y stands for eta = x, and the relation puts alpha and beta in F_q.
            r = _power_of_y(self, s % n)[0]
            if beta < 0 or _poly_trim([_log_mul(n, beta, c) for c in r]) != [alpha, 0]:
                raise DomainError("context tables violate beta * eta^s == eta + alpha")
        if len(set(self.svals)) != self.q or 0 in self.svals:
            raise DomainError("splitter values must be distinct and nonzero")
        if not len(self.alphas) == len(self.betas) == len(self.svals):
            raise DomainError("alphas, svals and betas must have one entry per position")

    @classmethod
    def from_s2(cls, data: S2Data) -> "S2DecoderContext":
        return cls(data.q, data.t, data.N, data.field, data.alphas, data.svals, data.betas)

    def to_json(self) -> dict:
        f = self.field
        packed = {k: v for v, k in _subfield_tables(f, self.q)[0].items()}
        return {
            "type": "s2",
            "q": self.q,
            "t": self.t,
            "N": self.N,
            "field": f.to_json(),
            "alphas": [list(f.unpack(packed[a])) for a in self.alphas],
            "svals": list(self.svals),
            "betas": [list(f.unpack(packed[b])) for b in self.betas],
        }

    @classmethod
    def from_json(cls, data: dict) -> "S2DecoderContext":
        f = FieldSpec.from_json(data["field"])
        q, t, N = int(data["q"]), int(data["t"]), int(data["N"])
        alphas, betas = ([f.pack(e) for e in data[key]] for key in ("alphas", "betas"))
        log = _subfield(f, q, t, N)[0]
        for v in alphas + betas:
            if v not in log:
                raise DomainError(f"{list(f.unpack(v))} lies outside the subfield of size {q}")
        svals = tuple(int(s) for s in data["svals"])
        return cls(q, t, N, f, tuple(log[v] for v in alphas), svals, tuple(log[v] for v in betas))


# Field elements below are discrete logs to the base x, with -1 for zero, and
# n = p^m - 1 is the order of x.


def _subfield(f: FieldSpec, q: int, t: int, N: int) -> tuple[dict, dict, tuple[int, ...]]:
    """The subfield tables of an S2 context whose sizes fit each other."""
    size = f.size
    # q >= 2 makes q^(t+1) > size once t + 1 > log2(size): test that first.
    if t < 2 or q < 2 or t >= size.bit_length() or q ** (t + 1) != size:
        raise DomainError(f"need t >= 2 and a field of size q^(t+1), got q = {q}, t = {t} "
                          f"and a field of size {size}")
    if N != (size - 1) // (q - 1):
        raise DomainError(f"need N = (q^(t+1) - 1)/(q - 1) = {(size - 1) // (q - 1)}, got {N}")
    return _subfield_tables(f, q)


def _poly_trim(poly: Sequence[int]) -> list[int]:
    out = list(poly)
    while out and out[-1] < 0:
        out.pop()
    return out


def _monic(n: int, poly: Sequence[int]) -> list[int]:
    trimmed = _poly_trim(poly)
    return [_log_mul(n, c, -trimmed[-1] % n) for c in trimmed] if trimmed else trimmed


def _poly_mul_mod(
    zech: Mapping[int, int], n: int, a: Sequence[int], b: Sequence[int], minus_modulus: Sequence[int]
) -> tuple[list[int], int]:
    """``a * b`` modulo the monic polynomial whose lower coefficients are
    the negatives of ``minus_modulus``, and the number of field
    multiplications spent (each comes with one addition)."""
    prod_ = [-1] * (len(a) + len(b) - 1)
    count = 0
    for i, ca in enumerate(a):
        if ca < 0:
            continue
        for j, cb in enumerate(b):
            if cb < 0:
                continue
            count += 1
            prod_[i + j] = _log_add(zech, n, prod_[i + j], (ca + cb) % n)
    # x^deg_m = -(lower terms); cancel degrees from the top
    deg_m = len(minus_modulus)
    for i in range(len(prod_) - 1, deg_m - 1, -1):
        lead = prod_[i]
        if lead < 0:
            continue
        count += deg_m
        for j, c in enumerate(minus_modulus):
            if c >= 0:
                prod_[i - deg_m + j] = _log_add(zech, n, prod_[i - deg_m + j], (lead + c) % n)
        prod_[i] = -1
    return prod_[:deg_m], count


def _power_of_y(ctx: S2DecoderContext, s: int) -> tuple[list[int], int]:
    """``y^s mod min_poly`` by left-to-right square and multiply, trimmed,
    and the field multiplications spent."""
    n, zech, minus_modulus = ctx.field.size - 1, ctx.zech, ctx.minus_modulus
    r, count = [0], 0
    for bit in bin(s)[2:] if s else "":
        r, spent = _poly_mul_mod(zech, n, r, r, minus_modulus)
        count += spent
        if bit == "1":
            r, spent = _poly_mul_mod(zech, n, r, [-1, 0], minus_modulus)
            count += spent
    return _poly_trim(r), count


def _poly_eval(zech: Mapping[int, int], n: int, poly: Sequence[int], x: int) -> int:
    acc = -1
    for c in reversed(poly):
        acc = _log_add(zech, n, _log_mul(n, acc, x), c)
    return acc


@dataclass
class S2DecodeResult:
    status: str  # "ok" | "fail"
    codeword: tuple[int, ...] | None
    positions: tuple[int, ...] = ()
    ops: OpCounter = field(default_factory=OpCounter)


def decode_s2(
    ctx: S2DecoderContext, y: Sequence[int], verify_identity: bool = False
) -> S2DecodeResult:
    """Correct up to t unit-magnitude increases against the B_t-set lattice.

    The weighted sum ``s`` of the received vector determines
    ``r(x) = x^s mod p(x)``; scaled by the product of the betas it equals the
    product of ``(x + alpha_i)`` over the error positions, so its roots at
    ``-alpha_i`` (including i = 0) locate the errors.

    ``ops`` counts the field multiplications and additions of schoolbook
    polynomial arithmetic, one of each per weighted-sum term, per product of
    nonzero coefficients, per modulus coefficient of each reduction step and
    per Horner step; a table lookup counts as the operation it replaces.
    """
    if len(y) != ctx.q:
        raise DomainError(f"received vector must have length {ctx.q}")
    n, zech, minus_one = ctx.field.size - 1, ctx.zech, ctx.field.minus_one
    s = sum(yi * si for yi, si in zip(y, ctx.svals)) % ctx.N
    r, spent = _power_of_y(ctx, s)
    count = ctx.q + spent
    degree = len(r) - 1 if r else 0

    positions = []
    for i, alpha in enumerate(ctx.alphas):
        if _poly_eval(zech, n, r, _log_mul(n, alpha, minus_one)) < 0:
            positions.append(i)
    count += len(ctx.alphas) * len(r)
    ops = OpCounter()
    ops.mul = ops.add = count

    if degree != len(positions):
        return S2DecodeResult("fail", None, tuple(positions), ops)
    corrected = list(map(int, y))
    for i in positions:
        corrected[i] -= 1
    if sum(c * si for c, si in zip(corrected, ctx.svals)) % ctx.N != 0:
        return S2DecodeResult("fail", None, tuple(positions), ops)

    if verify_identity and positions:
        # The monic normalisations of (prod beta_i) r(x) and prod (x + alpha_i)
        # must coincide; reducing s mod N leaves a subfield unit on r.
        beta_prod = sum(ctx.betas[i] for i in positions) % n
        lhs = _monic(n, [_log_mul(n, beta_prod, c) for c in r])
        rhs = _poly_from_roots(ctx.field, zech, [_log_mul(n, ctx.alphas[i], minus_one) for i in positions])
        if lhs != _monic(n, rhs):
            return S2DecodeResult("fail", None, tuple(positions), ops)

    return S2DecodeResult("ok", tuple(corrected), tuple(positions), ops)


# ---------------------------------------------------------------------------
# Mod-p syndrome decoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyndromeTable:
    """Ball-image table: the syndrome of every vector of the ball
    ``B(n, (d-1)//2, kplus, kminus)`` maps to that signed vector, stored as
    its ``((position, value), ...)`` pairs in increasing position."""

    leaders: dict[tuple[int, ...], tuple[tuple[int, int], ...]]


def build_syndrome_decoder(code: LinearCode, kplus: int, kminus: int) -> SyndromeTable:
    """Tabulate the ball of radius (d-1)//2 by syndrome, in
    :func:`~magball.ball.enumerate_ball` order.

    The code lattice packs that ball, so its vectors lie in distinct cosets
    and a repeated syndrome means the declared ``d`` is wrong.  A vector's
    syndrome is its image under the columns of ``H`` modulo ``p``.
    """
    if kplus + kminus >= code.p:
        raise DomainError("need kplus + kminus < p")
    ball = BallSpec(code.n, (code.d - 1) // 2, kplus, kminus)
    check("syndrome_table", ball_size(ball))
    leaders: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for support, values, syn in ball_images(ball, code.columns, [code.p] * (code.n - code.k)):
        e = tuple(zip(support, values))
        first = leaders.setdefault(syn, e)
        if first is not e:
            raise DomainError(
                f"ball vectors {dict(first)} and {dict(e)} share a syndrome: "
                f"the code's minimum distance is below the declared d = {code.d}"
            )
    return SyndromeTable(leaders)


@dataclass(frozen=True)
class ModPDecoderContext:
    code: LinearCode
    kplus: int
    kminus: int
    table: SyndromeTable

    @classmethod
    def build(cls, code: LinearCode, kplus: int, kminus: int) -> "ModPDecoderContext":
        return cls(code, kplus, kminus, build_syndrome_decoder(code, kplus, kminus))

    def to_json(self) -> dict:
        return {
            "type": "modp",
            "code": self.code.to_json(),
            "kplus": self.kplus,
            "kminus": self.kminus,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModPDecoderContext":
        return cls.build(
            LinearCode.from_json(data["code"]), int(data["kplus"]), int(data["kminus"])
        )


@dataclass
class ModPDecodeResult:
    status: str  # "ok" | "fail"
    codeword: tuple[int, ...] | None
    # Every table entry lies within the guaranteed radius, so this is true
    # exactly when the status is "ok".
    guaranteed: bool = False


def decode_mod_p(ctx: ModPDecoderContext, y: Sequence[int]) -> ModPDecodeResult:
    """Subtract the ball vector whose syndrome is that of ``y``; a syndrome
    outside the ball's images is beyond the radius and fails."""
    code = ctx.code
    if len(y) != code.n:
        raise DomainError(f"received vector must have length {code.n}")
    err = ctx.table.leaders.get(code.syndrome(y))
    if err is None:
        return ModPDecodeResult("fail", None)
    corrected = list(y)
    for pos, v in err:
        corrected[pos] -= v
    if any(code.syndrome(corrected)):
        return ModPDecodeResult("fail", None)
    return ModPDecodeResult("ok", tuple(corrected), True)

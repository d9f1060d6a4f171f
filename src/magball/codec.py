"""Decoders for the lattice codes built in :mod:`magball.constructions`.

Two schemes are implemented:

* a syndrome decoder for mod-p code lattices whose table holds one entry
  per vector of the error ball, not one per coset;
* the locator-polynomial decoder for the lattice of the size-(q+1) B_t set:
  the weighted power sum of the received vector is turned into
  ``r(x) = x^s mod p(x)`` over the subfield, whose roots ``-alpha_i`` name
  the error positions.

Decode failure is an explicit result status, never an exception, so batches
keep flowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .algebra import FieldElement, FieldSpec, GroupSpec
from .ball import BallSpec, ball_images, ball_size
from .constructions import LinearCode, S2Data
from .errors import DomainError
from .limits import check
from .splitting import MagnitudeSet, SplitterSet


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

    ``min_poly`` is the degree-(t+1) minimal polynomial of the field generator
    over the subfield of size q, stored low-degree-first with coefficients as
    elements of the big field that happen to lie in the subfield.
    """

    q: int
    t: int
    N: int
    field: FieldSpec
    alphas: tuple[FieldElement, ...]
    svals: tuple[int, ...]
    betas: tuple[FieldElement, ...]
    min_poly: tuple[FieldElement, ...]

    @classmethod
    def from_s2(cls, data: S2Data) -> "S2DecoderContext":
        f = data.field
        mp = _min_poly_over_subfield(f, data.q, data.t + 1)
        ctx = cls(
            q=data.q,
            t=data.t,
            N=data.N,
            field=f,
            alphas=data.alphas,
            svals=data.svals,
            betas=data.betas,
            min_poly=mp,
        )
        ctx.validate()
        return ctx

    def validate(self) -> None:
        f = self.field
        eta = f.gen()
        for alpha, s, beta in zip(self.alphas, self.svals, self.betas):
            if f.mul(beta, f.pow(eta, s)) != f.add(eta, alpha):
                raise DomainError("context tables violate beta * eta^s == eta + alpha")
        if len(set(self.svals)) != self.q or 0 in self.svals:
            raise DomainError("splitter values must be distinct and nonzero")

    def splitter_set(self) -> SplitterSet:
        group = GroupSpec((self.N,))
        return SplitterSet(
            group,
            tuple(group.element((s,)) for s in self.svals),
            MagnitudeSet(1, 0),
            self.t,
        )

    def to_json(self) -> dict:
        return {
            "type": "s2",
            "q": self.q,
            "t": self.t,
            "N": self.N,
            "field": self.field.to_json(),
            "alphas": [list(a) for a in self.alphas],
            "svals": list(self.svals),
            "betas": [list(b) for b in self.betas],
        }

    @classmethod
    def from_json(cls, data: dict) -> "S2DecoderContext":
        f = FieldSpec.from_json(data["field"])
        ctx = cls(
            q=int(data["q"]),
            t=int(data["t"]),
            N=int(data["N"]),
            field=f,
            alphas=tuple(tuple(int(c) for c in a) for a in data["alphas"]),
            svals=tuple(int(s) for s in data["svals"]),
            betas=tuple(tuple(int(c) for c in b) for b in data["betas"]),
            min_poly=_min_poly_over_subfield(f, int(data["q"]), int(data["t"]) + 1),
        )
        ctx.validate()
        return ctx


def _min_poly_over_subfield(
    field: FieldSpec, q: int, degree: int
) -> tuple[FieldElement, ...]:
    """prod (y - eta^(q^i)) for i in [0, degree); coefficients land in the
    size-q subfield."""
    eta = field.gen()
    poly: list[FieldElement] = [field.one()]
    conj = eta
    for _ in range(degree):
        nxt = [field.zero()] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.sub(nxt[i], field.mul(c, conj))
        poly = nxt
        conj = field.pow(conj, q)
    for c in poly:
        if field.pow(c, q) != c:
            raise DomainError("minimal polynomial left the subfield")
    return tuple(poly)


def _poly_trim(field: FieldSpec, poly: Sequence[FieldElement]) -> list[FieldElement]:
    out = list(poly)
    zero = field.zero()
    while out and out[-1] == zero:
        out.pop()
    return out


def _monic(field: FieldSpec, poly: Sequence[FieldElement]) -> list[FieldElement]:
    trimmed = _poly_trim(field, poly)
    if not trimmed:
        return trimmed
    inv_lead = field.inv(trimmed[-1])
    return [field.mul(c, inv_lead) for c in trimmed]


def _poly_mul_mod(
    field: FieldSpec,
    a: Sequence[FieldElement],
    b: Sequence[FieldElement],
    modulus: Sequence[FieldElement],
    ops: OpCounter,
) -> list[FieldElement]:
    zero = field.zero()
    prod_ = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == zero:
            continue
        for j, cb in enumerate(b):
            if cb == zero:
                continue
            ops.mul += 1
            ops.add += 1
            prod_[i + j] = field.add(prod_[i + j], field.mul(ca, cb))
    # modulus is monic; cancel degrees from the top
    deg_m = len(modulus) - 1
    for i in range(len(prod_) - 1, deg_m - 1, -1):
        lead = prod_[i]
        if lead == zero:
            continue
        for j in range(deg_m):
            ops.mul += 1
            ops.add += 1
            prod_[i - deg_m + j] = field.sub(
                prod_[i - deg_m + j], field.mul(lead, modulus[j])
            )
        prod_[i] = zero
    return prod_[:deg_m]


def _poly_eval(
    field: FieldSpec, poly: Sequence[FieldElement], x: FieldElement, ops: OpCounter
) -> FieldElement:
    acc = field.zero()
    for c in reversed(list(poly)):
        ops.mul += 1
        ops.add += 1
        acc = field.add(field.mul(acc, x), c)
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
    """
    if len(y) != ctx.q:
        raise DomainError(f"received vector must have length {ctx.q}")
    f = ctx.field
    ops = OpCounter()
    s = 0
    for yi, si in zip(y, ctx.svals):
        ops.mul += 1
        ops.add += 1
        s += yi * si
    s %= ctx.N

    # r(x) = x^s mod p(x) by left-to-right square and multiply.
    one_poly = [f.one()]
    x_poly = [f.zero(), f.one()]
    r = list(one_poly)
    if s:
        for bit in bin(s)[2:]:
            r = _poly_mul_mod(f, r, r, ctx.min_poly, ops)
            if bit == "1":
                r = _poly_mul_mod(f, r, x_poly, ctx.min_poly, ops)
    r = _poly_trim(f, r)
    degree = len(r) - 1 if r else 0

    positions = []
    for i, alpha in enumerate(ctx.alphas):
        if _poly_eval(f, r, f.neg(alpha), ops) == f.zero():
            positions.append(i)

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
        beta_prod = f.one()
        for i in positions:
            beta_prod = f.mul(beta_prod, ctx.betas[i])
        lhs = _monic(f, [f.mul(beta_prod, c) for c in r])
        rhs: list[FieldElement] = [f.one()]
        for i in positions:
            nxt = [f.zero()] * (len(rhs) + 1)
            for j, c in enumerate(rhs):
                nxt[j + 1] = f.add(nxt[j + 1], c)
                nxt[j] = f.add(nxt[j], f.mul(c, ctx.alphas[i]))
            rhs = nxt
        if lhs != _monic(f, rhs):
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
    H = code.parity_check
    columns = [[h[j] for h in H] for j in range(code.n)]
    leaders: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for support, values, syn in ball_images(ball, columns, [code.p] * len(H)):
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

"""Construction families producing splitter sets, codes, and lattices.

Each construction returns an object the checkers in :mod:`magball.splitting`
and :mod:`magball.lattice` can verify exhaustively; nothing here is trusted
without that oracle confirmation (the test suite wires the two together).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, floor, gcd
from operator import mul
from typing import Sequence

from .algebra import (
    FieldSpec,
    GroupSpec,
    _poly_from_roots,
    _subfield_tables,
    _x_plus_subfield_logs,
    factor_prime_power,
    find_primitive_polynomial,
    is_prime,
    subfield_logs,
)
from .ball import BallSpec, ball_size
from .errors import DomainError, OracleDisagreement, exact_int, exact_ints
from .lattice import LatticeBasis, _chain_kernel
from .limits import check, check_power
from .splitting import MagnitudeSet, SplitReport, SplitterSet, multiplicity_histogram


# ---------------------------------------------------------------------------
# B_t sets (Bose-Chowla) and their splitters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BtSet:
    """Subset of Z_N whose t-element multiset sums are distinct mod N."""

    N: int
    elements: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(sorted(int(a) % self.N for a in self.elements)))
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("B_t set elements must be distinct")


@dataclass(frozen=True)
class S2Data:
    """The size-(q+1) B_t set over Z_{(q^{t+1}-1)/(q-1)} plus the field data
    behind it: for every i, ``beta_i * eta^{s_i} == eta + alpha_i`` with
    ``eta = x``.  ``alphas`` and ``betas`` are discrete logs (-1 for zero)."""

    bt: BtSet
    field: FieldSpec
    q: int
    t: int
    N: int
    alphas: tuple[int, ...]
    svals: tuple[int, ...]
    betas: tuple[int, ...]


def bose_chowla_s1(q: int, t: int) -> BtSet:
    """B_t set of size q inside Z_{q^t - 1}, from discrete logs of x + alpha."""
    if t < 2:
        raise DomainError("need t >= 2")
    check_power("field_size", q, t)  # bounds the trial division of q
    p, m = factor_prime_power(q)
    field = find_primitive_polynomial(p, m * t)
    return BtSet(field.size - 1, tuple(sorted(_x_plus_subfield_logs(field, q))), t)


def bose_chowla_s2(q: int, t: int) -> S2Data:
    """B_t set of size q + 1 inside Z_{(q^{t+1}-1)/(q-1)}, together with the
    subfield factorisations used by the decoder."""
    if t < 2:
        raise DomainError("need t >= 2")
    check_power("field_size", q, t + 1)  # bounds the trial division of q
    p, m = factor_prime_power(q)
    field = find_primitive_polynomial(p, m * (t + 1))
    N = (field.size - 1) // (q - 1)
    alphas = tuple(subfield_logs(field, q))
    logs = _x_plus_subfield_logs(field, q)  # log(eta + alpha), eta = x
    svals = [d % N for d in logs]
    betas = [d - d % N for d in logs]
    elements = set(svals) | {0}
    if len(elements) != q + 1:
        raise DomainError("degenerate S2 data: s-values are not distinct and nonzero")
    bt = BtSet(N, tuple(sorted(elements)), t)
    return S2Data(bt, field, q, t, N, alphas, tuple(svals), tuple(betas))


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise DomainError(f"need {name} >= 1, got {value}")


def is_bt_set(
    elements: Sequence[int], N: int, t: int
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Exhaustive multiset-sum distinctness check; returns the first colliding
    pair of multisets on failure."""
    _require_positive(N=N, t=t)
    A = sorted(set(int(a) % N for a in elements))
    check("enumeration", comb(len(A) + t - 1, t) if A else 0)
    seen: dict[int, tuple[int, ...]] = {}
    for multiset in combinations_with_replacement(A, t):
        s = sum(multiset) % N
        if s in seen:
            return False, (seen[s], multiset)
        seen[s] = multiset
    return True, None


# Residues a search filters first past its root; a node doubles its window
# from there each time the candidates inside it run out.
_WINDOW = 64


def _bits(size: int, positions) -> int:
    """The int with the bits at ``positions``, each below ``size``, set."""
    buf = bytearray((size + 7) >> 3)
    for y in positions:
        buf[y >> 3] |= 1 << (y & 7)
    return int.from_bytes(buf, "little")


def _backtrack(N: int, target_size: int, workload, barred, admit) -> tuple[list[int], bool]:
    """Depth-first search over Z_N, extending in increasing order, pruned.

    Both searched properties are hereditary (a subset of a valid set is
    valid) and invariant under ``x -> x + c``.  So the root tries 0 alone:
    a set with least element ``m`` translates by ``-m`` to a valid set that
    holds 0 and comes first in the search order, so the first set of
    ``target_size`` elements, or the first largest set, lies in the
    0-subtree.

    A node's candidates are a bit mask over a window ``[0, width)`` of
    residues, drawn from its parent's survivors; the residues past the
    window are not filtered yet and count as candidates.  When the window's
    candidates run out, the node doubles the window and filters the new
    residues, so a search that reaches its target near 0 touches no more of
    Z_N than that, and a window past the ``group_order`` limit raises.  A
    subtree whose current set plus candidates cannot outgrow the largest set
    seen so far is skipped.

    ``barred(width)`` returns, as a bit mask, the residues below ``width``
    that the set accepted so far rejects at once; bits from ``width`` up are
    ignored.  ``admit(y)`` tests a candidate the mask let through: it returns
    None if ``y`` is rejected, else records ``y`` in the caller's state and
    returns a callable that undoes that.  ``workload(size)`` is the
    enumeration workload of the full check of a set of that size; a node
    checks it before it tests its first candidate.  Returns the first set of
    ``target_size`` elements, or else the first largest set seen, with the
    reached flag.
    """
    current: list[int] = []
    best: list[int] = []

    def extend(candidates: int, width: int) -> bool:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if len(current) >= target_size:
            return True
        if len(current) + candidates.bit_count() + N - width <= len(best):
            return False
        candidates &= ~barred(width)
        left = candidates.bit_count() + N - width
        checked = False
        while len(current) + left > len(best):
            if not candidates:  # the window is spent; left > 0, so width < N
                grown = max(2 * width, _WINDOW)
                grown = N if 2 * grown > N else grown
                check("group_order", grown)
                candidates = ((1 << grown) - (1 << width)) & ~barred(grown)
                width = grown
                left = candidates.bit_count() + N - width
                continue
            if not checked:
                check("enumeration", workload(len(current) + 1))
                checked = True
            low = candidates & -candidates
            candidates ^= low
            left -= 1
            y = low.bit_length() - 1
            undo = admit(y)
            if undo is None:
                continue
            current.append(y)
            if extend(candidates, width):
                return True
            current.pop()
            undo()
            if not current:  # the root tries 0 alone
                break
        return False

    if extend(1, 1):
        return current, True
    return best, False


def search_bt_set(N: int, t: int, target_size: int) -> tuple[BtSet, bool]:
    """Deterministic backtracking for a B_t set of the requested size; returns
    the first set found or the maximum-size set seen, with a reached flag.

    A candidate ``y`` only adds the t-multisets that contain it, with sums
    ``j y + sigma`` for ``sigma`` a (t-j)-multiset sum of the accepted set.
    The stored t-sums are a bit mask, so one rotation per (t-1)-sum
    ``sigma`` bars every candidate with ``y + sigma`` among them at once;
    the sums with ``j >= 2`` are tested per candidate.  While every element
    lies below ``width`` and ``t width <= N``, no sum wraps, so the mask is at
    most ``t width`` bits long and its rotation a plain shift."""
    _require_positive(N=N, t=t, target_size=target_size)
    # sums[s]: the s-multiset sums of the accepted set, for s < t.  They are
    # distinct, as a B_t set is also a B_s set.
    sums: list[list[int]] = [[0]] + [[] for _ in range(t - 1)]
    tsums = 0

    def barred(width: int) -> int:
        out = 0
        for sigma in sums[t - 1]:
            out |= tsums >> sigma
            if sigma + width > N:  # y + sigma wraps for y >= N - sigma
                out |= tsums << (N - sigma)
        return out

    def admit(y: int):
        nonlocal tsums
        # The sums y + sigma are distinct, as the (t-1)-sums are, and the
        # rotations left none of them stored.
        fresh = {(y + sigma) % N for sigma in sums[t - 1]}
        for j in range(2, t + 1):
            jy = j * y
            for sigma in sums[t - j]:
                v = (jy + sigma) % N
                if tsums >> v & 1 or v in fresh:
                    return None
                fresh.add(v)
        marks = [len(level) for level in sums]
        for s in range(t - 1, 0, -1):  # downwards: sums[s - j] is still old
            sums[s].extend((j * y + sigma) % N for j in range(1, s + 1) for sigma in sums[s - j])
        old = tsums
        tsums |= _bits(max(fresh) + 1, fresh)

        def undo() -> None:
            nonlocal tsums
            tsums = old
            for level, mark in zip(sums, marks):
                del level[mark:]

        return undo

    found, reached = _backtrack(N, target_size, lambda size: comb(size + t - 1, t), barred, admit)
    ok, witness = is_bt_set(found, N, t)
    if not ok:
        raise OracleDisagreement(
            f"B_{t} search returned {found} over Z_{N}; "
            f"the full check finds {witness[0]} and {witness[1]} with one sum"
        )
    return BtSet(N, tuple(found), t), reached


def bt_shift_to_splitter(bt: BtSet) -> SplitterSet:
    """Shift so the smallest element sits at 0, drop it, and split Z_N with
    coefficients {1}."""
    if len(bt.elements) < 2:
        raise DomainError("need at least two elements to build a splitter")
    a1 = bt.elements[0]
    shifted = sorted((a - a1) % bt.N for a in bt.elements)
    group = GroupSpec((bt.N,))
    elements = tuple(group.element((s,)) for s in shifted if s != 0)
    return SplitterSet(group, elements, MagnitudeSet(1, 0), bt.t)


def bt_pm1_splitter(bt: BtSet, t: int) -> SplitterSet:
    """Embed a B_t set as {(a_i, 1)} in Z_N x Z_{2t+1}, split with {-1, 1}."""
    if t > bt.t:
        raise DomainError(f"set strength {bt.t} is below the requested t = {t}")
    group = GroupSpec((bt.N, 2 * t + 1))
    elements = tuple(group.element((a, 1)) for a in bt.elements)
    return SplitterSet(group, elements, MagnitudeSet(1, 1), t)


# ---------------------------------------------------------------------------
# k-fold Sidon sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SidonParams:
    N: int
    k: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(sorted(int(a) % self.N for a in self.elements)))
        if gcd(self.N, factorial(self.k)) != 1:
            raise DomainError("N must be coprime to k!")


def _trivial_solution(cs: tuple[int, int, int, int], xs: tuple[int, int, int, int]) -> bool:
    # Trivial means: the nonzero-coefficient indices admit a partition into
    # two zero-coefficient-sum parts with x constant on each part.  So x takes
    # one value there, or two values whose coefficients each sum to zero.
    weight: dict[int, int] = {}
    for c, x in zip(cs, xs):
        if c:
            weight[x] = weight.get(x, 0) + c
    return len(weight) == 1 or (len(weight) == 2 and not any(weight.values()))


def is_kfold_sidon(
    elements: Sequence[int], N: int, k: int
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Check that every length-4 relation with coefficients in [-k, k] summing
    to zero has only trivial solutions; returns (coefficients, solution) on
    failure."""
    _require_positive(N=N, k=k)
    if gcd(N, factorial(k)) != 1:
        raise DomainError("N must be coprime to k!")
    A = sorted(set(int(a) % N for a in elements))
    check("enumeration", len(A) ** 4 * (2 * k + 1) ** 3)
    coeff_range = range(-k, k + 1)
    for c1, c2, c3 in product(coeff_range, repeat=3):
        c4 = -(c1 + c2 + c3)
        if not -k <= c4 <= k:
            continue
        cs = (c1, c2, c3, c4)
        if cs == (0, 0, 0, 0):
            continue
        # Meet in the middle: c1 x1 + c2 x2 == -(c3 x3 + c4 x4) mod N.
        left: dict[int, list[tuple[int, int]]] = {}
        for x1 in A:
            for x2 in A:
                left.setdefault((c1 * x1 + c2 * x2) % N, []).append((x1, x2))
        for x3 in A:
            for x4 in A:
                for x1, x2 in left.get((-(c3 * x3 + c4 * x4)) % N, ()):
                    xs = (x1, x2, x3, x4)
                    if not _trivial_solution(cs, xs):
                        return False, (cs, xs)
    return True, None


def _sidon_relations(k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The relations that a new element ``y`` of a k-fold Sidon set must
    not satisfy, as pairs ``(s, others)``: ``s y + sum(c x) == 0`` over the
    coefficients ``c`` in ``others`` and set elements ``x``.

    A new nontrivial solution has ``y`` at a nonzero coefficient.  Solutions
    and triviality are invariant under permuting positions and negating, so
    one vector per class is enough, with ``y`` in position 1 and coefficient
    ``c1 > 0``.  Vectors of support 2 are skipped: ``c x1 - c x2 == 0`` forces
    ``x1 == x2``, as ``c`` is a unit mod N when ``gcd(N, k!) == 1``.  If ``y``
    fills positions of coefficient sum ``s`` and set elements the others, the
    solution is trivial exactly when ``s == 0``: if ``s != 0``, y's part has a
    nonzero sum; if ``s == 0``, y fills two or more positions, leaving at most
    two others, whose coefficients ``c`` and ``-c`` force equal elements.  One
    other position never has a solution, as it would hold ``y``.
    """
    values = [c for c in range(-k, k + 1) if c]
    found = set()
    for c1 in range(1, k + 1):
        for r in (2, 3):
            for rest in combinations_with_replacement(values, r):
                if c1 + sum(rest) != 0:
                    continue
                for mask in range(1 << r):
                    s = c1 + sum(c for i, c in enumerate(rest) if mask >> i & 1)
                    others = [c for i, c in enumerate(rest) if not mask >> i & 1]
                    if s and len(others) >= 2:
                        if s < 0:
                            s, others = -s, [-c for c in others]
                        found.add((s, tuple(sorted(others))))
    return sorted(found)


def _sidon_blocked(
    accepted: Sequence[int], N: int, relations: Sequence[tuple[int, tuple[int, ...]]]
) -> list[int]:
    """The residues ``y`` that ``accepted[-1]`` newly bars from extending the
    k-fold Sidon set ``accepted``, possibly repeated: those where ``s y`` is
    a value ``-sum(c x)`` of a relation ``(s, others)`` of
    :func:`_sidon_relations`, over elements ``x`` of ``accepted`` at least one
    of which is ``accepted[-1]``.  The union over the prefixes of
    ``accepted`` bars exactly the residues outside it that fail.

    A multiplier ``s`` need not be a unit mod N (``s = 2`` at N = 2, k = 1),
    so each value bars every preimage under ``y -> s y``."""
    newest = accepted[-1]
    values: dict[int, set[int]] = {}
    for s, others in relations:
        found = values.setdefault(s, set())
        for c in set(others):  # newest at one position of coefficient c
            rest = list(others)
            rest.remove(c)
            part = {-c * newest % N}
            for d in rest:
                part = {(v - d * x) % N for v in part for x in accepted}
            found |= part
    blocked: list[int] = []
    for s, found in values.items():
        g = gcd(s, N)
        step = N // g  # s y == v has the g solutions y0 + i step when g | v
        inverse = pow(s // g, -1, step)
        for v in found:
            if v % g == 0:
                blocked.extend(range(v // g * inverse % step, N, step))
    return blocked


def search_kfold_sidon(N: int, k: int, target_size: int) -> tuple[SidonParams, bool]:
    """Deterministic backtracking over Z_N in increasing order, extending while
    the k-fold Sidon property holds; each node drops the residues its set
    bars from its candidates, so every candidate left is accepted."""
    _require_positive(N=N, k=k, target_size=target_size)
    if gcd(N, factorial(k)) != 1:
        raise DomainError("N must be coprime to k!")
    relations = _sidon_relations(k)
    accepted: list[int] = []
    # levels[i]: the residues accepted[i] newly bars.  masks[i]: a width and
    # the bit mask of the residues below it that levels[: i + 1] bar.
    # barred() fills in the newest of each, so a node the bound cuts off
    # computes neither.
    levels: list[list[int]] = []
    masks: list[tuple[int, int]] = []

    def barred(width: int) -> int:
        depth = len(accepted)
        if not depth:
            return 0
        if len(levels) < depth:
            levels.append(_sidon_blocked(accepted, N, relations))
        del masks[depth - 1 :]
        if masks and masks[-1][0] == width:  # the parent's window
            mask = masks[-1][1] | _bits(width, [y for y in levels[-1] if y < width])
        else:
            mask = _bits(width, [y for level in levels for y in level if y < width])
        masks.append((width, mask))
        return mask

    def admit(y: int):
        accepted.append(y)
        return undo

    def undo() -> None:
        del levels[len(accepted) - 1 :]
        del masks[len(accepted) - 1 :]
        accepted.pop()

    found, reached = _backtrack(
        N, target_size, lambda size: size**4 * (2 * k + 1) ** 3, barred, admit
    )
    ok, witness = is_kfold_sidon(found, N, k)
    if not ok:
        raise OracleDisagreement(
            f"{k}-fold Sidon search returned {found} over Z_{N}; "
            f"the full check finds coefficients {witness[0]} with solution {witness[1]}"
        )
    return SidonParams(N, k, tuple(found)), reached


def kfold_sidon_splitter(params: SidonParams, kplus: int, kminus: int) -> SplitterSet:
    """Embed a k-fold Sidon set as {(1, x)} in Z_{2(kplus+kminus)+1} x Z_N and
    split with coefficients [-kminus, kplus]*; always t = 2."""
    magnitudes = MagnitudeSet(kplus, kminus)
    if kplus > params.k:
        raise DomainError("need kplus <= the Sidon fold k")
    if len(params.elements) < 2:
        raise DomainError("need at least two set elements for a 2-split")
    group = GroupSpec((2 * magnitudes.size + 1, params.N))
    elements = tuple(group.element((1, x)) for x in params.elements)
    return SplitterSet(group, elements, magnitudes, 2)


# ---------------------------------------------------------------------------
# Behrend-sphere construction (t = 2, kplus <= 3)
# ---------------------------------------------------------------------------


def behrend_sphere_sets(D: int, K: int, alpha: int) -> dict[int, tuple[int, ...]]:
    """Partition the base-(alpha K + 1) encodings of digit vectors in [0, K]^D
    by squared Euclidean norm."""
    if D < 2 or K < 1:
        raise DomainError("need D >= 2 and K >= 1")
    base = alpha * K + 1
    out: dict[int, list[int]] = {}
    for digits in product(range(K + 1), repeat=D):
        x = sum(d * base**i for i, d in enumerate(digits))
        out.setdefault(sum(d * d for d in digits), []).append(x)
    return {m: tuple(sorted(xs)) for m, xs in sorted(out.items())}


def behrend_ruzsa_splitter(
    kplus: int, kminus: int, D: int, K: int, p: int
) -> SplitterSet:
    """Splitter {(1, x, x^2)} over Z_{3kplus+2kminus+1} x Z_p x Z_p built from
    the largest sphere class; t = 2, valid only for kplus <= 3."""
    magnitudes = MagnitudeSet(kplus, kminus)
    if kplus > 3:
        raise DomainError("kplus <= 3 is required; the square/nonresidue "
                          "dichotomy for coefficient products fails beyond it")
    check("group_order", (3 * kplus + 2 * kminus + 1) * p * p)  # bounds the trial division of p
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p % 12 not in (5, 7):
        raise DomainError(f"{p} is not congruent to +-5 mod 12")
    alpha = max(2 * kplus * kplus, 3)
    base = alpha * K + 1
    # base >= 4 once K >= 1, so D >= log2 p alone puts base^D past p.
    if K >= 1 and D >= p.bit_length() or base**D > p:
        raise DomainError(f"(alpha K + 1)^D = {base}^{D} exceeds p = {p}")
    classes = behrend_sphere_sets(D, K, alpha)
    best_size = max(len(xs) for xs in classes.values())
    best_m = min(m for m, xs in classes.items() if len(xs) == best_size)
    group = GroupSpec((3 * kplus + 2 * kminus + 1, p, p))
    elements = tuple(
        group.element((1, x % p, x * x % p)) for x in classes[best_m]
    )
    return SplitterSet(group, elements, magnitudes, 2)


# ---------------------------------------------------------------------------
# Linear codes, BCH, and code lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearCode:
    """[n, k, >=d] linear code over F_p given by generator and parity-check
    matrices (rows are codewords / checks).

    ``columns`` holds the columns of ``H`` reduced mod p: the images of the
    unit vectors under the parity-check map ``Z^n -> Z_p^(n-k)``, whose kernel
    is the code lattice and whose ball images are the syndrome table.  For
    the syndrome, each column is also packed into one int, row i in the bit
    field at ``_shifts[i]``.  Each field is wide enough for a sum of n
    products of residues, ``n (p-1)^2``, so a syndrome is one integer dot
    product whose fields are then reduced mod p."""

    p: int
    n: int
    k: int
    generator: tuple[tuple[int, ...], ...]
    parity_check: tuple[tuple[int, ...], ...]
    d: int
    columns: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _packed: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _shifts: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        G, H, p = self.generator, self.parity_check, self.p
        if len(G) != self.k or any(len(r) != self.n for r in G):
            raise DomainError("generator matrix has the wrong shape")
        if len(H) != self.n - self.k or any(len(r) != self.n for r in H):
            raise DomainError("parity-check matrix has the wrong shape")
        columns = tuple(tuple(h[j] % p for h in H) for j in range(self.n))
        width = (self.n * (p - 1) ** 2).bit_length() + 1
        shifts = tuple(range(0, width * len(H), width))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_packed", tuple(
            sum(c << shift for c, shift in zip(col, shifts)) for col in columns
        ))
        object.__setattr__(self, "_shifts", shifts)
        object.__setattr__(self, "_mask", (1 << width) - 1)
        if any(any(self.syndrome(g)) for g in G):
            raise DomainError("generator and parity-check are inconsistent")
        if _rank_mod_p([list(r) for r in G], p) != self.k:
            raise DomainError("generator matrix is rank deficient")

    def syndrome(self, v: Sequence[int]) -> tuple[int, ...]:
        """``H v mod p``."""
        p, mask = self.p, self._mask
        s = sum(map(mul, [x % p for x in v], self._packed))
        return tuple([(s >> shift & mask) % p for shift in self._shifts])

    def codewords(self):
        """All p^k codewords (gated by the enumeration limit)."""
        check("enumeration", self.p**self.k)
        for msg in product(range(self.p), repeat=self.k):
            yield tuple(
                sum(m * g[j] for m, g in zip(msg, self.generator)) % self.p
                for j in range(self.n)
            )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "generator": [list(r) for r in self.generator],
            "parity_check": [list(r) for r in self.parity_check],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LinearCode":
        p, n, k, d = (exact_int(data[key], key) for key in ("p", "n", "k", "d"))
        G, H = (tuple(exact_ints(r, "integers") for r in data[key])
                for key in ("generator", "parity_check"))
        return cls(p, n, k, G, H, d)


def _rank_mod_p(matrix: list[list[int]], p: int) -> int:
    M = [[x % p for x in row] for row in matrix]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = pow(M[rank][c], -1, p)
        M[rank] = [(x * inv) % p for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def min_distance(code: LinearCode) -> int:
    """Brute-force minimum Hamming weight over all nonzero codewords."""
    best = code.n + 1
    for word in code.codewords():
        w = sum(1 for x in word if x)
        if 0 < w < best:
            best = w
    return best


def cyclotomic_coset(j: int, n: int, p: int) -> tuple[int, ...]:
    coset = {j % n}
    cur = j * p % n
    while cur not in coset:
        coset.add(cur)
        cur = cur * p % n
    return tuple(sorted(coset))


def bch_code(p: int, m: int, d: int) -> LinearCode:
    """Primitive BCH code of length p^m - 1 and designed distance ``d``.

    The defining set starts from the cyclotomic cosets of 1..d-1.  Repeated
    cosets can leave the generator degree below the classical dimension target
    ``n - ceil((d-1)(1-1/p)) m``; in that case the defining set is padded with
    the smallest-representative unused cosets that fit the gap exactly, which
    keeps the code cyclic and cannot decrease the distance.
    """
    n = check_power("field_size", p, m) - 1  # bounds the trial division of p
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not 2 <= d <= n:
        raise DomainError(f"designed distance must be in [2, {n}]")
    field = find_primitive_polynomial(p, m)
    narrow: set[int] = set()
    for j in range(1, d):
        narrow.update(cyclotomic_coset(j, n, p))
    target_degree = ((d - 1) - (d - 1) // p) * m
    defining = set(narrow)
    if len(defining) < target_degree:
        for j in range(n):
            if j in defining:
                continue
            coset = cyclotomic_coset(j, n, p)
            if len(defining) + len(coset) <= target_degree:
                defining.update(coset)
            if len(defining) == target_degree:
                break
        if len(defining) != target_degree:
            defining = narrow  # no exact fill exists; keep the plain code
    if len(defining) != target_degree:
        warnings.warn(
            f"BCH({p},{m},{d}) dimension {n - len(defining)} exceeds the "
            f"classical value {n - target_degree}",
            stacklevel=2,
        )
    g = _generator_from_roots(field, sorted(defining))
    k = n - (len(g) - 1)
    if k < 1:
        raise DomainError("designed distance leaves no information symbols")
    # Every xi^j is a root of x^n - 1, so h = (x^n - 1) / g has the others.
    h = _generator_from_roots(field, sorted(set(range(n)) - defining))
    generator = _shifts(g, n, k)
    parity = _shifts(h[::-1], n, n - k)
    code = LinearCode(p, n, k, generator, parity, d)
    if p**k <= 4096 and min_distance(code) < d:
        raise DomainError("designed distance not met; construction is broken")
    return code


def _generator_from_roots(field: FieldSpec, exponents: Sequence[int]) -> tuple[int, ...]:
    """prod (x - xi^j) as a polynomial over the prime field, multiplied out on
    the logs of the field taken as its own subfield.  An element c of F_p is
    packed as c, so the walk's logs of 0..p-1 map each coefficient back."""
    log, zech, _ = _subfield_tables(field, field.size)
    prime = {log[c]: c for c in range(field.p)}
    poly = _poly_from_roots(field, zech, exponents)
    if any(c not in prime for c in poly):
        raise DomainError("generator polynomial left the prime field")
    return tuple(prime[c] for c in poly)


def _shifts(poly: Sequence[int], n: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first ``count`` length-n rows ``x^i * poly``."""
    return tuple((0,) * i + tuple(poly) + (0,) * (n - len(poly) - i) for i in range(count))


def code_lattice(code: LinearCode, kplus: int, kminus: int) -> LatticeBasis:
    """Lift a linear code to the integer lattice of vectors that reduce into
    it mod p, the kernel of the parity-check map; requires kplus + kminus < p.
    Its volume is p^(n-k) exactly when ``H`` has full rank."""
    if kplus + kminus >= code.p:
        raise DomainError("need kplus + kminus < p for the code lattice")
    basis = _chain_kernel((code.p,) * (code.n - code.k), code.columns)
    expected = code.p ** (code.n - code.k)
    if basis.volume != expected:
        raise DomainError(
            f"code lattice volume {basis.volume} != p^(n-k) = {expected}"
        )
    return basis


# ---------------------------------------------------------------------------
# Coverings
# ---------------------------------------------------------------------------


def covering_base_split(p: int, m: int, kplus: int, kminus: int) -> SplitterSet:
    """Complete (in fact tiling) 1-split of Z_{p^m} by the set of residues
    whose least significant nonzero base-p digit is 1, with coefficients
    [-kminus, p-1-kminus]*."""
    if m < 1:
        raise DomainError("need m >= 1")
    order = check_power("group_order", p, m)  # bounds the trial division of p
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p > kplus + kminus + 1:
        raise DomainError("need p <= kplus + kminus + 1 so coefficients stay in range")
    kp_eff = p - 1 - kminus
    if kp_eff < kminus:
        raise DomainError(
            "need p >= 2 kminus + 1 for a well-formed coefficient interval"
        )
    members = []
    for a in range(1, order):
        r = a
        while r % p == 0:
            r //= p
        if r % p == 1:
            members.append(a)
    if len(members) != (order - 1) // (p - 1):
        raise AssertionError("digit set has the wrong size")
    group = GroupSpec((order,))
    elements = tuple(group.element((a,)) for a in members)
    return SplitterSet(group, elements, MagnitudeSet(kp_eff, kminus), 1)


def product_splitter(base: SplitterSet, t: int) -> SplitterSet:
    """Embed t coordinate copies of a complete 1-split into G^t, giving a
    complete t-split with n = t |S|."""
    if base.t != 1:
        raise DomainError("product construction needs a 1-split as its base")
    if t < 1:
        raise DomainError("need t >= 1")
    check_power("group_order", base.group.order, t)  # before the t copies are built
    if t == 1:
        return base
    moduli = base.group.moduli * t
    group = GroupSpec(moduli)
    rank = base.group.rank
    elements = []
    for block in range(t):
        for s in base.elements:
            residues = [0] * (rank * t)
            residues[block * rank : (block + 1) * rank] = s
            elements.append(group.element(residues))
    return SplitterSet(group, tuple(elements), base.magnitudes, t)


def _floor_ln(ell: int, scale: int) -> int:
    """``floor(scale * ln(ell))`` exactly, for an integer ``ell >= 1``.

    With ``ell = 2^k y``, ``1 <= y < 2``: ``ln(ell) = 2k atanh(1/3) + 2 atanh(x)``
    for ``x = (y-1)/(y+1) < 1/3``.  The sum of ``x^(2j+1) / (2j+1)`` over
    ``j < terms`` falls short of ``atanh(x)`` by less than
    ``x^(2 terms+1) (9/8) / (2 terms+1)``.  Terms double until both bounds
    have one floor, which must happen: ``ln(ell)`` is irrational for ``ell >= 2``."""
    k = ell.bit_length() - 1
    y, terms = Fraction(ell, 1 << k), 8
    while True:
        low = high = Fraction(0)
        for weight, x in ((2 * k, Fraction(1, 3)), (2, (y - 1) / (y + 1))):
            partial = sum(x ** (2 * j + 1) / (2 * j + 1) for j in range(terms))
            low += weight * partial
            high += weight * (partial + x ** (2 * terms + 1) * Fraction(9, 8) / (2 * terms + 1))
        if floor(scale * low) == floor(scale * high):
            return floor(scale * low)
        terms *= 2


def hamming_covering_baseline(
    n: int, t: int, kplus: int, kminus: int, ell: int
) -> Fraction:
    """Density of the generic covering-code baseline of size
    ceil(n ell^n ln(ell) / |B|), with ln(ell) replaced by the rational upper
    bound ``(floor(10^9 ln(ell)) + 1) / 10^9``, of relative error below 1e-6."""
    if ell < 2:
        raise DomainError("need an alphabet of size >= 2")
    size = ball_size(BallSpec(n, t, kplus, kminus))
    ln_up = Fraction(_floor_ln(ell, 10**9) + 1, 10**9)
    codewords = -((-(n * ell**n) * ln_up.numerator) // (ln_up.denominator * size))
    return Fraction(codewords * size, ell**n)


# ---------------------------------------------------------------------------
# Random lambda-packing sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSample:
    splitter: SplitterSet
    report: SplitReport
    size_in_range: bool
    expected_size: float


def _draw(N: int, seed: int, i: int) -> int:
    # Counter-based 64-bit draw keyed by (modulus, seed, index): stable across
    # platforms, and no residue's draw depends on another's.
    return int.from_bytes(hashlib.sha256(f"{N}:{seed}:{i}".encode()).digest()[:8], "big")


def _draw_bound(N: int, u: int, v: int) -> int:
    """The least ``x`` in ``[1, 2^64]`` with ``x^v N^u >= 2^(64v)``: a draw is
    below it iff ``draw / 2^64 < N^(-u/v)``, exactly.

    Unless ``x`` and ``N`` are powers of two, ``x^v N^u`` is not one, so
    ``v ln x + u ln N - 64 v ln 2`` is not zero; correctly rounded logs give
    its sign once their error bound falls below it, without the powers."""

    def at_least(x: int) -> bool:
        if x & (x - 1) == 0 and N & (N - 1) == 0:
            return v * (x.bit_length() - 1) + u * (N.bit_length() - 1) >= 64 * v
        prec = 40
        while True:
            ln = Context(prec=prec).ln
            terms = [c * Fraction(ln(y)) for c, y in ((v, x), (u, N), (-64 * v, 2))]
            if abs(sum(terms)) * 10 ** (prec - 1) > sum(map(abs, terms)):
                return sum(terms) > 0
            prec *= 2

    lo, hi = 1, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if at_least(mid) else (mid + 1, hi)
    return lo


def sample_lambda_splitter(
    N: int,
    t: int,
    kplus: int,
    kminus: int,
    epsilon: float,
    seed: int,
) -> LambdaSample:
    """Sample each residue of Z_N independently with probability
    N^(1/t - 1 - epsilon), ``epsilon`` read as the decimal it prints as, and
    measure the resulting list size lambda."""
    if gcd(N, factorial(kplus)) != 1:
        raise DomainError("N must be coprime to kplus!")
    if t < 1 or not 0 < epsilon < 1 / t:
        raise DomainError("need t >= 1 and 0 < epsilon < 1/t")
    exponent = 1 - Fraction(1, t) + Fraction(str(epsilon))  # N^(-exponent)
    bound = _draw_bound(N, exponent.numerator, exponent.denominator)
    members = [i for i in range(N) if _draw(N, seed, i) < bound]
    if len(members) < t:
        raise DomainError(
            f"seed {seed} produced only {len(members)} elements; need at least t = {t}"
        )
    group = GroupSpec((N,))
    splitter = SplitterSet(
        group,
        tuple(group.element((a,)) for a in members),
        MagnitudeSet(kplus, kminus),
        t,
    )
    expected = N ** (1 / t - epsilon)
    in_range = expected / 2 <= len(members) <= 1.5 * expected
    return LambdaSample(splitter, multiplicity_histogram(splitter), in_range, expected)

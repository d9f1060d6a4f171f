"""Command-line surface: construct, verify, density, decode, table, search.

Exit codes: 0 verified/ok, 1 refuted, 2 usage or parse error, 3 oracle
disagreement (two independent verifiers split on one claim, which should
never happen and is a bug signal).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .ball import BallSpec, ball_size
from .codec import ModPDecoderContext, S2DecoderContext, decode_mod_p, decode_s2
from .constructions import (
    bch_code,
    behrend_ruzsa_splitter,
    bose_chowla_s1,
    bose_chowla_s2,
    bt_pm1_splitter,
    bt_shift_to_splitter,
    code_lattice,
    covering_base_split,
    hamming_covering_baseline,
    kfold_sidon_splitter,
    product_splitter,
    sample_lambda_splitter,
    search_bt_set,
    search_kfold_sidon,
)
from .errors import DomainError, MagballError, OracleDisagreement
from .lattice import (
    LatticeBasis,
    kernel_lattice,
    verify_covering_geometric,
    verify_packing_geometric,
)
from .limits import get_limits, limits_overridden, parse_limits, set_limits
from .splitting import (
    SplitterSet,
    check_complete_split,
    check_partial_split,
    multiplicity_histogram,
)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write_file(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _density_record(ball: BallSpec, group_order: int, num: int, den: int) -> dict:
    # num/den is kept unreduced: numerator = ball size, denominator = volume.
    return {
        "ball": ball.to_json(),
        "group_order": group_order,
        "density_num": num,
        "density_den": den,
        "density_decimal": f"{num / den:.6f}",
    }


def _density(artifact: SplitterSet | LatticeBasis, ball: BallSpec) -> dict:
    """A splitter set's density over its group, with its kernel lattice's
    volume; a lattice's over ``Z^n`` modulo itself."""
    if isinstance(artifact, SplitterSet):
        order, volume = artifact.group.order, kernel_lattice(artifact).volume
    else:
        order = volume = artifact.volume
    return _density_record(ball, order, ball_size(ball), volume)


def _load(path: str, from_json):
    """``from_json`` of the JSON object in the file ``path``.  Bad JSON, a
    top level that is not an object, a DomainError from anywhere below
    ``from_json``, and a field that a ``from_json`` cannot read (the error is
    raised in a ``from_json``, or in a comprehension there) raise a
    DomainError that names ``path``.  Any other error raised in code that a
    ``from_json`` calls is a bug and propagates."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object, not {type(data).__name__}")
    try:
        return from_json(data)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        tb, last = exc.__traceback__, None
        while tb is not None:
            if not tb.tb_frame.f_code.co_name.startswith("<"):
                last = tb.tb_frame.f_code.co_name
            tb = tb.tb_next
        if last != "from_json":
            raise
        raise DomainError(f"{path}: malformed document ({type(exc).__name__}: {exc})") from exc


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class Family(NamedTuple):
    """A construction family.  ``params`` are its argparse names: those
    without a ``construct`` default are required, and all of them go in the
    manifest.  ``desk`` gives each parameter's value in the family's
    ``table`` row, and ``kind`` is that row's type.  ``build`` maps parsed
    flags to ``(artifact, ball, extras)``: a splitter set, or a lattice
    basis, the ball it is built for, and further artifacts as JSON data by
    file suffix."""

    params: str
    desk: str
    kind: str
    build: Callable[[argparse.Namespace], tuple]

    def desk_flags(self) -> list[str]:
        """The ``construct`` flags of the family's ``table`` row."""
        pairs = zip(self.params.split(), self.desk.split())
        return [arg for name, value in pairs for arg in (_flag(name), value)]


def _split(splitter: SplitterSet, **extras) -> tuple:
    return splitter, splitter.ball(), extras


def _build_bch(a) -> tuple:
    code = bch_code(a.p, a.m, a.d)
    basis = code_lattice(code, a.kplus, a.kminus)
    decoder = ModPDecoderContext.build(code, a.kplus, a.kminus).to_json()
    return basis, BallSpec(code.n, (a.d - 1) // 2, a.kplus, a.kminus), {"decoder": decoder}


def _bt_set(a):
    """The Bose-Chowla B_t set of ``--variant``, with its s2 data (or None)."""
    if a.variant == "s2":
        data = bose_chowla_s2(a.q, a.t)
        return data.bt, data
    return bose_chowla_s1(a.q, a.t), None


def _build_bc10(a) -> tuple:
    bt, s2 = _bt_set(a)
    extras = {} if s2 is None else {"decoder": S2DecoderContext.from_s2(s2).to_json()}
    return _split(bt_shift_to_splitter(bt), **extras)


def _build_sidon(a) -> tuple:
    sidon, reached = search_kfold_sidon(a.N, a.k, a.target_size)
    if not reached:
        print(f"note: target size {a.target_size} unreachable; "
              f"using maximum found ({len(sidon.elements)})", file=sys.stderr)
    return _split(kfold_sidon_splitter(sidon, a.kplus, a.kminus))


def _build_lambda(a) -> tuple:
    sample = sample_lambda_splitter(a.N, a.t, a.kplus, a.kminus, a.epsilon, a.seed)
    report = {
        "lambda": sample.lambda_,
        "size": sample.splitter.n,
        "size_in_range": sample.size_in_range,
        "expected_size": f"{sample.expected_size:.6f}",
        "histogram": {str(k): v for k, v in sorted(sample.report.histogram.items())},
    }
    return _split(sample.splitter, report=report)


FAMILIES = {
    "bch-lattice": Family("p m d kplus kminus", "3 2 5 1 1", "packing", _build_bch),
    "bose-chowla-10": Family("q t variant", "4 2 s1", "packing", _build_bc10),
    "bose-chowla-11": Family("q t variant", "3 2 s1", "packing",
                             lambda a: _split(bt_pm1_splitter(_bt_set(a)[0], a.t))),
    "sidon-2fold": Family("N k kplus kminus target_size", "31 2 2 0 4", "packing", _build_sidon),
    "behrend-ruzsa": Family(
        "kplus kminus D K p", "1 0 2 1 17", "packing",
        lambda a: _split(behrend_ruzsa_splitter(a.kplus, a.kminus, a.D, a.K, a.p)),
    ),
    "covering-product": Family(
        "p m t kplus kminus", "2 2 2 1 0", "covering",
        lambda a: _split(product_splitter(covering_base_split(a.p, a.m, a.kplus, a.kminus), a.t)),
    ),
    "lambda-random": Family("N t kplus kminus epsilon seed", "53 2 1 0 0.25 1", "lambda-packing",
                            _build_lambda),
}


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    started = time.perf_counter()
    names = FAMILIES[args.family].params.split()
    missing = [_flag(name) for name in names if getattr(args, name) is None]
    if missing:
        raise DomainError(f"family {args.family} needs {', '.join(missing)}")
    artifact, ball, extras = FAMILIES[args.family].build(args)
    artifacts = {
        "splitter" if isinstance(artifact, SplitterSet) else "lattice": artifact.to_json(),
        "density": _density(artifact, ball),
        **extras,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or args.family
    digests = {}
    for suffix, data in sorted(artifacts.items()):
        path = out_dir / f"{prefix}.{suffix}.json"
        digests[path.name] = _write_file(path, _dump(data))
        print(path)
    manifest = {
        "command": "construct",
        "parameters": {"family": args.family, **{name: getattr(args, name) for name in names}},
        **({"seed": args.seed} if "seed" in names else {}),
        "version": __version__,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "digests": digests,
    }
    _write_file(out_dir / f"{prefix}.manifest.json", _dump(manifest))
    return 0


# ---------------------------------------------------------------------------
# verify / density
# ---------------------------------------------------------------------------

# The ball of a --lattice run is --n with these, unless their flags are given.
_LATTICE_BALL_DEFAULTS = {"t": 1, "kplus": 1, "kminus": 0}


def _load_artifact(args) -> tuple[SplitterSet | LatticeBasis, BallSpec]:
    """The splitter set or lattice named on the command line, with its ball:
    a splitter set's own, or the one the ball flags give a lattice."""
    if bool(args.splitter) == bool(args.lattice):
        # A command derives the lattice of a splitter from the splitter, so a
        # second lattice could only be ignored or checked as an unrelated object.
        raise DomainError("pass --splitter or --lattice, not both")
    flags = {name: getattr(args, name) for name in ("n", *_LATTICE_BALL_DEFAULTS)}
    if args.splitter:
        given = [_flag(name) for name, value in flags.items() if value is not None]
        if given:
            raise DomainError(f"{', '.join(given)}: a splitter set carries its own ball")
        splitter = _load(args.splitter, SplitterSet.from_json)
        return splitter, splitter.ball()
    if args.n is None:
        raise DomainError("--lattice needs --n")
    ball = BallSpec(**{name: _LATTICE_BALL_DEFAULTS[name] if value is None else value
                       for name, value in flags.items()})
    return _load(args.lattice, LatticeBasis.from_json), ball


def _checks(kind: str) -> tuple[Callable, Callable]:
    """The splitting checker and the geometric oracle of a packing or
    covering claim.  The table is read at call time, so wrappers installed
    over this module's names (``perfbench/tracer.py``) are the ones called."""
    return {
        "packing": (check_partial_split, verify_packing_geometric),
        "covering": (check_complete_split, verify_covering_geometric),
    }[kind]


def cmd_verify(args) -> int:
    artifact, ball = _load_artifact(args)
    splitter = artifact if isinstance(artifact, SplitterSet) else None
    report: dict = {"kind": args.kind, "ball": ball.to_json()}

    if args.kind == "lambda":
        if splitter is None:
            raise DomainError("lambda verification needs a splitter set")
        split = multiplicity_histogram(splitter)
        report["splitting"] = split.to_json()
        print(_dump(report), end="")
        return 0

    split_ok = None
    basis = artifact
    checker, oracle = _checks(args.kind)
    if splitter is not None:
        split = checker(splitter)
        report["splitting"] = split.to_json()
        split_ok = split.verified
        basis = kernel_lattice(splitter)
    geo = oracle(basis, ball)
    report["geometric"] = geo.to_json()
    report["volume"] = str(basis.volume)
    geo_ok = geo.verified
    if splitter is not None and args.kind == "covering":
        # A complete split needs the splitter image to be the whole group,
        # which the coset side sees as volume == |G|.
        geo_ok = geo_ok and basis.volume == splitter.group.order

    if split_ok is not None and split_ok != geo_ok:
        # The two routes examined the same object; disagreeing is a bug signal.
        report["verdict"] = "disagreement"
        print(_dump(report), end="")
        raise OracleDisagreement(
            f"splitting checker says {split_ok}, geometric oracle says {geo_ok}"
        )
    report["verdict"] = "verified" if geo_ok else "refuted"
    print(_dump(report), end="")
    return 0 if geo_ok else 1


def cmd_density(args) -> int:
    print(_dump(_density(*_load_artifact(args))), end="")
    return 0


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _decoder_context(data: dict) -> S2DecoderContext | ModPDecoderContext:
    kind = data.get("type")
    if kind == "s2":
        return S2DecoderContext.from_json(data)
    if kind == "modp":
        return ModPDecoderContext.from_json(data)
    raise DomainError(f"unknown decoder context type {kind!r}")


def cmd_decode(args) -> int:
    ctx = _load(args.context, _decoder_context)
    if isinstance(ctx, S2DecoderContext):
        decode, length = partial(decode_s2, ctx), ctx.q
    else:
        decode, length = partial(decode_mod_p, ctx), ctx.code.n

    with ExitStack() as files:
        source, sink = sys.stdin, sys.stdout
        if args.infile:
            source = files.enter_context(open(args.infile, encoding="utf-8"))
        if args.out:
            sink = files.enter_context(open(args.out, "w", encoding="utf-8"))
        for number, line in enumerate(source, 1):
            line = line.strip()
            if not line:
                continue
            try:
                vec = json.loads(line)
                # Exact types: no float, string or bool (an int subclass) passes.
                if not isinstance(vec, list) or not set(map(type, vec)) <= {int}:
                    raise ValueError("not a list of integers")
            except ValueError as exc:
                raise DomainError(f"bad input line {number} {line!r}: {exc}") from exc
            if len(vec) != length:
                raise DomainError(f"vector length {len(vec)} != {length}")
            result = decode(vec)
            decoded = None if result.codeword is None else list(result.codeword)
            record = {"input": vec, "decoded": decoded, "status": result.status}
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = [
    "family", "type", "t", "kplus", "kminus", "n",
    "group_order", "density_num", "density_den", "density_decimal", "verdict",
]


def _table_row(family: str, kind: str, density: dict, verdict: str) -> dict:
    row = {"family": family, "type": kind, **density, **density["ball"], "verdict": verdict}
    del row["ball"]
    return row


def _table_verdict(kind: str, artifact, ball: BallSpec, extras: dict) -> str:
    """The splitting checker's verdict on a splitter set, the geometric
    oracle's on a lattice, and the multiplicity of a lambda-packing."""
    if kind == "lambda-packing":
        return f"lambda={extras['report']['lambda']}"
    checker, oracle = _checks(kind)
    if isinstance(artifact, SplitterSet):
        return checker(artifact).verdict
    return oracle(artifact, ball).verdict


def _baseline_row(cover: SplitterSet) -> dict:
    ball = cover.ball()
    baseline = hamming_covering_baseline(ball.n, ball.t, ball.kplus, ball.kminus, 4)
    density = _density_record(ball, 4**ball.n, baseline.numerator, baseline.denominator)
    return _table_row("covering-baseline", "covering", density, "size-bound")


def cmd_table(construct_parser: argparse.ArgumentParser, args) -> int:
    """Each family's ``table`` row, built by the ``construct`` builder from
    its desk flags, parsed by the ``construct`` parser."""
    rows = []
    for name, family in FAMILIES.items():
        built = family.build(construct_parser.parse_args(["--family", name, *family.desk_flags()]))
        density = _density(*built[:2])
        rows.append(_table_row(name, family.kind, density, _table_verdict(family.kind, *built)))
        if name == "covering-product":
            rows.append(_baseline_row(built[0]))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_TABLE_COLUMNS, quoting=csv.QUOTE_MINIMAL)
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    if args.kind == "sidon":
        own, other, default, search = "k", "t", 1, search_kfold_sidon
    else:
        own, other, default, search = "t", "k", 2, search_bt_set
    if getattr(args, other) is not None:
        raise DomainError(f"--{other} does not apply to --kind {args.kind}")
    value = default if getattr(args, own) is None else getattr(args, own)
    result, reached = search(args.N, value, args.target_size)
    payload = {
        "kind": args.kind,
        "N": args.N,
        own: value,
        "elements": list(result.elements),
        "size": len(result.elements),
        "reached_target": reached,
    }
    print(_dump(payload), end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magball",
        description="Construct and verify lattice packings/coverings of "
        "limited-magnitude error balls, and decode against them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--limits",
        metavar="JSON",
        help="override desk-scale resource limits, e.g. '{\"enumeration\": 100000}'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a construction family")
    con.add_argument("--family", required=True, choices=list(FAMILIES))
    for name in ("p", "m", "d", "q", "t", "N", "k", "D", "K"):
        con.add_argument(f"--{name}", type=int)
    con.add_argument("--kplus", type=int, default=1)
    con.add_argument("--kminus", type=int, default=0)
    con.add_argument("--variant", choices=["s1", "s2"], default="s1")
    con.add_argument("--target-size", type=int, default=3)
    con.add_argument("--epsilon", type=float, default=0.25)
    con.add_argument("--seed", type=int, default=1)
    con.add_argument("--out-dir", default=".")
    con.add_argument("--prefix")
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="verify packing/covering/lambda claims")
    ver.add_argument("--kind", required=True, choices=["packing", "covering", "lambda"])
    ver.set_defaults(func=cmd_verify)
    den = sub.add_parser("density", help="exact density of a construction")
    den.set_defaults(func=cmd_density)
    for cmd in (ver, den):
        cmd.add_argument("--splitter", help="a splitter set, with its own ball")
        cmd.add_argument("--lattice", help="a lattice basis, with the ball of the flags below")
        cmd.add_argument("--n", type=int)
        for name, default in _LATTICE_BALL_DEFAULTS.items():
            cmd.add_argument(f"--{name}", type=int, help=f"default {default}")

    dec = sub.add_parser("decode", help="decode received vectors in bulk")
    dec.add_argument("--context", required=True)
    dec.add_argument("--in", dest="infile")
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decode)

    tab = sub.add_parser("table", help="desk-scale summary of every family")
    tab.add_argument("--out")
    tab.set_defaults(func=partial(cmd_table, con))

    sea = sub.add_parser("search", help="exhaustive B_t / k-fold Sidon search")
    sea.add_argument("--kind", required=True, choices=["sidon", "bt"])
    sea.add_argument("--N", type=int, required=True)
    sea.add_argument("--k", type=int, help="Sidon fold (default 1)")
    sea.add_argument("--t", type=int, help="B_t order (default 2)")
    sea.add_argument("--target-size", type=int, required=True)
    sea.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with limits_overridden():  # --limits holds for this call only
            if args.limits:
                set_limits(parse_limits(args.limits, "--limits", get_limits()))
            return args.func(args)
    except OracleDisagreement as exc:
        print(f"error: oracle disagreement: {exc}", file=sys.stderr)
        return 3
    except (MagballError, OSError) as exc:  # OSError: a missing input, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from functools import partial
from pathlib import Path

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


def _splitter_density(splitter: SplitterSet) -> dict:
    ball = splitter.ball()
    return _density_record(
        ball, splitter.group.order, ball_size(ball), kernel_lattice(splitter).volume
    )


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


# Each family's parameters, by argparse name: those without a default are
# required, and all of them are recorded in the manifest.
_FAMILY_PARAMS = {
    "bch-lattice": ("p", "m", "d", "kplus", "kminus"),
    "bose-chowla-10": ("q", "t", "variant"),
    "bose-chowla-11": ("q", "t", "variant"),
    "sidon-2fold": ("N", "k", "kplus", "kminus", "target_size"),
    "behrend-ruzsa": ("kplus", "kminus", "D", "K", "p"),
    "covering-product": ("p", "m", "t", "kplus", "kminus"),
    "lambda-random": ("N", "t", "kplus", "kminus", "epsilon", "seed"),
}


def _construct_artifacts(args) -> tuple[dict[str, str], dict]:
    """Build the requested family; returns {suffix: file text} plus parameters."""
    family = args.family
    names = _FAMILY_PARAMS[family]
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise DomainError(f"family {family} needs {', '.join(missing)}")
    out: dict[str, str] = {}
    params: dict = {"family": family, **{name: getattr(args, name) for name in names}}

    if family == "bch-lattice":
        code = bch_code(args.p, args.m, args.d)
        basis = code_lattice(code, args.kplus, args.kminus)
        t = (args.d - 1) // 2
        ball = BallSpec(code.n, t, args.kplus, args.kminus)
        out["lattice"] = _dump(basis.to_json())
        out["density"] = _dump(
            _density_record(ball, basis.volume, ball_size(ball), basis.volume)
        )
        ctx = ModPDecoderContext.build(code, args.kplus, args.kminus)
        out["decoder"] = _dump(ctx.to_json())
    elif family == "bose-chowla-10":
        if args.variant == "s2":
            data = bose_chowla_s2(args.q, args.t)
            bt = data.bt
            ctx = S2DecoderContext.from_s2(data)
            out["decoder"] = _dump(ctx.to_json())
        else:
            bt = bose_chowla_s1(args.q, args.t)
        splitter = bt_shift_to_splitter(bt)
        out["splitter"] = _dump(splitter.to_json())
        out["density"] = _dump(_splitter_density(splitter))
    elif family == "bose-chowla-11":
        bt = (
            bose_chowla_s2(args.q, args.t).bt
            if args.variant == "s2"
            else bose_chowla_s1(args.q, args.t)
        )
        splitter = bt_pm1_splitter(bt, args.t)
        out["splitter"] = _dump(splitter.to_json())
        out["density"] = _dump(_splitter_density(splitter))
    elif family == "sidon-2fold":
        sidon, reached = search_kfold_sidon(args.N, args.k, args.target_size)
        if not reached:
            print(
                f"note: target size {args.target_size} unreachable; "
                f"using maximum found ({len(sidon.elements)})",
                file=sys.stderr,
            )
        splitter = kfold_sidon_splitter(sidon, args.kplus, args.kminus)
        out["splitter"] = _dump(splitter.to_json())
        out["density"] = _dump(_splitter_density(splitter))
    elif family == "behrend-ruzsa":
        splitter = behrend_ruzsa_splitter(args.kplus, args.kminus, args.D, args.K, args.p)
        out["splitter"] = _dump(splitter.to_json())
        out["density"] = _dump(_splitter_density(splitter))
    elif family == "covering-product":
        base = covering_base_split(args.p, args.m, args.kplus, args.kminus)
        splitter = product_splitter(base, args.t)
        out["splitter"] = _dump(splitter.to_json())
        out["density"] = _dump(_splitter_density(splitter))
    else:  # lambda-random
        sample = sample_lambda_splitter(
            args.N, args.t, args.kplus, args.kminus, args.epsilon, args.seed
        )
        out["splitter"] = _dump(sample.splitter.to_json())
        out["report"] = _dump(
            {
                "lambda": sample.lambda_,
                "size": sample.splitter.n,
                "size_in_range": sample.size_in_range,
                "expected_size": f"{sample.expected_size:.6f}",
                "histogram": {str(k): v for k, v in sorted(sample.report.histogram.items())},
            }
        )
        out["density"] = _dump(_splitter_density(sample.splitter))
    return out, params


def cmd_construct(args) -> int:
    started = time.perf_counter()
    artifacts, params = _construct_artifacts(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or args.family
    digests = {}
    for suffix, text in sorted(artifacts.items()):
        path = out_dir / f"{prefix}.{suffix}.json"
        digests[path.name] = _write_file(path, text)
        print(path)
    manifest = {
        "command": "construct",
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "digests": digests,
    }
    _write_file(out_dir / f"{prefix}.manifest.json", _dump(manifest))
    return 0


# ---------------------------------------------------------------------------
# verify / density
# ---------------------------------------------------------------------------


def _ball_from_args(args, splitter: SplitterSet | None) -> BallSpec:
    if args.ball:
        return BallSpec.from_json(_load_json(args.ball))
    if args.n is not None:
        return BallSpec(args.n, args.t, args.kplus, args.kminus)
    if splitter is not None:
        return splitter.ball()
    raise DomainError("a ball spec is required: pass --ball or --n/--t/--kplus/--kminus")


def _load_artifact(args) -> tuple[SplitterSet | None, LatticeBasis | None]:
    """The splitter set or the lattice named on the command line."""
    if bool(args.splitter) == bool(args.lattice):
        # A command derives the lattice of a splitter from the splitter, so a
        # second lattice could only be ignored or checked as an unrelated object.
        raise DomainError("pass --splitter or --lattice, not both")
    if args.splitter:
        return SplitterSet.from_json(_load_json(args.splitter)), None
    return None, LatticeBasis.from_json(_load_json(args.lattice))


def cmd_verify(args) -> int:
    splitter, basis = _load_artifact(args)
    ball = _ball_from_args(args, splitter)
    report: dict = {"kind": args.kind, "ball": ball.to_json()}

    if args.kind == "lambda":
        if splitter is None:
            raise DomainError("lambda verification needs a splitter set")
        split = multiplicity_histogram(splitter)
        report["splitting"] = split.to_json()
        print(_dump(report), end="")
        return 0

    split_ok = None
    if splitter is not None:
        checker = check_partial_split if args.kind == "packing" else check_complete_split
        split = checker(splitter)
        report["splitting"] = split.to_json()
        split_ok = split.verified
        basis = kernel_lattice(splitter)
    geo = (
        verify_packing_geometric(basis, ball)
        if args.kind == "packing"
        else verify_covering_geometric(basis, ball)
    )
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
    splitter, basis = _load_artifact(args)
    ball = _ball_from_args(args, splitter)
    if splitter is None:
        order = basis.volume
    else:
        basis, order = kernel_lattice(splitter), splitter.group.order
    print(_dump(_density_record(ball, order, ball_size(ball), basis.volume)), end="")
    return 0


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    ctx_data = _load_json(args.context)
    kind = ctx_data.get("type")
    if kind == "s2":
        ctx = S2DecoderContext.from_json(ctx_data)
        decode = partial(decode_s2, ctx)
        length = ctx.q
    elif kind == "modp":
        ctx = ModPDecoderContext.from_json(ctx_data)
        decode = partial(decode_mod_p, ctx)
        length = ctx.code.n
    else:
        raise DomainError(f"unknown decoder context type {kind!r}")

    source = Path(args.infile).open(encoding="utf-8") if args.infile else sys.stdin
    sink = Path(args.out).open("w", encoding="utf-8") if args.out else sys.stdout
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            try:
                vec = [int(x) for x in json.loads(line)]
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise DomainError(f"bad input line {line!r}: {exc}") from exc
            if len(vec) != length:
                raise DomainError(f"vector length {len(vec)} != {length}")
            result = decode(vec)
            sink.write(
                json.dumps(
                    {
                        "input": vec,
                        "decoded": None if result.codeword is None else list(result.codeword),
                        "status": result.status,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    finally:
        if args.infile:
            source.close()
        if args.out:
            sink.close()
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


def _table_rows() -> list[dict]:
    def split_row(family: str, kind: str, splitter: SplitterSet) -> dict:
        checker = check_partial_split if kind == "packing" else check_complete_split
        return _table_row(family, kind, _splitter_density(splitter), checker(splitter).verdict)

    code = bch_code(3, 2, 5)
    basis = code_lattice(code, 1, 1)
    ball = BallSpec(code.n, 2, 1, 1)
    bch_density = _density_record(ball, basis.volume, ball_size(ball), basis.volume)
    sidon, _ = search_kfold_sidon(31, 2, 4)
    cover = product_splitter(covering_base_split(2, 2, 1, 0), 2)
    baseline = hamming_covering_baseline(cover.n, cover.t, 1, 0, 4)
    sample = sample_lambda_splitter(53, 2, 1, 0, 0.25, seed=1)
    return [
        _table_row(
            "bch-lattice", "packing", bch_density, verify_packing_geometric(basis, ball).verdict
        ),
        split_row("bose-chowla-10", "packing", bt_shift_to_splitter(bose_chowla_s1(4, 2))),
        split_row("bose-chowla-11", "packing", bt_pm1_splitter(bose_chowla_s1(3, 2), 2)),
        split_row("sidon-2fold", "packing", kfold_sidon_splitter(sidon, 2, 0)),
        split_row("behrend-ruzsa", "packing", behrend_ruzsa_splitter(1, 0, 2, 1, 17)),
        split_row("covering-product", "covering", cover),
        _table_row(
            "covering-baseline",
            "covering",
            _density_record(
                BallSpec(cover.n, cover.t, 1, 0),
                4**cover.n,
                baseline.numerator,
                baseline.denominator,
            ),
            "size-bound",
        ),
        _table_row(
            "lambda-random",
            "lambda-packing",
            _splitter_density(sample.splitter),
            f"lambda={sample.lambda_}",
        ),
    ]


def cmd_table(args) -> int:
    rows = _table_rows()
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
        result, reached = search_kfold_sidon(args.N, args.k, args.target_size)
        payload = {
            "kind": "sidon",
            "N": args.N,
            "k": args.k,
            "elements": list(result.elements),
            "size": len(result.elements),
            "reached_target": reached,
        }
    else:
        result, reached = search_bt_set(args.N, args.t, args.target_size)
        payload = {
            "kind": "bt",
            "N": args.N,
            "t": args.t,
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
    con.add_argument(
        "--family",
        required=True,
        choices=list(_FAMILY_PARAMS),
    )
    con.add_argument("--p", type=int)
    con.add_argument("--m", type=int)
    con.add_argument("--d", type=int)
    con.add_argument("--q", type=int)
    con.add_argument("--t", type=int)
    con.add_argument("--N", type=int)
    con.add_argument("--k", type=int)
    con.add_argument("--D", type=int)
    con.add_argument("--K", type=int)
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
    ver.add_argument("--splitter")
    ver.add_argument("--lattice")
    ver.add_argument("--ball")
    ver.add_argument("--n", type=int)
    ver.add_argument("--t", type=int, default=1)
    ver.add_argument("--kplus", type=int, default=1)
    ver.add_argument("--kminus", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    den = sub.add_parser("density", help="exact density of a construction")
    den.add_argument("--splitter")
    den.add_argument("--lattice")
    den.add_argument("--ball")
    den.add_argument("--n", type=int)
    den.add_argument("--t", type=int, default=1)
    den.add_argument("--kplus", type=int, default=1)
    den.add_argument("--kminus", type=int, default=0)
    den.set_defaults(func=cmd_density)

    dec = sub.add_parser("decode", help="decode received vectors in bulk")
    dec.add_argument("--context", required=True)
    dec.add_argument("--in", dest="infile")
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decode)

    tab = sub.add_parser("table", help="desk-scale summary of every family")
    tab.add_argument("--out")
    tab.set_defaults(func=cmd_table)

    sea = sub.add_parser("search", help="exhaustive B_t / k-fold Sidon search")
    sea.add_argument("--kind", required=True, choices=["sidon", "bt"])
    sea.add_argument("--N", type=int, required=True)
    sea.add_argument("--k", type=int, default=1)
    sea.add_argument("--t", type=int, default=2)
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
    except MagballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

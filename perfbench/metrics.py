"""Metric definitions and the per-layer aggregation of traced jobs.

``E2E`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares; the
self-test checks that the two agree.  Each per-layer metric names the
end-to-end metric and workload it is expected to move; on every other
workload the prediction is no change.
"""

from __future__ import annotations

from collections import Counter

from tracer import LAYERS

# name: (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "round_tail_s": ("s", "lower"),
    "construct_s": ("s", "lower"),
    "verify_packing_s": ("s", "lower"),
    "verify_covering_s": ("s", "lower"),
    "verify_lambda_s": ("s", "lower"),
    "table_s": ("s", "lower"),
    "search_s": ("s", "lower"),
    "decode_load_s": ("s", "lower"),
    "decode_modp_vps": ("1/s", "higher"),
    "decode_s2_vps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

LIMIT_KINDS = ("enumeration", "pairs", "cosets", "syndrome_table", "field_size", "group_order")

# name: (unit, better, what it should move)
_SPECIFIC = {
    "lattice.verify_packing_geometric.self_s": ("s", "lower", "verify_packing_s on verify"),
    "lattice.verify_packing_geometric.pairs": ("count", "lower", "verify_packing_s on verify"),
    "lattice.verify_covering_geometric.self_s": ("s", "lower", "verify_covering_s on verify"),
    "lattice.verify_covering_geometric.cosets": ("count", "lower", "verify_covering_s on verify"),
    "lattice.verify_covering_geometric.n": ("count", "lower", "verify_covering_s on verify"),
    "lattice.hermite_normal_form.self_s": ("s", "lower", "construct_s, verify_*_s on verify; construct_s on search"),
    "lattice.hermite_normal_form.calls": ("count", "lower", "construct_s, verify_*_s on verify; construct_s on search"),
    "lattice.hermite_normal_form.max_dim": ("count", "lower", "construct_s, verify_*_s on verify; construct_s on search"),
    "lattice.hermite_normal_form.max_entry_bits": ("bits", "lower", "construct_s, verify_*_s on verify; construct_s on search"),
    "lattice.kernel_lattice.self_s": ("s", "lower", "construct_s, verify_*_s on verify; construct_s on search"),
    "splitting.check_partial_split.self_s": ("s", "lower", "verify_packing_s on verify"),
    "splitting.check_partial_split.vectors": ("count", "lower", "verify_packing_s on verify"),
    "splitting.check_complete_split.self_s": ("s", "lower", "verify_covering_s on verify"),
    "splitting.check_complete_split.vectors": ("count", "lower", "verify_covering_s on verify"),
    "splitting.multiplicity_histogram.self_s": ("s", "lower", "verify_lambda_s, construct_s on verify"),
    "splitting.multiplicity_histogram.vectors": ("count", "lower", "verify_lambda_s, construct_s on verify"),
    "splitting.multiplicity_histogram.lambda": ("count", "lower", "verify_lambda_s on verify"),
    "splitting.vectors_per_s": ("1/s", "higher", "verify_lambda_s, construct_s on verify"),
    "ball.enumerate_ball.points": ("count", "lower", "verify_packing_s, verify_covering_s on verify"),
    "codec.build_syndrome_decoder.self_s": ("s", "lower", "decode_load_s, decode_modp_vps, construct_s on decode"),
    "codec.build_syndrome_decoder.table_size": ("count", "lower", "decode_load_s, decode_modp_vps on decode"),
    "codec.decode_mod_p.self_s": ("s", "lower", "decode_modp_vps on decode"),
    "codec.decode_mod_p.calls": ("count", "lower", "decode_modp_vps on decode"),
    "codec.decode_mod_p.ok_ratio": ("ratio", "higher", "decode_modp_vps on decode"),
    "codec.decode_mod_p.guaranteed_ratio": ("ratio", "higher", "decode_modp_vps on decode"),
    "codec.decode_s2.self_s": ("s", "lower", "decode_s2_vps on decode"),
    "codec.decode_s2.calls": ("count", "lower", "decode_s2_vps on decode"),
    "codec.decode_s2.ok_ratio": ("ratio", "higher", "decode_s2_vps on decode"),
    "codec.decode_s2.field_ops": ("count", "lower", "decode_s2_vps on decode"),
    "codec.S2DecoderContext.from_json.total_s": ("s", "lower", "decode_s2_vps on decode"),
    "algebra.find_primitive_polynomial.self_s": ("s", "lower", "construct_s on search and decode"),
    "algebra.find_primitive_polynomial.field_size": ("count", "lower", "construct_s on search and decode"),
    "algebra.discrete_log.self_s": ("s", "lower", "construct_s on search and decode"),
    "constructions.is_kfold_sidon.self_s": ("s", "lower", "search_s on search"),
    "constructions.is_kfold_sidon.calls": ("count", "lower", "search_s on search"),
    "constructions.is_kfold_sidon.accept_ratio": ("ratio", "higher", "search_s on search"),
    "constructions.is_bt_set.self_s": ("s", "lower", "search_s on search"),
    "constructions.is_bt_set.calls": ("count", "lower", "search_s on search"),
    "constructions.is_bt_set.accept_ratio": ("ratio", "higher", "search_s on search"),
    "constructions.search_kfold_sidon.self_s": ("s", "lower", "search_s on search"),
    "constructions.search_bt_set.self_s": ("s", "lower", "search_s on search"),
    "constructions.sample_lambda_splitter.self_s": ("s", "lower", "construct_s on verify"),
    "constructions.bose_chowla_s1.self_s": ("s", "lower", "construct_s on verify and search"),
    "constructions.bose_chowla_s2.self_s": ("s", "lower", "construct_s on decode"),
    "constructions.bch_code.self_s": ("s", "lower", "construct_s on decode"),
    "constructions.code_lattice.self_s": ("s", "lower", "construct_s on decode"),
    "cli.import_s": ("s", "lower", "setup_s on every workload"),
    "cli.cmd_construct.self_s": ("s", "lower", "construct_s on every workload"),
    "cli.cmd_verify.self_s": ("s", "lower", "verify_*_s on verify"),
    "cli.cmd_decode.self_s": ("s", "lower", "decode_modp_vps, decode_s2_vps on decode"),
    "cli.cmd_table.self_s": ("s", "lower", "table_s on every workload"),
    "cli.cmd_search.self_s": ("s", "lower", "search_s on search"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced job walls"),
}

PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower", "round_s where the layer works") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower", "round_s where the layer works") for layer in LAYERS},
    **_SPECIFIC,
    **{f"limits.{kind}.peak_ratio": ("ratio", "lower", "nothing: headroom to the limit") for kind in LIMIT_KINDS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round from its jobs' tracer records.

    Times and counts add up over the round's jobs; ``max_*``, ``n``,
    ``table_size``, ``field_size``, ``lambda`` and peak ratios take the
    largest value of any job.
    """
    fn: dict[str, list[float]] = {}
    sums: Counter = Counter()
    maxes: dict[str, float] = {}
    for trace in traces:
        for name, (calls, total, self_s) in trace["functions"].items():
            entry = fn.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        sums.update(trace["sums"])
        for key, value in trace["maxes"].items():
            maxes[key] = max(value, maxes.get(key, value))

    def calls(name: str) -> int:
        return fn.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return fn.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return fn.get(name, [0, 0.0, 0.0])[2]

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in fn.items() if k.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(v[2] for v in mine)
        out[f"{layer}.calls"] = sum(v[0] for v in mine)
    for name in _SPECIFIC:
        base, stat = name.rsplit(".", 1)
        if stat == "self_s":
            out[name] = self_s(base)
        elif stat == "total_s":
            out[name] = total(base)
        elif stat == "calls":
            out[name] = calls(base)
        elif name in maxes:
            out[name] = maxes[name]
        else:
            out[name] = sums.get(name, 0)
    scans = ("splitting.check_partial_split", "splitting.check_complete_split", "splitting.multiplicity_histogram")
    out["splitting.vectors_per_s"] = _ratio(
        sum(sums.get(f"{s}.vectors", 0) for s in scans), sum(total(s) for s in scans)
    )
    for base in ("codec.decode_mod_p", "codec.decode_s2"):
        out[f"{base}.ok_ratio"] = _ratio(sums.get(f"{base}.ok", 0), calls(base))
    out["codec.decode_mod_p.guaranteed_ratio"] = _ratio(
        sums.get("codec.decode_mod_p.guaranteed", 0), calls("codec.decode_mod_p")
    )
    for base in ("constructions.is_kfold_sidon", "constructions.is_bt_set"):
        out[f"{base}.accept_ratio"] = _ratio(sums.get(f"{base}.accepted", 0), calls(base))
    imports = sorted(t["import_s"] for t in traces)
    out["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    limit_kinds = set(traces[0]["limits"]) if traces else set()
    for kind in LIMIT_KINDS:
        if kind in limit_kinds:
            out[f"limits.{kind}.peak_ratio"] = maxes.get(f"limits.{kind}.peak_ratio", 0.0)
        else:  # a limit the program no longer has
            out.pop(f"limits.{kind}.peak_ratio", None)
    out.pop("trace.overhead_s", None)  # filled in from the twin launches
    return out

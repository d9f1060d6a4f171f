"""Run one magball CLI command with each layer's public functions in spans.

    python perfbench/tracer.py SPANS_JSON JOB_ID -- <magball arguments>

The wrappers are installed from outside the package: every public function
of the layer modules is replaced, in every ``magball`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent)
in memory.  ``magball.cli.main`` then runs as it would under
``python -m magball.cli``.  When it returns, the spans, per-function call
counts, total and self times, and the counters below are written to
SPANS_JSON, and the process exits with the CLI's exit code.

Per-element helpers, called up to ~10^6 times per job, are left unwrapped.
Counters are computed after a span ends, with tracing suspended; their time
is taken out of the enclosing span's self time and reported as
``trace.hook``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from dataclasses import fields
from math import comb
from time import perf_counter

LAYERS = ("algebra", "ball", "splitting", "lattice", "constructions", "codec", "cli", "limits")

UNWRAPPED = {
    "algebra.group_add",
    "algebra.group_neg",
    "algebra.scalar_mul",
    "ball.ball_contains",
    "lattice.lattice_contains",
    "limits.get_limits",
    "splitting.phi",
}

CLASS_METHODS = (
    "codec.S2DecoderContext.from_json",
    "codec.S2DecoderContext.from_s2",
    "codec.ModPDecoderContext.build",
    "codec.ModPDecoderContext.from_json",
    "constructions.LinearCode.from_json",
    "lattice.LatticeBasis.from_json",
    "splitting.SplitterSet.from_json",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.active = True
        self.sums: Counter = Counter()
        self.maxes: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self.hook_s: Counter = Counter()  # per parent span index
        self.origin = perf_counter()

    def bump_max(self, key: str, value: float) -> None:
        if value > self.maxes.get(key, float("-inf")):
            self.maxes[key] = value

    def span(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                self.active = False
                try:
                    hook(args, kwargs, result)
                finally:
                    self.active = True
                    self.hook_s[parent] += perf_counter() - end
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Generators are counted per item, not timed: the consumer's span
        already holds the time they take."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                if self.active:
                    self.sums[f"{name}.points"] += count

        return wrapper

    def install(self) -> None:
        import magball.cli  # noqa: F401  (loads every layer)

        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"magball.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                self.originals[name] = obj
                if inspect.isgeneratorfunction(obj):
                    wrapped = self.counted(name, obj)
                else:
                    wrapped = self.span(name, obj, HOOKS.get(name) and functools.partial(HOOKS[name], self))
                replacements[id(obj)] = wrapped
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "magball" or mod_name.startswith("magball."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replacements:
                        setattr(mod, attr, replacements[id(obj)])
        for name in CLASS_METHODS:
            layer, cls_name, meth = name.split(".")
            cls = getattr(sys.modules[f"magball.{layer}"], cls_name)
            fn = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(self.span(name, fn)))

    def summary(self) -> dict:
        """Per-function [calls, total_s, self_s], the counters, and the spans
        as [name index, start, end, parent index] with times in whole
        microseconds since ``origin``."""
        child = Counter(self.hook_s)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        functions: dict[str, list] = {}
        names: dict[str, int] = {}
        rows = []
        origin = self.origin
        for idx, span in enumerate(self.spans):
            if span is None:  # still open: only if the CLI raised through main
                continue
            name, start, end, parent = span
            entry = functions.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[idx]
            rows.append([names.setdefault(name, len(names)), int((start - origin) * 1e6),
                         int((end - origin) * 1e6), parent])
        hook_s = sum(self.hook_s.values())
        functions["trace.hook"] = [len(self.hook_s), hook_s, hook_s]
        return {"functions": functions, "sums": dict(self.sums), "maxes": self.maxes,
                "span_names": list(names), "spans": rows}


# ---------------------------------------------------------------------------
# counters: hook(tracer, args, kwargs, result), run with tracing suspended
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _packing_pairs(tr: Tracer, args, kwargs, report) -> None:
    """Pairs (i < j) the O(|B|^2) loop visited, up to its first witness."""
    ball = _arg(args, kwargs, 1, "ball")
    size = tr.originals["ball.ball_size"](ball)
    if report.witness is None:
        pairs = size * (size - 1) // 2
    else:
        points = list(tr.originals["ball.enumerate_ball"](ball))
        i, j = points.index(report.witness[0]), points.index(report.witness[1])
        pairs = i * (size - 1) - i * (i - 1) // 2 + (j - i)
    tr.sums["lattice.verify_packing_geometric.pairs"] += pairs


def _covering(tr: Tracer, args, kwargs, report) -> None:
    basis = _arg(args, kwargs, 0, "basis")
    tr.sums["lattice.verify_covering_geometric.cosets"] += basis.volume
    tr.bump_max("lattice.verify_covering_geometric.n", basis.n)


def _hnf(tr: Tracer, args, kwargs, result) -> None:
    matrix = _arg(args, kwargs, 0, "matrix")
    H, U, _ = result
    tr.bump_max("lattice.hermite_normal_form.max_dim", max(len(matrix), len(matrix[0]) if matrix else 0))
    bits = max((abs(x).bit_length() for M in (H, U) for row in M for x in row), default=0)
    tr.bump_max("lattice.hermite_normal_form.max_entry_bits", bits)


def _scan(name: str):
    def hook(tr: Tracer, args, kwargs, report) -> None:
        splitter = _arg(args, kwargs, 0, "splitter")
        n, t, m = splitter.n, splitter.t, splitter.magnitudes.size
        tr.sums[f"{name}.vectors"] += sum(comb(n, w) * m**w for w in range(1, t + 1))
        if report.lambda_ is not None:
            tr.bump_max(f"{name}.lambda", report.lambda_)

    return hook


def _syndrome_table(tr: Tracer, args, kwargs, table) -> None:
    tr.bump_max("codec.build_syndrome_decoder.table_size", len(table.leaders))


def _decode_mod_p(tr: Tracer, args, kwargs, result) -> None:
    tr.sums["codec.decode_mod_p.ok"] += result.status == "ok"
    tr.sums["codec.decode_mod_p.guaranteed"] += bool(result.guaranteed)


def _decode_s2(tr: Tracer, args, kwargs, result) -> None:
    tr.sums["codec.decode_s2.ok"] += result.status == "ok"
    tr.sums["codec.decode_s2.field_ops"] += result.ops.total


def _primitive(tr: Tracer, args, kwargs, field) -> None:
    tr.bump_max("algebra.find_primitive_polynomial.field_size", field.size)


def _accepted(name: str):
    def hook(tr: Tracer, args, kwargs, result) -> None:
        tr.sums[f"{name}.accepted"] += bool(result[0])

    return hook


def _limit(tr: Tracer, args, kwargs, result) -> None:
    kind, value = _arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "value")
    bound = getattr(tr.originals["limits.get_limits"](), kind, None)
    if bound:
        tr.bump_max(f"limits.{kind}.peak_ratio", value / bound)


HOOKS = {
    "lattice.verify_packing_geometric": _packing_pairs,
    "lattice.verify_covering_geometric": _covering,
    "lattice.hermite_normal_form": _hnf,
    "splitting.check_partial_split": _scan("splitting.check_partial_split"),
    "splitting.check_complete_split": _scan("splitting.check_complete_split"),
    "splitting.multiplicity_histogram": _scan("splitting.multiplicity_histogram"),
    "codec.build_syndrome_decoder": _syndrome_table,
    "codec.decode_mod_p": _decode_mod_p,
    "codec.decode_s2": _decode_s2,
    "algebra.find_primitive_polynomial": _primitive,
    "constructions.is_kfold_sidon": _accepted("constructions.is_kfold_sidon"),
    "constructions.is_bt_set": _accepted("constructions.is_bt_set"),
    "limits.check": _limit,
}


def main() -> int:
    out, job = sys.argv[1], sys.argv[2]
    if sys.argv[3:4] != ["--"]:
        print("usage: tracer.py SPANS_JSON JOB_ID -- <magball arguments>", file=sys.stderr)
        return 2
    start = perf_counter()
    import magball.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.originals["limits.get_limits"] = sys.modules["magball.limits"].get_limits
    tracer.install()
    pid = os.getpid()
    try:
        code = magball.cli.main(sys.argv[4:])
    finally:
        if os.getpid() == pid:  # not in a forked pool worker
            limits = [f.name for f in fields(sys.modules["magball.limits"].Limits)]
            record = {"job": job, "import_s": import_s, "limits": limits, **tracer.summary()}
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record))  # dumps takes the C encoder; dump does not
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Workload job lists, seeded decode streams and output checks.

A workload is an ordered list of CLI jobs; one pass over it is a round.
Construct jobs write into a per-round artifact directory (``{art}``) that
later jobs of the same round read.  Every job runs in a fresh working
directory of its own, so relative paths such as ``out.jsonl`` land there.

Each job is checked after the round:

* construct: the manifest digests match the files written and, for jobs
  that do not depend on the seed, the digests pinned in ``expected.json``;
* verify, table and search: the exit code and stdout pinned in
  ``expected.json`` (seeded ``verify --kind lambda`` must instead reproduce
  the lambda and histogram of its construct report);
* decode: in-radius vectors decode to their generating lattice point;
  beyond-radius results are checked for shape, and an ``ok`` result must be
  a lattice point.

Exit code 3 (oracle disagreement) never matches a pinned code, so it always
fails.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

WORKLOADS = ("verify", "decode", "search")

# The share of decode stream vectors carrying one error more than the
# guaranteed radius.
BEYOND_EVERY = 10


@dataclass(frozen=True)
class Stream:
    """A seeded decode input: ``count`` vectors against the decoder context
    written by construct job ``context``."""

    context: str
    count: int


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # key of KIND_METRIC
    argv: tuple[str, ...]
    seeded: bool = False
    stream: Stream | None = None


# Each job kind adds its wall time to one end-to-end metric; ``setup_s`` is
# the median of the ``--version`` launches instead.
KIND_METRIC = {
    "setup": "setup_s",
    "construct": "construct_s",
    "verify_packing": "verify_packing_s",
    "verify_covering": "verify_covering_s",
    "verify_lambda": "verify_lambda_s",
    "table": "table_s",
    "search": "search_s",
    "decode_load": "decode_load_s",
    "decode_modp": "decode_modp_vps",
    "decode_s2": "decode_s2_vps",
}


def construct(prefix: str, *args: str, seeded: bool = False) -> Job:
    argv = ("construct", *args, "--out-dir", "{art}", "--prefix", prefix)
    return Job(f"{prefix}.construct", "construct", argv, seeded)


def verify(prefix: str, kind: str, *extra: str, source: str = "splitter", seeded: bool = False) -> Job:
    argv = ("verify", "--kind", kind, f"--{source}", f"{{art}}/{prefix}.{source}.json", *extra)
    return Job(f"{prefix}.verify-{kind}", f"verify_{kind}", argv, seeded)


def decode(prefix: str, kind: str, count: int) -> Job:
    argv = ("decode", "--context", f"{{art}}/{prefix}.decoder.json", "--in", "{in}", "--out", "out.jsonl")
    return Job(f"{prefix}.{kind}-{count}", kind, argv, True, Stream(prefix, count))


def search(kind: str, N: int, size: int, k: int | None = None, t: int | None = None) -> Job:
    argv = ["search", "--kind", kind, "--N", str(N), "--target-size", str(size)]
    name = f"search-{kind}-{N}-{size}"
    if k is not None:
        argv += ["--k", str(k)]
    if t is not None:
        argv += ["--t", str(t)]
    return Job(name, "search", tuple(argv))


def lambda_pair(N: int, kminus: int, seed: int, tag: str = "") -> list[Job]:
    prefix = f"lam-{N}-{kminus}{tag}"
    args = ("--family", "lambda-random", "--N", str(N), "--t", "2", "--kplus", "1",
            "--kminus", str(kminus), "--epsilon", "0.1", "--seed", str(seed))
    return [construct(prefix, *args, seeded=True), verify(prefix, "lambda", seeded=True)]


def bc10(q: int) -> Job:
    return construct(f"bc10-q{q}", "--family", "bose-chowla-10", "--q", str(q), "--t", "2")


def s2(q: int, t: int) -> Job:
    return construct(f"s2-q{q}-t{t}", "--family", "bose-chowla-10", "--variant", "s2",
                     "--q", str(q), "--t", str(t))


def bch(p: int, m: int, d: int, kplus: int, kminus: int) -> Job:
    return construct(f"bch-{p}-{m}-{d}", "--family", "bch-lattice", "--p", str(p), "--m", str(m),
                     "--d", str(d), "--kplus", str(kplus), "--kminus", str(kminus))


def covering_product(m: int) -> Job:
    return construct(f"cov-2-{m}-2", "--family", "covering-product", "--p", "2", "--m", str(m), "--t", "2")


VERSION = Job("version", "setup", ("--version",))
TABLE = Job("table", "table", ("table",))
SEARCH_PROBE = search("sidon", 31, 4, k=2)

# A round runs a workload's own jobs in this many equal parts, each followed
# by a block of repeated jobs, so that a metric made of repeated jobs has
# samples from several moments of a run.
BLOCKS = 3


def _verify_probe(seed: int) -> tuple[list[Job], list[Job], list[Job]]:
    """A small job of each verify kind, for workloads that lack them, as
    (constructs, own jobs, repeated jobs)."""
    lam = lambda_pair(1009, 0, seed)
    constructs = [bc10(8), covering_product(2), lam[0]]
    repeated = [verify("bc10-q8", "packing"), verify("cov-2-2-2", "covering"), lam[1]]
    return constructs, [], repeated


def _decode_probe() -> tuple[list[Job], list[Job], list[Job]]:
    """Small decode jobs, one vector and short bulk streams on both
    decoders, as (constructs, own jobs, repeated jobs)."""
    constructs = [bch(3, 2, 5, 1, 1), s2(4, 2)]
    repeated = [
        decode("bch-3-2-5", "decode_load", 1),
        decode("bch-3-2-5", "decode_modp", 300),
        decode("s2-q4-t2", "decode_s2", 300),
    ]
    return constructs, [], repeated


def _verify_main(seed: int, tiny: bool) -> tuple[list[Job], list[Job], list[Job]]:
    q10, q11, m = (8, 4, 2) if tiny else (27, 13, 5)
    cov = f"cov-2-{m}-2"
    # Four samplers with seeds drawn from the run's seed: the splitter size,
    # and so the scan, varies with the seed; the sum over four varies less.
    lambdas = [lambda_pair(1009, 1, seed)] if tiny else [
        lambda_pair(50021, 1, 4 * seed + i, f"-{i}") for i in range(4)
    ]
    own = [
        construct(f"bc11-q{q11}", "--family", "bose-chowla-11", "--q", str(q11), "--t", "2"),
        verify(f"bc11-q{q11}", "packing"),
        # sidon-2fold and behrend-ruzsa at the parameters `magball table` uses
        construct("sidon-31-2-4", "--family", "sidon-2fold", "--N", "31", "--k", "2",
                  "--target-size", "4", "--kplus", "2", "--kminus", "0"),
        verify("sidon-31-2-4", "packing"),
        construct("behrend-1-0-2-1-17", "--family", "behrend-ruzsa", "--kplus", "1", "--kminus", "0",
                  "--D", "2", "--K", "1", "--p", "17"),
        verify("behrend-1-0-2-1-17", "packing"),
        # the decode probe's code lattice, checked by the geometric oracle
        verify("bch-3-2-5", "packing", "--n", "8", "--t", "2", "--kplus", "1", "--kminus", "1",
               source="lattice"),
        # A covering splitter is no packing: exit 1 with a pinned witness.
        verify(cov, "packing"),
        *(job for pair in lambdas for job in pair),
    ]
    # The largest packing job and the only covering job carry most of their
    # metric, so they run in every block.
    repeated = [verify(f"bc10-q{q10}", "packing"), verify(cov, "covering")]
    return [bc10(q10), covering_product(m)], own, repeated


def _decode_main(tiny: bool) -> tuple[list[Job], list[Job], list[Job]]:
    if tiny:
        return _decode_probe()
    # Each decode metric comes from one job, so each runs twice a round, in
    # different parts.  Two of them load the largest syndrome table; run in
    # every block, they would make a round too long for two to fit in a run.
    calls = [
        decode("bch-2-6-5", "decode_load", 1),
        decode("bch-2-6-5", "decode_modp", 1000),
        decode("s2-q16-t3", "decode_s2", 200),
    ]
    return [bch(2, 6, 5, 1, 0), s2(16, 3)], calls * 2, []


def _search_main(tiny: bool) -> tuple[list[Job], list[Job], list[Job]]:
    if tiny:
        own = [search("sidon", 31, 4, k=2), search("sidon", 11, 4, k=2),
               search("bt", 40, 6, t=2), search("bt", 20, 5, t=2)]
        return [], own, [bc10(16)]
    own = [
        search("sidon", 301, 8, k=2),  # reachable
        search("sidon", 13, 5, k=1),  # unreachable: exhaustive
        search("bt", 80, 9, t=2),  # reachable
        search("bt", 30, 7, t=2),  # unreachable: exhaustive
    ]
    # An F_{2^16} primitive-polynomial search; most of construct_s here, so
    # it runs in every block.
    return [], own, [bc10(256)]


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The ordered job list of one round: the constructs every other job
    needs, then the workload's own jobs in BLOCKS equal parts,
    each followed by the block of repeated jobs (``--version``, the probes
    that fill in the kinds the workload lacks, and the workload's own
    repeated jobs)."""
    verify_probe, decode_probe = _verify_probe(seed), _decode_probe()
    light = ([], [], [TABLE, SEARCH_PROBE])
    if workload == "verify":
        pieces = [decode_probe, light, _verify_main(seed, tiny)]
    elif workload == "decode":
        pieces = [verify_probe, light, _decode_main(tiny)]
    elif workload == "search":
        pieces = [verify_probe, decode_probe, ([], [], [TABLE]), _search_main(tiny)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = [job for constructs, _, _ in pieces for job in constructs]
    own = [job for _, group, _ in pieces for job in group]
    block = [VERSION, *(job for _, _, group in pieces for job in group)]
    parts = 1 if tiny else BLOCKS
    for i in range(parts):
        jobs += own[len(own) * i // parts : len(own) * (i + 1) // parts] + block
    return jobs


# ---------------------------------------------------------------------------
# decode streams
# ---------------------------------------------------------------------------


@dataclass
class Sent:
    """One stream vector: the received word and, when the error is within the
    guaranteed radius, the lattice point it must decode to."""

    received: list[int]
    point: list[int] | None


def _error(rng: random.Random, n: int, weight: int, values: list[int]) -> list[int]:
    e = [0] * n
    for pos in rng.sample(range(n), weight):
        e[pos] = rng.choice(values)
    return e


def modp_stream(ctx: dict, count: int, rng: random.Random) -> list[Sent]:
    """Code-lattice points (codeword + p Z^n) plus a limited-magnitude error
    of weight <= t, or t + 1 for every BEYOND_EVERY-th vector."""
    p, n, G = ctx["p"], ctx["n"], ctx["generator"]
    t = (ctx["d"] - 1) // 2
    values = [v for v in range(-ctx["kminus"], ctx["kplus"] + 1) if v]
    out = []
    for i in range(count):
        msg = [rng.randrange(p) for _ in G]
        point = [
            sum(m * g[j] for m, g in zip(msg, G)) % p + p * rng.randint(-1, 1) for j in range(n)
        ]
        beyond = i % BEYOND_EVERY == BEYOND_EVERY - 1
        e = _error(rng, n, t + 1 if beyond else rng.randint(0, t), values)
        out.append(Sent([x + y for x, y in zip(point, e)], None if beyond else point))
    return out


def s2_stream(ctx: dict, count: int, rng: random.Random) -> list[Sent]:
    """Points of {x : sum x_i s_i = 0 mod N} plus up to t unit increases at
    distinct positions, or t + 1 for every BEYOND_EVERY-th vector."""
    N, svals, t = ctx["N"], ctx["svals"], ctx["t"]
    q = len(svals)
    pivot = next(i for i, s in enumerate(svals) if gcd(s, N) == 1)
    inverse = pow(svals[pivot], -1, N)
    out = []
    for i in range(count):
        point = [rng.randint(-3, 3) for _ in range(q)]
        point[pivot] = 0
        rest = sum(x * s for x, s in zip(point, svals))
        point[pivot] = (-rest * inverse) % N - N * rng.randint(0, 1)
        beyond = i % BEYOND_EVERY == BEYOND_EVERY - 1
        e = _error(rng, q, t + 1 if beyond else rng.randint(0, t), [1])
        out.append(Sent([x + y for x, y in zip(point, e)], None if beyond else point))
    return out


def make_stream(ctx: dict, stream: Stream, seed: int) -> list[Sent]:
    rng = random.Random(f"{seed}:{stream.context}:{stream.count}")
    make = modp_stream if ctx["type"] == "modp" else s2_stream
    return make(ctx, stream.count, rng)


def is_lattice_point(ctx: dict, x: list[int]) -> bool:
    if ctx["type"] == "modp":
        p = ctx["p"]
        return not any(sum(h * v for h, v in zip(row, x)) % p for row in ctx["parity_check"])
    return sum(v * s for v, s in zip(x, ctx["svals"])) % ctx["N"] == 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one job left behind; filled in by the harness."""

    job: Job
    exit_code: int
    stdout: str
    cwd: Path
    art: Path


def check_job(out: Outcome, expected: dict, streams: dict[Stream, list[Sent]]) -> str | None:
    """Return None when the job's outputs are correct, else a reason."""
    job = out.job
    pin = expected["jobs"].get(job.id)
    if not job.seeded and pin is None and job.kind != "setup":
        return "no pinned output for this job"
    want_exit = pin["exit"] if pin else 0
    if out.exit_code != want_exit:
        return f"exit code {out.exit_code}, expected {want_exit}"
    if job.kind == "setup":  # the version may change; its form may not
        return None if out.stdout.startswith("magball ") else "no version printed"
    if job.kind == "construct":
        return _check_construct(out, pin)
    if job.stream is not None:
        return _check_decode(out, expected["contexts"][job.stream.context], streams[job.stream])
    if job.seeded:  # verify --kind lambda against its construct report
        return _check_lambda(out)
    if out.stdout != pin["stdout"]:
        return "stdout differs from the pinned output"
    return None


def _prefix(job: Job) -> str:
    return job.id.rsplit(".", 1)[0]


def _check_construct(out: Outcome, pin: dict | None) -> str | None:
    prefix = _prefix(out.job)
    try:
        manifest = json.loads((out.art / f"{prefix}.manifest.json").read_text())
        digests = manifest["digests"]
        for name, digest in digests.items():
            if hashlib.sha256((out.art / name).read_bytes()).hexdigest() != digest:
                return f"{name} does not match its manifest digest"
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable construct output: {exc}"
    if pin is not None and digests != pin["digests"]:
        return "artifact digests differ from the pinned digests"
    return None


def _check_lambda(out: Outcome) -> str | None:
    try:
        report = json.loads((out.art / f"{_prefix(out.job)}.report.json").read_text())
        split = json.loads(out.stdout)["splitting"]
        agree = split["lambda"] == report["lambda"] and split["histogram"] == report["histogram"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable lambda output: {exc}"
    return None if agree else "verify --kind lambda disagrees with the construct report"


def _check_decode(out: Outcome, ctx: dict, sent: list[Sent]) -> str | None:
    try:
        lines = (out.cwd / "out.jsonl").read_text().splitlines()
        results = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return f"unreadable decode output: {exc}"
    if len(results) != len(sent):
        return f"{len(results)} decoded lines for {len(sent)} inputs"
    length = len(sent[0].received)
    for i, (res, s) in enumerate(zip(results, sent)):
        if not isinstance(res, dict) or res.get("input") != s.received:
            return f"line {i}: input not echoed"
        status, decoded = res.get("status"), res.get("decoded")
        if s.point is not None:
            if status != "ok" or decoded != s.point:
                return f"line {i}: in-radius vector decoded to {decoded} ({status})"
        elif status == "fail":
            if decoded is not None:
                return f"line {i}: failed decode carries a vector"
        elif status != "ok":
            return f"line {i}: unknown status {status!r}"
        elif (
            not isinstance(decoded, list)
            or len(decoded) != length
            or not all(isinstance(v, int) for v in decoded)
            or not is_lattice_point(ctx, decoded)
        ):
            return f"line {i}: beyond-radius result is not a lattice point"
    return None

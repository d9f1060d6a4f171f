#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny variant of every workload.

    python3 perfbench/selftest.py

Checks that:

* BENCHMARK.json declares exactly the workloads and metrics the harness
  emits, with the same units and directions;
* every workload emits every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) with its unit, and the seed commit's
  outputs pass every check;
* a wrong pinned digest, in a copy of the checkout, makes jobs fail;
* the decode check passes a real bulk decode and fails it once one decoded
  line is corrupted;
* without the magball sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from metrics import E2E, PER_LAYER
from run import BENCH, ROOT, SRC, WORK, child_env, expand, launch
from workloads import WORKLOADS, Outcome, build_jobs, check_job, make_stream

SEED = 7


def run(*args: str, root: Path = ROOT) -> tuple[int, dict | None]:
    """Run the benchmark of the checkout at ``root``; its exit code and last
    line."""
    proc = subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == E2E, "end_to_end metrics differ from metrics.E2E"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == {k: v[:2] for k, v in PER_LAYER.items()}, "per_layer metrics differ"
    print("ok BENCHMARK.json matches the harness")


def check_emits(workload: str, trace: int) -> None:
    code, result = run("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert code == 0 and result is not None, f"{workload}: exit {code}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    wanted = {k: v[0] for k, v in (PER_LAYER if trace else E2E).items()}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:  # a limit the program no longer has is skipped
        got.update({k: wanted[k] for k in wanted if k.startswith("limits.") and k.endswith(".peak_ratio")})
    assert got == wanted, f"{workload}: metrics {sorted(set(got) ^ set(wanted))} differ"
    if not trace:
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        assert not zero, f"{workload}: end-to-end metrics not above zero: {zero}"
    print(f"ok {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} jobs correct")


def check_wrong_digest() -> None:
    """A copy of the checkout with one pinned construct digest changed."""
    WORK.mkdir(exist_ok=True)
    copy = Path(tempfile.mkdtemp(prefix="digest-", dir=WORK))
    try:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(BENCH, copy / BENCH.name, ignore=ignore)
        shutil.copytree(SRC, copy / SRC.name, ignore=ignore)
        path = copy / BENCH.name / "expected.json"
        expected = json.loads(path.read_text())
        job = next(j for j in build_jobs("verify", SEED, tiny=True) if j.kind == "construct" and not j.seeded)
        digests = expected["jobs"][job.id]["digests"]
        digests[next(iter(digests))] = "0" * 64
        path.write_text(json.dumps(expected))
        code, result = run("--workload", "verify", "--seed", str(SEED), "--seconds", "1", "--tiny", root=copy)
    finally:
        shutil.rmtree(copy)
    assert code == 0 and result is not None, f"wrong digest: exit {code}"
    assert not result["correct"] and result["failed"] > 0, f"wrong digest not detected: {result}"
    print(f"ok wrong digest of {job.id} fails {result['failed']} of {result['attempted']} jobs")


def check_corrupted_line() -> None:
    """Run a tiny bulk decode, check its output, change one decoded vector
    and check it again."""
    expected = json.loads((BENCH / "expected.json").read_text())
    jobs = build_jobs("decode", SEED, tiny=True)
    bulk = next(j for j in jobs if j.stream is not None and j.stream.count > 1)
    build = next(j for j in jobs if j.id == f"{bulk.stream.context}.construct")
    sent = make_stream(expected["contexts"][bulk.stream.context], bulk.stream, SEED)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="line-", dir=WORK))
    try:
        art, stream = work / "art", work / "in.jsonl"
        art.mkdir()
        stream.write_text("".join(json.dumps(s.received) + "\n" for s in sent))
        for job in (build, bulk):
            cmd = [sys.executable, "-m", "magball.cli", *expand(job.argv, art, stream)]
            code, _, _ = launch(cmd, work, child_env(), 120)
            assert code == 0, f"{job.id}: exit {code}"
        out = Outcome(bulk, 0, "", work, art)
        clean = check_job(out, expected, {bulk.stream: sent})
        lines = (work / "out.jsonl").read_text().splitlines(keepends=True)
        first = json.loads(lines[0])  # in the radius: must decode exactly
        first["decoded"] = [v + 1 for v in first["decoded"] or [0]]
        lines[0] = json.dumps(first) + "\n"
        (work / "out.jsonl").write_text("".join(lines))
        corrupted = check_job(out, expected, {bulk.stream: sent})
    finally:
        shutil.rmtree(work)
    assert clean is None, f"{bulk.id}: correct output rejected: {clean}"
    assert corrupted is not None, f"{bulk.id}: corrupted line not detected"
    print(f"ok corrupted line of {bulk.id}: {corrupted}")


def check_without_sources() -> None:
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, "ran without sources"
    print(f"ok without sources: exit {proc.returncode}, no result")


def main() -> int:
    check_declaration()
    for workload in WORKLOADS:
        check_emits(workload, 0)
        check_emits(workload, 1)
    check_wrong_digest()
    check_corrupted_line()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

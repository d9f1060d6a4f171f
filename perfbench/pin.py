#!/usr/bin/env python3
"""Pin the seed-independent outputs of every workload job into expected.json.

    python3 perfbench/pin.py

Runs each job of every workload once, full and tiny, and records exit codes,
artifact digests, and the stdout of verify, table and search jobs, plus the
decoder data the seeded decode streams are generated from.  Re-pin only when
an output is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, WORK, child_env, launch
from workloads import WORKLOADS, build_jobs


def decoder_data(path) -> dict:
    ctx = json.loads(path.read_text())
    if ctx["type"] == "modp":
        return {"type": "modp", **ctx["code"], "kplus": ctx["kplus"], "kminus": ctx["kminus"]}
    return {key: ctx[key] for key in ("type", "q", "t", "N", "svals")}


def main() -> int:
    WORK.mkdir(exist_ok=True)
    env = child_env()
    pins: dict[str, dict] = {}
    contexts: dict[str, dict] = {}
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=WORK))
    try:
        for tiny in (False, True):
            for workload in WORKLOADS:
                round_dir = Path(tempfile.mkdtemp(dir=tmp))
                art = round_dir / "art"
                art.mkdir()
                empty = round_dir / "in.jsonl"  # decode output is checked per seed, not pinned
                empty.write_text("")
                jobs = {job.id: job for job in build_jobs(workload, seed=1, tiny=tiny)}.values()
                for i, job in enumerate(jobs):
                    cwd = round_dir / f"job{i:02d}"
                    cwd.mkdir()
                    argv = [a.replace("{art}", str(art)).replace("{in}", str(empty)) for a in job.argv]
                    code, wall, _ = launch([sys.executable, "-m", "magball.cli", *argv], cwd, env, 600)
                    print(f"{wall:8.3f}s exit {code} {workload}{' tiny' if tiny else ''} {job.id}", flush=True)
                    prefix = job.id.rsplit(".", 1)[0]
                    if job.kind == "construct" and (art / f"{prefix}.decoder.json").exists():
                        contexts[prefix] = decoder_data(art / f"{prefix}.decoder.json")
                    if job.seeded or job.kind == "setup":
                        continue
                    pin: dict = {"exit": code}
                    if job.kind == "construct":
                        manifest = json.loads((art / f"{prefix}.manifest.json").read_text())
                        pin["digests"] = manifest["digests"]
                    else:
                        pin["stdout"] = (cwd / "stdout.txt").read_text()
                    if pins.setdefault(job.id, pin) != pin:
                        raise SystemExit(f"{job.id}: output differs between workloads")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    expected = {"jobs": dict(sorted(pins.items())), "contexts": dict(sorted(contexts.items()))}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

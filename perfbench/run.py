#!/usr/bin/env python3
"""magball benchmark: the real CLI, one job at a time, outputs checked.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 34 --trace 0

A single closed-loop client runs the workload's job list (see
``workloads.py``) round after round, each job in a fresh
``python -m magball.cli`` process with CLI defaults, until ``--seconds`` of
rounds are measured.  After each round every output is checked.

``--trace 0`` reports the end-to-end metrics of ``metrics.E2E``.
``--trace 1`` runs rounds whose jobs run under ``tracer.py``, each just after
an untraced twin launch of the same job, and reports the per-layer metrics
of ``metrics.PER_LAYER``.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it (``info {...}``) records the machine, the commit, the
seed, sample counts and ``fail_ratio``.  Exits 2 without a result when the
checkout has no magball sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from metrics import E2E, PER_LAYER, layer_metrics
from workloads import KIND_METRIC, VERSION, WORKLOADS, Job, Outcome, build_jobs, check_job, make_stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# No round starts once this much of a run has passed, so a run ends well
# within three minutes.
HARD_LIMIT_S = 140.0
JOB_TIMEOUT_S = 120.0


@dataclass
class Round:
    wall_s: float
    walls: dict[str, list[float]] = field(default_factory=dict)  # per job id
    peak_rss_mb: float = 0.0
    failures: list[tuple[str, str]] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    attempted: int = 0
    overhead_s: float = 0.0  # traced minus untraced twin walls, summed


def child_env() -> dict[str, str]:
    """The parent environment with the checkout's absolute ``src`` first on
    ``PYTHONPATH`` and no ``MAGBALL_LIMITS``."""
    env = dict(os.environ)
    env.pop("MAGBALL_LIMITS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def expand(argv: tuple[str, ...], art: Path, stream: Path | str) -> list[str]:
    """A job's argv with the round's artifact directory and its input
    stream filled in."""
    return [a.replace("{art}", str(art)).replace("{in}", str(stream)) for a in argv]


def launch(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, float, int]:
    """Run one process to completion; returns (exit code, wall seconds,
    ru_maxrss in KiB).  Stdout and stderr go to files in ``cwd``."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        # Killing the whole group also ends a process pool the job started.
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Bench:
    def __init__(self, args, run_dir: Path) -> None:
        self.args = args
        self.run_dir = run_dir
        self.env = child_env()
        self.started = perf_counter()
        self.jobs = build_jobs(args.workload, args.seed, args.tiny)
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.streams = {}
        self.stream_files = {}
        for job in self.jobs:
            if job.stream is not None and job.stream not in self.streams:
                ctx = self.expected["contexts"][job.stream.context]
                sent = make_stream(ctx, job.stream, args.seed)
                path = run_dir / f"{job.stream.context}-{job.stream.count}.jsonl"
                path.write_text("".join(json.dumps(s.received) + "\n" for s in sent))
                self.streams[job.stream] = sent
                self.stream_files[job.stream] = path

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S, HARD_LIMIT_S + 30 - self.elapsed()))

    def warm_up(self) -> None:
        """One untimed launch, which may write the bytecode cache."""
        cwd = Path(tempfile.mkdtemp(dir=self.run_dir))
        code, _, _ = launch([sys.executable, "-m", "magball.cli", "--version"], cwd, self.env, 60)
        if code != 0:
            err = (cwd / "stderr.txt").read_text(errors="replace")
            raise SystemExit(f"error: magball --version exited {code}: {err}")

    def run_round(self, index: int, traced: bool) -> Round:
        round_dir = self.run_dir / f"round{index:03d}"
        art = round_dir / "art"
        art.mkdir(parents=True)
        cwds = []
        for i in range(len(self.jobs)):
            cwds.append(round_dir / f"job{i:02d}")
            cwds[-1].mkdir()
        outcomes = []
        result = Round(0.0)
        start = perf_counter()
        for job, cwd in zip(self.jobs, cwds):
            argv = expand(job.argv, art, self.stream_files.get(job.stream, ""))
            cmd = [sys.executable, "-m", "magball.cli", *argv]
            if traced:
                # The twin runs just before its traced job, in the same phase
                # of the machine's speed, so their difference is the cost of
                # tracing that job.  Its outputs are overwritten or not read.
                twin = cwd.with_name(cwd.name + "-twin")
                twin.mkdir()
                _, twin_wall, _ = launch(cmd, twin, self.env, self.timeout())
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(cwd / "spans.json"), job.id, "--", *argv]
            code, wall, rss_kib = launch(cmd, cwd, self.env, self.timeout())
            if traced:
                result.overhead_s += wall - twin_wall
            result.walls.setdefault(job.id, []).append(wall)
            result.peak_rss_mb = max(result.peak_rss_mb, rss_kib / 1024)
            outcomes.append(Outcome(job, code, "", cwd, art))
        result.wall_s = perf_counter() - start
        result.attempted = len(outcomes)

        for out in outcomes:
            out.stdout = (out.cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace")
            reason = check_job(out, self.expected, self.streams)
            if reason is None and traced:
                try:
                    record = json.loads((out.cwd / "spans.json").read_text())
                    del record["spans"]  # the aggregates suffice here
                    result.traces.append(record)
                except (OSError, ValueError, KeyError) as exc:
                    reason = f"no trace written: {exc}"
            if reason is not None:
                result.failures.append((out.job.id, reason))
        shutil.rmtree(round_dir)
        return result

    def measure(self, budget: float, traced: bool, first_index: int) -> list[Round]:
        """Whole rounds for as near ``budget`` seconds as they allow; at
        least one.  Another round starts only if it would end nearer the
        budget than stopping now, so a run lasts the budget give or take
        half a round."""
        rounds: list[Round] = []
        start = perf_counter()
        while True:
            rounds.append(self.run_round(first_index + len(rounds), traced))
            typical = statistics.median(r.wall_s for r in rounds)
            if perf_counter() - start + typical / 2 >= budget or self.elapsed() + typical > HARD_LIMIT_S:
                return rounds


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above
    it, else the maximum, with a label stating which and over how many."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            rank = -(-p * n // 100)  # nearest rank
            return ordered[rank - 1], f"p{p} of {n}"
    return ordered[-1], f"max of {n}"


def e2e_metrics(rounds: list[Round], jobs: list[Job]) -> tuple[dict[str, float], dict]:
    """A kind's per-round time is the sum over the round's jobs of that kind
    of each job's median wall time over the run (a job that runs twice per
    round counts twice); ``setup_s`` is the median ``--version`` launch;
    round times and peak RSS are medians over rounds."""
    walls = [r.wall_s for r in rounds]
    tail_s, tail_label = tail(walls)
    per_id: dict[str, list[float]] = {}
    for r in rounds:
        for job_id, times in r.walls.items():
            per_id.setdefault(job_id, []).extend(times)
    kind_s: dict[str, float] = {}
    vectors: dict[str, int] = {}
    for job in jobs:
        metric = KIND_METRIC[job.kind]
        kind_s[metric] = kind_s.get(metric, 0.0) + statistics.median(per_id[job.id])
        if metric.endswith("_vps"):
            vectors[metric] = vectors.get(metric, 0) + job.stream.count
    values = {
        "setup_s": statistics.median(per_id[VERSION.id]),
        "round_s": statistics.median(walls),
        "round_tail_s": tail_s,
    }
    for name in E2E:
        if name.endswith("_vps"):
            values[name] = vectors[name] / kind_s[name]
        elif name in kind_s and name != "setup_s":
            values[name] = kind_s[name]
    values["peak_rss_mb"] = statistics.median(r.peak_rss_mb for r in rounds)
    values = {name: values[name] for name in E2E}
    samples = {"rounds": len(rounds), "round_tail_s": tail_label,
               "setup_launches": len(per_id[VERSION.id]), "stream_vectors": vectors}
    return values, samples


def per_layer_metrics(rounds: list[Round]) -> dict[str, float]:
    per_round = [layer_metrics(r.traces) for r in rounds]
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = statistics.median(r.overhead_s for r in rounds)
    return values


def commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    lines = out.stdout.split()
    return lines[1] if out.returncode == 0 and Path(lines[0]).resolve() == ROOT else None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are no git repo."""
    h = hashlib.sha256()
    for path in sorted((SRC / "magball").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small parameters; for self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind: the running job's process group is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "magball" / "cli.py").is_file():
        print(f"error: no magball sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args, run_dir)
        bench.warm_up()
        if args.trace:
            # A traced round launches every job twice, so half the budget
            # keeps a traced run about as long as an untraced one.
            rounds = bench.measure(args.seconds / 2, True, 0)
            metrics = per_layer_metrics(rounds)
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
            samples = {"traced_rounds": len(rounds)}
        else:
            rounds = bench.measure(args.seconds, False, 0)
            metrics, samples = e2e_metrics(rounds, bench.jobs)
            units = {name: spec[0] for name, spec in E2E.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit(),
        "src_sha256": src_digest(),
        "fail_ratio": len(failures) / attempted,
        "samples": samples,
    }
    for job_id, reason in failures:
        print(f"FAIL {job_id}: {reason}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The names ``perfbench`` reads from the package must exist, and the
artifacts it pins must come out unchanged.

The benchmark wraps functions and reads limits by name, so renaming or
deleting one of them changes the benchmark's output shape.  It also checks
each seedless construct job's files against the digests in
``perfbench/expected.json``; those jobs run in-process here.  The harness
modules are compiled from source here, so nothing is written under
``perfbench/``.
"""

import hashlib
import json
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

import magball.cli  # noqa: F401  (loads every layer)
from magball import BallSpec, enumerate_ball, verify_packing_geometric
from magball.cli import main
from magball.lattice import basis_from_rows
from magball.limits import Limits

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE_ROOT = str(Path(magball.cli.__file__).resolve().parent.parent)


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    saved = sys.modules.get(name)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        if saved is None:
            del sys.modules[name]
        else:
            sys.modules[name] = saved
    return module


@pytest.fixture(scope="module")
def bench():
    tracer = _load("tracer")
    saved = sys.modules.get("tracer")
    sys.modules["tracer"] = tracer  # metrics.py does ``from tracer import ...``
    try:
        return tracer, _load("metrics")
    finally:
        if saved is None:
            del sys.modules["tracer"]
        else:
            sys.modules["tracer"] = saved


def _public_function(name: str):
    layer, attr = name.split(".")
    mod = sys.modules[f"magball.{layer}"]
    obj = getattr(mod, attr, None)
    # The tracer wraps exactly these: public callables defined in the module.
    assert not attr.startswith("_") and callable(obj) and not isinstance(obj, type), name
    assert obj.__module__ == mod.__name__, name
    return obj


def test_class_methods_exist(bench):
    tracer, _ = bench
    for name in tracer.CLASS_METHODS:
        layer, cls_name, meth = name.split(".")
        cls = getattr(sys.modules[f"magball.{layer}"], cls_name)
        assert isinstance(cls.__dict__.get(meth), classmethod), name


def test_hooked_and_unwrapped_functions_exist(bench):
    tracer, _ = bench
    for name in [*tracer.HOOKS, *tracer.UNWRAPPED, "ball.ball_size", "ball.enumerate_ball",
                 "limits.get_limits"]:
        _public_function(name)


def test_limit_kinds_are_limits(bench):
    _, metrics = bench
    assert set(metrics.LIMIT_KINDS) <= {f.name for f in fields(Limits)}


def test_packing_hook_reads_the_witness(bench):
    tracer, _ = bench
    tr = tracer.Tracer()
    tr.originals.update({name: _public_function(name) for name in ("ball.ball_size", "ball.enumerate_ball")})
    basis, ball = basis_from_rows([[1, 0], [0, 1]], 2), BallSpec(2, 1, 1, 0)
    report = verify_packing_geometric(basis, ball)
    assert set(report.witness) <= set(enumerate_ball(ball))
    tracer.HOOKS["lattice.verify_packing_geometric"](tr, (basis, ball), {}, report)
    assert tr.sums["lattice.verify_packing_geometric.pairs"] == 1


def test_traced_verify_run(bench, tmp_path):
    _, metrics = bench
    lattice = tmp_path / "z8.lattice.json"
    lattice.write_text(json.dumps({"n": 2, "rows": [[1, 5], [0, 8]], "volume": "8"}))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.pop("MAGBALL_LIMITS", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), "job", "--",
         "verify", "--kind", "packing", "--lattice", str(lattice), "--n", "2", "--t", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert set(metrics.LIMIT_KINDS) <= set(record["limits"])
    assert "lattice.verify_packing_geometric" in record["functions"]


def test_pinned_construct_digests(tmp_path):
    workloads = _load("workloads")
    jobs = {
        job.id: job.argv
        for name in workloads.WORKLOADS
        for tiny in (False, True)
        for job in workloads.build_jobs(name, 1, tiny)
        if job.kind == "construct" and not job.seeded
    }
    pins = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["jobs"]
    assert len(jobs) == 14
    for job_id, argv in sorted(jobs.items()):
        art, pin = tmp_path / job_id, pins[job_id]
        assert main([arg.replace("{art}", str(art)) for arg in argv]) == pin["exit"], job_id
        written = {
            name: hashlib.sha256((art / name).read_bytes()).hexdigest() for name in pin["digests"]
        }
        assert written == pin["digests"], job_id

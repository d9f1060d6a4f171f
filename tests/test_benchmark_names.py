"""The names ``perfbench`` reads from the package must exist, and the
artifacts it pins must come out unchanged.

The benchmark wraps functions and reads limits by name, so renaming or
deleting one of them changes the benchmark's output shape.  Its hooks read
attributes of the wrapped functions' arguments and results, so traced runs
on tiny artifacts reach every hook.  It also checks each seedless construct
job's files against the digests in ``perfbench/expected.json``; those jobs
run in-process here, as do two seeded ``lambda-random`` jobs pinned below.
The harness modules are compiled from source here, so nothing is written
under ``perfbench/``.
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


def _traced(cwd: Path, argv: list[str]) -> dict:
    """The spans record of ``magball argv`` run under ``perfbench/tracer.py``,
    which must exit 0."""
    spans = cwd / "spans.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.pop("MAGBALL_LIMITS", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), "job", "--", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


def test_traced_verify_run(bench, tmp_path):
    _, metrics = bench
    lattice = tmp_path / "z8.lattice.json"
    lattice.write_text(json.dumps({"n": 2, "rows": [[1, 5], [0, 8]], "volume": "8"}))
    record = _traced(tmp_path, ["verify", "--kind", "packing", "--lattice", str(lattice),
                                 "--n", "2", "--t", "2"])
    assert set(metrics.LIMIT_KINDS) <= set(record["limits"])
    assert "lattice.verify_packing_geometric" in record["functions"]


# Traced runs on tiny artifacts, each with the hooked functions it reaches.
# A hook reads attributes of its function's arguments and result
# (``splitter.magnitudes.size``, ``report.lambda_``, ``table.leaders``,
# ``result.guaranteed``, ``result.ops.total``, ...), and one that fails
# fails its run; together the runs reach every hook.
CONSTRUCTS = {
    "bc": ["--family", "bose-chowla-10", "--q", "4", "--t", "2"],
    "cover": ["--family", "covering-product", "--p", "2", "--m", "2", "--t", "2"],
    "bch": ["--family", "bch-lattice", "--p", "3", "--m", "2", "--d", "5", "--kminus", "1"],
    "s2": ["--family", "bose-chowla-10", "--q", "4", "--t", "2", "--variant", "s2"],
}
TRACED_RUNS = {
    "verify-packing": (["verify", "--kind", "packing", "--splitter", "bc.splitter.json"],
                       ["splitting.check_partial_split", "lattice.hermite_normal_form",
                        "lattice.verify_packing_geometric", "limits.check"]),
    "verify-covering": (["verify", "--kind", "covering", "--splitter", "cover.splitter.json"],
                        ["splitting.check_complete_split", "lattice.verify_covering_geometric"]),
    "verify-lambda": (["verify", "--kind", "lambda", "--splitter", "bc.splitter.json"],
                      ["splitting.multiplicity_histogram"]),
    "decode-modp": (["decode", "--context", "bch.decoder.json", "--in", "bch.in.jsonl"],
                    ["codec.build_syndrome_decoder", "codec.decode_mod_p"]),
    "decode-s2": (["decode", "--context", "s2.decoder.json", "--in", "s2.in.jsonl"],
                  ["codec.decode_s2"]),
    "construct-s2": (["construct", *CONSTRUCTS["s2"], "--prefix", "again"],
                     ["algebra.find_primitive_polynomial"]),
    "search-bt": (["search", "--kind", "bt", "--N", "8", "--target-size", "3"],
                  ["constructions.is_bt_set"]),
    "search-sidon": (["search", "--kind", "sidon", "--N", "31", "--k", "2", "--target-size", "4"],
                     ["constructions.is_kfold_sidon"]),
}


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    art = tmp_path_factory.mktemp("art")
    for prefix, flags in CONSTRUCTS.items():
        assert main(["construct", *flags, "--out-dir", str(art), "--prefix", prefix]) == 0
    for prefix, length in (("bch", 8), ("s2", 4)):
        (art / f"{prefix}.in.jsonl").write_text(json.dumps([1] + [0] * (length - 1)) + "\n")
    return art


def test_traced_runs_reach_every_hook(bench):
    tracer, _ = bench
    assert {name for _, hooked in TRACED_RUNS.values() for name in hooked} == set(tracer.HOOKS)


@pytest.mark.parametrize("run", TRACED_RUNS)
def test_traced_run_reaches_its_hooks(tiny_artifacts, run):
    argv, hooked = TRACED_RUNS[run]
    assert set(hooked) <= set(_traced(tiny_artifacts, argv)["functions"]), run


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


# Seeded lambda-random artifacts; the perfbench pins cover only seedless jobs.
SEEDED_LAMBDA_DIGESTS = {
    "53 2 1 0 0.25 1": {
        "lam.density.json": "bd7e914cb180a9f3ed932e65cb0b272e202d12b1e82fc5c30d77fb8e4bdf9fcf",
        "lam.report.json": "1a2ab032c3c0725ec24d382407ca87743c07d134c4902a95a9ad8ec65287640e",
        "lam.splitter.json": "bcf4f474ad065bb6ffa4dd1a6ee0bbd13d545a5487b5ce1d2d012b04c82dfd55",
    },
    "50021 2 1 1 0.1 0": {
        "lam.density.json": "22bd2d86d9f368611fe4cb0b8f6bac269e4adf7697f624af639698c2bdb279b4",
        "lam.report.json": "4fef9de80a3c0095a314a98294183b2c93040a1d47a11d646eb4f6fac7593569",
        "lam.splitter.json": "e3eb1536bd5a723a0b8a11477ecf7b14705b6f7696319a4f114fc7c3d37bfbbe",
    },
}


@pytest.mark.parametrize("params", SEEDED_LAMBDA_DIGESTS)
def test_pinned_seeded_lambda_digests(tmp_path, params):
    flags = [arg for name, value in zip(("N", "t", "kplus", "kminus", "epsilon", "seed"),
                                        params.split()) for arg in (f"--{name}", value)]
    assert main(["construct", "--family", "lambda-random", *flags,
                 "--out-dir", str(tmp_path), "--prefix", "lam"]) == 0
    pins = SEEDED_LAMBDA_DIGESTS[params]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pins} == pins

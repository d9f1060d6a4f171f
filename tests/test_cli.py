import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magball
from magball.cli import main

# The directory holding the ``magball`` package these tests imported.  A
# relative ``PYTHONPATH`` entry such as ``src`` does not survive the child's
# change of working directory, so the child is given this one first.
PACKAGE_ROOT = str(Path(magball.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "magball.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


FAMILIES = [
    (
        ["--family", "bch-lattice", "--p", "3", "--m", "2", "--d", "5",
         "--kplus", "1", "--kminus", "1"],
        "packing",
        "lattice",
    ),
    (["--family", "bose-chowla-10", "--q", "4", "--t", "2"], "packing", "splitter"),
    (
        ["--family", "bose-chowla-10", "--q", "4", "--t", "2", "--variant", "s2"],
        "packing",
        "splitter",
    ),
    (["--family", "bose-chowla-11", "--q", "3", "--t", "2"], "packing", "splitter"),
    (
        ["--family", "sidon-2fold", "--N", "31", "--k", "2", "--kplus", "2",
         "--kminus", "0", "--target-size", "4"],
        "packing",
        "splitter",
    ),
    (
        ["--family", "behrend-ruzsa", "--kplus", "1", "--kminus", "0", "--D", "2",
         "--K", "1", "--p", "17"],
        "packing",
        "splitter",
    ),
    (
        ["--family", "covering-product", "--p", "2", "--m", "2", "--t", "2",
         "--kplus", "1", "--kminus", "0"],
        "covering",
        "splitter",
    ),
    (
        ["--family", "lambda-random", "--N", "53", "--t", "2", "--kplus", "1",
         "--kminus", "0", "--epsilon", "0.25", "--seed", "1"],
        "lambda",
        "splitter",
    ),
]


class TestConstructVerifyIntegration:
    @pytest.mark.parametrize("flags,kind,artifact", FAMILIES)
    def test_every_construct_output_passes_verify(self, tmp_path, flags, kind, artifact):
        prefix = "case"
        rc = main(["construct", *flags, "--out-dir", str(tmp_path), "--prefix", prefix])
        assert rc == 0
        path = tmp_path / f"{prefix}.{artifact}.json"
        assert path.exists()
        verify_args = ["verify", "--kind", kind, f"--{artifact}", str(path)]
        if artifact == "lattice":
            verify_args += ["--n", "8", "--t", "2", "--kplus", "1", "--kminus", "1"]
        assert main(verify_args) == 0

    def test_manifest_lists_digests(self, tmp_path):
        main(
            ["construct", "--family", "covering-product", "--p", "2", "--m", "2",
             "--t", "2", "--kplus", "1", "--kminus", "0",
             "--out-dir", str(tmp_path), "--prefix", "cp"]
        )
        manifest = json.loads((tmp_path / "cp.manifest.json").read_text())
        assert set(manifest["digests"]) == {"cp.splitter.json", "cp.density.json"}
        assert manifest["command"] == "construct"

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            main(
                ["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
                 "--out-dir", str(tmp_path / sub), "--prefix", "x"]
            )
        for name in ("x.splitter.json", "x.density.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_lambda_random_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            main(
                ["construct", "--family", "lambda-random", "--N", "53", "--t", "2",
                 "--kplus", "1", "--kminus", "0", "--epsilon", "0.25", "--seed", "1",
                 "--out-dir", str(tmp_path / sub), "--prefix", "s"]
            )
        for name in ("s.splitter.json", "s.report.json", "s.density.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestExitCodes:
    def test_refuted_packing_is_exit_1(self, tmp_path, capsys):
        bad = {
            "group": [8],
            "elements": [[1], [7]],
            "kplus": 1,
            "kminus": 0,
            "t": 2,
        }
        path = tmp_path / "bad.splitter.json"
        path.write_text(json.dumps(bad))
        rc = main(["verify", "--kind", "packing", "--splitter", str(path)])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "refuted"
        assert out["splitting"]["witness"]["kind"] == "zero"
        assert out["splitting"]["witness"]["e"] == [1, 1]

    def test_corrupted_json_is_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["verify", "--kind", "packing", "--splitter", str(path)]) == 2

    def test_unknown_family_is_exit_2(self, tmp_path):
        proc = run_cli(
            ["construct", "--family", "nonsense", "--out-dir", str(tmp_path)],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 2
        assert "'nonsense'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "family, flags",
        [
            ("bch-lattice", ["--p", "--m", "--d"]),
            ("bose-chowla-10", ["--q", "--t"]),
            ("bose-chowla-11", ["--q", "--t"]),
            ("sidon-2fold", ["--N", "--k"]),
            ("behrend-ruzsa", ["--D", "--K", "--p"]),
            ("covering-product", ["--p", "--m", "--t"]),
            ("lambda-random", ["--N", "--t"]),
        ],
    )
    def test_missing_family_flags_are_exit_2(self, tmp_path, family, flags):
        proc = run_cli(
            ["construct", "--family", family, "--out-dir", str(tmp_path)], cwd=str(tmp_path)
        )
        assert proc.returncode == 2
        assert f"needs {', '.join(flags)}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_inputs_is_exit_2(self):
        assert main(["verify", "--kind", "packing"]) == 2

    def test_bad_limits_is_exit_2(self):
        assert main(["--limits", "{oops", "table"]) == 2

    @pytest.mark.parametrize(
        "limits",
        ['{"enumeration": "x"}', '{"enumeration": -5}', '{"enumeration": true}',
         '{"nonsense": 5}', "[1]"],
    )
    def test_malformed_limits_are_exit_2(self, limits, capsys):
        assert main(["--limits", limits, "table"]) == 2
        assert "--limits" in capsys.readouterr().err

    def test_malformed_env_limits_is_exit_2(self, tmp_path, monkeypatch):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        monkeypatch.setenv("MAGBALL_LIMITS", '{"enumeration": "x"}')
        proc = run_cli(
            ["verify", "--kind", "packing", "--splitter", str(tmp_path / "bc.splitter.json")],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 2
        assert "MAGBALL_LIMITS" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_limits_override_applies(self, tmp_path):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        proc = run_cli(
            ["--limits", '{"enumeration": 3}', "verify", "--kind", "packing",
             "--splitter", str(tmp_path / "bc.splitter.json")],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 2
        assert "exceeds limit 3" in proc.stderr

    def test_splitter_with_lattice_is_exit_2(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        main(["construct", "--family", "bch-lattice", "--p", "3", "--m", "2", "--d", "5",
              "--kplus", "1", "--kminus", "1", "--out-dir", str(tmp_path), "--prefix", "bch"])
        capsys.readouterr()
        rc = main(
            ["verify", "--kind", "packing", "--splitter", str(tmp_path / "bc.splitter.json"),
             "--lattice", str(tmp_path / "bch.lattice.json")]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "not both" in captured.err and captured.out == ""

    def test_limits_do_not_outlast_the_call(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        argv = ["verify", "--kind", "packing", "--splitter", str(tmp_path / "bc.splitter.json")]
        assert main(["--limits", '{"enumeration": 5}', *argv]) == 2
        assert "exceeds limit 5" in capsys.readouterr().err
        assert main(argv) == 0


class TestDecodeCli:
    def test_modp_batch(self, tmp_path, capsys):
        main(
            ["construct", "--family", "bch-lattice", "--p", "3", "--m", "2",
             "--d", "5", "--kplus", "1", "--kminus", "1",
             "--out-dir", str(tmp_path), "--prefix", "bch"]
        )
        capsys.readouterr()
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[0,0,0,0,0,0,0,0]\n[1,0,0,-1,0,0,0,0]\n")
        out = tmp_path / "out.jsonl"
        rc = main(
            ["decode", "--context", str(tmp_path / "bch.decoder.json"),
             "--in", str(vectors), "--out", str(out)]
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [l["status"] for l in lines] == ["ok", "ok"]
        assert lines[1]["decoded"] == [0] * 8
        assert lines[1]["input"] == [1, 0, 0, -1, 0, 0, 0, 0]

    def test_s2_batch_with_failures(self, tmp_path, capsys):
        main(
            ["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
             "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"]
        )
        capsys.readouterr()
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[0,0,0,0]\n[1,1,0,0]\n[1,1,1,0]\n")
        out = tmp_path / "out.jsonl"
        rc = main(
            ["decode", "--context", str(tmp_path / "bc.decoder.json"),
             "--in", str(vectors), "--out", str(out)]
        )
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["status"] == "ok" and lines[1]["status"] == "ok"
        assert lines[1]["decoded"] == [0, 0, 0, 0]
        # weight 3 exceeds the radius: must not crash, may fail or miscorrect
        assert lines[2]["status"] in ("ok", "fail")


class TestTable:
    def test_expected_densities_present(self, capsys):
        assert main(["table"]) == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(text.splitlines()))
        by_family = {r["family"]: r for r in rows}
        assert len(rows) == 8
        bc10 = by_family["bose-chowla-10"]
        assert (bc10["density_num"], bc10["density_den"]) == ("7", "15")
        bc11 = by_family["bose-chowla-11"]
        assert (bc11["density_num"], bc11["density_den"]) == ("19", "40")
        cover = by_family["covering-product"]
        assert (cover["density_num"], cover["density_den"]) == ("22", "16")
        baseline = by_family["covering-baseline"]
        assert float(baseline["density_decimal"]) > float(cover["density_decimal"])
        assert all(
            r["verdict"] == "verified"
            or r["family"] in ("lambda-random", "covering-baseline")
            for r in rows
        )

    def test_table_is_deterministic(self, capsys):
        main(["table"])
        first = capsys.readouterr().out
        main(["table"])
        assert capsys.readouterr().out == first


class TestDensityCli:
    def test_splitter_density(self, tmp_path, capsys):
        main(
            ["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
             "--out-dir", str(tmp_path), "--prefix", "d"]
        )
        capsys.readouterr()
        rc = main(["density", "--splitter", str(tmp_path / "d.splitter.json")])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["density_num"], record["density_den"]) == (7, 15)

    def test_splitter_with_lattice_is_exit_2(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        capsys.readouterr()
        rc = main(["density", "--splitter", str(tmp_path / "bc.splitter.json"),
                   "--lattice", str(tmp_path / "missing.lattice.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "not both" in captured.err and captured.out == ""

    def test_lattice_density_with_explicit_ball(self, tmp_path, capsys):
        main(
            ["construct", "--family", "bch-lattice", "--p", "3", "--m", "2",
             "--d", "5", "--kplus", "1", "--kminus", "1",
             "--out-dir", str(tmp_path), "--prefix", "b"]
        )
        capsys.readouterr()
        rc = main(
            ["density", "--lattice", str(tmp_path / "b.lattice.json"),
             "--n", "8", "--t", "2", "--kplus", "1", "--kminus", "1"]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["density_num"], record["density_den"]) == (129, 729)
        assert record["density_decimal"] == "0.176955"


class TestVerifyLambdaCli:
    def test_lambda_report(self, tmp_path, capsys):
        main(
            ["construct", "--family", "lambda-random", "--N", "53", "--t", "2",
             "--kplus", "1", "--kminus", "0", "--epsilon", "0.25", "--seed", "1",
             "--out-dir", str(tmp_path), "--prefix", "s"]
        )
        capsys.readouterr()
        rc = main(
            ["verify", "--kind", "lambda", "--splitter",
             str(tmp_path / "s.splitter.json")]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["splitting"]["lambda"] >= 1
        assert report["splitting"]["histogram"] is not None


class TestSearchCli:
    def test_bt_search(self, capsys):
        assert main(["search", "--kind", "bt", "--N", "8", "--t", "2",
                     "--target-size", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"] == [0, 1, 3] and out["reached_target"]

    def test_sidon_search(self, capsys):
        assert main(["search", "--kind", "sidon", "--N", "7", "--k", "1",
                     "--target-size", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"] == [0, 1, 3]

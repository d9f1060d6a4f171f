import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import magball
import magball.algebra
import magball.lattice
from magball.algebra import FieldSpec
from magball.cli import FAMILIES, build_parser, main
from magball.errors import ResourceLimitError
from magball.limits import check
from references import TupleField

# The directory holding the ``magball`` package these tests imported.  A
# relative ``PYTHONPATH`` entry such as ``src`` does not survive the child's
# change of working directory, so the child is given this one first.
PACKAGE_ROOT = str(Path(magball.__file__).resolve().parent.parent)


def run_cli(args, cwd, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "magball.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


# One construct -> verify case per family, at its table flags, plus the s2
# variant of bose-chowla-10 (the one that also writes a decoder context).
CASES = [
    (["--family", name, *family.desk_flags()],
     {"lambda-packing": "lambda"}.get(family.kind, family.kind),
     "lattice" if name == "bch-lattice" else "splitter")
    for name, family in FAMILIES.items()
]
CASES.insert(2, (CASES[1][0] + ["--variant", "s2"], *CASES[1][1:]))

EXPECTED = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "expected.json")
                      .read_text(encoding="utf-8"))


class TestConstructVerifyIntegration:
    @pytest.mark.parametrize("flags,kind,artifact", CASES)
    def test_every_construct_output_passes_verify(self, tmp_path, flags, kind, artifact):
        prefix = "case"
        rc = main(["construct", *flags, "--out-dir", str(tmp_path), "--prefix", prefix])
        assert rc == 0
        path = tmp_path / f"{prefix}.{artifact}.json"
        assert path.exists()
        verify_args = ["verify", "--kind", kind, f"--{artifact}", str(path)]
        if artifact == "lattice":
            ball = json.loads((tmp_path / f"{prefix}.density.json").read_text())["ball"]
            verify_args += [f"--{key}={value}" for key, value in ball.items()]
        assert main(verify_args) == 0

    def test_registry_parameters_are_construct_flags(self):
        parser = build_parser()
        for name, family in FAMILIES.items():
            args = parser.parse_args(["construct", "--family", name, *family.desk_flags()])
            params = family.params.split()
            assert set(params) <= set(vars(args)) and len(family.desk.split()) == len(params), name

    def test_manifest_lists_digests(self, tmp_path):
        main(
            ["construct", "--family", "covering-product", "--p", "2", "--m", "2",
             "--t", "2", "--kplus", "1", "--kminus", "0",
             "--out-dir", str(tmp_path), "--prefix", "cp"]
        )
        manifest = json.loads((tmp_path / "cp.manifest.json").read_text())
        assert set(manifest["digests"]) == {"cp.splitter.json", "cp.density.json"}
        assert manifest["command"] == "construct"

    @pytest.mark.parametrize(
        "flags, seed",
        [
            (["--family", "bose-chowla-10", "--q", "4", "--t", "2"], None),
            (["--family", "lambda-random", "--N", "53", "--t", "2", "--kplus", "1",
              "--kminus", "0", "--epsilon", "0.25", "--seed", "7"], 7),
        ],
    )
    def test_manifest_seed_only_for_the_seeded_family(self, tmp_path, capsys, flags, seed):
        assert main(["construct", *flags, "--out-dir", str(tmp_path), "--prefix", "m"]) == 0
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest.get("seed") == seed and ("seed" in manifest) == (seed is not None)

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

    @pytest.mark.parametrize("argv", [["verify", "--kind", "packing"], ["density"]])
    def test_neither_splitter_nor_lattice_is_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: pass --splitter or --lattice: neither was given\n"
        assert captured.out == ""

    def test_limits_do_not_outlast_the_call(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--out-dir", str(tmp_path), "--prefix", "bc"])
        argv = ["verify", "--kind", "packing", "--splitter", str(tmp_path / "bc.splitter.json")]
        assert main(["--limits", '{"enumeration": 5}', *argv]) == 2
        assert "exceeds limit 5" in capsys.readouterr().err
        assert main(argv) == 0


P61 = 2**61 - 1  # a prime: trial division to its square root runs for minutes


class TestHugeInputs:
    """A value past the limit it is used under exits 2 at once, naming that
    limit, before a prime is tested by trial division and before a power
    too long to print is computed or formatted."""

    @pytest.mark.parametrize("argv,message", [
        (["construct", "--family", "bch-lattice", "--p", str(P61), "--m", "1", "--d", "3",
          "--kplus", "1", "--kminus", "1"], f"field_size workload {P61} exceeds"),
        (["construct", "--family", "bose-chowla-10", "--q", str(P61), "--t", "2"],
         f"field_size workload {P61**2} exceeds"),
        (["construct", "--family", "covering-product", "--p", str(P61), "--m", "1", "--t", "1",
          "--kplus", str(P61 - 1), "--kminus", "0"], f"group_order workload {P61} exceeds"),
        (["construct", "--family", "behrend-ruzsa", "--kplus", "1", "--kminus", "0", "--D", "2",
          "--K", "1", "--p", str(P61)], f"group_order workload {4 * P61**2} exceeds"),
        (["decode", "--context", "p61.decoder.json", "--in", "in.jsonl"],
         f"field_size workload {P61} exceeds"),
        (["construct", "--family", "bose-chowla-10", "--q", "3", "--t", "100000"],
         "field_size workload 3^100000 exceeds limit 1048576"),
        (["construct", "--family", "covering-product", "--p", "2", "--m", "20000", "--t", "1",
          "--kplus", "1", "--kminus", "0"], "group_order workload 2^20000 exceeds limit 16777216"),
        (["construct", "--family", "bch-lattice", "--p", "3", "--m", "10000000", "--d", "5",
          "--kplus", "1", "--kminus", "1"], "field_size workload 3^10000000 exceeds limit 1048576"),
        (["construct", "--family", "covering-product", "--p", "2", "--m", "2", "--t", "1000000000",
          "--kplus", "1", "--kminus", "0"], "group_order workload 4^1000000000 exceeds limit 16777216"),
        (["construct", "--family", "behrend-ruzsa", "--kplus", "1", "--kminus", "0", "--D", "100000",
          "--K", "1", "--p", "17"], "(alpha K + 1)^D = 4^100000 exceeds p = 17"),
    ], ids=["bch-p", "bc10-q", "covering-p", "behrend-p", "decode-p", "bc10-t", "covering-m", "bch-m",
            "covering-t", "behrend-D"])
    def test_exit_2_within_a_second(self, tmp_path, argv, message):
        context = {"type": "s2", "q": 3, "t": 2, "N": 13,
                   "field": {"p": P61, "m": 1, "modulus": [1, 1]},
                   "alphas": [[0]], "svals": [1], "betas": [[1]]}
        (tmp_path / "p61.decoder.json").write_text(json.dumps(context))
        (tmp_path / "in.jsonl").write_text("[1,0,0,0]\n")
        started = time.perf_counter()
        proc = run_cli(argv, cwd=str(tmp_path), timeout=30)
        assert time.perf_counter() - started < 1
        assert proc.returncode == 2 and message in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_a_workload_too_long_to_print_is_named_by_its_bits(self):
        with pytest.raises(ResourceLimitError,
                           match="^enumeration workload of 16610 bits exceeds limit 1000000$"):
            check("enumeration", 10**5000)
        with pytest.raises(ResourceLimitError, match="^enumeration workload 1000001 exceeds"):
            check("enumeration", 10**6 + 1)


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

    def test_csv_matches_the_benchmark_pin(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        # Text-mode reading turns the csv module's "\r\n" into "\n", as the
        # benchmark's reading of stdout does.
        assert out.read_text(encoding="utf-8") == EXPECTED["jobs"]["table"]["stdout"]


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


VERIFY_AND_DENSITY = [["verify", "--kind", "packing"], ["density"]]


@pytest.fixture
def artifacts(tmp_path, capsys):
    """The bose-chowla-10 q=4 splitter set and the bch 3,2,5 lattice."""
    main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
          "--out-dir", str(tmp_path), "--prefix", "bc"])
    main(["construct", "--family", "bch-lattice", "--p", "3", "--m", "2", "--d", "5",
          "--kplus", "1", "--kminus", "1", "--out-dir", str(tmp_path), "--prefix", "bch"])
    capsys.readouterr()
    return str(tmp_path / "bc.splitter.json"), str(tmp_path / "bch.lattice.json")


class TestBallSource:
    @pytest.mark.parametrize("command", VERIFY_AND_DENSITY)
    @pytest.mark.parametrize(
        "ball",
        [
            # A ball the splitting checker does not scan: this exited 3 (oracle
            # disagreement) when the geometric oracle took the flags' ball.
            ["--n", "3", "--t", "2", "--kplus", "2", "--kminus", "0"],
            ["--t", "3"], ["--t", "0"], ["--n", "3"], ["--kplus", "1"], ["--kminus", "0"],
        ],
    )
    def test_splitter_with_ball_flags_is_exit_2(self, artifacts, capsys, command, ball):
        assert main([*command, "--splitter", artifacts[0], *ball]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "carries its own ball" in captured.err

    @pytest.mark.parametrize("command", VERIFY_AND_DENSITY)
    def test_lattice_ball_defaults_to_the_lattice_n(self, artifacts, capsys, command):
        assert main([*command, "--lattice", artifacts[1], "--t", "2", "--kminus", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["ball"] == {
            "n": 8, "t": 2, "kplus": 1, "kminus": 1}

    # This printed density 51/729 and exited 0 on density, and exited 2 on verify.
    @pytest.mark.parametrize("command", VERIFY_AND_DENSITY)
    def test_n_other_than_the_lattice_n_is_exit_2(self, artifacts, capsys, command):
        flags = ["--n", "5", "--t", "2", "--kplus", "1", "--kminus", "1"]
        assert main([*command, "--lattice", artifacts[1], *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n 5" in captured.err and artifacts[1] in captured.err and "n = 8" in captured.err

    @pytest.mark.parametrize("command", VERIFY_AND_DENSITY)
    def test_ball_option_is_gone(self, artifacts, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--splitter", artifacts[0], "--ball", artifacts[0]])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ball" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, ball, num",
        [
            ([], {"n": 8, "t": 1, "kplus": 1, "kminus": 0}, 9),
            (["--t", "0"], {"n": 8, "t": 0, "kplus": 1, "kminus": 0}, 1),
            (["--t", "2", "--kminus", "1"], {"n": 8, "t": 2, "kplus": 1, "kminus": 1}, 129),
        ],
    )
    def test_lattice_ball_defaults_fill_absent_flags_only(self, artifacts, capsys, flags, ball, num):
        assert main(["density", "--lattice", artifacts[1], "--n", "8", *flags]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ball"] == ball and record["density_num"] == num


class TestMalformedInput:
    def test_missing_decode_input_is_exit_2(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        capsys.readouterr()
        rc = main(["decode", "--context", str(tmp_path / "bc.decoder.json"),
                   "--in", str(tmp_path / "missing.jsonl")])
        assert rc == 2 and "missing.jsonl" in capsys.readouterr().err

    def test_table_out_in_missing_directory_is_exit_2(self, tmp_path, capsys):
        assert main(["table", "--out", str(tmp_path / "nodir" / "x.csv")]) == 2
        assert "nodir" in capsys.readouterr().err

    def test_construct_out_dir_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        rc = main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
                   "--out-dir", str(tmp_path / "taken")])
        assert rc == 2 and "taken" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, document",
        [
            (["verify", "--kind", "packing", "--splitter"], [1, 2]),
            (["verify", "--kind", "packing", "--splitter"], {"group": [8], "elements": [[1]]}),
            (["verify", "--kind", "packing", "--splitter"], {"group": 8, "elements": [[1]],
                                                            "kplus": 1, "kminus": 0, "t": 1}),
            (["density", "--n", "1", "--lattice"], []),
            (["density", "--n", "1", "--lattice"], {"n": 1, "rows": [[2]]}),
            (["decode", "--context"], ["modp"]),
            (["decode", "--context"], {"type": "modp"}),
            (["decode", "--context"], {"type": "s2", "q": 4}),
            # Rows wider than n: this loaded as the identity basis of Z^2.
            (["density", "--lattice"], {"n": 2, "rows": [[1, 0, 5], [0, 1, 7]], "volume": "1"}),
        ],
    )
    def test_document_of_the_wrong_shape_is_exit_2(self, tmp_path, capsys, command, document):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(path) in captured.err

    # An s2-q4-t2 context lives in F_2^6; position 1's alpha is replaced.
    @pytest.mark.parametrize(
        "key, element",
        [
            ("alphas", [1, 0, 0, 0, 0, 0, 0]),
            ("alphas", [3, 0, 0, 0, 0, 0]),
            ("alphas", "1"),
            ("alphas", ["1", 0, 0, 0, 0, 0]),
            ("alphas", [1, 0, 0, 0, 0]),
            ("betas", [True, 0, 0, 0, 0, 0]),
        ],
    )
    def test_malformed_s2_field_element_is_exit_2(self, tmp_path, capsys, key, element):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        context = tmp_path / "bc.decoder.json"
        data = json.loads(context.read_text())
        data[key][1] = element
        context.write_text(json.dumps(data))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[0,0,0,0]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"{element!r} is not an element of F_2^6" in captured.err

    @pytest.mark.parametrize("elements", [[1, [3], [7]], [["x"]], [[1.5]]])
    def test_splitter_element_that_is_not_a_list_of_ints_is_exit_2(self, tmp_path, capsys, elements):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"group": [8], "elements": elements, "kplus": 1,
                                    "kminus": 0, "t": 1}))
        assert main(["verify", "--kind", "packing", "--splitter", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "is not a list of integer residues" in captured.err

    @pytest.mark.parametrize("document", ["s2-context", "splitter"])
    def test_domain_error_below_from_json_names_the_file(self, tmp_path, capsys, document):
        if document == "s2-context":
            main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
                  "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
            path = tmp_path / "bc.decoder.json"
            data = json.loads(path.read_text())
            data["alphas"][1] = [1, 0, 0, 0, 0, 0, 0]
            vectors = tmp_path / "in.jsonl"
            vectors.write_text("[0,0,0,0]\n")
            command = ["decode", "--context", str(path), "--in", str(vectors)]
        else:
            path = tmp_path / "doc.json"
            data = {"group": [8], "elements": [1, [3], [7]], "kplus": 1, "kminus": 0, "t": 1}
            command = ["verify", "--kind", "packing", "--splitter", str(path)]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {path}: " in captured.err

    # The context of q = 4, t = 2 has N = 21 over F_64.  Unchecked, N = 0
    # would divide by zero in the decoder, and N = 22 and t = -1 would decode.
    @pytest.mark.parametrize(
        "key,value,message",
        [("N", 0, "need N = "), ("N", 22, "need N = "), ("t", -1, "need t >= 2"),
         ("t", 3, "field of size q^(t+1)"), ("q", 8, "field of size q^(t+1)")],
    )
    def test_s2_context_parameters_that_do_not_fit_are_exit_2(self, tmp_path, capsys, key,
                                                              value, message):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        context = tmp_path / "bc.decoder.json"
        data = json.loads(context.read_text())
        assert (data["q"], data["t"], data["N"]) == (4, 2, 21)
        data[key] = value
        context.write_text(json.dumps(data))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[1,0,0,0]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"error: {context}: " in captured.err and message in captured.err

    # The F_64 modulus of that context with its x coefficient raised or
    # lowered by 2: the same polynomial mod 2, but not written in [0, 2).
    @pytest.mark.parametrize("delta", [2, -2])
    def test_s2_context_modulus_outside_f_p_is_exit_2(self, tmp_path, capsys, delta):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        context = tmp_path / "bc.decoder.json"
        data = json.loads(context.read_text())
        data["field"]["modulus"][1] += delta
        context.write_text(json.dumps(data))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[1,0,0,0]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"error: {context}: modulus coefficients must lie in [0, 2)" in captured.err

    # Raising s_0 by 1 and dividing beta_0 by x keeps beta_0 * x^s_0 = x, so
    # the relation holds in the whole field, but beta_0 leaves the subfield
    # of size 4 that the decoder computes in.
    def test_s2_context_beta_outside_the_subfield_is_exit_2(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        context = tmp_path / "bc.decoder.json"
        data = json.loads(context.read_text())
        ref = TupleField(FieldSpec.from_json(data["field"]))
        data["svals"][0] += 1
        data["betas"][0] = list(ref.mul(tuple(data["betas"][0]), ref.inv(ref.gen)))
        context.write_text(json.dumps(data))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[1,0,0,0]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert (f"error: {context}: {data['betas'][0]} lies outside the subfield of size 4"
                in captured.err)

    # x^6 + 1 = (x^3 + 1)^2 over F_2: x has order 6, not 63.
    def test_s2_context_modulus_that_is_not_primitive_is_exit_2(self, tmp_path, capsys):
        main(["construct", "--family", "bose-chowla-10", "--q", "4", "--t", "2",
              "--variant", "s2", "--out-dir", str(tmp_path), "--prefix", "bc"])
        context = tmp_path / "bc.decoder.json"
        data = json.loads(context.read_text())
        data["field"]["modulus"] = [1, 0, 0, 0, 0, 0, 1]
        context.write_text(json.dumps(data))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[1,0,0,0]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"error: {context}: modulus is not primitive" in captured.err

    def test_s2_context_field_above_field_size_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # q = 128, t = 2 fits F_{2^21} (x^21 + x^2 + 1), past the 2^20
        # field_size limit: refused before any power of x is walked.
        built = []
        monkeypatch.setattr(magball.algebra, "_packed_ring", lambda *a: built.append(a))
        context = tmp_path / "big.decoder.json"
        context.write_text(json.dumps({
            "type": "s2", "q": 128, "t": 2, "N": 16513,
            "field": {"p": 2, "m": 21, "modulus": [1, 0, 1] + [0] * 18 + [1]},
            "alphas": [[0] * 21], "svals": [1], "betas": [[1] + [0] * 20],
        }))
        vectors = tmp_path / "in.jsonl"
        vectors.write_text("[1]\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(context), "--in", str(vectors)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "field_size" in captured.err
        assert built == []

    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_error_below_from_json_is_not_exit_2(self, artifacts, monkeypatch, error):
        def broken(*args):
            raise error("bug")

        monkeypatch.setattr(magball.lattice, "basis_from_rows", broken)
        with pytest.raises(error):
            main(["density", "--lattice", artifacts[1], "--n", "8"])

    @pytest.mark.parametrize(
        "line", ["[1.7,0,0,0,0,0,0,2.9]", "[true,0,0,0,0,0,0,0]", '["2",0,0,0,0,0,0,0]',
                 '{"a": 1}', "5"],
    )
    def test_non_integer_decode_entries_are_exit_2(self, tmp_path, capsys, line):
        main(["construct", "--family", "bch-lattice", "--p", "3", "--m", "2", "--d", "5",
              "--kplus", "1", "--kminus", "1", "--out-dir", str(tmp_path), "--prefix", "bch"])
        vectors = tmp_path / "in.jsonl"
        vectors.write_text(f"[0,0,0,0,0,0,0,0]\n{line}\n")
        capsys.readouterr()
        rc = main(["decode", "--context", str(tmp_path / "bch.decoder.json"),
                   "--in", str(vectors), "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert "bad input line 2" in capsys.readouterr().err


def _set(key, value):
    return lambda data: data.update({key: value})


def _set_code(key, value):
    return lambda data: data["code"].update({key: value})


def _float_svals(data):
    data["svals"] = [float(s) for s in data["svals"]]


# A tiny artifact of each kind that exits 0 as written: the construct flags
# that write it (None: the document itself), and the command that reads it.
_NUMBER_BASES = {
    "splitter": ({"group": [5, 7], "elements": [[1, 0], [0, 1]], "kplus": 1, "kminus": 0,
                  "t": 1}, ["verify", "--kind", "packing", "--splitter"]),
    "lattice": ({"n": 2, "rows": [[1, 5], [0, 8]], "volume": "8"},
                ["verify", "--kind", "packing", "--n", "2", "--t", "2", "--lattice"]),
    "modp": (["--family", "bch-lattice", "--p", "2", "--m", "4", "--d", "5", "--kplus", "1",
              "--kminus", "0"], ["decode", "--context"]),
    "s2": (["--family", "bose-chowla-10", "--q", "3", "--t", "3", "--variant", "s2"],
           ["decode", "--context"]),
}


class TestExactIntegers:
    """``int()`` reads each number below as the stored one (and "57" as the
    moduli 5 and 7), so these documents were once read as their neighbours.
    Every integer field must be an exact JSON integer."""

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("splitter", _set("group", "57")),
            ("splitter", lambda data: data.update({"kplus": 1.9, "t": 1.5})),
            ("splitter", _set("kplus", True)),
            ("splitter", _set("elements", [[1, 0], [0, 1.0]])),
            ("lattice", _set("rows", [[1, 5.7], [0, 8]])),
            ("lattice", _set("n", 2.0)),
            ("lattice", _set("volume", 8)),
            ("modp", _set("kplus", 1.7)),
            ("modp", _set_code("d", 5.9)),
            ("modp", _set_code("p", "2")),
            ("s2", _set("t", 3.2)),
            ("s2", _float_svals),
            ("s2", lambda data: data["field"].update({"p": 3.0})),
        ],
        ids=["group-str", "kplus-t-float", "kplus-bool", "residue-float", "row-float",
             "n-float", "volume-int", "kplus-float", "d-float", "p-str", "t-float",
             "svals-float", "field-p-float"],
    )
    def test_inexact_number_is_exit_2(self, tmp_path, capsys, kind, edit):
        base, command = _NUMBER_BASES[kind]
        path = tmp_path / "doc.json"
        if isinstance(base, dict):
            path.write_text(json.dumps(base))
        else:
            main(["construct", *base, "--out-dir", str(tmp_path), "--prefix", "doc"])
            path = tmp_path / "doc.decoder.json"
        argv = [*command, str(path)]
        if kind in ("modp", "s2"):
            data = json.loads(path.read_text())
            vectors = tmp_path / "in.jsonl"
            vectors.write_text(json.dumps([0] * (data.get("q") or data["code"]["n"])) + "\n")
            argv += ["--in", str(vectors)]
        capsys.readouterr()
        assert main(argv) == 0
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {path}: " in captured.err


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

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "bt", "--N", "10", "--t", "-1", "--target-size", "3"],
            ["--kind", "bt", "--N", "10", "--t", "0", "--target-size", "3"],
            ["--kind", "bt", "--N", "0", "--target-size", "3"],
            ["--kind", "sidon", "--N", "-7", "--target-size", "3"],
            ["--kind", "sidon", "--N", "7", "--k", "0", "--target-size", "3"],
            ["--kind", "bt", "--N", "10", "--target-size", "-1"],
            ["--kind", "sidon", "--N", "7", "--target-size", "0"],
        ],
    )
    def test_bad_arguments_are_exit_2(self, tmp_path, args):
        proc = run_cli(["search", *args], cwd=str(tmp_path))
        assert proc.returncode == 2
        assert "need " in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--kind", "bt", "--N", "10", "--k", "0", "--target-size", "3"], "--k"),
            (["--kind", "sidon", "--N", "7", "--t", "-5", "--target-size", "3"], "--t"),
            (["--kind", "sidon", "--N", "7", "--t", "2", "--target-size", "3"], "--t"),
        ],
    )
    def test_the_other_kinds_flag_is_exit_2(self, tmp_path, args, flag):
        proc = run_cli(["search", *args], cwd=str(tmp_path))
        assert proc.returncode == 2
        assert f"{flag} does not apply" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "kind, N, key, default",
        [("bt", "8", "t", 2), ("sidon", "7", "k", 1)],
    )
    def test_own_flag_defaults(self, capsys, kind, N, key, default):
        assert main(["search", "--kind", kind, "--N", N, "--target-size", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[key] == default and out["elements"] == [0, 1, 3]
        assert ("k" if key == "t" else "t") not in out

    def test_bad_sidon_family_arguments_are_exit_2(self, tmp_path):
        proc = run_cli(
            ["construct", "--family", "sidon-2fold", "--N", "31", "--k", "0",
             "--out-dir", str(tmp_path)],
            cwd=str(tmp_path),
        )
        assert proc.returncode == 2
        assert "need k >= 1" in proc.stderr and "Traceback" not in proc.stderr

    # The enumeration workload of the full check of the last element's set:
    # 8^4 (2k+1)^3 for an 8-element 2-fold Sidon set, C(9+1, 2) for a
    # 9-element B_2 set.  One below it stops the search; at it, the search
    # finishes with the result it gives under the default limits.
    @pytest.mark.parametrize(
        "args, load, elements",
        [
            (["--kind", "sidon", "--N", "301", "--k", "2", "--target-size", "8"],
             8**4 * 5**3, [0, 1, 4, 11, 27, 39, 48, 84]),
            (["--kind", "bt", "--N", "80", "--t", "2", "--target-size", "9"],
             45, [0, 1, 3, 9, 22, 27, 34, 38, 66]),
        ],
    )
    def test_enumeration_limit_stops_at_the_last_element(self, capsys, args, load, elements):
        limit = '{"enumeration": %d}'
        assert main(["--limits", limit % (load - 1), "search", *args]) == 2
        assert f"enumeration workload {load} exceeds limit {load - 1}" in capsys.readouterr().err
        assert main(["--limits", limit % load, "search", *args]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"] == elements and out["reached_target"]

import json
import math

import pytest

from conerig import cli
from conerig.cli import run
from conerig.manifest import fixture_path, load_manifest


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, report = invoke(capsys, ["validate", str(fixture_path("torus.json"))])
        assert code == 0
        assert report["valid"] is True
        assert report["relator_residual"] < 1e-8

    def test_missing_file(self, capsys):
        code = run(["validate", "does-not-exist.json"])
        assert code == 2

    def test_broken_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1}')
        assert run(["validate", str(bad)]) == 2

    def test_failing_relator_is_named(self, tmp_path, capsys):
        doc = json.loads(fixture_path("torus.json").read_text())
        doc["relators"] = ["abAB", "a"]
        bad = tmp_path / "bad-relator.json"
        bad.write_text(json.dumps(doc))
        code = run(["validate", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["valid"] is False
        assert captured.err.startswith("error: /relators/1: relator residual ")
        assert captured.err.endswith(" exceeds 1.0e-08\n")
        for command in ("cohomology", "rigidity"):
            assert run([command, str(bad)]) == 2
            assert capsys.readouterr().err == captured.err


class TestCohomology:
    def test_torus_dims(self, capsys):
        code, report = invoke(capsys, ["cohomology", str(fixture_path("torus.json"))])
        assert code == 0
        dims = report["cohomology"]
        assert (
            dims["dim_Z0_complex"],
            dims["dim_Z1_complex"],
            dims["dim_B1_complex"],
            dims["dim_H1_complex"],
        ) == (1, 4, 2, 2)

    def test_pair_reports_factors(self, capsys):
        code, report = invoke(
            capsys, ["cohomology", str(fixture_path("spherical-torus.json"))]
        )
        assert code == 0
        factors = report["cohomology"]["factors"]
        assert [f["dim_H1"] for f in factors] == [2, 2]

    def test_audit_flag(self, capsys):
        code, report = invoke(
            capsys, ["cohomology", str(fixture_path("cusped.json")), "--audit"]
        )
        assert code == 0
        assert all(i["holds"] for i in report["audit"]["identities"])

    @pytest.mark.parametrize(
        "name,factors,code", [("cusped.json", 1, 0), ("spherical-torus.json", 2, 1)]
    )
    def test_audit_reuses_the_interior_h1(self, name, factors, code, monkeypatch, capsys):
        # H1 is computed once per factor for the interior, wherever it runs.
        # cusped's boundary words induce other images and take one more;
        # spherical-torus's boundary words are its generators, and each
        # factor's boundary takes the interior's report.
        from conerig import cohomology

        calls = []
        real = cohomology._h1
        monkeypatch.setattr(cohomology, "_h1", lambda rho, *rest: calls.append(rho) or real(rho, *rest))
        assert run(["cohomology", str(fixture_path(name)), "--audit"]) == code
        boundary_h1 = {"cusped.json": 1, "spherical-torus.json": 0}[name]
        assert len(calls) == factors + boundary_h1 == 2

    @pytest.mark.parametrize("command", [["rigidity"], ["cohomology", "--audit"]])
    def test_a_pair_walks_each_word_once_per_factor(self, command, monkeypatch, capsys):
        # One prefix walk per factor for each relator, and for each meridian
        # (rigidity) or boundary word (the audit); one adjoint_stack per
        # factor's Fox pass, and one more for its Z0 and B1.
        from conerig import cohomology, words

        path = fixture_path("spherical-torus.json")
        m = load_manifest(path)
        walks, ads = [], []
        for module in (words, cohomology):
            real_walk, real_ad = module.prefix_walk, module.adjoint_stack
            monkeypatch.setattr(
                module, "prefix_walk", lambda *a, real=real_walk: walks.append(a[1]) or real(*a)
            )
            monkeypatch.setattr(
                module, "adjoint_stack", lambda *a, real=real_ad, mod=module: ads.append(mod) or real(*a)
            )
        assert run([command[0], str(path), *command[1:]]) == 1
        if command == ["rigidity"]:
            per_factor = [*m.presentation.relators, *(mer.word for mer in m.presentation.meridians)]
        else:
            per_factor = [*m.presentation.relators, *m.boundary[0].words]
        assert sorted(walks) == sorted(2 * per_factor)
        assert ads.count(words) == ads.count(cohomology) == 2 and len(ads) == 4


class TestRigidity:
    def test_pants_rigid(self, capsys):
        code, report = invoke(capsys, ["rigidity", str(fixture_path("pants.json"))])
        assert code == 0
        assert report["rigidity"]["verdict"] == "LocallyRigid"

    def test_torus_fails(self, capsys):
        code, report = invoke(capsys, ["rigidity", str(fixture_path("torus.json"))])
        assert code == 1
        assert report["rigidity"]["verdict"] == "RankDeficient"


class TestSpectrum:
    def test_circle_example(self, capsys):
        code, report = invoke(
            capsys,
            [
                "spectrum",
                "circle",
                "--alpha",
                "3.14159265",
                "--hol-angle",
                "3.14159265",
                "--window",
                "4",
            ],
        )
        assert code == 0
        values = report["spectrum"]["values"]
        assert report["spectrum"]["gap_ok"] is True
        rounded = sorted(set(round(v, 6) for v in values))
        assert rounded == [-3.0, -1.0, 1.0, 3.0]

    def test_link_failing(self, capsys):
        code, report = invoke(
            capsys, ["spectrum", "link", "--lambda", "0.5", "--window", "3"]
        )
        assert code == 1
        assert report["spectrum"]["gap_ok"] is False

    def test_circle_b_operator(self, capsys):
        code, report = invoke(
            capsys,
            ["spectrum", "circle", "--operator", "b", "--alpha", str(2 * math.pi),
             "--trivial-rank", "1", "--window", "3"],
        )
        assert code == 0
        assert report["spectrum"]["min_abs"] == 0.5


class TestAdmissibility:
    def test_pants_graph(self, capsys):
        code, report = invoke(capsys, ["admissibility", str(fixture_path("pants.json"))])
        assert code == 0
        assert report["admissibility"]["admissible"] is True

    def test_wide_angle_fails(self, tmp_path, capsys):
        doc = json.loads(fixture_path("torus.json").read_text())
        doc["singular_graph"]["edges"][0]["angle"] = 4.8
        doc["meridians"][0]["cone_angle"] = 4.8
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps(doc))
        code, report = invoke(capsys, ["admissibility", str(bad)])
        assert code == 1
        assert report["admissibility"]["admissible"] is False


class TestForms:
    def test_ang_divergent(self, capsys):
        code, report = invoke(
            capsys,
            ["forms", "--profile", "ang", "--kappa", "-1", "--eps", "0.5"],
        )
        assert code == 0
        assert report["tube"]["verdict"] == "Divergent"

    def test_len_convergent(self, capsys):
        code, report = invoke(
            capsys, ["forms", "--profile", "len", "--kappa", "0", "--eps", "0.5"]
        )
        assert code == 0
        assert report["tube"]["verdict"] == "Convergent"


class TestOracle:
    def test_defaults_pass(self, capsys):
        code, report = invoke(capsys, ["oracle", "--grid", "128", "--samples", "5"])
        assert code == 0
        assert report["monotone_in_b"] is True
        assert report["decay_bounds"]["pass"] is True

    @pytest.mark.parametrize("bs", [["1", "2"], ["2", "1"], ["1", "1"]])
    def test_monotonicity_ignores_order_and_repetition_of_b(self, capsys, bs, monkeypatch):
        calls = []
        original = cli.pb_min_singular

        def counted(b, kappa, grid):
            calls.append(b)
            return original(b, kappa, grid)

        monkeypatch.setattr(cli, "pb_min_singular", counted)
        argv = ["oracle", "--grid", "64", "--samples", "1"]
        for b in bs:
            argv += ["--b", b]
        code, report = invoke(capsys, argv)
        assert code == 0
        assert report["monotone_in_b"] is True
        # the report keeps the given order; sigma is computed once per distinct b
        assert [row["b"] for row in report["radial_lower_bound"]] == [float(b) for b in bs]
        assert sorted(calls) == sorted({float(b) for b in bs})
        sigma = {row["b"]: row["sigma_min"] for row in report["radial_lower_bound"]}
        assert all(row["sigma_min"] == sigma[row["b"]] for row in report["radial_lower_bound"])


class TestContract:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["rigidity", str(fixture_path("pants.json")), "--bogus"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_deterministic_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert run(["cohomology", str(fixture_path("torus.json")), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        path = str(fixture_path("pants.json"))
        code, _ = invoke(capsys, ["rigidity", path])
        out = tmp_path / "r.json"
        run(["rigidity", path, "--out", str(out)])
        capsys.readouterr()
        code2 = run(["rigidity", path])
        stdout = capsys.readouterr().out
        assert stdout == out.read_text()

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_help = ["spectrum", "--help"]
            from conerig.cli import build_parser

            build_parser().parse_args(run_help)
        help_text = capsys.readouterr().out
        assert "--hol-angle" in help_text
        assert "--window" in help_text

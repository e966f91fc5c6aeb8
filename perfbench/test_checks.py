"""The benchmark's correctness checks accept real outputs and reject perturbed ones.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from conerig import cli, cohomology  # noqa: E402

FIX = ROOT / "src" / "conerig" / "fixtures"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def doc(name):
    return json.loads((FIX / f"{name}.json").read_text())


def edited(out: str, edit) -> str:
    rep = json.loads(out)
    edit(rep)
    return json.dumps(rep)


def rejects(fn, code, out, err=""):
    with pytest.raises(checks.CheckFailed):
        fn(code, out, err)


# ---------------------------------------------------------------------------
# fixtures


def test_validate_residual_matches_numpy_product():
    d = doc("genus2-su2")
    code, out, err = run(["validate", FIX / "genus2-su2.json"])
    checks.check_validate(d, code, out, err)
    bump = edited(out, lambda r: r.update(relator_residual=r["relator_residual"] + 1e-9))
    rejects(lambda *a: checks.check_validate(d, *a), code, bump)
    rejects(lambda *a: checks.check_validate(d, *a), 2, out)
    invalid = edited(out, lambda r: r.update(valid=False))
    rejects(lambda *a: checks.check_validate(d, *a), code, invalid)


@pytest.mark.parametrize("name", ["torus", "genus2-su2", "cusped", "spherical-torus"])
def test_cohomology_dimensions_off_by_one(name):
    d = doc(name)
    dims, _ = workloads.FIXTURES[name]
    fn = lambda *a: checks.check_cohomology(d, dims, True, *a)  # noqa: E731
    code, out, err = run(["cohomology", FIX / f"{name}.json", "--audit"])
    fn(code, out, err)

    def bump(r):
        payload = r["cohomology"]
        target = payload["factors"][0] if "factors" in payload else payload
        target["dim_H1"] += 1

    rejects(fn, code, edited(out, bump))
    rejects(fn, 1 - code, out)


def test_known_dimensions_of_named_fixtures():
    assert checks.expected_dims("SL2C", workloads.FIXTURES["torus"][0])["dim_H1_complex"] == 2
    assert workloads.FIXTURES["torus"][0] == (1, 4, 2, 2)
    z0, z1, b1, h1 = workloads.FIXTURES["genus2-su2"][0]
    assert (z1, h1, b1) == (9, 6, 3)
    assert workloads.FIXTURES["cusped"][0][3] == 1


def test_cusped_audit_identities_must_hold():
    d = doc("cusped")
    dims, _ = workloads.FIXTURES["cusped"]
    fn = lambda *a: checks.check_cohomology(d, dims, True, *a)  # noqa: E731
    code, out, err = run(["cohomology", FIX / "cusped.json", "--audit"])
    assert code == 0
    fn(code, out, err)
    flipped = edited(out, lambda r: r["audit"]["identities"][1].update(holds=False))
    rejects(fn, code, flipped)


@pytest.mark.parametrize("name", ["cusped", "torus", "abelian-torus"])
def test_rigidity_verdict_and_exit_code(name):
    d = doc(name)
    dims, verdict = workloads.FIXTURES[name]
    fn = lambda *a: checks.check_rigidity(d, dims[3], verdict, *a)  # noqa: E731
    code, out, err = run(["rigidity", FIX / f"{name}.json"])
    fn(code, out, err)
    other = "RankDeficient" if verdict == "LocallyRigid" else "LocallyRigid"
    rejects(fn, code, edited(out, lambda r: r["rigidity"].update(verdict=other)))
    rejects(fn, 1 - code, out)
    rejects(fn, code, edited(out, lambda r: r["rigidity"].update(rank=r["rigidity"]["rank"] + 1)))


def test_admissible_for_angles_up_to_pi():
    d = doc("pants")
    code, out, err = run(["admissibility", FIX / "pants.json"])
    checks.check_admissibility(d, code, out, err)
    flipped = edited(out, lambda r: r["admissibility"].update(admissible=False))
    rejects(lambda *a: checks.check_admissibility(d, *a), code, flipped)


def test_conjugated_pants_must_agree():
    seen = {"rigidity:pants": {"verdict": "LocallyRigid", "rank": 3, "dim_h1": 3}}
    checks.check_agrees("rigidity:pants", seen, {"verdict": "LocallyRigid", "rank": 3, "dim_h1": 3})
    with pytest.raises(checks.CheckFailed):
        checks.check_agrees("rigidity:pants", seen, {"verdict": "LocallyRigid", "rank": 2, "dim_h1": 3})


def test_fixture_pass_succeeds_except_the_nan_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.build_fixtures(5, tmp_path)
    seen = {}
    failed = []
    for op in wl.ops:
        try:
            seen[op.name] = op.check(*run(op.argv), seen)
        except checks.CheckFailed:
            failed.append(op.name)
    known = [op.name for op in wl.ops if op.known_fault]
    # The NaN manifest passes validation today; the check must keep failing it.
    assert failed == known == ["validate:torus-nan"]


def test_nan_manifest_needs_exit_2_with_a_pointer():
    checks.check_rejected(2, "", "error: /holonomy/a/0/0: non-finite entry\n")
    rejects(checks.check_rejected, 0, '{"valid": true}')
    rejects(checks.check_rejected, 2, "", "error: SVD did not converge\n")


# ---------------------------------------------------------------------------
# spectra


def test_circle_gap_verdict_matches_closed_form():
    for alpha, a in [(1.3, 2.9), (1.3, 0.2), (2.0, math.pi)]:
        ok = checks.circle_gap_ok(alpha, a)
        code, out, err = run(["spectrum", "circle", "--alpha", alpha, "--hol-angle", a,
                              "--window", 4])
        fn = lambda *x: checks.check_circle(alpha, a, 4.0, *x)  # noqa: E731
        fn(code, out, err)
        rejects(fn, code, edited(out, lambda r: r["spectrum"].update(gap_ok=not ok)))
        rejects(fn, 1 - code, out)
    assert checks.circle_gap_ok(2.0, math.pi) and not checks.circle_gap_ok(1.3, 0.2)


def test_circle_inputs_keep_a_value_in_the_window(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for seed in range(200):
        circles = workloads.build_fixtures(seed, tmp_path).inputs["circles"]
        assert all(checks.circle_values(alpha, a, 4.0) for alpha, a in circles)
        assert [checks.circle_gap_ok(alpha, a) for alpha, a in circles] == [True, False] * 2


def test_link_spectrum_values_and_gap():
    code, out, err = run(["spectrum", "link", "--lambda", 0.3, "--lambda", 2.0,
                          "--h0-dim", 1, "--window", 3])
    assert code == 1
    checks.check_link([0.3, 2.0], 1, 3.0, code, out, err)
    shifted = edited(out, lambda r: r["spectrum"]["values"].__setitem__(0, r["spectrum"]["values"][0] + 1e-6))
    rejects(lambda *x: checks.check_link([0.3, 2.0], 1, 3.0, *x), code, shifted)


# ---------------------------------------------------------------------------
# radial


@pytest.fixture(scope="module")
def refs256():
    bs = workloads.ORACLE_BS
    return {
        "sigma": {(256, k, float(b)): reference.sigma_min(256, k, float(b))
                  for k in (-1, 0, 1) for b in bs},
        "bessel": {float(b): reference.first_bessel_zero(b + 0.5) for b in bs},
    }


def test_reference_closed_forms():
    assert math.isclose(reference.sigma_min(512, 1, 0.0), checks.sigma_b0(512), rel_tol=1e-10)
    assert math.isclose(reference.first_bessel_zero(0.5), math.pi, rel_tol=1e-14)


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_oracle_sigma_perturbed_by_1e_4(kappa, refs256):
    bs = [float(b) for b in workloads.ORACLE_BS]
    fn = lambda *a: checks.check_oracle(256, kappa, bs, 1, refs256, *a)  # noqa: E731
    argv = ["oracle", "--grid", 256, "--kappa", kappa, "--samples", 1]
    for b in workloads.ORACLE_BS:
        argv += ["--b", b]
    code, out, err = run(argv)
    fn(code, out, err)
    for k in range(len(bs)):
        bumped = edited(out, lambda r: r["radial_lower_bound"][k].update(
            sigma_min=r["radial_lower_bound"][k]["sigma_min"] * (1 + 1e-4)))
        rejects(fn, code, bumped)
    b0 = edited(out, lambda r: r["radial_lower_bound"][0].update(
        sigma_min=r["radial_lower_bound"][0]["sigma_min"] * (1 + 1e-11)))
    rejects(fn, code, b0)
    slack = edited(out, lambda r: r["decay_bounds"].update(min_slack_t_b1=-1e-5))
    rejects(fn, code, slack)
    rejects(fn, 1, out)


def test_bessel_limit_rejects_a_wrong_zero():
    assert checks.bessel_rel_tol(8, 256) < 1e-4
    refs = {"sigma": {(256, 0, 1.0): 4.5}, "bessel": {1.0: 4.4934094579090615}}
    out = json.dumps({"grid": 256, "kappa": 0, "radial_lower_bound": [{"b": 1.0, "sigma_min": 4.5}],
                      "monotone_in_b": True,
                      "decay_bounds": {"samples": 1, "min_slack_t_b0": 0.1, "min_slack_t_b1": 0.1,
                                       "pass": True}})
    rejects(lambda *a: checks.check_oracle(256, 0, [1.0], 1, refs, *a), 0, out)


@pytest.mark.parametrize("profile", ["ang", "tws"])
def test_forms_verdict_and_ang_increment(profile):
    alpha, length = 1.1, 0.8
    fn = lambda *a: checks.check_forms(profile, 1, alpha, length, *a)  # noqa: E731
    code, out, err = run(["forms", "--profile", profile, "--kappa", 1, "--alpha", alpha,
                          "--length", length, "--eps", 0.6])
    fn(code, out, err)
    other = "Convergent" if profile == "ang" else "Divergent"
    rejects(fn, code, edited(out, lambda r: r["tube"].update(verdict=other)))
    if profile == "ang":
        big = edited(out, lambda r: r["tube"].update(last_increment=r["tube"]["last_increment"] * 1.2))
        rejects(fn, code, big)


# ---------------------------------------------------------------------------
# surfaces


@pytest.mark.parametrize("group", ["SU2", "SL2C"])
def test_surface_groups_satisfy_the_relator_and_dimensions(group, tmp_path):
    rng = np.random.default_rng(3)
    make = workloads.su2_surface_holonomy if group == "SU2" else workloads.sl2c_diagonal_holonomy
    for genus in (2, 13):
        d = workloads.surface_manifest(genus, group, make(genus, rng))
        assert checks.relator_residual(d) < 1e-12
        path = tmp_path / f"g{genus}.json"
        path.write_text(json.dumps(d))
        checks.check_validate(d, *run(["validate", path]))
        if genus == 2:
            dims = checks.surface_dims(group, genus)
            fn = lambda *a: checks.check_cohomology(d, dims, False, *a)  # noqa: E731
            code, out, err = run(["cohomology", path])
            fn(code, out, err)
            rejects(fn, code, edited(out, lambda r: r["cohomology"].update(
                dim_Z1=r["cohomology"]["dim_Z1"] - 1)))


def test_surface_dimension_formulas():
    assert checks.surface_dims("SU2", 2) == (0, 9, 3, 6)
    assert checks.surface_dims("SL2C", 13) == (1, 76, 2, 74)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_spans_nest_and_patches_are_restored():
    original = cohomology.relator_jacobian
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_pass()
        tr.call("cli.run", cli.run, ["cohomology", str(FIX / "torus.json")])
        layers = tr.end_pass()
    finally:
        tr.uninstall()
    assert cohomology.relator_jacobian is original
    assert not tr.missing
    names = [s[0] for s in tr.spans]
    assert "words.jacobian" in names and "cohomology.h1_basis" in names
    jac = tr.spans[names.index("words.jacobian")]
    assert tr.spans[jac[3]][0] == "cohomology.h1_basis"
    assert layers["cohomology.h1_basis_calls"] == 1
    assert layers["words.jacobian_entries"] == 6 * 12
    assert 0.0 < layers["words.jacobian_ms"] and 0.0 < layers["cohomology.h1_basis_ms"]
    assert set(layers) == set(tracing.TIMES) | set(tracing.COUNTS)

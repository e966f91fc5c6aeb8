"""Golden CLI snapshot: exit codes and reports of the manifest subcommands on
every bundled fixture, compared with `tests/golden_cli.json`.

Everything is compared exactly except each `trace_jacobian`, whose entries
depend on the gauge (sign or phase) LAPACK picks for the H1 basis; its
singular values are compared to 1e-12 instead.  The `manifest` key echoes
the path and is not recorded.

Rewrite the snapshot after an intended change of output with
    PYTHONPATH=src python tests/test_golden_cli.py
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conerig.cli import run
from conerig.manifest import fixture_path

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = [
    "abelian-torus.json",
    "cusped.json",
    "genus2-su2.json",
    "pants-conjugated.json",
    "pants.json",
    "spherical-torus.json",
    "torus.json",
]
COMMANDS = [("validate",), ("cohomology", "--audit"), ("rigidity",), ("admissibility",)]
CASES = {f"{cmd[0]} {name}": (name, cmd) for name in FIXTURES for cmd in COMMANDS}


def capture(case: str) -> dict:
    name, (command, *extra) = CASES[case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([command, str(fixture_path(name)), *extra])
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        report.pop("manifest", None)
    return {"exit": code, "report": report}


def split_trace_jacobians(obj, found):
    """Copy of obj with every trace_jacobian replaced by its singular values,
    which are appended to found."""
    if isinstance(obj, list):
        return [split_trace_jacobians(v, found) for v in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: split_trace_jacobians(v, found) for k, v in obj.items() if k != "trace_jacobian"}
    if "trace_jacobian" in obj:
        jac = np.atleast_2d(np.array(obj["trace_jacobian"], dtype=float))
        if jac.ndim == 3:  # complex entries are [re, im] pairs
            jac = jac[..., 0] + 1j * jac[..., 1]
        found.append(np.linalg.svd(jac, compute_uv=False))
        out["trace_jacobian"] = "singular values compared apart"
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_snapshot(case, golden):
    got_svals, want_svals = [], []
    got = split_trace_jacobians(capture(case), got_svals)
    want = split_trace_jacobians(golden[case], want_svals)
    assert got == want
    assert len(got_svals) == len(want_svals)
    for s_got, s_want in zip(got_svals, want_svals):
        assert s_got.shape == s_want.shape
        assert np.abs(s_got - s_want).max(initial=0.0) <= 1e-12


if __name__ == "__main__":
    snapshot = {case: capture(case) for case in CASES}
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")

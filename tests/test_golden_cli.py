"""Golden CLI snapshot: exit codes and reports of the manifest subcommands on
every bundled fixture, of `spectrum`, and of `oracle` and `forms`, compared
with `tests/golden_cli.json`.

Manifest reports are compared exactly except each `trace_jacobian`, whose
entries depend on the gauge (sign or phase) LAPACK picks for the H1 basis;
its singular values are compared to 1e-12 instead.  The `manifest` key
echoes the path and is not recorded.  `spectrum` reports are compared
exactly.  In `oracle` and `forms` reports every float is compared to 1e-12
relative and everything else exactly, so that the radial kernels may change
their order of summation.  Each refusal case changes one node of a fixture
and records the exit code and stderr of every manifest subcommand on it,
compared exactly.  Each graph case edits the singular graph (and perhaps the
curvature) of `pants.json` and records its `admissibility` report, compared
exactly.

Record the cases missing from the snapshot with
    PYTHONPATH=src python tests/test_golden_cli.py
It leaves every recorded entry as it is; to re-record an entry after an
intended change of output, delete its key from the snapshot first.
"""
import contextlib
import io
import json
import math
import tempfile
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
MANIFEST_CASES = {
    f"{command} {name}": [command, str(fixture_path(name)), *extra]
    for name in FIXTURES
    for command, *extra in COMMANDS
}
RADIAL_CASES = {
    " ".join(argv): argv
    for argv in [
        ["oracle", "--b", "1", "--b", "2", "--b", "4", "--b", "8", "--grid", "256"],
        ["oracle", "--grid", "512", "--kappa", "1"],
        ["oracle", "--grid", "256", "--b", "1", "--samples", "200"],
        ["oracle", "--grid", "256", "--b", "1", "--quad-samples", "16384"],
        *(
            ["forms", "--profile", profile, "--kappa", kappa]
            for profile in ("ang", "shr", "tws", "len")
            for kappa in ("-1", "0", "1")
        ),
    ]
}
SPECTRUM_CASES = {
    " ".join(argv): argv
    for argv in [
        ["spectrum", "circle", "--alpha", "3.14159265", "--hol-angle", "3.14159265", "--window", "4"],
        ["spectrum", "circle", "--alpha", "2.5", "--hol-angle", "0.5", "--window", "4"],
        [
            "spectrum", "circle", "--operator", "b", "--alpha", "1.5707963267948966",
            "--hol-angle", "0.3", "--trivial-rank", "1", "--window", "3",
        ],
        ["spectrum", "circle", "--alpha", "1", "--hol-angle", "3.14159265", "--window", "0.001"],
        ["spectrum", "link", "--lambda", "1.0", "--h0-dim", "0", "--window", "3"],
        ["spectrum", "link", "--lambda", "0.5", "--lambda", "2.0", "--h0-dim", "2", "--window", "3"],
        ["spectrum", "link", "--h0-dim", "1", "--window", "0.5"],
    ]
}
# (fixture, JSON pointer, new value): one edited node per refused manifest.
REFUSALS = [
    ("torus.json", "/holonomy/a/0/0", [float("nan"), 0.0]),
    ("torus.json", "/holonomy/a/1/1", [0.6, 0.0]),
    ("torus.json", "/holonomy/a/0/0", [1e200, 0.0]),
    ("torus.json", "/holonomy/a", [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]),
    ("torus.json", "/holonomy/a/0/1", [1e200, 0.0]),
    ("torus.json", "/holonomy/b/1", [[0.0, 0.0]]),
    ("genus2-su2.json", "/holonomy/a", [1.0, 1.0, 0.0, 0.0]),
    ("genus2-su2.json", "/holonomy/a", [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    ("genus2-su2.json", "/holonomy/a", [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    ("spherical-torus.json", "/holonomy/a", {"left": [1.0, 0.0, 0.0, 0.0]}),
    ("spherical-torus.json", "/holonomy/b/right", [2.0, 0.0, 0.0, 0.0]),
    ("cusped.json", "/boundary/0/generator_words/1", "z"),
    ("cusped.json", "/boundary/0/generator_words", ["az"]),
    ("cusped.json", "/boundary/0", {"genus": 0, "generator_words": ["az"]}),
    ("cusped.json", "/meridians/0/edge_id", 7),
    ("cusped.json", "/meridians/0/cone_angle", 1.0),
    (
        "torus.json",
        "/singular_graph/edges",
        [{"id": 0, "angle": 3.0}, {"id": 0, "angle": 1.5707963267948966}],
    ),
]
REFUSAL_CASES = {
    f"refuse {name} {pointer}={json.dumps(value)}": (name, pointer, value)
    for name, pointer, value in REFUSALS
}


def _edge(i: int, angle: float):
    return ("/singular_graph/edges/-", {"id": i, "angle": angle})


def _vertex(*incident: int):
    return ("/singular_graph/vertices/-", {"incident": list(incident)})


# A second vertex on edge 2, an edge above pi and a 2 pi edge, in one graph.
FULL_GRAPH = [_edge(3, 1.2), _edge(4, 4.0), _edge(5, 2 * math.pi), _vertex(2, 3, 4), _vertex(3, 4, 5)]
# (edits of pants.json as (JSON pointer, new value) pairs, admissibility options);
# a pointer ending in "-" appends to its list.
GRAPH_EDITS = [
    ([_edge(3, 1.2), _edge(4, 2.5), _vertex(2, 3, 4)], []),
    ([_edge(3, 4.0), _vertex(1, 2, 3)], []),
    ([_edge(3, 2 * math.pi), _vertex(0, 2, 3)], []),
    (FULL_GRAPH, []),
    ([*FULL_GRAPH, ("/curvature", 0)], []),
    ([*FULL_GRAPH, ("/curvature", 1)], []),
    (FULL_GRAPH, ["--window", "0.1"]),
]
GRAPH_CASES = {
    " ".join(
        ["admissibility pants.json", *(f"{p}={json.dumps(v)}" for p, v in edits), *extra]
    ): (edits, extra)
    for edits, extra in GRAPH_EDITS
}
CASES = {**MANIFEST_CASES, **SPECTRUM_CASES, **RADIAL_CASES, **REFUSAL_CASES, **GRAPH_CASES}


def edited(name: str, edits, directory: str) -> Path:
    """A copy of the fixture `name` in `directory` with each (pointer, value)
    edit applied in turn: the node at the pointer is set to the value, or the
    value is appended when the pointer ends in "-"."""
    doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for pointer, value in edits:
        *parents, leaf = pointer.strip("/").split("/")
        node = doc
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if leaf == "-":
            node.append(value)
        else:
            node[int(leaf) if isinstance(node, list) else leaf] = value
    path = Path(directory) / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def capture_refusal(case: str) -> dict:
    """Exit code and stderr of each manifest subcommand on the edited fixture."""
    name, pointer, value = REFUSAL_CASES[case]
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        path = str(edited(name, [(pointer, value)], directory))
        for command, *extra in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([command, path, *extra])
            out[command] = {"exit": code, "stderr": err.getvalue()}
    return out


def capture(case: str) -> dict:
    if case in REFUSAL_CASES:
        return capture_refusal(case)
    if case in GRAPH_CASES:
        edits, extra = GRAPH_CASES[case]
        with tempfile.TemporaryDirectory() as directory:
            return capture_argv(["admissibility", str(edited("pants.json", edits, directory)), *extra])
    return capture_argv(CASES[case])


def capture_argv(argv: list[str]) -> dict:
    """Exit code and report, without its `manifest` key, of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
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


def assert_close(got, want, where="report"):
    """Floats to 1e-12 relative, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= 1e-12 * abs(want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}/{k}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", list(RADIAL_CASES))
def test_radial_output_matches_snapshot(case, golden):
    assert_close(capture(case), golden[case])


@pytest.mark.parametrize("case", list(SPECTRUM_CASES))
def test_spectrum_output_matches_snapshot(case, golden):
    assert capture(case) == golden[case]


@pytest.mark.parametrize("case", list(REFUSAL_CASES))
def test_refusal_matches_snapshot(case, golden):
    assert capture(case) == golden[case]


@pytest.mark.parametrize("case", list(GRAPH_CASES))
def test_graph_admissibility_matches_snapshot(case, golden):
    assert capture(case) == golden[case]


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
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
    snapshot = json.loads(GOLDEN.read_text(encoding="utf-8"))
    snapshot.update({case: capture(case) for case in CASES if case not in snapshot})
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")

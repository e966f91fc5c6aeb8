"""Inputs that must end in a report or a documented exit code, never a traceback."""
import contextlib
import io
import json
import math
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conerig
from conerig.cli import MAX_DECAY_SAMPLES, run
from conerig.errors import DomainError, InvalidRepresentation
from conerig.cohomology import surface_presentation
from conerig.liecore import (
    _det_rule,
    _norm_rule,
    complex_length_sl2c,
    complex_length_su2pair,
    exp_raw,
    field_coords,
    su2_quaternion,
)
from conerig import cohomology, manifest, spectral, words
from conerig.manifest import fixture_path, load_manifest
from conerig.radial import (
    MAX_GRID,
    MAX_QUAD_SAMPLES,
    FormProfile,
    RadialGrid,
    halving_deltas,
    l2_tube_verdict,
    pb_min_singular,
    t_b0,
)
from conerig.spectral import (
    MAX_SPECTRUM_VALUES,
    TWO_PI,
    ConePoint,
    SingularGraph,
    circle_B_spectrum,
    circle_dirac_spectrum,
    cone_admissibility_verdict,
    link_B_spectrum,
)
from conerig.words import Presentation

SRC = Path(conerig.__file__).resolve().parents[1]


def _write_with(tmp_path, fixture, pointer, value):
    doc = json.loads(fixture_path(fixture).read_text())
    *parents, leaf = pointer.strip("/").split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    path = tmp_path / f"bad-{fixture}"
    path.write_text(json.dumps(doc))
    return path


class TestNonFiniteInput:
    def test_nan_matrix_entry_names_its_pointer(self, tmp_path, capsys):
        path = _write_with(tmp_path, "torus.json", "/holonomy/a/0/0", [float("nan"), 0.0])
        assert run(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "/holonomy/a/0/0:" in captured.err

    def test_infinite_quaternion_entry_names_its_pointer(self, tmp_path, capsys):
        path = _write_with(tmp_path, "genus2-su2.json", "/holonomy/b/2", float("inf"))
        assert run(["rigidity", str(path)]) == 2
        assert "/holonomy/b:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_membership_rules_reject(self, bad):
        with pytest.raises(DomainError):
            _det_rule(np.array([[1.0, bad], [0.0, 1.0]], dtype=complex))
        with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
            _norm_rule(np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            su2_quaternion(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_algebra_coordinates_lengths_and_isometries_reject(self, bad):
        m = load_manifest(fixture_path("torus.json"))
        rho, mu = m.representation, m.presentation.meridians[0].word
        z = np.zeros(6, dtype=complex)
        z[0] = bad
        one = np.array([1.0, 0.0, 0.0, 0.0])
        calls = [
            lambda: field_coords("SU2", [0.0, bad, 0.0]),
            lambda: cohomology.trace_differential(rho, z, mu),
            lambda: exp_raw("SL2C", z[:3]),
            lambda: exp_raw("SU2", [0.0, 0.0, bad]),
            lambda: words.deform(rho, z, 0.1),
            lambda: cohomology.standard_torus_cocycles("SU2xSU2", bad, 0.0, 1.0),
            lambda: cohomology.standard_torus_cocycles("SU2xSU2", 1.0, bad, 1.0),
            lambda: cohomology.standard_torus_cocycles("SL2C", 1.0, 0.0, bad),
            lambda: complex_length_sl2c(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)),
            lambda: complex_length_su2pair(np.array([[bad, 0.0, 0.0, 0.0], one])),
            lambda: complex_length_su2pair(np.array([one, [0.0, 0.0, bad, 0.0]])),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="finite numbers"):
                call()

    def test_residual_keeps_nan(self, monkeypatch):
        # max(0.5, nan) is 0.5: a NaN distance must not be dropped that way.
        dists = iter([0.5, math.nan, 0.25])
        monkeypatch.setattr(words, "identity_distance", lambda group, raw: next(dists))
        m = load_manifest(fixture_path("torus.json"))
        pres = Presentation.from_strings(["a", "b"], ["abAB", "ab", "ba"])
        assert math.isnan(words.relator_residual(m.representation, pres))
        dists = iter([0.5, math.nan, 0.25])
        with pytest.raises(InvalidRepresentation):
            words.check_representation(m.representation, pres)


class TestEmptySpectralWindow:
    def test_circle_spectrum(self, capsys):
        argv = ["spectrum", "circle", "--alpha", "0.5388860801530783",
                "--hol-angle", "3.5151034681961133", "--window", "4"]
        assert run(argv) == 0
        spectrum = json.loads(capsys.readouterr().out)["spectrum"]
        assert spectrum["values"] == [] and spectrum["min_abs"] is None

    def test_admissibility(self, capsys):
        argv = ["admissibility", str(fixture_path("torus.json")), "--window", "0.1"]
        assert run(argv) == 0
        points = json.loads(capsys.readouterr().out)["admissibility"]["points"]
        assert points
        for p in points:
            assert p["min_abs_circle"] is None and p["min_abs_link"] is None


class TestNonFiniteOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "circle", "--window", "inf"],
            ["spectrum", "circle", "--alpha", "inf"],
            ["spectrum", "circle", "--hol-angle", "nan"],
            ["spectrum", "link", "--lambda", "nan"],
            ["spectrum", "link", "--lambda", "inf"],
            ["oracle", "--samples", "1", "--b", "nan"],
            ["forms", "--profile", "ang", "--kappa", "0", "--alpha", "nan"],
            ["forms", "--profile", "len", "--kappa", "0", "--length", "inf"],
            ["forms", "--profile", "len", "--kappa", "0", "--eps", "nan"],
            ["forms", "--profile", "len", "--kappa", "0", "--eps", "half"],
            ["admissibility", str(fixture_path("pants.json")), "--window", "nan"],
        ],
    )
    def test_usage_error_names_the_option(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: expected a finite number" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_link_spectrum_rejects_non_finite_lambda(self, lam):
        with pytest.raises(DomainError, match="finite"):
            link_B_spectrum([lam], 0, 3.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--samples", "0", "--b", "1"],
        ["oracle", "--samples", "-3"],
        ["oracle", "--quad-samples", "0", "--samples", "1", "--b", "1"],
        ["forms", "--profile", "len", "--kappa", "0", "--alpha", "1e308", "--length", "1e308"],
        ["validate", str(fixture_path("torus.json")), "--out", "{tmp}/missing/x.json"],
        ["forms", "--profile", "ang", "--kappa", "0", "--halvings", "2000"],
        ["forms", "--profile", "ang", "--kappa", "0", "--eps", "1e-300", "--halvings", "100"],
        ["forms", "--profile", "ang", "--kappa", "0", "--halvings", "0"],
        ["forms", "--profile", "ang", "--kappa", "0", "--halvings", "ten"],
        ["forms", "--profile", "ang", "--kappa", "0", "--eps", "1e-152"],
        ["forms", "--profile", "shr", "--kappa", "1", "--eps", "1e-200", "--halvings", "2"],
        ["forms", "--profile", "ang", "--kappa", "0", "--eps", "1e-154", "--halvings", "1"],
    ],
)
def test_input_that_cannot_be_reported_exits_2(argv, tmp_path, capsys):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert "Warning" not in captured.err


def test_runs_share_no_parser_state(capsys):
    assert run(["oracle", "--b", "4", "--samples", "1", "--quad-samples", "8"]) == 0
    first = json.loads(capsys.readouterr().out)["radial_lower_bound"]
    assert [row["b"] for row in first] == [4.0]
    assert run(["oracle", "--samples", "1", "--quad-samples", "8"]) == 0
    second = json.loads(capsys.readouterr().out)["radial_lower_bound"]
    assert [row["b"] for row in second] == [1.0, 2.0, 4.0, 8.0]


def test_tube_without_increments_reports_null(capsys):
    assert run(["forms", "--profile", "ang", "--kappa", "0", "--halvings", "1"]) == 3
    tube = json.loads(capsys.readouterr().out)["tube"]
    assert tube["verdict"] == "Inconclusive"
    assert tube["increments"] == [] and tube["last_increment"] is None


class TestGraphAndGenusAtLoad:
    @pytest.mark.parametrize("angle", [7.0, math.nan, -1.0, 0.0])
    def test_edge_angle(self, tmp_path, capsys, angle):
        path = _write_with(tmp_path, "pants.json", "/singular_graph/edges/1/angle", angle)
        assert run(["validate", str(path)]) == 2
        assert "/singular_graph/edges/1/angle:" in capsys.readouterr().err

    def test_undeclared_incident_edge(self, tmp_path, capsys):
        path = _write_with(tmp_path, "pants.json", "/singular_graph/vertices/0/incident/2", 5)
        assert run(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "/singular_graph/vertices/0/incident:" in err and "[5]" in err

    @pytest.mark.parametrize(
        "vertices, k, crowded",
        [
            ([[0, 0, 0], [0, 1, 2]], 0, [0]),
            ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], 2, [0, 1, 2]),
            ([[0, 1, 2], [0, 0, 1]], 1, [0]),
        ],
    )
    def test_edge_with_a_third_vertex_end(self, tmp_path, capsys, vertices, k, crowded):
        # an id listed twice at one vertex is two ends; the vertex giving the
        # third end is named
        value = [{"incident": inc} for inc in vertices]
        path = _write_with(tmp_path, "pants.json", "/singular_graph/vertices", value)
        for command in ("validate", "cohomology", "rigidity", "admissibility"):
            assert run([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"error: /singular_graph/vertices/{k}/incident: edge id(s) {crowded} " in err

    def test_edge_listed_twice_at_one_vertex_is_two_ends(self, tmp_path, capsys):
        value = [{"incident": [0, 0, 1]}, {"incident": [1, 2, 2]}]
        path = _write_with(tmp_path, "pants.json", "/singular_graph/vertices", value)
        assert run(["validate", str(path)]) == 0

    def test_boundary_genus_beyond_the_alphabet(self, tmp_path, capsys):
        path = _write_with(tmp_path, "torus.json", "/boundary/0/genus", 14)
        assert run(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "/boundary/0/genus:" in err and "single letters" in err

    def test_surface_presentation_cap(self):
        assert len(surface_presentation(13).generators) == 26
        with pytest.raises(DomainError, match="single letters"):
            surface_presentation(14)


class TestSectionShapesAtLoad:
    """Every section the loader walks must be a list (or an object) where the
    format says so, and no JSON true/false passes as a number."""

    @pytest.mark.parametrize(
        "fixture, pointer, value",
        [
            ("torus.json", "/boundary", 1),
            ("torus.json", "/boundary", {"genus": 1}),
            ("pants.json", "/singular_graph/edges", 1),
            ("pants.json", "/singular_graph/vertices", 2.5),
        ],
    )
    def test_non_list_section(self, tmp_path, capsys, fixture, pointer, value):
        path = _write_with(tmp_path, fixture, pointer, value)
        assert run(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {pointer}: expected a list" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fixture, pointer, reported",
        [
            ("torus.json", "/schema", "/schema"),
            ("torus.json", "/curvature", "/curvature"),
            ("torus.json", "/boundary/0/genus", "/boundary/0/genus"),
            ("torus.json", "/meridians/0/cone_angle", "/meridians/0/cone_angle"),
            ("torus.json", "/meridians/0/edge_id", "/meridians/0/edge_id"),
            ("torus.json", "/holonomy/a/0/0/1", "/holonomy/a/0/0"),
            ("genus2-su2.json", "/holonomy/b/0", "/holonomy/b"),
            ("pants.json", "/singular_graph/edges/0/id", "/singular_graph/edges/0/id"),
            ("pants.json", "/singular_graph/edges/0/angle", "/singular_graph/edges/0/angle"),
            (
                "pants.json",
                "/singular_graph/vertices/0/incident/0",
                "/singular_graph/vertices/0/incident",
            ),
        ],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, fixture, pointer, reported, value):
        # `reported` is the entry, or the [re, im] pair or quaternion holding it.
        path = _write_with(tmp_path, fixture, pointer, value)
        assert run(["cohomology", str(path), "--audit"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {reported}: " in captured.err

    def test_pair_image_as_a_list(self, tmp_path, capsys):
        # Pair images are objects only: a [left, right] list is refused at
        # its own pointer, not at one of keys it does not have.
        doc = json.loads(fixture_path("spherical-torus.json").read_text())
        value = [doc["holonomy"]["a"]["left"], [0.5, 0.5, 0.5, 0.6]]
        path = _write_with(tmp_path, "spherical-torus.json", "/holonomy/a", value)
        assert run(["validate", str(path)]) == 2
        assert "error: /holonomy/a: expected keys 'left' and 'right'\n" == capsys.readouterr().err

    def test_integer_beyond_the_float_range(self, tmp_path, capsys):
        path = _write_with(tmp_path, "torus.json", "/holonomy/a/0/0/1", 10**400)
        assert run(["validate", str(path)]) == 2
        assert "error: /holonomy/a/0/0: expected finite numbers" in capsys.readouterr().err


class TestSizeCaps:
    """Sizes above a documented cap are refused with exit 2 before any work.
    Each refused value is just above its cap, or the cap is lowered, so a
    program without the cap would still finish quickly."""

    def test_radial_caps(self):
        assert RadialGrid(MAX_GRID).n == MAX_GRID
        with pytest.raises(DomainError, match=f"64 to {MAX_GRID} nodes"):
            RadialGrid(2**40)
        with pytest.raises(DomainError, match=f"at most {MAX_QUAD_SAMPLES} samples"):
            t_b0(np.cos, 0.0, 0.5, n=MAX_QUAD_SAMPLES + 1)

    def test_spectrum_cap(self):
        # At cone angle 2 pi the values are +/- n, twice each (from n and -n),
        # and 0; window 250000 enumerates 2 (2 * 250002 + 1) of them.
        assert len(circle_dirac_spectrum(TWO_PI, 0.0, 1000.0).values) == 4 * 1000 + 1
        with pytest.raises(DomainError, match=f"more than {MAX_SPECTRUM_VALUES} values"):
            circle_dirac_spectrum(TWO_PI, 0.0, 250000.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--grid", str(MAX_GRID + 1), "--samples", "1", "--b", "1"],
            ["oracle", "--quad-samples", str(MAX_QUAD_SAMPLES + 1), "--samples", "1", "--b", "1"],
            ["oracle", "--samples", str(MAX_DECAY_SAMPLES + 1), "--quad-samples", "8", "--b", "1"],
        ],
    )
    def test_oracle_sizes(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "circle", "--window", "1000"],
            ["spectrum", "circle", "--alpha", "1500"],
            ["spectrum", "circle", "--hol-angle", "6000"],
            ["spectrum", "circle", "--operator", "b", "--trivial-rank", "100"],
            ["spectrum", "link", "--h0-dim", "600"],
            ["admissibility", str(fixture_path("torus.json")), "--window", "1000"],
        ],
    )
    def test_spectrum_sizes(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "MAX_SPECTRUM_VALUES", 1000)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the spectrum would take more than 1000 values\n"


ANG = FormProfile("ang", -1, 1.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: circle_dirac_spectrum(1.0, 0.5, math.nan), "window must be positive, got nan"),
        (lambda: circle_B_spectrum(ConePoint(1.0, (0.5,), 0), math.nan), "window must be positive"),
        (lambda: link_B_spectrum([(1.0, 1)], 0, math.nan), "window must be positive"),
        (lambda: cone_admissibility_verdict(SingularGraph((), ()), -1, math.nan), "window must be positive"),
        (lambda: circle_dirac_spectrum(1.0, math.nan, 3.0), "holonomy angle must be finite"),
        (lambda: circle_dirac_spectrum(math.inf, 0.5, 3.0), "circle length must be finite"),
        (lambda: ConePoint(1.0, (0.5,), 1.5), "trivial_rank must be an integer, got 1.5"),
        (lambda: link_B_spectrum([(1.0, 1)], 1.5, 3.0), "h0_dim must be an integer, got 1.5"),
        (lambda: link_B_spectrum([(1.0, 1.5)], 0, 3.0), "multiplicities must be integers"),
        (lambda: RadialGrid(100.5), "grid takes 64 to"),
        (lambda: RadialGrid(True), "grid takes 64 to"),
        (lambda: FormProfile("ang", -1, math.nan, 1.0), "cone angle and tube length must be finite"),
        (lambda: FormProfile("ang", -1, 1.0, math.inf), "cone angle and tube length must be finite"),
        (lambda: pb_min_singular(math.nan, 0, RadialGrid(256)), "b must be finite, got nan"),
        (lambda: t_b0(np.cos, 0.0, 0.5, 2.5), "quadrature takes at least 1"),
        (lambda: l2_tube_verdict(ANG, 0.5, [0.1, 0.05], n=2.5), "quadrature .* got 2.5"),
        (lambda: l2_tube_verdict(ANG, 0.5, [0.1, 0.05], n=True), "quadrature .* got True"),
        (lambda: l2_tube_verdict(ANG, 0.5, [0.1, 0.05], n=-3), "quadrature .* got -3"),
        (lambda: l2_tube_verdict(ANG, 0.5, [0.1], n=MAX_QUAD_SAMPLES + 1), "quadrature takes at least 1"),
        (lambda: l2_tube_verdict(ANG, math.inf, [0.1, 0.05]), "eps must be positive and finite, got inf"),
        (lambda: l2_tube_verdict(ANG, math.nan, [0.1, 0.05]), "eps must be positive and finite, got nan"),
        (lambda: l2_tube_verdict(ANG, 0.0, [0.1, 0.05]), "eps must be positive and finite, got 0.0"),
        (lambda: l2_tube_verdict(ANG, -0.5, [0.1, 0.05]), "eps must be positive and finite, got -0.5"),
        (lambda: halving_deltas(0.5, 2.5), "halving count must be an integer of at least 1, got 2.5"),
        (lambda: halving_deltas(0.5, True), "halving count must be an integer of at least 1, got True"),
        (lambda: halving_deltas(0.5, 0), "halving count must be an integer of at least 1, got 0"),
        (lambda: halving_deltas(math.nan, 3), "eps must be positive and finite, got nan"),
    ],
    ids=[
        "circle-dirac window",
        "circle-B window",
        "link window",
        "admissibility window",
        "circle-dirac holonomy angle",
        "circle-dirac circle length",
        "trivial_rank",
        "h0_dim",
        "link multiplicity",
        "fractional grid",
        "boolean grid",
        "profile alpha",
        "profile length",
        "radial b",
        "quadrature samples",
        "fractional tube samples",
        "boolean tube samples",
        "negative tube samples",
        "too many tube samples",
        "infinite tube eps",
        "NaN tube eps",
        "zero tube eps",
        "negative tube eps",
        "fractional halving count",
        "boolean halving count",
        "zero halvings",
        "halving eps",
    ],
)
def test_library_entry_points_name_a_bad_argument(call, message):
    """A NaN, an infinity or a fractional count is refused at the argument it
    is passed as, never reported or truncated."""
    with pytest.raises(DomainError, match=message):
        call()


FUZZ_FIXTURES = [
    "abelian-torus.json",
    "cusped.json",
    "genus2-su2.json",
    "pants-conjugated.json",
    "pants.json",
    "spherical-torus.json",
    "torus.json",
]
FUZZ_COMMANDS = [("validate",), ("cohomology", "--audit"), ("rigidity",), ("admissibility",)]

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text("abAB01 ", max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text("abgx", max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def _word_paths(doc):
    """Paths to every word of a manifest: relators, meridian words and
    boundary generator words."""
    yield from (("relators", k) for k in range(len(doc["relators"])))
    yield from (("meridians", k, "word") for k in range(len(doc.get("meridians", []))))
    for c, comp in enumerate(doc.get("boundary", [])):
        yield from (("boundary", c, "generator_words", j) for j in range(len(comp["generator_words"])))


def _node_paths(node, path=()):
    """Paths to every node of a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, path + (key,))


@st.composite
def mutated_manifests(draw):
    """A bundled fixture with one node replaced by a JSON value, or one key or
    list entry deleted, or one undeclared letter put into one word.  Returns
    the document and, for the last, the error line every command must print."""
    doc = json.loads(fixture_path(draw(st.sampled_from(FUZZ_FIXTURES))).read_text())
    mutation = draw(st.sampled_from(["replace", "delete", "letter"]))
    path = draw(st.sampled_from(list(_word_paths(doc) if mutation == "letter" else _node_paths(doc))))
    if not path:
        return draw(json_values), None
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete":
        del parent[path[-1]]
    elif mutation == "replace":
        parent[path[-1]] = draw(json_values)
    else:
        word = parent[path[-1]]
        declared = "".join(doc["generators"])
        letter = draw(st.sampled_from(sorted(set(string.ascii_letters) - set(declared + declared.upper()))))
        at = draw(st.integers(0, len(word)))
        parent[path[-1]] = word[:at] + letter + word[at:]
        pointer = "/" + "/".join(map(str, path))
        return doc, f"error: {pointer}: unknown generator {letter!r} at position {at}\n"
    return doc, None


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated=mutated_manifests())
def test_mutated_fixtures_end_in_a_report_or_an_exit_code(tmp_path_factory, mutated):
    doc, refusal = mutated
    path = tmp_path_factory.getbasetemp() / "fuzzed-manifest.json"
    path.write_text(json.dumps(doc))
    for command, *extra in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, str(path), *extra])
        assert code in (0, 1, 2, 3)
        if refusal:
            assert (code, out.getvalue(), err.getvalue()) == (2, "", refusal)
        if code == 2:
            assert "error:" in err.getvalue()
        if code == 2 and command == "validate" and out.getvalue():
            # A manifest that loads but misses its relators is reported, not refused.
            assert json.loads(out.getvalue())["valid"] is False


class TestWordsAtTheirPointers:
    """Every word is parsed at load, and an undeclared letter is refused at
    that word's pointer by every manifest command."""

    @pytest.mark.parametrize(
        "pointer, value, message",
        [
            ("/relators/0", "abAz", "unknown generator 'z' at position 3"),
            ("/meridians/0/word", "bz", "unknown generator 'z' at position 1"),
            ("/boundary/0/generator_words/0", "az", "unknown generator 'z' at position 1"),
            ("/boundary/0/generator_words/1", "Q", "unknown generator 'Q' at position 0"),
        ],
    )
    @pytest.mark.parametrize("command", FUZZ_COMMANDS)
    def test_undeclared_letter(self, tmp_path, capsys, pointer, value, message, command):
        path = _write_with(tmp_path, "torus.json", pointer, value)
        assert run([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {pointer}: {message}\n")

    @pytest.mark.parametrize("command", FUZZ_COMMANDS)
    def test_generator_errors_keep_their_pointer(self, tmp_path, capsys, command):
        doc = json.loads(fixture_path("torus.json").read_text())
        doc["generators"] = ["a", "B"]
        doc["holonomy"]["B"] = doc["holonomy"].pop("b")
        doc["relators"] = ["aBAb"]
        path = tmp_path / "upper-generator.json"
        path.write_text(json.dumps(doc))
        assert run([command[0], str(path), *command[1:]]) == 2
        expected = "error: /generators: generators must be single lowercase letters, got 'B'\n"
        assert capsys.readouterr() == ("", expected)

    @pytest.mark.parametrize(
        "pointer, value, message",
        [
            ("/boundary/0/generator_words", ["az"], "genus 1 boundary needs 2 generator words"),
            (
                "/boundary/0",
                {"genus": 0, "generator_words": ["az"]},
                "boundary genus must be >= 1, got 0",
            ),
        ],
    )
    @pytest.mark.parametrize("command", FUZZ_COMMANDS)
    def test_word_count_is_refused_before_a_word(
        self, tmp_path, capsys, pointer, value, message, command
    ):
        path = _write_with(tmp_path, "cusped.json", pointer, value)
        assert run([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: /boundary/0: {message}\n")

    def test_a_surface_relator_is_parsed_once(self, monkeypatch):
        # The loader parses each manifest word; `surface_presentation`, through
        # words, parses a surface relator once per genus; nothing else parses.
        parsed = []
        original = words.parse_word

        def parse_word(text, generators):
            parsed.append(text)
            return original(text, generators)

        for module in (manifest, words):
            monkeypatch.setattr(module, "parse_word", parse_word)
        assert not hasattr(cohomology, "parse_word")
        path = str(fixture_path("genus2-su2.json"))
        for command in ("validate", "cohomology"):
            parsed.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run([command, path]) == 0
            assert parsed == ["abABcdCD"]
        cohomology.surface_presentation.cache_clear()
        cusped = ["abaBAbaBABabAB", "a", "baBAbaabABabAAAA", "a"]  # relator, meridian, boundary
        for surface in (["abAB"], []):
            parsed.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["cohomology", str(fixture_path("cusped.json")), "--audit"]) == 0
            assert parsed == cusped + surface


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_duplicate_edge_id_is_refused_at_its_pointer(tmp_path, capsys, command):
    edges = [{"id": 0, "angle": 3.0}, {"id": 0, "angle": math.pi / 2}]
    path = _write_with(tmp_path, "torus.json", "/singular_graph/edges", edges)
    assert run([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error: /singular_graph/edges/1/id: duplicate edge id 0\n")


class TestMeridiansOnTheirEdges:
    """A meridian names a declared singular edge and carries its angle, to
    MERGE_TOL; otherwise every manifest command refuses it at its pointer."""

    @pytest.mark.parametrize(
        "pointer, value, message",
        [
            ("/meridians/0/edge_id", 7, "undeclared edge id 7"),
            (
                "/meridians/0/cone_angle",
                1.0,
                "cone angle 1.0 differs from the angle 2.0943951023931953 of edge 0",
            ),
        ],
    )
    @pytest.mark.parametrize("command", FUZZ_COMMANDS)
    def test_refused_at_its_pointer(self, tmp_path, capsys, pointer, value, message, command):
        path = _write_with(tmp_path, "cusped.json", pointer, value)
        assert run([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {pointer}: {message}\n")

    def test_no_singular_graph_declares_no_edge(self, tmp_path, capsys):
        doc = json.loads(fixture_path("torus.json").read_text())
        del doc["singular_graph"]
        path = tmp_path / "no-graph.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: /meridians/0/edge_id: undeclared edge id 0\n"

    @pytest.mark.parametrize("offset, code", [(0.5 * spectral.MERGE_TOL, 0), (4 * spectral.MERGE_TOL, 2)])
    def test_angles_agree_to_merge_tol(self, tmp_path, capsys, offset, code):
        angle = json.loads(fixture_path("pants.json").read_text())["meridians"][2]["cone_angle"]
        path = _write_with(tmp_path, "pants.json", "/meridians/2/cone_angle", angle + offset)
        assert run(["validate", str(path)]) == code
        assert ("/meridians/2/cone_angle:" in capsys.readouterr().err) == (code == 2)


def test_module_entry_point_prints_the_report():
    proc = subprocess.run(
        [sys.executable, "-m", "conerig.cli", "validate", str(fixture_path("torus.json"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


# ---------------------------------------------------------------------------
# generated manifests with images up to 1e200, under warnings-as-errors

SWEEP_COMMANDS = [("validate",), ("cohomology",), ("cohomology", "--audit"), ("rigidity",)]


def _sweep_word(rng, gens, longest):
    letters = rng.choice(gens, int(rng.integers(1, longest + 1)))
    return "".join(g.upper() if rng.random() < 0.5 else g for g in letters)


def _sweep_sl2c(rng):
    """An SL2C image of size up to 1e200, half of them near 1e154, where the
    squares of its entries, and so its norm and Ad, reach the float range."""
    s = 10.0 ** (rng.uniform(0, 200) if rng.random() < 0.5 else rng.uniform(150, 155))
    phase = np.exp(2j * math.pi * rng.random())
    x, y, z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = [
        [[s * phase, 0], [0, 1 / (s * phase)]],
        [[s, 0], [s * phase, 1 / s]],
        [[s, s * phase], [0, 1 / s]],
        [[x, y], [z, (1 + y * z) / x]],
    ][int(rng.integers(4))]
    return [[[float(complex(v).real), float(complex(v).imag)] for v in row] for row in m]


def _sweep_su2(rng):
    q = rng.standard_normal(4)
    return (q / np.linalg.norm(q)).tolist()


def _sweep_manifest(rng):
    """A manifest over 2 to 4 generators: SL2C, SU2 or SU2xSU2 images; no
    relator, the commutator abAB or random words; random meridians on edges
    of their cone angles, and random boundary words of genus 1 or 2."""
    group = ["SL2C", "SL2C", "SU2", "SU2xSU2"][int(rng.integers(4))]
    gens = list("abcd"[: int(rng.integers(2, 5))])
    image = {
        "SL2C": _sweep_sl2c,
        "SU2": _sweep_su2,
        "SU2xSU2": lambda rng: {"left": _sweep_su2(rng), "right": _sweep_su2(rng)},
    }[group]
    relators = [[], ["abAB"], [_sweep_word(rng, gens, 6) for _ in range(int(rng.integers(1, 3)))]]
    angles = [float(rng.uniform(0.1, 2 * math.pi)) for _ in range(int(rng.integers(0, 3)))]
    genera = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(0, 3)))]
    return {
        "schema": 1,
        "curvature": -1,
        "group": group,
        "generators": gens,
        "holonomy": {g: image(rng) for g in gens},
        "relators": relators[int(rng.integers(3))],
        "meridians": [
            {"word": _sweep_word(rng, gens, 3), "edge_id": k, "cone_angle": a} for k, a in enumerate(angles)
        ],
        "boundary": [
            {"genus": g, "generator_words": [_sweep_word(rng, gens, 3) for _ in range(2 * g)]}
            for g in genera
        ],
        "singular_graph": {"edges": [{"id": k, "angle": a} for k, a in enumerate(angles)], "vertices": []},
    }


def _at_plus_minus_identity(image) -> bool:
    """Whether the SL2C image, a 2x2 matrix of [re, im] pairs, is +/-1 to 1e-9."""
    m = np.array(image, dtype=float).view(np.complex128)[..., 0]
    return min(np.abs(m - s * np.eye(2)).max() for s in (1.0, -1.0)) <= 1e-9


def test_generated_manifests_end_in_an_exit_code_without_a_warning(tmp_path):
    # 400 manifests, 4 commands each; a warning or an exception fails the call.
    # Z^0 is all of sl2(C) exactly when every Ad is the identity, so a
    # `cohomology` report with dim_Z0_complex 3 needs every image at +/-1.
    rng = np.random.default_rng(2029)
    path = tmp_path / "generated.json"
    codes = set()
    for _ in range(400):
        doc = _sweep_manifest(rng)
        path.write_text(json.dumps(doc))
        for command in SWEEP_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = run([*command[:1], str(path), *command[1:]])
            except Exception as exc:
                pytest.fail(f"{' '.join(command)} raised {exc!r} on {json.dumps(doc)}")
            assert code in (0, 1, 2, 3), (command, doc)
            assert (code >= 2) == err.getvalue().startswith("error: "), (command, err.getvalue(), doc)
            if command == ("cohomology",) and code == 0:
                dims = json.loads(out.getvalue())["cohomology"]
                if dims.get("dim_Z0_complex") == 3:
                    assert all(map(_at_plus_minus_identity, doc["holonomy"].values())), doc
            codes.add(code)
    assert {0, 1, 2} <= codes

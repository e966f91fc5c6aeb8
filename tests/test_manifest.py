import json
import math

import numpy as np
import pytest

from conerig.errors import ManifestError
from conerig.manifest import (
    fixture_path,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    report_text,
    write_report,
)
from conerig.words import relator_residual, TOL_REP

from cocycle_reference import dist

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "spherical-torus.json",
    "abelian-torus.json",
    "genus2-su2.json",
    "cusped.json",
]


def torus_doc():
    return json.loads(fixture_path("torus.json").read_text())


class TestLoad:
    def test_bundled_torus(self):
        man = load_manifest(fixture_path("torus.json"))
        assert man.group == "SL2C"
        assert len(man.presentation.generators) == 2
        assert man.presentation.relator_texts == ("abAB",)
        assert len(man.presentation.meridians) == 1

    def test_bundled_pants(self):
        man = load_manifest(fixture_path("pants.json"))
        assert len(man.presentation.meridians) == 3
        assert man.presentation.relator_texts == ("abc",)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_fixture_satisfies_relators(self, name):
        man = load_manifest(fixture_path(name))
        assert relator_residual(man.representation, man.presentation) <= TOL_REP

    def test_bad_determinant_names_generator(self):
        doc = torus_doc()
        doc["holonomy"]["a"][0][0] = [1.001, 0.0]
        doc["holonomy"]["a"][1][1] = [1.0, 0.0]
        with pytest.raises(ManifestError) as exc:
            manifest_from_dict(doc)
        assert "/holonomy/a" in str(exc.value)

    def test_missing_image(self):
        doc = torus_doc()
        del doc["holonomy"]["b"]
        with pytest.raises(ManifestError) as exc:
            manifest_from_dict(doc)
        assert exc.value.pointer == "/holonomy/b"

    def test_bad_schema(self):
        doc = torus_doc()
        doc["schema"] = 2
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_meridian_angle_out_of_range(self):
        doc = torus_doc()
        doc["meridians"][0]["cone_angle"] = 7.0
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_vertex_valence_enforced(self):
        doc = torus_doc()
        doc["singular_graph"]["vertices"] = [{"incident": [0, 0]}]
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_su2_accepts_quaternion_and_matrix(self):
        doc = json.loads(fixture_path("genus2-su2.json").read_text())
        man_q = manifest_from_dict(doc)
        q = doc["holonomy"]["a"]
        a = q[0] + 1j * q[1]
        b = q[2] + 1j * q[3]
        doc["holonomy"]["a"] = [
            [[a.real, a.imag], [b.real, b.imag]],
            [[-b.real, b.imag], [a.real, -a.imag]],
        ]
        man_m = manifest_from_dict(doc)
        assert dist(man_q.representation.raw[0], man_m.representation.raw[0]) < 1e-12

    def test_genus_relation_warning(self):
        # theta graph (2 trivalent vertices, 3 edges) bounds genus 2, not 3
        doc = torus_doc()
        doc["singular_graph"] = {
            "edges": [{"id": k, "angle": math.pi / 2 if k == 0 else 1.0} for k in range(3)],
            "vertices": [{"incident": [0, 1, 2]}, {"incident": [0, 1, 2]}],
        }
        doc["boundary"] = [{"genus": 3, "generator_words": ["a", "b", "a", "b", "a", "b"]}]
        man = manifest_from_dict(doc)
        assert man.warnings
        assert "genus" in man.warnings[0]

    @pytest.mark.parametrize(
        "vertices, genera, warnings",
        [
            ([[0, 1, 2], [0, 1, 2]], [2], []),
            # two disjoint theta graphs: not connected, so no relation to check
            ([[0, 1, 2], [0, 1, 2], [3, 4, 5], [3, 4, 5]], [2, 2], []),
            ([[0, 1, 2], [0, 1, 2], [3, 4, 5], [3, 4, 5]], [4], []),
            # edges 2 and 3 have one vertex end each: the graph is not closed
            ([[0, 1, 2], [0, 1, 3]], [2], []),
            # the handcuff graph: a loop at each vertex, one edge between them
            (
                [[0, 0, 1], [1, 2, 2]],
                [3],
                ["connected trivalent graph with 3 edges has boundary genus 2; manifest declares [3]"],
            ),
        ],
        ids=["theta", "two thetas, genera 2 and 2", "two thetas, genus 4", "open graph", "handcuff"],
    )
    def test_genus_relation_branches(self, vertices, genera, warnings):
        doc = torus_doc()
        n_edges = 1 + max(i for inc in vertices for i in inc)
        doc["singular_graph"] = {
            "edges": [{"id": k, "angle": math.pi / 2 if k == 0 else 1.0} for k in range(n_edges)],
            "vertices": [{"incident": inc} for inc in vertices],
        }
        doc["boundary"] = [{"genus": g, "generator_words": ["a", "b"] * g} for g in genera]
        assert list(manifest_from_dict(doc).warnings) == warnings


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_load_write_load(self, tmp_path, name):
        man = load_manifest(fixture_path(name))
        out = tmp_path / "copy.json"
        write_report(manifest_to_dict(man), out)
        man2 = load_manifest(out)
        out2 = tmp_path / "copy2.json"
        write_report(manifest_to_dict(man2), out2)
        assert out.read_bytes() == out2.read_bytes()


class TestWriteReport:
    def test_deterministic_bytes(self, tmp_path):
        report = {"b": [1.5, 2.5], "a": {"x": 1, "y": complex(0.25, -2.0)}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        parsed = json.loads(p1.read_text())
        assert parsed["a"]["y"] == [0.25, -2.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            report_text({"x": float("nan")})
        with pytest.raises(ValueError):
            report_text({"x": float("inf")})

    def test_empty_report(self):
        assert report_text({}) == "{}\n"

    def test_seventeen_digits(self):
        text = report_text({"x": math.pi})
        assert "3.1415926535897931" in text

    def test_numpy_values(self):
        text = report_text({"m": np.array([[1.0, 0.5]]), "k": np.int64(3)})
        assert json.loads(text) == {"m": [[1.0, 0.5]], "k": 3}

    def test_sorted_keys(self):
        assert report_text({"b": 1, "a": 2}).index('"a"') < report_text({"b": 1, "a": 2}).index('"b"')

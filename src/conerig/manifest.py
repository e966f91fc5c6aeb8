"""Manifold-manifest files and deterministic report serialization.

A manifest is a JSON document declaring the curvature, the holonomy group,
a finite presentation with tagged meridians, generator images, and optional
boundary and singular-graph data.  Complex numbers serialize as [re, im]
pairs, matrices row-major; SU(2) images are accepted either as quaternions
[a, b, c, d] or as 2x2 matrices and are normalized on load, and SU(2)xSU(2)
images are objects {"left": ..., "right": ...} of two SU(2) images.

Each image is read once, to its raw array: every [re, im] pair and
quaternion goes through one reader (`_numbers`) that refuses it at its own
JSON pointer, and the array is checked by the group membership rules of
`liecore` (`_det_rule`, `_norm_rule`, `su2_quaternion`), whose domain errors
are reported at the image's pointer (`_built`).  The generators are checked first,
at /generators; then every word is parsed once, at its own pointer:
/relators/<k>, /meridians/<k>/word and /boundary/<c>/generator_words/<j>,
after its component's genus and word count are checked at /boundary/<c>.

Reports are encoded from the fields of their dataclasses, in sorted key
order (`_encode`); `RigidityReport` is the one exception, with a `to_dict`
whose keys depend on the group.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .cohomology import GENUS_CAP, MAX_SURFACE_GENUS, BoundaryComponent, check_boundary
from .errors import ManifestError
from .liecore import (
    GROUPS,
    SL2C,
    SU2,
    SU2XSU2,
    VALID_CURVATURES,
    _det_rule,
    _norm_rule,
    su2_quaternion,
)
from .spectral import MERGE_TOL, SingularEdge, SingularVertex
from .words import Meridian, Presentation, Representation, check_generators, parse_word

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Manifest:
    schema: int
    curvature: int
    group: str
    presentation: Presentation
    representation: Representation
    boundary: tuple[BoundaryComponent, ...]
    singular_edges: tuple[SingularEdge, ...]
    singular_vertices: tuple[SingularVertex, ...]
    warnings: tuple[str, ...]


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ManifestError(path, message)


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of the given Python kind: JSON true and false are bools,
    which Python also counts as ints, and are never numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _built(path: str, make, *args):
    """make(*args), with a domain error reported at the JSON pointer `path`."""
    try:
        return make(*args)
    except ValueError as exc:  # DomainError, or UnknownGenerator from a word
        raise ManifestError(path, str(exc)) from exc


def _as_list(doc: dict, key: str, path: str) -> list:
    """The list at doc[key]; an absent key is an empty list."""
    value = doc.get(key, [])
    _require(isinstance(value, list), path, "expected a list")
    return value


def _object(value, path: str) -> dict:
    _require(isinstance(value, dict), path, "expected an object")
    return value


def _integer(obj: dict, key: str, path: str) -> int:
    _require(_is_number(obj.get(key), int), f"{path}/{key}", "expected an integer")
    return obj[key]


def _angle(obj: dict, key: str, path: str) -> float:
    angle = obj.get(key)
    _require(_is_number(angle), f"{path}/{key}", "expected a number")
    _require(0.0 < angle <= 2.0 * math.pi, f"{path}/{key}", f"must lie in (0, 2*pi], got {angle}")
    return float(angle)


def _words(value, path: str, message: str = "expected a list of word strings") -> list:
    _require(isinstance(value, list) and all(isinstance(w, str) for w in value), path, message)
    return value


def _numbers(value, count: int, path: str) -> list:
    """A list of `count` finite JSON numbers, an [re, im] pair or a
    quaternion, refused at its own pointer."""
    if not (isinstance(value, list) and len(value) == count and all(_is_number(x) for x in value)):
        raise ManifestError(path, "expected a [re, im] pair" if count == 2 else f"expected {count} numbers")
    # An exact comparison: math.isfinite overflows on an int beyond the float range.
    if not all(abs(x) <= sys.float_info.max for x in value):
        raise ManifestError(path, f"expected finite numbers, got {value}")
    return value


def _matrix(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == 2, path, "expected a 2x2 matrix")
    rows = []
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == 2, f"{path}/{i}", "expected a row of 2 entries")
        rows.append([complex(*_numbers(z, 2, f"{path}/{i}/{j}")) for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_image(value, group: str, path: str) -> np.ndarray:
    """One image's raw array, by the group membership rules: a 2x2 matrix for
    SL2C; a quaternion, or one off a 2x2 matrix, for SU2; a left and a right one for SU2xSU2."""
    if group == SU2XSU2:
        pair = isinstance(value, dict) and set(value) == {"left", "right"}
        _require(pair, path, "expected keys 'left' and 'right'")
        return np.array([_parse_image(value[k], SU2, f"{path}/{k}") for k in ("left", "right")])
    if group == SL2C:
        return _built(path, _det_rule, _matrix(value, path))
    if isinstance(value, list) and len(value) == 4:
        q = np.array(_numbers(value, 4, path), dtype=float)
    else:
        q = _built(path, su2_quaternion, _matrix(value, path))
    with np.errstate(over="ignore", invalid="ignore"):
        return _built(path, _norm_rule, q)


def manifest_from_dict(doc: dict) -> Manifest:
    _require(isinstance(doc, dict), "", "manifest must be a JSON object")
    schema, curvature = doc.get("schema"), doc.get("curvature")
    _require(
        _is_number(schema) and schema == SCHEMA_VERSION, "/schema", f"expected schema {SCHEMA_VERSION}"
    )
    _require(
        _is_number(curvature) and curvature in VALID_CURVATURES,
        "/curvature",
        f"curvature must be one of {VALID_CURVATURES}, got {curvature!r}",
    )
    group = doc.get("group")
    _require(group in GROUPS, "/group", f"group must be one of {list(GROUPS)}")

    # An empty generator list reads as a missing one.
    gens = doc.get("generators") or None
    _words(gens, "/generators", "expected a nonempty list of generator letters")
    gens = _built("/generators", check_generators, gens)
    relators = _words(doc.get("relators", []), "/relators")
    relator_words = tuple(_built(f"/relators/{k}", parse_word, r, gens) for k, r in enumerate(relators))
    meridians = []
    for k, m in enumerate(_as_list(doc, "meridians", "/meridians")):
        p = f"/meridians/{k}"
        _require(isinstance(_object(m, p).get("word"), str), f"{p}/word", "expected a word string")
        word = _built(f"{p}/word", parse_word, m["word"], gens)
        meridians.append(Meridian(word, m["word"], _integer(m, "edge_id", p), _angle(m, "cone_angle", p)))
    pres = Presentation(gens, relator_words, tuple(relators), tuple(meridians))

    hol = doc.get("holonomy")
    _require(isinstance(hol, dict), "/holonomy", "expected an object keyed by generator")
    images = []
    for g in gens:
        _require(g in hol, f"/holonomy/{g}", f"missing image for generator {g!r}")
        images.append(_parse_image(hol[g], group, f"/holonomy/{g}"))
    rho = Representation(group, np.array(images))

    boundary = []
    for k, comp in enumerate(_as_list(doc, "boundary", "/boundary")):
        p = f"/boundary/{k}"
        genus = _integer(_object(comp, p), "genus", p)
        _require(genus <= MAX_SURFACE_GENUS, f"{p}/genus", GENUS_CAP)
        texts = tuple(_words(comp.get("generator_words"), f"{p}/generator_words"))
        _built(p, check_boundary, genus, len(texts))  # before any of its words
        words = tuple(
            _built(f"{p}/generator_words/{j}", parse_word, w, gens) for j, w in enumerate(texts)
        )
        boundary.append(BoundaryComponent(genus, words, texts))

    edges: list[SingularEdge] = []
    vertices: list[SingularVertex] = []
    angles: dict[int, float] = {}
    graph = doc.get("singular_graph")
    if graph is not None:
        _object(graph, "/singular_graph")
        for k, e in enumerate(_as_list(graph, "edges", "/singular_graph/edges")):
            p = f"/singular_graph/edges/{k}"
            edge_id = _integer(_object(e, p), "id", p)
            _require(edge_id not in angles, f"{p}/id", f"duplicate edge id {edge_id}")
            angles[edge_id] = _angle(e, "angle", p)
            edges.append(SingularEdge(edge_id, angles[edge_id]))
        for k, v in enumerate(_as_list(graph, "vertices", "/singular_graph/vertices")):
            p = f"/singular_graph/vertices/{k}"
            inc = _object(v, p).get("incident")
            _require(
                isinstance(inc, list) and len(inc) == 3 and all(_is_number(i, int) for i in inc),
                f"{p}/incident",
                "vertices are trivalent: expected 3 incident edge ids",
            )
            unknown = [i for i in inc if i not in angles]
            _require(not unknown, f"{p}/incident", f"undeclared edge id(s) {unknown}")
            vertices.append(SingularVertex(tuple(inc)))
    for k, m in enumerate(meridians):  # each meridian goes around a declared edge
        p = f"/meridians/{k}"
        _require(m.edge_id in angles, f"{p}/edge_id", f"undeclared edge id {m.edge_id}")
        edge_angle = angles[m.edge_id]
        _require(
            abs(m.cone_angle - edge_angle) <= MERGE_TOL,
            f"{p}/cone_angle",
            f"cone angle {m.cone_angle} differs from the angle {edge_angle} of edge {m.edge_id}",
        )

    warnings = _genus_relation_warnings(edges, vertices, boundary)
    return Manifest(
        schema=SCHEMA_VERSION,
        curvature=int(curvature),
        group=group,
        presentation=pres,
        representation=rho,
        boundary=tuple(boundary),
        singular_edges=tuple(edges),
        singular_vertices=tuple(vertices),
        warnings=tuple(warnings),
    )


def _genus_relation_warnings(edges, vertices, boundary) -> list[str]:
    """Cross-check genus = N/3 + 1 for a connected closed trivalent graph."""
    if not edges or not vertices:
        return []
    incidences = sum(1 for v in vertices for _ in v.incident)
    if incidences != 2 * len(edges):
        return []
    adjacency: dict[int, set[int]] = {}
    for k, v in enumerate(vertices):
        for e in v.incident:
            adjacency.setdefault(e, set()).add(k)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for e in vertices[v].incident:
            for w in adjacency.get(e, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    if len(seen) != len(vertices):
        return []
    expected = len(edges) / 3 + 1
    declared = [c.genus for c in boundary if c.genus >= 2]
    if declared and not any(math.isclose(g, expected) for g in declared):
        return [
            f"connected trivalent graph with {len(edges)} edges has boundary genus "
            f"{expected:g}; manifest declares {declared}"
        ]
    return []


def load_manifest(path) -> Manifest:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("", f"invalid JSON: {exc}") from exc
    return manifest_from_dict(doc)


# ---------------------------------------------------------------------------
# serialization


def _float_token(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("NaN/Inf are not serializable in reports")
    return f"{x:.17g}"


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_token(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return f"[{_float_token(z.real)}, {_float_token(z.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "to_dict"):
            return _encode(obj.to_dict())
        return _encode({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in items)
        return "{" + body + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} in a report")


def report_text(report) -> str:
    """Canonical report encoding: sorted keys, 17-significant-digit floats."""
    return _encode(report) + "\n"


def write_report(report, path) -> None:
    """Write a report; identical inputs produce byte-identical files."""
    text = report_text(report)
    Path(path).write_text(text, encoding="utf-8")


def manifest_to_dict(m: Manifest) -> dict:
    """Inverse of manifest_from_dict up to numeric formatting."""
    pres = m.presentation
    doc: dict = {
        "schema": m.schema,
        "curvature": m.curvature,
        "group": m.group,
        "generators": list(pres.generators),
        "relators": list(pres.relator_texts),
        "meridians": [
            {"word": mer.text, "edge_id": mer.edge_id, "cone_angle": mer.cone_angle}
            for mer in pres.meridians
        ],
        "holonomy": {
            g: _image_payload(raw, m.group)
            for g, raw in zip(pres.generators, m.representation.raw)
        },
    }
    if m.boundary:
        doc["boundary"] = [
            {"genus": c.genus, "generator_words": list(c.generator_words)} for c in m.boundary
        ]
    if m.singular_edges or m.singular_vertices:
        doc["singular_graph"] = {
            "edges": [{"id": e.id, "angle": e.angle} for e in m.singular_edges],
            "vertices": [{"incident": list(v.incident)} for v in m.singular_vertices],
        }
    return doc


def _image_payload(raw: np.ndarray, group: str):
    if group == SL2C:
        return [[[z.real, z.imag] for z in row] for row in raw.tolist()]
    if group == SU2:
        return raw.tolist()
    return dict(zip(("left", "right"), raw.tolist()))


def fixture_path(name: str) -> Path:
    """Path of a bundled example manifest, e.g. fixture_path('torus.json')."""
    return Path(str(resources.files("conerig").joinpath("fixtures", name)))

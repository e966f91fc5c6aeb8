"""Manifold-manifest files and deterministic report serialization.

A manifest is a JSON document declaring the curvature, the holonomy group,
a finite presentation with tagged meridians, generator images, and optional
boundary and singular-graph data.  Complex numbers serialize as [re, im]
pairs, matrices row-major; SU(2) images are accepted either as quaternions
[a, b, c, d] or as 2x2 matrices and are normalized on load, and SU(2)xSU(2)
images are objects {"left": ..., "right": ...} of two SU(2) images.

The holonomy is read as one stack (`_holonomy`): one structural and type
pass over all the images, where a JSON number is exactly an int or a float,
and one float64 conversion of all their numbers (`_stacks`), an SL(2,C)
entry being an exact complex view of its [re, im] pair.  Each image is then
checked on its own by the group membership rules of `liecore` (`_det_rule`,
`_norm_rule`, `su2_quaternion`), whose domain errors are reported at the
image's pointer.  A refusal is the first fault in generator order: only when
the stack has a fault is it looked for image by image (`_image_fault`), and
the images before it are still checked by their rules first.  The
generators are checked first, at /generators; then every word is parsed
once, at its own pointer:
/relators/<k>, /meridians/<k>/word and /boundary/<c>/generator_words/<j>,
after its component's genus and word count are checked at /boundary/<c>.

Reports are encoded from the fields of their dataclasses, in sorted key
order (`_encode`).
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
from .errors import DomainError, ManifestError
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
from .spectral import MERGE_TOL, SingularEdge, SingularGraph
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
    singular_graph: SingularGraph
    warnings: tuple[str, ...]


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ManifestError(path, message)


_JSON_NUMBERS = frozenset((int, float))  # exact types: a bool or a numpy scalar is neither


def _is_number(value, kind=_JSON_NUMBERS) -> bool:
    return type(value) in kind


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
    if not _is_number(obj.get(key), {int}):
        raise ManifestError(f"{path}/{key}", "expected an integer")
    return obj[key]


def _angle(obj: dict, key: str, path: str) -> float:
    angle = obj.get(key)
    if not _is_number(angle):
        raise ManifestError(f"{path}/{key}", "expected a number")
    if not 0.0 < angle <= 2.0 * math.pi:
        raise ManifestError(f"{path}/{key}", f"must lie in (0, 2*pi], got {angle}")
    return float(angle)


def _words(value, path: str, message: str = "expected a list of word strings") -> list:
    _require(isinstance(value, list) and all(isinstance(w, str) for w in value), path, message)
    return value


_SIDES = ("left", "right")


def _entries_fault(value, count: int, path: str):
    """The refusal (pointer, message) of a node that is not a list of `count`
    finite JSON numbers, an [re, im] pair or a quaternion; None if it is one."""
    if not (type(value) is list and len(value) == count and all(map(_is_number, value))):
        return path, "expected a [re, im] pair" if count == 2 else f"expected {count} numbers"
    # An exact comparison: math.isfinite overflows on an int beyond the float range.
    if not all(abs(x) <= sys.float_info.max for x in value):
        return path, f"expected finite numbers, got {value}"
    return None


def _image_fault(value, quaternion: bool, path: str):
    """The first refusal, in the order its nodes are written, of one image
    read as a quaternion or as a 2x2 matrix of [re, im] pairs; None if it
    has none."""
    if quaternion:
        return _entries_fault(value, 4, path)
    if not (type(value) is list and len(value) == 2):
        return path, "expected a 2x2 matrix"
    for i, row in enumerate(value):
        if not (type(row) is list and len(row) == 2):
            return f"{path}/{i}", "expected a row of 2 entries"
        for j, z in enumerate(row):
            fault = _entries_fault(z, 2, f"{path}/{i}/{j}")
            if fault:
                return fault
    return None


def _stacks(images: list, quaternion: list[bool]):
    """The quaternion images as one (q, 4) float stack and the matrix images
    as one (m, 2, 2) complex stack, from one structural pass and one float64
    conversion of all their numbers; None if any image has a fault."""
    numbers, pairs = [], []
    for v, q in zip(images, quaternion):
        if q:
            numbers += v
        elif type(v) is list and len(v) == 2:
            for row in v:
                if type(row) is list and len(row) == 2:
                    pairs += row
    split = len(numbers)
    for z in pairs:
        if type(z) is list and len(z) == 2:
            numbers += z
    # A node that is not a list of its length adds no numbers.
    if len(numbers) != split + 8 * (len(images) - split // 4):
        return None
    types = set(map(type, numbers))
    if not types <= _JSON_NUMBERS:
        return None
    if int in types and not all(abs(x) <= sys.float_info.max for x in numbers if type(x) is int):
        return None
    flat = np.array(numbers, dtype=np.float64)
    if not np.isfinite(flat).all():
        return None
    # A view of the [re, im] pairs is exact; re + 1j * im would turn an imaginary -0.0 into +0.0.
    return flat[:split].reshape(-1, 4), flat[split:].view(np.complex128).reshape(-1, 2, 2)


def _holonomy(hol: dict, gens: tuple[str, ...], group: str) -> np.ndarray:
    """The read-only raw stack of the generators' images.  An SU2xSU2 image
    is read as its left and right SU2 images, one after the other.  The
    images are converted as one stack (`_stacks`) and then checked one by
    one by the group rules; a refusal is the first fault in generator order."""
    per = 2 if group == SU2XSU2 else 1
    images, fault = [], None
    for g in gens:
        if g not in hol:
            fault = f"/holonomy/{g}", f"missing image for generator {g!r}"
            break
        value = hol[g]
        if per == 1:
            images.append(value)
        elif type(value) is dict and value.keys() == {"left", "right"}:
            images += value["left"], value["right"]
        else:
            fault = f"/holonomy/{g}", "expected keys 'left' and 'right'"
            break

    def pointer(k: int) -> str:
        g = gens[k // per]
        return f"/holonomy/{g}" if per == 1 else f"/holonomy/{g}/{_SIDES[k % 2]}"

    quaternion = [group != SL2C and type(v) is list and len(v) == 4 for v in images]
    stacks = _stacks(images, quaternion)
    if stacks is None:  # some image has a fault; the rules still check the ones before it
        k = 0
        while not (image_fault := _image_fault(images[k], quaternion[k], pointer(k))):
            k += 1
        fault = image_fault
        del images[k:], quaternion[k:]
        stacks = _stacks(images, quaternion)
    quats, mats = iter(stacks[0]), iter(stacks[1])
    raw = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, q in enumerate(quaternion):
            try:
                if group == SL2C:
                    raw.append(_det_rule(next(mats)))
                else:
                    raw.append(_norm_rule(next(quats) if q else su2_quaternion(next(mats))))
            except ValueError as exc:  # a DomainError of a group rule
                raise ManifestError(pointer(k), str(exc)) from exc
    if fault:
        raise ManifestError(*fault)
    raw = np.array(raw)
    raw.flags.writeable = False  # fresh: Representation holds it without a copy
    return raw.reshape(-1, 2, 4) if per == 2 else raw


def manifest_from_dict(doc: dict) -> Manifest:
    _require(isinstance(doc, dict), "", "manifest must be a JSON object")
    schema, curvature = doc.get("schema"), doc.get("curvature")
    if not (_is_number(schema) and schema == SCHEMA_VERSION):
        raise ManifestError("/schema", f"expected schema {SCHEMA_VERSION}")
    if not (_is_number(curvature) and curvature in VALID_CURVATURES):
        raise ManifestError("/curvature", f"curvature must be one of {VALID_CURVATURES}, got {curvature!r}")
    group = doc.get("group")
    if group not in GROUPS:
        raise ManifestError("/group", f"group must be one of {list(GROUPS)}")

    # An empty generator list reads as a missing one.
    gens = doc.get("generators") or None
    _words(gens, "/generators", "expected a nonempty list of generator letters")
    gens = _built("/generators", check_generators, gens)
    relators = _words(doc.get("relators", []), "/relators")
    relator_words = tuple(_built(f"/relators/{k}", parse_word, r, gens) for k, r in enumerate(relators))
    meridians = []
    for k, m in enumerate(_as_list(doc, "meridians", "/meridians")):
        p = f"/meridians/{k}"
        if not isinstance(_object(m, p).get("word"), str):
            raise ManifestError(f"{p}/word", "expected a word string")
        word = _built(f"{p}/word", parse_word, m["word"], gens)
        meridians.append(Meridian(word, m["word"], _integer(m, "edge_id", p), _angle(m, "cone_angle", p)))
    pres = Presentation(gens, relator_words, tuple(relators), tuple(meridians))

    hol = doc.get("holonomy")
    _require(isinstance(hol, dict), "/holonomy", "expected an object keyed by generator")
    rho = Representation(group, _holonomy(hol, gens, group))

    boundary = []
    for k, comp in enumerate(_as_list(doc, "boundary", "/boundary")):
        p = f"/boundary/{k}"
        genus = _integer(_object(comp, p), "genus", p)
        if genus > MAX_SURFACE_GENUS:
            raise ManifestError(f"{p}/genus", GENUS_CAP)
        texts = tuple(_words(comp.get("generator_words"), f"{p}/generator_words"))
        _built(p, check_boundary, genus, len(texts))  # before any of its words
        words = tuple(
            _built(f"{p}/generator_words/{j}", parse_word, w, gens) for j, w in enumerate(texts)
        )
        boundary.append(BoundaryComponent(genus, words, texts))

    edges: list[SingularEdge] = []
    vertices: list[tuple[int, int, int]] = []
    graph_doc = doc.get("singular_graph")
    if graph_doc is not None:
        _object(graph_doc, "/singular_graph")
        for k, e in enumerate(_as_list(graph_doc, "edges", "/singular_graph/edges")):
            p = f"/singular_graph/edges/{k}"
            edges.append(SingularEdge(_integer(_object(e, p), "id", p), _angle(e, "angle", p)))
        for k, v in enumerate(_as_list(graph_doc, "vertices", "/singular_graph/vertices")):
            p = f"/singular_graph/vertices/{k}"
            inc = _object(v, p).get("incident")
            if not (isinstance(inc, list) and len(inc) == 3 and all(_is_number(i, {int}) for i in inc)):
                raise ManifestError(f"{p}/incident", "vertices are trivalent: expected 3 incident edge ids")
            vertices.append(tuple(inc))
    try:
        graph = SingularGraph(tuple(edges), tuple(vertices))
    except DomainError as exc:
        raise ManifestError(f"/singular_graph/{exc.node}", exc.message) from exc
    for k, m in enumerate(meridians):  # each meridian goes around a declared edge
        if m.edge_id not in graph.angle_of:
            raise ManifestError(f"/meridians/{k}/edge_id", f"undeclared edge id {m.edge_id}")
        edge_angle = graph.angle_of[m.edge_id]
        if not abs(m.cone_angle - edge_angle) <= MERGE_TOL:
            raise ManifestError(
                f"/meridians/{k}/cone_angle",
                f"cone angle {m.cone_angle} differs from the angle {edge_angle} of edge {m.edge_id}",
            )

    warnings = _genus_relation_warnings(graph, boundary)
    return Manifest(
        schema=SCHEMA_VERSION,
        curvature=int(curvature),
        group=group,
        presentation=pres,
        representation=rho,
        boundary=tuple(boundary),
        singular_graph=graph,
        warnings=tuple(warnings),
    )


def _genus_relation_warnings(graph: SingularGraph, boundary) -> list[str]:
    """Cross-check the declared genera against the graph's `boundary_genus`."""
    expected = graph.boundary_genus
    declared = [c.genus for c in boundary if c.genus >= 2]
    if expected is not None and declared and expected not in declared:
        return [
            f"connected trivalent graph with {len(graph.edges)} edges has boundary genus "
            f"{expected}; manifest declares {declared}"
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
    if m.singular_graph.edges:
        doc["singular_graph"] = {
            "edges": [{"id": e.id, "angle": e.angle} for e in m.singular_graph.edges],
            "vertices": [{"incident": list(inc)} for inc in m.singular_graph.vertices],
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

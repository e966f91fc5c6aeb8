"""Differential tests of the loader's stacked holonomy read against the
entry-by-entry reader it replaced (`manifest_reference`): an accepted
manifest gives the same raw stack byte for byte, and a refused one the same
JSON pointer and message, on the bundled fixtures, on generated surface
manifests and on fixtures whose holonomy nodes are mutated."""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conerig.errors import ManifestError
from conerig.manifest import fixture_path, manifest_from_dict

from manifest_reference import reference_raw

FIXTURES = [
    "abelian-torus.json",
    "cusped.json",
    "genus2-su2.json",
    "pants-conjugated.json",
    "pants.json",
    "spherical-torus.json",
    "torus.json",
]
GENERA = range(2, 14)
LARGEST_INT = int(sys.float_info.max)  # an int of the float range; one more is beyond it


def surface_doc(group: str, genus: int) -> dict:
    """A surface-group manifest of the benchmark's shape: random unit
    quaternions for SU2, random diagonal matrices for SL2C.  The loader does
    not evaluate relators, so the images need not satisfy them."""
    rng = np.random.default_rng(genus)
    letters = [chr(ord("a") + k) for k in range(2 * genus)]
    if group == "SU2":
        qs = rng.standard_normal((2 * genus, 4))
        hol = {g: (q / np.linalg.norm(q)).tolist() for g, q in zip(letters, qs)}
    else:
        z = np.exp(rng.uniform(-0.5, 0.5, 2 * genus) + 1j * rng.uniform(0.3, 6.0, 2 * genus))
        hol = {
            g: [[[x.real, x.imag], [0.0, 0.0]], [[0.0, 0.0], [(1 / x).real, (1 / x).imag]]]
            for g, x in zip(letters, z)
        }
    relator = "".join(x + y + x.upper() + y.upper() for x, y in zip(letters[0::2], letters[1::2]))
    doc = {
        "schema": 1,
        "curvature": 1 if group == "SU2" else -1,
        "group": group,
        "generators": letters,
        "relators": [relator],
        "meridians": [],
        "holonomy": hol,
    }
    return json.loads(json.dumps(doc))


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def outcome(read, doc):
    """('read', dtype, shape, bytes) of the raw stack, or ('refused',
    pointer, text) of the ManifestError."""
    try:
        raw = read(doc)
    except ManifestError as exc:
        return "refused", exc.pointer, str(exc)
    return "read", raw.dtype.str, raw.shape, raw.tobytes()


def assert_reads_as_the_reference(doc):
    got = outcome(lambda d: manifest_from_dict(d).representation.raw, doc)
    assert got == outcome(reference_raw, doc)
    return got


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reads_as_the_reference(name):
    assert assert_reads_as_the_reference(fixture_doc(name))[0] == "read"


@pytest.mark.parametrize("group", ["SU2", "SL2C"])
@pytest.mark.parametrize("genus", GENERA)
def test_surface_reads_as_the_reference(group, genus):
    assert assert_reads_as_the_reference(surface_doc(group, genus))[0] == "read"


def test_imaginary_negative_zero_is_kept():
    """[re, -0.0] is read as a view of the pair, not as re + 1j * (-0.0),
    which would round the sign away."""
    doc = fixture_doc("torus.json")
    doc["holonomy"]["a"][0][1] = [0.0, -0.0]
    doc["holonomy"]["a"][1][0] = [-0.0, -0.0]
    assert_reads_as_the_reference(doc)
    raw = manifest_from_dict(doc).representation.raw
    assert np.signbit(raw[0].imag).tolist() == [[False, True], [True, True]]
    assert np.signbit(raw[0].real).tolist() == [[False, False], [True, False]]


def _as_matrix(q):
    """The 2x2 matrix form [[a, b], [-conj(b), conj(a)]] of the quaternion a + bj."""
    return [[[q[0], q[1]], [q[2], q[3]]], [[-q[2], q[3]], [q[0], -q[1]]]]


# label: (fixture, [(JSON pointer, new value)]) edits of holonomy nodes: "delete"
# deletes the node, "as matrix" rewrites a quaternion as its matrix, and a
# pointer ending in "-" appends to its list.
DELETE = "delete"
EDITS = {
    "det of a, string in b": (
        "torus.json",
        [("/holonomy/a/0/0", [1.001, 0.0]), ("/holonomy/b/1/1/0", "0.5")],
    ),
    "bool in a, det of b": ("torus.json", [("/holonomy/a/1/0/1", True), ("/holonomy/b/0/0", [2.0, 0.0])]),
    "row of 1 pair": ("torus.json", [("/holonomy/a/1", [[0.0, 0.0]])]),
    "pair of 3 numbers": ("torus.json", [("/holonomy/a/1/1", [0.5, 0.0, 0.0])]),
    "largest float int": ("torus.json", [("/holonomy/a/0/1", [LARGEST_INT, 0])]),
    "int beyond the float range": ("torus.json", [("/holonomy/a/0/1", [LARGEST_INT + 1, 0])]),
    "missing image": ("torus.json", [("/holonomy/b", DELETE)]),
    "inf in a, b missing": (
        "torus.json",
        [("/holonomy/a/0/1", [math.inf, 0.0]), ("/holonomy/b", DELETE)],
    ),
    "10**400": ("cusped.json", [("/holonomy/b/0/0/1", 10**400)]),
    "NaN": ("cusped.json", [("/holonomy/a/1/1/1", math.nan)]),
    "3-number quaternion": ("genus2-su2.json", [("/holonomy/b", [0.448, 0.682, 0.481])]),
    "5-number quaternion": ("genus2-su2.json", [("/holonomy/b/-", 0.0)]),
    "4-character string image": ("genus2-su2.json", [("/holonomy/b", "0.25")]),
    "quaternion as matrix": ("genus2-su2.json", [("/holonomy/c", "as matrix")]),
    "mixed forms, null entry": ("genus2-su2.json", [("/holonomy/a", "as matrix"), ("/holonomy/d/2", None)]),
    "matrix form off SU2": ("genus2-su2.json", [("/holonomy/c", "as matrix"), ("/holonomy/c/0/0/0", 2.0)]),
    "pair side missing": ("spherical-torus.json", [("/holonomy/a/right", DELETE)]),
    "mixed pair forms, bad norm": (
        "spherical-torus.json",
        [("/holonomy/a/left", "as matrix"), ("/holonomy/b/right/0", 2.0)],
    ),
    "-0.0 entry, 3-number side": (
        "spherical-torus.json",
        [("/holonomy/a/right/1", -0.0), ("/holonomy/b/left", [1, 0, 0])],
    ),
    "pair with a third key": (
        "abelian-torus.json",
        [("/holonomy/b", {"left": [1.0, 0.0, 0.0, 0.0], "right": [1, 0, 0, 0], "up": 0})],
    ),
}


def _edit(doc, pointer, value):
    *parents, leaf = pointer.strip("/").split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    key = int(leaf) if isinstance(node, list) and leaf != "-" else leaf
    if key == "-":
        node.append(value)
    elif value == DELETE:
        del node[key]
    elif value == "as matrix":
        node[key] = _as_matrix(node[key])
    else:
        node[key] = value


@pytest.mark.parametrize("case", list(EDITS))
def test_edited_holonomy_reads_as_the_reference(case):
    name, edits = EDITS[case]
    doc = fixture_doc(name)
    for pointer, value in edits:
        _edit(doc, pointer, value)
    assert_reads_as_the_reference(json.loads(json.dumps(doc)))


SCALARS = st.one_of(
    st.sampled_from(
        [True, False, "0.5", "0.25", None, math.nan, math.inf, -math.inf, 10**400, -(10**400),
         LARGEST_INT, LARGEST_INT + 1, 2**53 + 1, -0.0, 0, 1]
    ),
    st.floats(),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.dictionaries(st.sampled_from(["left", "right", "up"]), inner, max_size=3)
    ),
    max_leaves=12,
)


def _nodes(node, path=()):
    """(path, node) of every node under `node`, `node` first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


def _is_quaternion(node) -> bool:
    return isinstance(node, list) and len(node) == 4 and all(type(x) in (int, float) for x in node)


@st.composite
def mutated_holonomies(draw):
    """A fixture or surface manifest with one or two of its holonomy nodes
    replaced, deleted or appended to, a number replaced by a scalar, set to
    -0.0 or nudged by a relative 1e-12 to 1e-9 (re-projected or refused by
    the group rules), or a quaternion rewritten as its matrix; passed
    through JSON text as the CLI reads it."""
    source = draw(st.sampled_from(FIXTURES + ["SU2", "SL2C"]))
    doc = fixture_doc(source) if source in FIXTURES else surface_doc(source, draw(st.sampled_from([2, 3])))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc["holonomy"]))
        kinds = ["replace", "delete", "append", "number", "negative zero", "nudge", "as matrix"]
        kind = draw(st.sampled_from(kinds))
        if kind == "append":
            nodes = [(p, n) for p, n in nodes if isinstance(n, list)]
        elif kind == "number":
            nodes = [(p, n) for p, n in nodes if type(n) in (int, float)]
        elif kind == "nudge":  # not an int, which may be too large to multiply by a float
            nodes = [(p, n) for p, n in nodes if type(n) is float]
        elif kind == "negative zero":
            nodes = [(p, n) for p, n in nodes if type(n) in (int, float) and n == 0]
        elif kind == "as matrix":
            nodes = [(p, n) for p, n in nodes if _is_quaternion(n)]
        elif kind == "delete":
            nodes = nodes[1:]
        if not nodes:
            continue
        path, node = draw(st.sampled_from(nodes))
        if kind == "append":
            node.append(draw(VALUES))
            continue
        if not path:
            doc["holonomy"] = draw(VALUES)
            continue
        parent = doc["holonomy"]
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "replace":
            parent[path[-1]] = draw(VALUES)
        elif kind == "number":
            parent[path[-1]] = draw(SCALARS)
        elif kind == "nudge":
            parent[path[-1]] = node * (1.0 + draw(st.sampled_from([1e-12, 1e-11, 1e-10, 1e-9])))
        elif kind == "negative zero":
            parent[path[-1]] = -0.0
        else:
            parent[path[-1]] = _as_matrix(node)
    return json.loads(json.dumps(doc))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_holonomies())
def test_mutated_holonomy_reads_as_the_reference(doc):
    assert_reads_as_the_reference(doc)

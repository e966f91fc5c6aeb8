"""The entry-by-entry image reader: the reference that the tests hold the
loader's stacked holonomy read (`manifest._holonomy`) against.

Every [re, im] pair and quaternion goes through one reader (`numbers`) that
refuses it at its own JSON pointer, one image at a time in generator order,
and each image is checked by the group rules of `liecore` as soon as it is
read.  `reference_raw(doc)` is the raw stack the loader must build from a
manifest document, or the `ManifestError` it must raise."""
import sys

import numpy as np

from conerig.errors import ManifestError
from conerig.liecore import SL2C, SU2, SU2XSU2, _det_rule, _norm_rule, su2_quaternion


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ManifestError(path, message)


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _built(path: str, make, *args):
    try:
        return make(*args)
    except ValueError as exc:
        raise ManifestError(path, str(exc)) from exc


def numbers(value, count: int, path: str) -> list:
    """A list of `count` finite JSON numbers, an [re, im] pair or a
    quaternion, refused at its own pointer."""
    if not (isinstance(value, list) and len(value) == count and all(_is_number(x) for x in value)):
        raise ManifestError(path, "expected a [re, im] pair" if count == 2 else f"expected {count} numbers")
    if not all(abs(x) <= sys.float_info.max for x in value):
        raise ManifestError(path, f"expected finite numbers, got {value}")
    return value


def matrix(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == 2, path, "expected a 2x2 matrix")
    rows = []
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == 2, f"{path}/{i}", "expected a row of 2 entries")
        rows.append([complex(*numbers(z, 2, f"{path}/{i}/{j}")) for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def parse_image(value, group: str, path: str) -> np.ndarray:
    """One image's raw array: a 2x2 matrix for SL2C; a quaternion, or one
    off a 2x2 matrix, for SU2; a left and a right one for SU2xSU2."""
    if group == SU2XSU2:
        pair = isinstance(value, dict) and set(value) == {"left", "right"}
        _require(pair, path, "expected keys 'left' and 'right'")
        return np.array([parse_image(value[k], SU2, f"{path}/{k}") for k in ("left", "right")])
    if group == SL2C:
        return _built(path, _det_rule, matrix(value, path))
    if isinstance(value, list) and len(value) == 4:
        q = np.array(numbers(value, 4, path), dtype=float)
    else:
        q = _built(path, su2_quaternion, matrix(value, path))
    with np.errstate(over="ignore", invalid="ignore"):
        return _built(path, _norm_rule, q)


def reference_raw(doc: dict) -> np.ndarray:
    """The raw stack of the images of a manifest whose generators and group
    are valid, read image by image."""
    hol = doc.get("holonomy")
    _require(isinstance(hol, dict), "/holonomy", "expected an object keyed by generator")
    images = []
    for g in doc["generators"]:
        _require(g in hol, f"/holonomy/{g}", f"missing image for generator {g!r}")
        images.append(parse_image(hol[g], doc["group"], f"/holonomy/{g}"))
    return np.array(images)

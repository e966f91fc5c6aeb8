"""The fixture generator reproduces every bundled fixture (nothing is written)."""
import importlib.util
import json
import numbers
from pathlib import Path

import pytest

from conerig.manifest import fixture_path

pytest.importorskip("scipy")  # the genus-2 builder solves with scipy.optimize

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BUILDERS = {
    "torus.json": lambda g: g.make_torus(),
    "spherical-torus.json": lambda g: g.make_spherical_torus(coaxial_equal=False),
    "abelian-torus.json": lambda g: g.make_spherical_torus(coaxial_equal=True),
    "pants.json": lambda g: g.make_pants(conjugated=False),
    "pants-conjugated.json": lambda g: g.make_pants(conjugated=True),
    "genus2-su2.json": lambda g: g.make_genus2(),
    "cusped.json": lambda g: g.make_cusped(),
}


def assert_same(built, stored, where="") -> None:
    """Same keys, lengths and strings; every number within 1e-12."""
    if isinstance(stored, dict):
        assert isinstance(built, dict) and set(built) == set(stored), where
        for key in stored:
            assert_same(built[key], stored[key], f"{where}/{key}")
    elif isinstance(stored, list):
        assert isinstance(built, (list, tuple)) and len(built) == len(stored), where
        for k, (b, s) in enumerate(zip(built, stored)):
            assert_same(b, s, f"{where}/{k}")
    elif isinstance(stored, numbers.Real) and not isinstance(stored, bool):
        assert isinstance(built, numbers.Real) and not isinstance(built, bool), where
        assert abs(built - stored) <= 1e-12, (where, built, stored)
    else:
        assert built == stored, where


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_generator_reproduces_fixture(gen, name):
    assert_same(BUILDERS[name](gen), json.loads(fixture_path(name).read_text()))


def test_every_bundled_fixture_has_a_builder():
    bundled = {p.name for p in fixture_path("torus.json").parent.glob("*.json")}
    assert bundled == set(BUILDERS)

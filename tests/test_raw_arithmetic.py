"""The raw-array arithmetic against the references of `cocycle_reference`,
bit for bit: `deform`, `exp_raw` and the closed-form inverse; and a
work-count guard that keeps `deform` at one exponential and one product per
generator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    SU2,
    coefficient_field,
    exp_raw,
    raw_inverse,
)
from conerig import words
from conerig.manifest import fixture_path, load_manifest
from conerig.words import Representation, deform

from cocycle_reference import deform_reference, exp_algebra_reference

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "cusped.json",
    "genus2-su2.json",
    "spherical-torus.json",
    "abelian-torus.json",
]
STEPS = [1e-8, 1e-5, 1e-2, 0.3]

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def exp_of(group, xs):
    return exp_raw(group, field_vector(group, xs))


def field_vector(group, xs):
    """3 field coordinates from the first 6 floats; over C each takes two as (re, im)."""
    xs = np.array(xs[:6])
    return xs[0::2] + 1j * xs[1::2] if group == SL2C else xs[:3]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def fixture_factors(name):
    return load_manifest(fixture_path(name)).representation.factors


@pytest.mark.parametrize("name", FIXTURES)
def test_deform_matches_the_reference_on_fixtures(name):
    rng = np.random.default_rng(14)
    for rho in fixture_factors(name):
        field, d = coefficient_field(rho.group)
        for _ in range(5):
            z = rng.standard_normal(d * len(rho.raw))
            if field is complex:
                z = z + 1j * rng.standard_normal(z.shape)
            for t in STEPS:
                assert_same_bits(deform(rho, z, t).raw, deform_reference(rho, z, t))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([SL2C, SU2]),
    st.lists(coord, min_size=12, max_size=12),
    st.lists(coord, min_size=12, max_size=12),
    st.sampled_from(STEPS) | st.floats(-1.0, 1.0, allow_nan=False),
)
def test_deform_matches_the_reference_on_random_coordinates(group, images, cocycle, t):
    rho = Representation(group, np.array([exp_of(group, images[k::2]) for k in range(2)]))
    z = np.concatenate([field_vector(group, cocycle[k::2]) for k in range(2)])
    assert_same_bits(deform(rho, z, t).raw, deform_reference(rho, z, t))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([SL2C, SU2]),
    st.lists(coord, min_size=6, max_size=6),
    st.sampled_from([1e-12, 1e-8, 1e-4, 1.0, 4.0]),
)
def test_exp_raw_matches_the_matrix_exponential(group, xs, scale):
    # both read the same `_exp_traceless`: the same array or the same refusal
    def outcome(exp, *args):
        try:
            g = exp(*args)
        except DomainError as exc:
            return str(exc)
        return g.dtype, g.shape, g.tobytes()

    coords = scale * field_vector(group, xs)
    assert outcome(exp_raw, group, coords) == outcome(exp_algebra_reference, group, coords)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([SL2C, SU2]), st.lists(coord, min_size=18, max_size=18))
def test_raw_inverse_is_the_adjugate_on_one_array_and_on_a_stack(group, xs):
    images = [exp_of(group, xs[6 * k :]) for k in range(3)]
    inverses = raw_inverse(group, np.array(images))
    for g, got in zip(images, inverses):
        if group == SL2C:
            (a, b), (c, d) = g
            want = np.array([[d, -b], [-c, a]])
        else:
            want = g * np.array([1.0, -1.0, -1.0, -1.0])
        assert_same_bits(raw_inverse(group, g), want)
        assert_same_bits(got, want)


def test_deform_refuses_an_unsplit_pair():
    rho = load_manifest(fixture_path("spherical-torus.json")).representation
    with pytest.raises(DomainError, match="split"):
        deform(rho, np.zeros(6), 0.1)


@pytest.mark.parametrize("name", ["pants.json", "genus2-su2.json"])
def test_deform_takes_one_exponential_and_one_product_per_generator(name, monkeypatch):
    (rho,) = fixture_factors(name)
    field, d = coefficient_field(rho.group)
    z = np.ones(d * len(rho.raw), dtype=field)
    calls = []
    for fn in ("exp_raw", "raw_product"):
        real = getattr(words, fn)

        def counted(*args, _real=real, _fn=fn):
            calls.append(_fn)
            return _real(*args)

        monkeypatch.setattr(words, fn, counted)
    deformed = deform(rho, z, 0.1)
    assert sorted(calls) == sorted(["exp_raw", "raw_product"] * len(rho.raw))
    assert deformed.raw.shape == rho.raw.shape

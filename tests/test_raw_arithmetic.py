"""Element arithmetic is a view of the raw-array arithmetic: `deform`,
`exp_algebra` and the closed-form inverse against the element-path
references of `cocycle_reference`, bit for bit, and a work-count guard that
keeps `deform` on raw arrays, with no element built."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    AlgebraVector,
    Sl2cElement,
    Su2Element,
    coefficient_field,
    exp_algebra,
    raw_inverse,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import Representation, deform, split_representation

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


def raw(g):
    return g.q if isinstance(g, Su2Element) else g.mat


def exp_of(group, xs):
    return exp_algebra(AlgebraVector.from_coords(group, field_vector(group, xs)))


def field_vector(group, xs):
    """3 field coordinates from the first 6 floats; over C each takes two as (re, im)."""
    xs = np.array(xs[:6])
    return xs[0::2] + 1j * xs[1::2] if group == SL2C else xs[:3]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def fixture_factors(name):
    rho = load_manifest(fixture_path(name)).representation
    return split_representation(rho) if rho.group == SU2XSU2 else (rho,)


@pytest.mark.parametrize("name", FIXTURES)
def test_deform_matches_the_element_path_on_fixtures(name):
    rng = np.random.default_rng(14)
    for rho in fixture_factors(name):
        field, d = coefficient_field(rho.group)
        for _ in range(5):
            z = rng.standard_normal(d * len(rho.images))
            if field is complex:
                z = z + 1j * rng.standard_normal(z.shape)
            for t in STEPS:
                assert_same_bits(deform(rho, z, t).raw, deform_reference(rho, z, t).raw)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([SL2C, SU2]),
    st.lists(coord, min_size=12, max_size=12),
    st.lists(coord, min_size=12, max_size=12),
    st.sampled_from(STEPS) | st.floats(-1.0, 1.0, allow_nan=False),
)
def test_deform_matches_the_element_path_on_random_coordinates(group, images, cocycle, t):
    rho = Representation.from_images(group, tuple(exp_of(group, images[k::2]) for k in range(2)))
    z = np.concatenate([field_vector(group, cocycle[k::2]) for k in range(2)])
    assert_same_bits(deform(rho, z, t).raw, deform_reference(rho, z, t).raw)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([SL2C, SU2]),
    st.lists(coord, min_size=6, max_size=6),
    st.sampled_from([1e-12, 1e-8, 1e-4, 1.0, 4.0]),
)
def test_exp_algebra_matches_the_matrix_exponential(group, xs, scale):
    # both read the same `_exp_traceless`: the same element or the same refusal
    def outcome(exp):
        try:
            g = exp(v)
        except DomainError as exc:
            return str(exc)
        return raw(g).dtype, raw(g).tobytes()

    v = AlgebraVector.from_coords(group, scale * field_vector(group, xs))
    assert outcome(exp_algebra) == outcome(exp_algebra_reference)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([SL2C, SU2]), st.lists(coord, min_size=18, max_size=18))
def test_raw_inverse_is_inv_on_one_array_and_on_a_stack(group, xs):
    images = [exp_of(group, xs[6 * k :]) for k in range(3)]
    stack = np.array([raw(g) for g in images])
    inverses = raw_inverse(group, stack)
    for g, got in zip(images, inverses):
        want = raw(g.inv())
        assert_same_bits(raw_inverse(group, raw(g)), want)
        assert_same_bits(got, want)
        if group == SL2C:
            (a, b), (c, d) = raw(g)
            assert_same_bits(got, np.array([[d, -b], [-c, a]]))
        else:
            assert_same_bits(got, raw(g) * np.array([1.0, -1.0, -1.0, -1.0]))


def test_deform_refuses_an_unsplit_pair():
    rho = load_manifest(fixture_path("spherical-torus.json")).representation
    with pytest.raises(DomainError, match="split"):
        deform(rho, np.zeros(6), 0.1)


@pytest.mark.parametrize("name", ["pants.json", "genus2-su2.json"])
def test_deform_builds_no_element_and_calls_no_mul(name, monkeypatch):
    (rho,) = fixture_factors(name)
    field, d = coefficient_field(rho.group)
    z = np.ones(d * len(rho.raw), dtype=field)
    built = []
    for cls in (Sl2cElement, Su2Element):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        def refused(self, other):
            raise AssertionError("deform multiplies element objects")

        monkeypatch.setattr(cls, "__init__", counted)
        monkeypatch.setattr(cls, "mul", refused)
    deformed = deform(rho, z, 0.1)
    assert built == [] and deformed.raw.shape == rho.raw.shape

"""Differential tests: Fox derivatives, the relator Jacobian, the meridian
trace Jacobian and the closed-form Ad matrix against the cocycle-extension
and adjoint-action definitions they replace."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conerig.cohomology import h1_basis, rigidity_test
from conerig.liecore import (
    adjoint_stack,
    coefficient_field,
    exp_raw,
    raw_inverse,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import (
    Representation,
    evaluate,
    fox_derivatives,
    fox_jacobian,
    free_reduce,
    prefix_walk,
)

from cocycle_reference import ad_action, coords_to_matrix, element_matrix, extend_cocycle, mul

FIXTURES = [
    "torus.json",
    "pants.json",
    "pants-conjugated.json",
    "cusped.json",
    "genus2-su2.json",
    "spherical-torus.json",
    "abelian-torus.json",
]

coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def reference_fox_jacobian(rho, pres):
    """Column (j, k): the cocycle with the k-th field basis vector on generator
    j and zero elsewhere, extended over every relator."""
    field, d = coefficient_field(rho.group)
    n = len(pres.generators)
    jac = np.zeros((d * len(pres.relators), d * n), dtype=field)
    for col, z in enumerate(np.eye(d * n, dtype=field)):
        for r, rel in enumerate(pres.relators):
            jac[d * r : d * (r + 1), col] = extend_cocycle(rho, z, rel)
    return jac


def draw_coords(group, xs, count=1):
    """Field coordinates of `count` algebra vectors from a list of floats; over
    C each coordinate takes two floats as (re, im)."""
    if group == "SL2C":
        xs = np.array(xs[: 6 * count])
        return xs[0::2] + 1j * xs[1::2]
    return np.array(xs[: 3 * count])


def reference_trace_jacobian(rho, pres, basis):
    """Entry (m, k): tr(z_k(mu_m) rho(mu_m)) for the cocycle z_k of column k of
    the field basis, extended over meridian mu_m."""

    def trace(z, w):
        value = coords_to_matrix(rho.group, extend_cocycle(rho, z, w))
        return np.trace(value @ element_matrix(evaluate(rho, w)))

    jac = np.array(
        [[trace(z, w) for z in basis.T] for w in (m.word for m in pres.meridians)],
        dtype=complex,
    ).reshape(len(pres.meridians), basis.shape[1])
    return jac if rho.group == "SL2C" else jac.real


def load(name):
    m = load_manifest(fixture_path(name))
    return m.representation, m.presentation


def conjugated(rho, coords):
    """rho with every image conjugated by the exponential of the algebra
    vector with field coordinates `coords`."""
    g = exp_raw(rho.group, coords)
    gi = raw_inverse(rho.group, g)
    images = [mul(rho.group, mul(rho.group, g, x), gi) for x in rho.raw]
    return Representation(rho.group, np.array(images))


def assert_close(got, want, tol):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= tol * max(1.0, np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("name", FIXTURES)
def test_fox_jacobian_matches_cocycle_extension(name):
    rho, pres = load(name)
    for f in rho.factors:
        assert_close(fox_jacobian(f, pres), reference_fox_jacobian(f, pres), 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURES), st.lists(coord, min_size=6, max_size=6))
def test_fox_jacobian_matches_on_conjugates(name, coords):
    # Conjugating every image by one group element keeps the relators; the
    # SU(2) factors of a pair take coordinates 0..2 and 3..5.
    rho, pres = load(name)
    for k, f in enumerate(rho.factors):
        rho_c = conjugated(f, draw_coords(f.group, coords[3 * k :]))
        assert_close(fox_jacobian(rho_c, pres), reference_fox_jacobian(rho_c, pres), 1e-12)


letter = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["SL2C", "SU2"]),
    st.lists(coord, min_size=18, max_size=18),
    st.lists(coord, min_size=18, max_size=18),
    st.lists(letter, max_size=8),
)
@example("SL2C", [0.5] * 18, [1.0] * 18, [])
@example("SU2", [0.5] * 18, [1.0] * 18, [])
@example("SL2C", [0.5] * 18, [1.0] * 18, [(0, -1), (1, 1), (0, 1), (2, -1)])
def test_fox_derivatives_match_cocycle_extension(group, image_coords, cocycle_coords, word):
    image_vals = draw_coords(group, image_coords, 3)
    images = [exp_raw(group, image_vals[3 * k : 3 * (k + 1)]) for k in range(3)]
    rho = Representation(group, np.array(images))
    z = draw_coords(group, cocycle_coords, 3)
    word = tuple(word)
    jac, image = fox_derivatives(rho, [word])
    want = extend_cocycle(rho, z, word)
    assert_close(jac @ z, want, 1e-12)
    # The image comes from the same walk: that of the freely reduced word.
    assert image[0].tobytes() == prefix_walk(rho, free_reduce(word))[-1].tobytes()


def assert_trace_jacobian_matches_reference(rho, pres):
    report = rigidity_test(rho, pres)
    for f, rep in zip(rho.factors, getattr(report, "factors", (report,))):
        want = reference_trace_jacobian(f, pres, h1_basis(f, pres).basis_H1)
        assert_close(rep.trace_jacobian, want, 1e-12)


@pytest.mark.parametrize("name", FIXTURES)
def test_trace_jacobian_matches_cocycle_extension(name):
    assert_trace_jacobian_matches_reference(*load(name))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURES), st.lists(coord, min_size=6, max_size=6))
def test_trace_jacobian_matches_on_conjugates(name, coords):
    rho, pres = load(name)
    for k, f in enumerate(rho.factors):
        assert_trace_jacobian_matches_reference(conjugated(f, draw_coords(f.group, coords[3 * k :])), pres)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["SL2C", "SU2"]), st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_closed_form_ad_matches_ad_action(group, coords):
    g = exp_raw(group, draw_coords(group, coords))
    want = np.column_stack([ad_action(g, e) for e in np.eye(3, dtype=coefficient_field(group)[0])])
    assert_close(adjoint_stack(group, g[None])[0], want, 1e-13)


@pytest.mark.parametrize("name", ["torus.json", "pants.json", "cusped.json"])
def test_sl2c_h1_basis_is_a_complex_field_matrix_in_the_kernel(name):
    rho, pres = load(name)
    rep = h1_basis(rho, pres)
    assert np.iscomplexobj(rep.basis_H1)
    assert rep.basis_H1.shape == (3 * len(pres.generators), rep.dim_H1_complex)
    assert np.abs(fox_jacobian(rho, pres) @ rep.basis_H1).max() <= 1e-12

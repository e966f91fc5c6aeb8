"""Differential tests: Fox derivatives, the relator Jacobian, the meridian
trace Jacobian and the closed-form Ad matrix against the cocycle-extension
and adjoint-action definitions they replace."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conerig.cohomology import h1_basis, rigidity_test
from conerig.liecore import (
    SU2XSU2,
    AlgebraVector,
    ad_action,
    adjoint_matrix,
    algebra_basis,
    algebra_dim,
    exp_algebra,
    realify,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import (
    Cocycle,
    Representation,
    evaluate,
    extend_cocycle,
    fox_derivatives,
    fox_jacobian,
    relator_jacobian,
    split_representation,
)

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


def reference_relator_jacobian(rho, pres):
    """Column (j, k): the formal cocycle with the k-th real basis vector on
    generator j and zero elsewhere, extended over every relator."""
    group = rho.group
    basis = algebra_basis(group)
    d, n = len(basis), len(pres.generators)
    zero = AlgebraVector.zero(group)
    jac = np.zeros((d * len(pres.relators), d * n))
    for j in range(n):
        for k, e in enumerate(basis):
            z = Cocycle(group, tuple(e if m == j else zero for m in range(n)))
            for r, rel in enumerate(pres.relators):
                jac[d * r : d * (r + 1), d * j + k] = extend_cocycle(rho, z, rel).coords()
    return jac


def real_coords(coords):
    """`Cocycle.coords` order of field coordinates: (re, im) interleaved over C."""
    return np.ascontiguousarray(coords).view(float) if np.iscomplexobj(coords) else coords


def field_coords(group, real):
    return real.view(complex) if group == "SL2C" else real


def reference_trace_jacobian(rho, pres, basis):
    """Entry (m, k): tr(z_k(mu_m) rho(mu_m)) for the cocycle z_k of column k of
    the field basis, extended over meridian mu_m."""
    n = len(pres.generators)
    cocycles = [Cocycle.from_coords(rho.group, real_coords(h), n) for h in basis.T]
    jac = np.array(
        [
            [np.trace(extend_cocycle(rho, z, w).mat @ evaluate(rho, w).mat) for z in cocycles]
            for w in (m.word for m in pres.meridians)
        ],
        dtype=complex,
    ).reshape(len(pres.meridians), len(cocycles))
    return jac if rho.group == "SL2C" else jac.real


def load(name):
    m = load_manifest(fixture_path(name))
    return m.representation, m.presentation


def factors(rho):
    """The representation itself, or its two SU(2) factors for SU2xSU2."""
    return split_representation(rho) if rho.group == SU2XSU2 else (rho,)


def assert_close(got, want, tol):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= tol * max(1.0, np.abs(want).max(initial=0.0))


@pytest.mark.parametrize("name", FIXTURES)
def test_fox_jacobian_matches_cocycle_extension(name):
    rho, pres = load(name)
    for f in factors(rho):
        assert_close(relator_jacobian(f, pres), reference_relator_jacobian(f, pres), 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURES), st.lists(coord, min_size=6, max_size=6))
def test_fox_jacobian_matches_on_conjugates(name, coords):
    # Conjugating every image by one group element keeps the relators; the
    # SU(2) factors of a pair take coordinates 0..2 and 3..5.
    rho, pres = load(name)
    for k, f in enumerate(factors(rho)):
        d = algebra_dim(f.group)
        g = exp_algebra(AlgebraVector.from_coords(f.group, np.array(coords[3 * k : 3 * k + d])))
        rho_c = Representation(f.group, tuple(g.mul(x).mul(g.inv()) for x in f.images))
        assert_close(relator_jacobian(rho_c, pres), reference_relator_jacobian(rho_c, pres), 1e-12)


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
    d = algebra_dim(group)
    images = tuple(
        exp_algebra(AlgebraVector.from_coords(group, np.array(image_coords[d * k : d * (k + 1)])))
        for k in range(3)
    )
    rho = Representation(group, images)
    z = Cocycle.from_coords(group, np.array(cocycle_coords[: 3 * d]), 3)
    word = tuple(word)
    got = fox_derivatives(rho, [word]) @ field_coords(group, z.coords())
    want = field_coords(group, extend_cocycle(rho, z, word).coords())
    assert_close(got, want, 1e-12)


def assert_trace_jacobian_matches_reference(rho, pres):
    report = rigidity_test(rho, pres)
    for f, rep in zip(factors(rho), report.factors or (report,)):
        want = reference_trace_jacobian(f, pres, h1_basis(f, pres).basis_H1)
        assert_close(rep.trace_jacobian, want, 1e-12)


@pytest.mark.parametrize("name", FIXTURES)
def test_trace_jacobian_matches_cocycle_extension(name):
    assert_trace_jacobian_matches_reference(*load(name))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURES), st.lists(coord, min_size=6, max_size=6))
def test_trace_jacobian_matches_on_conjugates(name, coords):
    rho, pres = load(name)
    for k, f in enumerate(factors(rho)):
        d = algebra_dim(f.group)
        g = exp_algebra(AlgebraVector.from_coords(f.group, np.array(coords[3 * k : 3 * k + d])))
        rho_c = Representation(f.group, tuple(g.mul(x).mul(g.inv()) for x in f.images))
        assert_trace_jacobian_matches_reference(rho_c, pres)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["SL2C", "SU2"]), st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_closed_form_ad_matches_ad_action(group, coords):
    d = algebra_dim(group)
    g = exp_algebra(AlgebraVector.from_coords(group, np.array(coords[:d])))
    want = np.column_stack([ad_action(g, e).coords() for e in algebra_basis(group)])
    assert_close(realify(adjoint_matrix(g)), want, 1e-13)


@pytest.mark.parametrize("name", ["torus.json", "pants.json", "cusped.json"])
def test_sl2c_h1_basis_is_a_complex_field_matrix_in_the_kernel(name):
    rho, pres = load(name)
    rep = h1_basis(rho, pres)
    assert np.iscomplexobj(rep.basis_H1)
    assert rep.basis_H1.shape == (3 * len(pres.generators), rep.dim_H1_complex)
    assert np.abs(fox_jacobian(rho, pres) @ rep.basis_H1).max() <= 1e-12

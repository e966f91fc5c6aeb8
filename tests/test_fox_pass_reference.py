"""Differential tests of one Fox pass per factor against the flow it replaced
(`cohomology_reference`): the same H^1 dimensions and bases, the same audit,
and the same rigidity verdicts, ranks, flags, notes and trace Jacobians, bit
for bit, on the bundled fixtures, on SU(2) and SL(2,C) surface groups, and
on a torus whose boundary words do not induce the interior's images, and
on a free SU(2)xSU(2) pair with one meridian.  The
closed-form trace covectors and the +/- identity test on raw images are held
against the basis-matrix contraction and the hypot of the entries."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerig import cohomology
from conerig.cohomology import (
    FLAG_MERIDIAN_ID,
    TOL_CENTRAL,
    BoundaryComponent,
    dimension_audit,
    h1_reports,
    rigidity_test,
)
from conerig.liecore import SL2C, SU2, SU2XSU2, identity_distance, matrix_stack, trace_covectors
from conerig.manifest import fixture_path, load_manifest
from conerig.words import Presentation, Representation, parse_word

import cohomology_reference as reference
from test_walk_h1 import sl2c_diagonal_surface, su2_surface

FIXTURES = [
    "abelian-torus.json",
    "cusped.json",
    "genus2-su2.json",
    "pants-conjugated.json",
    "pants.json",
    "spherical-torus.json",
    "torus.json",
]


def fixture_case(name):
    m = load_manifest(fixture_path(name))
    return m.representation, m.presentation, m.boundary


def torus_case(words):
    """torus.json with its boundary component's generator words replaced."""
    rho, pres, _ = fixture_case("torus.json")
    parsed = tuple(parse_word(w, pres.generators) for w in words)
    return rho, pres, (BoundaryComponent(1, parsed, tuple(words)),)


def surface_case(make, genus):
    """A surface group with two meridian words and its own surface as the
    boundary, whose words are the generators."""
    rho = make(genus, np.random.default_rng(genus))
    base = cohomology.surface_presentation(genus)
    gens = base.generators
    pres = Presentation.from_strings(
        gens, base.relator_texts, [("a", 0, math.pi / 2), ("ab", 1, math.pi / 3)]
    )
    words = tuple(((i, 1),) for i in range(len(gens)))
    return rho, pres, (BoundaryComponent(genus, words, gens),)


def free_pair_case(word):
    """A random SU(2)xSU(2) image of the free group on a and b with one
    meridian: each factor's trace Jacobian is a one-row product."""
    q = np.random.default_rng(0).normal(size=(2, 2, 4))
    rho = Representation(SU2XSU2, q / np.linalg.norm(q, axis=-1, keepdims=True))
    return rho, Presentation.from_strings(["a", "b"], [], [(word, 0, 1.0)]), ()


CASES = [pytest.param(fixture_case, (name,), id=name) for name in FIXTURES] + [
    pytest.param(torus_case, (words,), id="torus-" + "-".join(words))
    for words in (["a", "b"], ["b", "a"], ["ab", "b"])
] + [
    pytest.param(surface_case, (make, genus), id=f"{make.__name__}-g{genus}")
    for make in (su2_surface, sl2c_diagonal_surface)
    for genus in (2, 3, 4)
] + [pytest.param(free_pair_case, (word,), id="free-pair-" + word) for word in ("a", "bA")]


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make,args", CASES)
def test_interior_h1_matches_the_reference(make, args):
    rho, pres, _ = make(*args)
    got = h1_reports(rho, pres)
    want = [reference.h1_basis(f, pres) for f in reference.checked_factors(rho, pres)]
    assert len(got) == len(want)
    for report, (dims, basis) in zip(got, want):
        degree = 2 if report.group == "SL2C" else 1
        assert (report.dim_Z0, report.dim_Z1, report.dim_B1, report.dim_H1) == tuple(
            degree * k for k in dims
        )
        assert same_bits(report.basis_H1, basis)


@pytest.mark.parametrize("make,args", CASES)
def test_audit_matches_the_reference(make, args, monkeypatch):
    rho, pres, boundary = make(*args)
    want = reference.audit(rho, pres, boundary)
    interior = h1_reports(rho, pres)
    calls = []
    real = cohomology._h1
    monkeypatch.setattr(cohomology, "_h1", lambda f, *rest: calls.append(f) or real(f, *rest))
    audits = [dimension_audit(rho, pres, boundary, interior), dimension_audit(rho, pres, boundary)]
    if not boundary:
        assert all(audit.skipped for audit in audits) and not calls
        return
    # A component is taken from the interior exactly when it induces the
    # interior's images and relators.
    fresh = 0
    for f in rho.factors:
        for c, comp in enumerate(boundary):
            sub_rho, sub_pres = cohomology.induced_boundary_representation(f, comp)
            same = np.array_equal(sub_rho.raw, f.raw) and sub_pres.relators == pres.relators
            fresh += not same
    assert len(calls) == 2 * fresh + len(interior)
    for audit in audits:
        got_dims = [entry["dim_H1"] for entry in audit.boundary]
        assert got_dims == [dim for _, comps in want for dim in comps]
        per_factor = len(audit.identities) // len(want)
        for k, (dims, comps) in enumerate(want):
            half, count = audit.identities[k * per_factor : (k + 1) * per_factor]
            assert (half.lhs, half.rhs) == (float(dims[3]), 0.5 * sum(comps))
            assert count.lhs == float(dims[1])


@pytest.mark.parametrize("make,args", CASES)
def test_rigidity_matches_the_reference(make, args):
    rho, pres, _ = make(*args)
    report = rigidity_test(rho, pres)
    want = reference.rigidity(rho, pres)
    got = getattr(report, "factors", (report,))
    assert len(got) == len(want)
    for r, (dim_h1, rank, rigid, flags, notes, jac) in zip(got, want):
        assert (r.dim_h1, r.rank, r.verdict == "LocallyRigid") == (dim_h1, rank, rigid)
        assert (r.degenerate_flags, r.notes) == (flags, notes)
        assert same_bits(r.trace_jacobian, jac)
    assert report.rank == sum(w[1] for w in want)
    assert (report.verdict == "LocallyRigid") == all(w[2] for w in want)


# Entries with signed zeros next to ordinary and large ones; the einsum of
# the reference adds products of these with the basis matrices' 0 and +/-1.
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))


@st.composite
def raw_stacks(draw):
    """A stack of 1 to 4 raw SL2C matrices, some with a == d, or SU2
    quaternions; any finite entries, in the group or not."""
    group = draw(st.sampled_from([SL2C, SU2]))
    count = draw(st.integers(1, 4))
    if group == SU2:
        return group, np.array(draw(st.lists(st.lists(ENTRIES, min_size=4, max_size=4), min_size=count, max_size=count)))
    parts = np.array(draw(st.lists(ENTRIES, min_size=8 * count, max_size=8 * count)))
    raw = parts.view(np.complex128).reshape(count, 2, 2)
    for k in draw(st.lists(st.integers(0, count - 1), max_size=count)):
        raw[k, 1, 1] = raw[k, 0, 0]
    return group, raw


@settings(max_examples=300, deadline=None)
@given(case=raw_stacks())
def test_trace_covectors_match_the_basis_matrices_bit_for_bit(case):
    group, raw = case
    want = np.einsum("kij,rji->rk", reference._FIELD_BASIS[group], matrix_stack(group, raw))
    got = trace_covectors(group, raw)
    assert same_bits(got, want if group == SL2C else want.real)


def central(group, raw, tol):
    """The +/- identity test that `rigidity_test` makes on a meridian's raw image."""
    return min(identity_distance(group, raw), identity_distance(group, -raw)) <= tol


def su2_turn(distance):
    """The unit quaternion whose 2x2 matrix is `distance` from the identity."""
    t = 2.0 * math.asin(distance / (2.0 * math.sqrt(2.0)))
    return np.array([math.cos(t), math.sin(t), 0.0, 0.0])


# The tolerance of a one-letter meridian whose image has norm about sqrt(2).
UNIT_TOL = TOL_CENTRAL * math.sqrt(2.0) / 2.0
NEAR_IDENTITY = [
    pytest.param(SL2C, sign * np.array([[1.0, k * UNIT_TOL], [0.0, 1.0]], dtype=complex), id=f"SL2C{sign:+}x{k}")
    for sign in (1.0, -1.0)
    for k in (0.0, 0.999, 1.001)
] + [
    pytest.param(SU2, sign * su2_turn(k * UNIT_TOL), id=f"SU2{sign:+}x{k}")
    for sign in (1.0, -1.0)
    for k in (0.0, 0.999, 1.001)
]


@pytest.mark.parametrize("group, image", NEAR_IDENTITY)
def test_identity_test_matches_the_hypot_near_the_tolerance(group, image):
    # one-letter meridian "a": its tolerance is TOL_CENTRAL |rho(a)| / 2
    tol = TOL_CENTRAL * float(np.linalg.norm(matrix_stack(group, image[None])[0])) / 2.0
    expected = reference._meridian_image_central(matrix_stack(group, image[None])[0], tol)
    assert central(group, image, tol) == expected
    assert expected == (identity_distance(group, image) < UNIT_TOL or identity_distance(group, -image) < UNIT_TOL)
    other = np.diag([2.0, 0.5]).astype(complex) if group == SL2C else np.array([0.6, 0.0, 0.8, 0.0])
    rho = Representation(group, np.array([image, other]))
    pres = Presentation.from_strings(["a", "b"], [], [("a", 0, 1.0)])
    report = rigidity_test(rho, pres)
    assert (FLAG_MERIDIAN_ID in report.degenerate_flags) == expected
    assert report.degenerate_flags == reference.rigidity(rho, pres)[0][3]


@pytest.mark.parametrize("tol", [TOL_CENTRAL * 1e200 / 2.0, math.inf])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_identity_test_matches_the_hypot_when_the_distance_overflows(tol, sign):
    # |g - 1| overflows in identity_distance and not in the hypot; a finite
    # tolerance refuses both, one that overflowed accepts both
    image = sign * np.array([[1e200, 0.0], [1e200, 1e-200]], dtype=complex)
    assert identity_distance(SL2C, image) == identity_distance(SL2C, -image) == math.inf
    assert central(SL2C, image, tol) == reference._meridian_image_central(image, tol) == (tol == math.inf)

"""Differential tests of one Fox pass per factor against the flow it replaced
(`cohomology_reference`): the same H^1 dimensions and bases, the same audit,
and the same rigidity verdicts, ranks, flags, notes and trace Jacobians, bit
for bit, on the bundled fixtures, on SU(2) and SL(2,C) surface groups, and
on a torus whose boundary words do not induce the interior's images."""
import math

import numpy as np
import pytest

from conerig import cohomology
from conerig.cohomology import (
    BoundaryComponent,
    dimension_audit,
    h1_reports,
    rigidity_test,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import Presentation, parse_word

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


CASES = [pytest.param(fixture_case, (name,), id=name) for name in FIXTURES] + [
    pytest.param(torus_case, (words,), id="torus-" + "-".join(words))
    for words in (["a", "b"], ["b", "a"], ["ab", "b"])
] + [
    pytest.param(surface_case, (make, genus), id=f"{make.__name__}-g{genus}")
    for make in (su2_surface, sl2c_diagonal_surface)
    for genus in (2, 3, 4)
]


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

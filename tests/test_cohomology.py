import math

import numpy as np
import pytest

from conerig.cohomology import (
    BoundaryComponent,
    FLAG_ABELIAN,
    FLAG_MERIDIAN_ID,
    FLAG_REDUCIBLE,
    VERDICT_DEFICIENT,
    VERDICT_RIGID,
    coboundary_space,
    cocycle_space,
    dimension_audit,
    h1_basis,
    rigidity_test,
    standard_torus_cocycles,
    trace_differential,
    z0_space,
)
from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    _det_rule,
    coefficient_field,
    complex_length_sl2c,
    exp_raw,
    raw_inverse,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.words import (
    Presentation,
    Representation,
    evaluate,
    fox_jacobian,
    parse_word,
    split_representation,
)

from cocycle_reference import ad_action, coboundary, extend_cocycle, mul


def load(name):
    m = load_manifest(fixture_path(name))
    return m.representation, m.presentation, m


@pytest.fixture(scope="module")
def torus():
    return load("torus.json")


@pytest.fixture(scope="module")
def pants():
    return load("pants.json")


@pytest.fixture(scope="module")
def genus2():
    return load("genus2-su2.json")


@pytest.fixture(scope="module")
def cusped():
    return load("cusped.json")


def normal_coords(group, rng):
    """Field coordinates with standard normal real (and, over C, imaginary) parts."""
    if group == "SL2C":
        xs = rng.standard_normal(6)
        return xs[0::2] + 1j * xs[1::2]
    return rng.standard_normal(3)


def random_group_element(group, rng):
    real_dim = 6 if group == "SL2C" else 3
    return exp_raw(group, normal_coords(group, rng) / real_dim)


class TestZ0:
    def test_torus_centralizer(self, torus):
        rho, pres, _ = torus
        assert z0_space(rho, pres).shape[1] == 1  # the diagonal complex line

    def test_irreducible_surface_group(self, genus2):
        rho, pres, _ = genus2
        assert z0_space(rho, pres).shape[1] == 0

    def test_trivial_representation(self):
        pres = Presentation.from_strings(["a", "b"], ["abAB"])
        rho = Representation(SL2C, np.array([np.eye(2, dtype=complex)] * 2))
        assert z0_space(rho, pres).shape[1] == 3  # all of sl2(C)


class TestCocycleSpaces:
    def test_torus_z1(self, torus):
        rho, pres, _ = torus
        assert cocycle_space(rho, pres).shape[1] == 4  # complex dimension 4

    def test_genus2_z1(self, genus2):
        rho, pres, _ = genus2
        assert cocycle_space(rho, pres).shape[1] == 9

    def test_pants_z1(self, pants):
        rho, pres, _ = pants
        assert cocycle_space(rho, pres).shape[1] == 6  # complex dimension 6

    def test_torus_b1(self, torus):
        rho, pres, _ = torus
        assert coboundary_space(rho, pres).shape[1] == 2  # complex dimension 2

    def test_irreducible_b1_is_full(self, pants):
        rho, pres, _ = pants
        assert coboundary_space(rho, pres).shape[1] == 3  # complex dimension 3

    def test_trivial_rep_b1_vanishes(self):
        pres = Presentation.from_strings(["a", "b"], ["abAB"])
        rho = Representation(SL2C, np.array([np.eye(2, dtype=complex)] * 2))
        assert coboundary_space(rho, pres).shape[1] == 0

    def test_kernel_elements_satisfy_relators(self, cusped):
        rho, pres, _ = cusped
        for z in cocycle_space(rho, pres).T:
            for rel in pres.relators:
                assert np.linalg.norm(extend_cocycle(rho, z, rel)) < 1e-9


class TestH1:
    def test_torus_dims(self, torus):
        rho, pres, _ = torus
        rep = h1_basis(rho, pres)
        assert (rep.dim_Z0, rep.dim_Z1, rep.dim_B1, rep.dim_H1) == (2, 8, 4, 4)
        assert (
            rep.dim_Z0_complex,
            rep.dim_Z1_complex,
            rep.dim_B1_complex,
            rep.dim_H1_complex,
        ) == (1, 4, 2, 2)

    def test_genus2_dims(self, genus2):
        rho, pres, _ = genus2
        rep = h1_basis(rho, pres)
        assert (rep.dim_Z1, rep.dim_B1, rep.dim_H1) == (9, 3, 6)

    def test_cusped_dims(self, cusped):
        rho, pres, _ = cusped
        rep = h1_basis(rho, pres)
        assert rep.dim_H1_complex == 1

    def test_basis_is_orthonormal_and_off_b1(self, pants):
        rho, pres, _ = pants
        rep = h1_basis(rho, pres)
        basis = rep.basis_H1
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(rep.dim_H1_complex)) < 1e-10
        b1 = coboundary_space(rho, pres)
        assert np.linalg.norm(b1.conj().T @ basis) < 1e-10

    def test_complex_structure_invariance(self, torus):
        # J z = i z stays in the kernel whenever z does
        rho, pres, _ = torus
        jac = fox_jacobian(rho, pres)
        for z in cocycle_space(rho, pres).T:
            assert np.linalg.norm(jac @ (1j * z)) < 1e-10


class TestTraceDifferential:
    def test_torus_closed_forms(self, torus):
        rho, pres, _ = torus
        alpha = pres.meridians[0].cone_angle
        xi = rho.raw[1][0, 0]
        ell = complex_length_sl2c(rho.raw[0])
        cocs = standard_torus_cocycles("SL2C", alpha, ell.imag, ell.real)
        mu = pres.meridians[0].word
        assert trace_differential(rho, cocs["ang"], mu) == pytest.approx(
            (1j * alpha / 2) * (xi - 1 / xi), abs=1e-12
        )
        assert trace_differential(rho, cocs["shr"], mu) == pytest.approx(
            (alpha / 2) * (xi - 1 / xi), abs=1e-12
        )
        assert abs(trace_differential(rho, cocs["tws"], mu)) < 1e-12
        assert abs(trace_differential(rho, cocs["len"], mu)) < 1e-12

    def test_spherical_pair_closed_forms(self):
        rho, pres, _ = load("spherical-torus.json")
        alpha = pres.meridians[0].cone_angle
        xi = complex(*rho.raw[1, 0, :2])  # the (0, 0) entry a of the left quaternion a + bj
        cocs = standard_torus_cocycles("SU2xSU2", alpha, 0.0, 1.0)
        mu = pres.meridians[0].word
        factors = split_representation(rho)
        dT_ang = tuple(trace_differential(f, z, mu) for f, z in zip(factors, cocs["ang"]))
        dT_shr = tuple(trace_differential(f, z, mu) for f, z in zip(factors, cocs["shr"]))
        assert dT_ang == pytest.approx((-alpha * xi.imag, -alpha * xi.imag), abs=1e-12)
        assert dT_shr == pytest.approx((-alpha * xi.imag, alpha * xi.imag), abs=1e-12)

    def test_coboundaries_are_killed(self, cusped):
        rho, pres, _ = cusped
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = coboundary(rho, normal_coords("SL2C", rng))
            for text in ("a", "ab", "bAb"):
                w = parse_word(text, pres.generators)
                assert abs(trace_differential(rho, z, w)) < 1e-10


class TestRigidity:
    def test_torus_rank_deficient(self, torus):
        rho, pres, _ = torus
        rep = rigidity_test(rho, pres)
        assert rep.verdict == VERDICT_DEFICIENT
        assert rep.rank == 1
        assert rep.dim_h1 == 2

    def test_pants_locally_rigid(self, pants):
        rho, pres, _ = pants
        rep = rigidity_test(rho, pres)
        assert rep.verdict == VERDICT_RIGID
        assert rep.rank == 3 and rep.meridian_count == 3

    def test_conjugated_pants_identical_integers(self, pants):
        rho, pres, _ = pants
        rho2, pres2, _ = load("pants-conjugated.json")
        a, b = rigidity_test(rho, pres), rigidity_test(rho2, pres2)
        assert (a.rank, a.dim_h1, a.verdict) == (b.rank, b.dim_h1, b.verdict)

    def test_abelian_pair_flagged(self):
        rho, pres, _ = load("abelian-torus.json")
        rep = rigidity_test(rho, pres)
        assert FLAG_ABELIAN in rep.degenerate_flags
        assert rep.verdict == VERDICT_DEFICIENT

    @pytest.mark.parametrize("scale", [30.0, 300.0])
    def test_abelian_flag_survives_a_large_conjugate(self, torus, scale):
        # Conjugated entries near 1e5 make g h - h g round to about 1e-5,
        # far above an absolute 1e-10; the tolerance scales with |g| |h|.
        rho, pres, _ = torus
        h = np.diag([scale, 1.0 / scale]) @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ np.array(
            [[1.0, 0.0], [1.0, 1.0]]
        )
        h_inv = np.linalg.inv(h)
        rho_c = Representation(SL2C, np.array([_det_rule(h @ g @ h_inv) for g in rho.raw]))
        rep = rigidity_test(rho_c, pres)
        assert rep.degenerate_flags == (FLAG_ABELIAN, FLAG_REDUCIBLE)

    def test_cusped_locally_rigid(self, cusped):
        rho, pres, _ = cusped
        rep = rigidity_test(rho, pres)
        assert rep.verdict == VERDICT_RIGID
        assert rep.meridian_count == 1 and rep.rank == 1

    @pytest.mark.parametrize("sign, word", [(1.0, "abAB"), (1.0, "bB"), (-1.0, "a")])
    def test_meridian_at_plus_minus_identity_is_flagged(self, sign, word):
        rho = Representation(SL2C, np.array([sign * np.eye(2), np.diag([2.0, 0.5])], dtype=complex))
        pres = Presentation.from_strings(["a", "b"], ["abAB"], [(word, 0, 1.0), ("b", 1, 1.0)])
        rep = rigidity_test(rho, pres)
        assert FLAG_MERIDIAN_ID in rep.degenerate_flags
        assert f"meridian {word!r} maps to +/- identity; complex length undefined" in rep.notes
        assert rep.verdict == VERDICT_DEFICIENT

    @pytest.mark.parametrize(
        "name, word, unreduced", [("torus.json", "b", "bBb"), ("pants.json", "a", "aAa")]
    )
    def test_unreduced_meridian_word(self, name, word, unreduced):
        # The trace rows and the +/- identity test read the image of the
        # freely reduced word, which is the meridian's own image.
        rho, pres, _ = load(name)
        meridians = [
            (unreduced if m.text == word else m.text, m.edge_id, m.cone_angle) for m in pres.meridians
        ]
        longer = Presentation.from_strings(pres.generators, pres.relator_texts, meridians)
        a, b = rigidity_test(rho, pres), rigidity_test(rho, longer)
        assert (a.rank, a.verdict, a.degenerate_flags) == (b.rank, b.verdict, b.degenerate_flags)
        sa, sb = (np.linalg.svd(r.trace_jacobian, compute_uv=False) for r in (a, b))
        assert np.abs(sa - sb).max() <= 1e-12


class TestInvariants:
    def test_conjugation_equivariance(self, cusped):
        rho, pres, _ = cusped
        rng = np.random.default_rng(21)
        g = random_group_element("SL2C", rng)
        gi = raw_inverse(SL2C, g)
        rho_c = Representation(SL2C, np.array([mul(SL2C, mul(SL2C, g, img), gi) for img in rho.raw]))
        rep = h1_basis(rho, pres)
        rep_c = h1_basis(rho_c, pres)
        assert rep.dims_dict() == rep_c.dims_dict()
        assert rigidity_test(rho, pres).rank == rigidity_test(rho_c, pres).rank
        # transported cocycles give the same trace differentials
        mu = pres.meridians[0].word
        for h in rep.basis_H1.T:
            for z in (h, 1j * h):
                z_c = np.concatenate([ad_action(g, v) for v in z.reshape(-1, 3)])
                assert abs(
                    trace_differential(rho, z, mu) - trace_differential(rho_c, z_c, mu)
                ) < 1e-9

    def test_rank_stable_under_tiny_perturbation(self, pants):
        rho, pres, _ = pants
        rng = np.random.default_rng(31)
        images = [mul(SL2C, exp_raw(SL2C, 1e-12 * normal_coords("SL2C", rng)), img) for img in rho.raw]
        rho_p = Representation(SL2C, np.array(images))
        a, b = h1_basis(rho, pres), h1_basis(rho_p, pres)
        assert a.dims_dict() == b.dims_dict()
        assert rigidity_test(rho, pres).rank == rigidity_test(rho_p, pres).rank


class TestDimensionAudit:
    def test_cusped_identities(self, cusped):
        rho, pres, man = cusped
        audit = dimension_audit(rho, pres, man.boundary)
        assert audit.all_hold
        by_name = {i.name.split(":")[0]: i for i in audit.identities}
        half = by_name["half_dimension"]
        assert (half.lhs, half.rhs) == (1.0, 1.0)
        count = by_name["cocycle_count"]
        assert (count.lhs, count.rhs) == (4.0, 4.0)

    def test_closed_input_skipped(self, genus2):
        rho, pres, man = genus2
        audit = dimension_audit(rho, pres, man.boundary)
        assert audit.skipped
        assert any("skipped" in n for n in audit.notices)

    def test_boundary_surface_alone_fails_half_dimension(self, torus):
        # the bare boundary torus is not an interior: the identity must fail
        rho, pres, man = torus
        audit = dimension_audit(rho, pres, man.boundary)
        assert not audit.skipped
        half = [i for i in audit.identities if i.name.startswith("half_dimension")][0]
        assert not half.holds

    def test_genus2_boundary_dimension(self, genus2):
        # used as a boundary datum, the genus-2 surface contributes dim 6 over R
        rho, pres, man = genus2
        texts = ("a", "b", "c", "d")
        comp = BoundaryComponent(2, tuple(parse_word(w, pres.generators) for w in texts), texts)
        audit = dimension_audit(rho, pres, (comp,))
        assert audit.boundary[0]["dim_H1"] == 6
        half = [i for i in audit.identities if i.name.startswith("half_dimension")][0]
        assert half.rhs == 3.0  # audit expects a 3-dimensional interior over R


class TestPairsAreSplit:
    """SU(2)xSU(2) has no coefficient algebra: it is solved per SU(2) factor."""

    def test_pair_algebra_is_refused(self):
        rho, pres, _ = load("spherical-torus.json")
        calls = [
            lambda: coefficient_field("SU2xSU2"),
            lambda: fox_jacobian(rho, pres),
            lambda: h1_basis(rho, pres),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="split_representation"):
                call()

    def test_standard_torus_cocycles_are_factor_pairs(self):
        cocs = standard_torus_cocycles("SU2xSU2", 1.0, 0.0, 1.0)
        assert set(cocs) == {"ang", "shr", "tws", "len"}
        for pair in cocs.values():
            assert len(pair) == 2
            assert all(z.shape == (6,) and z.dtype == float for z in pair)


FIXTURES = [
    "abelian-torus.json",
    "cusped.json",
    "genus2-su2.json",
    "pants-conjugated.json",
    "pants.json",
    "spherical-torus.json",
    "torus.json",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_subspace_bases_are_orthonormal_field_matrices(name):
    """z0_space, cocycle_space, coboundary_space and basis_H1 are matrices over
    the coefficient field with orthonormal columns whose counts give the
    reported dimensions; per SU(2) factor for SU(2)xSU(2)."""
    rho, pres, _ = load(name)
    for f in split_representation(rho) if rho.group == "SU2xSU2" else (rho,):
        field, d = coefficient_field(f.group)
        degree = 2 if field is complex else 1
        report = h1_basis(f, pres)
        z0, z1, b1 = z0_space(f, pres), cocycle_space(f, pres), coboundary_space(f, pres)
        for basis, rows, dim in [
            (z0, d, report.dim_Z0),
            (z1, d * len(pres.generators), report.dim_Z1),
            (b1, d * len(pres.generators), report.dim_B1),
            (report.basis_H1, d * len(pres.generators), report.dim_H1),
        ]:
            assert basis.dtype == field and basis.shape[0] == rows
            assert degree * basis.shape[1] == dim
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(basis.shape[1])).max(initial=0.0) < 1e-12
        assert np.abs(fox_jacobian(f, pres) @ z1).max(initial=0.0) < 1e-12
        assert np.abs(b1 - z1 @ (z1.conj().T @ b1)).max(initial=0.0) < 1e-12

import cmath
import math

import numpy as np
import pytest

from conerig.errors import (
    DegenerateElement,
    DomainError,
    NotSemisimple,
)
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    _det_rule,
    _norm_rule,
    algebra_matrix,
    coefficient_field,
    complex_length_sl2c,
    complex_length_su2pair,
    exp_raw,
    identity_distance,
    raw_inverse,
    sigma_fields,
    sn_cs_ct,
    su2_quaternion,
)

from cocycle_reference import (
    ad_action,
    coords_to_matrix,
    dist,
    element_matrix,
    matrix_to_coords,
    mul,
)

RNG = np.random.default_rng(42)


def normal_coords(group, rng):
    """Field coordinates with standard normal real (and, over C, imaginary) parts."""
    if group == "SL2C":
        xs = rng.standard_normal(6)
        return xs[0::2] + 1j * xs[1::2]
    return rng.standard_normal(3)


def random_sl2c(rng=RNG):
    return exp_raw(SL2C, normal_coords(SL2C, rng) / math.sqrt(6.0))


def random_su2(rng=RNG):
    q = rng.standard_normal(4)
    return _norm_rule(q / np.linalg.norm(q))


def random_pair(rng=RNG):
    return np.array([random_su2(rng), random_su2(rng)])


def su2_of(mat):
    """The raw quaternion of an SU(2) matrix, as the loader reads it."""
    return _norm_rule(su2_quaternion(mat))


def inv(group, g):
    return raw_inverse(SU2 if group == SU2XSU2 else group, g)


def dist_to_identity(group, g):
    if group == SU2XSU2:
        return math.hypot(identity_distance(SU2, g[0]), identity_distance(SU2, g[1]))
    return identity_distance(group, g)


class TestSnCsCt:
    def test_kappa_zero(self):
        assert sn_cs_ct(0, 0.5) == (0.5, 1.0, 2.0)

    def test_hyperbolic_matches_math_kernel(self):
        sn, cs, ct = sn_cs_ct(-1, 1.0)
        assert sn == pytest.approx(math.sinh(1.0), abs=1e-15)
        assert cs == pytest.approx(math.cosh(1.0), abs=1e-15)
        assert ct == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-15)

    def test_initial_conditions(self):
        for kappa in (-1, 0, 1):
            sn, _, _ = sn_cs_ct(kappa, 1e-8)
            assert sn / 1e-8 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_pythagoras(self, kappa):
        for r in np.linspace(0.05, 2.0, 37):
            sn, cs, _ = sn_cs_ct(kappa, float(r))
            assert cs * cs + kappa * sn * sn == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sn_cs_ct(0, 0.0)
        with pytest.raises(DomainError):
            sn_cs_ct(-1, -0.2)
        with pytest.raises(DomainError):
            sn_cs_ct(1, math.pi)
        with pytest.raises(DomainError):
            sn_cs_ct(2, 1.0)


class TestGroupElements:
    def test_group_axioms(self):
        rng = np.random.default_rng(99)
        makers = [(SL2C, random_sl2c), (SU2, random_su2), (SU2XSU2, random_pair)]
        for group, make in makers:
            for _ in range(1000):
                g, h, k = make(rng), make(rng), make(rng)
                assert dist(mul(group, mul(group, g, h), k), mul(group, g, mul(group, h, k))) < 1e-13
                assert dist_to_identity(group, mul(group, g, inv(group, g))) < 1e-13
                assert dist(inv(group, inv(group, g)), g) < 1e-13

    def test_su2_matrix_isomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            g, h = random_su2(rng), random_su2(rng)
            product = element_matrix(mul(SU2, g, h))
            assert np.linalg.norm(product - element_matrix(g) @ element_matrix(h)) < 1e-14
        i_mat = element_matrix(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(i_mat, np.diag([1j, -1j]))
        j_mat = element_matrix(np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.allclose(j_mat, np.array([[0, 1], [-1, 0]]))
        k_mat = element_matrix(np.array([0.0, 0.0, 0.0, 1.0]))
        assert np.allclose(k_mat, np.array([[0, 1j], [1j, 0]]))

    def test_membership_rejection(self):
        with pytest.raises(DomainError):
            _det_rule(np.diag([1.001, 1.0]).astype(complex))
        with pytest.raises(DomainError):
            _norm_rule(np.array([1.0, 0.1, 0.0, 0.0]))
        with pytest.raises(DomainError):
            su2_quaternion(np.diag([1.001, 1.0 / 1.001]))

    def test_membership_reprojection(self):
        g = _det_rule((1.0 + 3e-11) * np.eye(2, dtype=complex))
        det = np.linalg.det(g)
        assert abs(det - 1.0) < 1e-15
        q = _norm_rule((1.0 + 3e-11) * np.array([0.6, 0.0, 0.8, 0.0]))
        assert abs(q @ q - 1.0) < 1e-15

    def test_exp_raw_inverse(self):
        for group in (SL2C, SU2):
            for e in np.eye(3, dtype=coefficient_field(group)[0]):
                g = exp_raw(group, 0.37 * e)
                gi = exp_raw(group, -0.37 * e)
                assert dist_to_identity(group, mul(group, g, gi)) < 1e-13


class TestComplexLengthSl2c:
    def test_pure_rotation(self):
        g = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
        assert complex_length_sl2c(g) == pytest.approx(1j * math.pi / 2, abs=1e-12)

    def test_pure_translation(self):
        g = np.diag([math.exp(0.3), math.exp(-0.3)]).astype(complex)
        assert complex_length_sl2c(g) == pytest.approx(0.6, abs=1e-12)

    def test_conjugation_invariance_and_trace(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = random_sl2c(rng)
            if abs(abs(np.trace(g)) - 2.0) < 1e-3:
                continue
            h = random_sl2c(rng)
            ell = complex_length_sl2c(g)
            ell_conj = complex_length_sl2c(mul(SL2C, mul(SL2C, h, g), inv(SL2C, h)))
            assert abs(ell - ell_conj) < 1e-10
            assert min(
                abs(np.trace(g) - 2.0 * cmath.cosh(ell / 2.0)),
                abs(np.trace(g) + 2.0 * cmath.cosh(ell / 2.0)),
            ) < 1e-10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_parabolic_rejected(self, sign):
        with pytest.raises(NotSemisimple):
            complex_length_sl2c(sign * np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateElement):
            complex_length_sl2c(np.eye(2, dtype=complex))
        with pytest.raises(DegenerateElement):
            complex_length_sl2c(-np.eye(2, dtype=complex))
        with pytest.raises(DegenerateElement):  # within TOL_GROUP of -I
            complex_length_sl2c(-np.eye(2, dtype=complex) + 1e-12)


class TestComplexLengthSu2Pair:
    def test_pure_rotation(self):
        alpha = 1.1
        g = su2_of(np.diag([cmath.exp(1j * alpha / 2), cmath.exp(-1j * alpha / 2)]))
        ell1, ell2 = complex_length_su2pair(np.array([g, g]))
        assert ell1 == pytest.approx(0.0, abs=1e-12)
        assert ell2 == pytest.approx(alpha, abs=1e-12)

    def test_pure_translation(self):
        x = 0.7
        g = su2_of(np.diag([cmath.exp(1j * x), cmath.exp(-1j * x)]))
        ell1, ell2 = complex_length_su2pair(np.array([g, inv(SU2, g)]))
        assert ell2 == pytest.approx(0.0, abs=1e-12)
        assert ell1 == pytest.approx(2 * x, abs=1e-12)

    def test_axis_reversal_reads_signed_angle(self):
        # conjugating a diagonal by j inverts it: opposite axes, pure translation
        x = 0.8
        g = su2_of(np.diag([cmath.exp(1j * x), cmath.exp(-1j * x)]))
        j = np.array([0.0, 0.0, 1.0, 0.0])
        h = mul(SU2, mul(SU2, j, g), inv(SU2, j))
        assert dist(h, inv(SU2, g)) < 1e-14
        ell1, ell2 = complex_length_su2pair(np.array([g, h]))
        assert ell2 == pytest.approx(0.0, abs=1e-12)
        assert ell1 == pytest.approx(2 * x, abs=1e-12)

    def test_non_coaxial_from_traces(self):
        # oblique conjugation: axes are genuinely distinct, traces decide
        x = 0.8
        g = su2_of(np.diag([cmath.exp(1j * x), cmath.exp(-1j * x)]))
        t = 0.3
        c = np.array([math.cos(t), 0.0, math.sin(t) / math.sqrt(2), math.sin(t) / math.sqrt(2)])
        h = mul(SU2, mul(SU2, c, g), inv(SU2, c))
        ell1, ell2 = complex_length_su2pair(np.array([g, h]))
        tl, tr = 2.0 * g[0], 2.0 * h[0]
        assert tl == pytest.approx(2.0 * math.cos((ell1 + ell2) / 2.0), abs=1e-12)
        assert tr == pytest.approx(2.0 * math.cos((-ell1 + ell2) / 2.0), abs=1e-12)
        assert ell1 == pytest.approx(0.0, abs=1e-12)
        assert ell2 == pytest.approx(2 * x, abs=1e-12)

    def test_trace_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_pair(rng)
            tl, tr = 2.0 * g[:, 0]
            if min(abs(abs(tl) - 2.0), abs(abs(tr) - 2.0)) < 1e-3:
                continue
            ell1, ell2 = complex_length_su2pair(g)
            assert tl == pytest.approx(2.0 * math.cos((ell1 + ell2) / 2.0), abs=1e-10)
            assert tr == pytest.approx(2.0 * math.cos((-ell1 + ell2) / 2.0), abs=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateElement):
            complex_length_su2pair(np.array([[1.0, 0.0, 0.0, 0.0], random_su2()]))
        with pytest.raises(DegenerateElement):
            complex_length_su2pair(np.array([random_su2(), [-1.0, 0.0, 0.0, 0.0]]))


class TestSigmaFields:
    def test_sl2c_relation(self):
        s_theta, s_z = sigma_fields("SL2C")
        assert np.allclose(s_theta, 1j * s_z)
        assert np.allclose(algebra_matrix(SL2C, s_theta), 0.5 * np.diag([1j, -1j]))

    def test_pair_factor_split(self):
        (theta_l, theta_r), (z_l, z_r) = sigma_fields("SU2xSU2")
        assert np.allclose(algebra_matrix(SU2, theta_l), 0.5 * np.diag([1j, -1j]))
        assert np.linalg.norm(theta_r + z_r) == 0.0
        assert np.linalg.norm(theta_l - z_l) == 0.0

    def test_unsupported_group(self):
        with pytest.raises(DomainError):
            sigma_fields("SU2")


class TestAlgebraMatrix:
    def test_matches_the_reference_pair(self):
        rng = np.random.default_rng(31)
        for group in ("SL2C", "SU2"):
            v = normal_coords(group, rng)
            m = algebra_matrix(group, v)
            assert m.dtype == complex and m.tobytes() == coords_to_matrix(group, v).tobytes()
            assert np.linalg.norm(matrix_to_coords(group, m) - v) < 1e-14

    def test_ad_action_is_orthogonal_for_su2(self):
        g = random_su2()
        for e in np.eye(3):
            assert np.linalg.norm(ad_action(g, e)) == pytest.approx(1.0, abs=1e-12)

import math
from fractions import Fraction

import numpy as np
import pytest

from conerig import spectral
from conerig.errors import DomainError
from conerig.manifest import fixture_path, load_manifest
from conerig.spectral import (
    BIGON,
    ConePoint,
    SingularEdge,
    SingularVertex,
    circle_B_spectrum,
    circle_dirac_spectrum,
    cone_admissibility_verdict,
    link_B_spectrum,
)

TWO_PI = 2.0 * math.pi


def brute_force_dirac(alpha, a, window, n_range=200):
    """Independent enumeration of +/- |2 pi n - a| / alpha."""
    vals = []
    for n in range(-n_range, n_range + 1):
        v = abs(2.0 * math.pi * n - a) / alpha
        if v < 1e-12:
            vals.append(0.0)
        else:
            vals.extend((v, -v))
    return sorted(v for v in vals if abs(v) <= window + 1e-12)


def gap_ok_exact(p: Fraction, q: Fraction) -> bool:
    """Exact closed form in units of 2 pi: alpha = 2 pi p, a = 2 pi q."""
    return (q == 0 and p <= 1) or (p <= q <= 1 - p)


class TestCircleDirac:
    def test_full_circle_trivial_holonomy(self):
        rep = circle_dirac_spectrum(TWO_PI, 0.0, 3.0)
        assert rep.values == tuple(brute_force_dirac(TWO_PI, 0.0, 3.0))
        # 0 simple from n = 0, +/- k doubled by n = +/- k
        assert rep.values.count(0.0) == 1
        assert rep.values.count(1.0) == 2
        assert rep.values.count(-2.0) == 2

    def test_half_angle_pi_holonomy(self):
        rep = circle_dirac_spectrum(math.pi, math.pi, 4.0)
        assert rep.values == tuple(brute_force_dirac(math.pi, math.pi, 4.0))
        assert set(round(v, 12) for v in rep.values) == {-3.0, -1.0, 1.0, 3.0}
        assert all(rep.values.count(v) == 2 for v in set(rep.values))
        assert rep.gap_ok

    def test_symmetric_for_trivial_holonomy(self):
        rep = circle_dirac_spectrum(1.7, 0.0, 5.0)
        assert rep.values == tuple(sorted(-v for v in rep.values))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            circle_dirac_spectrum(-1.0, 0.0, 3.0)
        with pytest.raises(DomainError):
            circle_dirac_spectrum(1.0, 0.0, 0.0)


class TestCircleB:
    def test_trivial_coefficients_full_angle(self):
        rep = circle_B_spectrum(ConePoint(TWO_PI, (), 1), 3.0)
        assert rep.values == (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
        assert rep.gap_ok
        assert rep.min_abs == 0.5  # boundary case, open interval

    def test_admissible_holonomy_band(self):
        alpha = 2.0
        for a in np.linspace(alpha, TWO_PI - alpha, 7):
            rep = circle_B_spectrum(ConePoint(alpha, (float(a),), 0), 3.0)
            assert rep.gap_ok

    def test_small_holonomy_fails(self):
        rep = circle_B_spectrum(ConePoint(math.pi / 2, (math.pi / 8,), 0), 3.0)
        assert not rep.gap_ok
        assert rep.witnesses[0]["value"] == pytest.approx(-0.25, abs=1e-12)

    def test_gap_criterion_on_rational_grid(self):
        # 60 x 60 grid with exact rational oracle, including boundary ties
        for i in range(1, 61):
            for j in range(0, 60):
                p, q = Fraction(i, 60), Fraction(j, 60)
                alpha, a = TWO_PI * float(p), TWO_PI * float(q)
                rep = circle_B_spectrum(ConePoint(alpha, (a,), 0), 1.0)
                assert rep.gap_ok == gap_ok_exact(p, q), (alpha, a)

    def test_window_enlargement_is_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, TWO_PI))
            a = float(rng.uniform(0.0, TWO_PI))
            cp = ConePoint(alpha, (a,), 1)
            r1 = circle_B_spectrum(cp, 2.0)
            r2 = circle_B_spectrum(cp, 4.0)
            assert r1.gap_ok == r2.gap_ok
            assert set(np.round(r1.values, 12)) <= set(np.round(r2.values, 12))

    def test_holonomy_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = float(rng.uniform(0.1, TWO_PI))
            a = float(rng.uniform(1e-3, TWO_PI - 1e-3))
            r1 = circle_B_spectrum(ConePoint(alpha, (a,), 0), 4.0)
            r2 = circle_B_spectrum(ConePoint(alpha, (TWO_PI - a,), 0), 4.0)
            assert np.allclose(r1.values, r2.values, atol=1e-9)
            assert r1.gap_ok == r2.gap_ok


class TestLinkB:
    def test_guaranteed_bound(self):
        rep = link_B_spectrum([(1.0, 1)], 0, 3.0)
        expected = math.sqrt(1.25)
        assert rep.values == pytest.approx(
            tuple(sorted((-0.5 - expected, -0.5 + expected, 0.5 - expected, 0.5 + expected))),
            abs=1e-14,
        )
        assert rep.gap_ok
        assert 0.6180 < rep.min_abs < 0.6181

    def test_three_quarters_boundary(self):
        rep = link_B_spectrum([(0.75, 1)], 0, 3.0)
        assert rep.gap_ok
        assert rep.min_abs == pytest.approx(0.5, abs=1e-14)

    def test_half_fails(self):
        rep = link_B_spectrum([(0.5, 1)], 0, 3.0)
        assert not rep.gap_ok
        witness_values = sorted(w["value"] for w in rep.witnesses)
        assert witness_values == pytest.approx(
            [0.5 - math.sqrt(0.75), math.sqrt(0.75) - 0.5], abs=1e-12
        )

    def test_flat_sections(self):
        rep = link_B_spectrum([], 2, 3.0)
        assert rep.values == (-1.0, -1.0, 1.0, 1.0)
        assert rep.gap_ok

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            link_B_spectrum([(-0.1, 1)], 0, 3.0)

    def test_lambda_above_three_quarters_never_in_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = float(rng.uniform(0.75, 30.0))
            assert link_B_spectrum([(lam, 1)], 1, 2.0).gap_ok


@pytest.fixture
def spectra(monkeypatch):
    """The cone point of every circle spectrum and the h0 of every link
    spectrum a verdict computes, in order."""
    seen = {"circle": [], "h0": []}
    circle, link = spectral.circle_B_spectrum, spectral.link_B_spectrum

    def circle_spy(cp, window):
        seen["circle"].append(cp)
        return circle(cp, window)

    def link_spy(lambda_list, h0_dim, window):
        seen["h0"].append(h0_dim)
        return link(lambda_list, h0_dim, window)

    monkeypatch.setattr(spectral, "circle_B_spectrum", circle_spy)
    monkeypatch.setattr(spectral, "link_B_spectrum", link_spy)
    return seen


class TestEdgeData:
    """What a verdict reads from each edge angle: the bundle at a cone point of
    angle alpha is C(alpha) + R per copy, two copies or one (translational)."""

    def test_bigon_full_bundle(self, spectra):
        alpha = 1.2
        verdict = cone_admissibility_verdict([SingularEdge(0, alpha)], [], 1)
        assert spectra["circle"] == [ConePoint(alpha, (alpha, alpha), 2)]
        assert spectra["h0"] == [2]
        assert verdict.points[0].angles == (alpha, alpha)

    def test_triangle_translational(self, spectra):
        edges = [SingularEdge(0, 0.9), SingularEdge(1, 1.0), SingularEdge(2, 1.1)]
        verdict = cone_admissibility_verdict(edges, [SingularVertex((0, 1, 2))], 0)
        assert [cp.holonomy_angles for cp in spectra["circle"]] == [(0.9,), (1.0,), (1.1,)]
        assert all(cp.trivial_rank == 1 for cp in spectra["circle"])
        assert spectra["h0"] == [1, 1, 1, 0]
        assert verdict.points[3].angles == (0.9, 1.0, 1.1)

    @pytest.mark.parametrize("kappa, copies", [(0, 1), (-1, 2), (1, 2)])
    def test_full_angle_reduces_holonomy(self, spectra, kappa, copies):
        assert cone_admissibility_verdict([SingularEdge(0, TWO_PI)], [], kappa).admissible
        assert spectra["circle"] == [ConePoint(TWO_PI, (0.0,) * copies, copies)]
        assert spectra["h0"] == [3 * copies]

    def test_one_circle_spectrum_per_distinct_angle(self, spectra):
        m = load_manifest(fixture_path("pants.json"))
        verdict = cone_admissibility_verdict(m.singular_edges, m.singular_vertices, m.curvature)
        assert len(verdict.points) == 4
        assert [cp.alpha for cp in spectra["circle"]] == [math.pi / 2, 2 * math.pi / 3]


class TestAdmissibilityVerdict:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_small_angles_admissible(self, kappa):
        edges = [SingularEdge(0, 2.0), SingularEdge(1, 2.8), SingularEdge(2, math.pi)]
        vertices = [SingularVertex((0, 1, 2))]
        verdict = cone_admissibility_verdict(edges, vertices, kappa)
        assert verdict.admissible
        assert len(verdict.points) == 4

    def test_wide_edge_fails_with_witness(self):
        verdict = cone_admissibility_verdict([SingularEdge(0, 1.5 * math.pi)], [], -1)
        assert not verdict.admissible
        point = verdict.points[0]
        assert point.kind == BIGON
        assert not point.circle_gap_ok
        w = point.witnesses[0]
        assert set(w) == {"n", "holonomy_angle", "alpha", "value"}
        assert -0.5 < w["value"] < 0.5

    def test_empty_graph_vacuous(self):
        verdict = cone_admissibility_verdict([], [], 0)
        assert verdict.admissible
        assert any("vacuous" in n for n in verdict.notices)

    def test_vertex_with_unknown_edge(self):
        with pytest.raises(DomainError):
            cone_admissibility_verdict([SingularEdge(0, 1.0)], [SingularVertex((0, 0, 7))], 1)

    def test_duplicate_edge_id(self):
        edges = [SingularEdge(0, 3.0), SingularEdge(0, math.pi / 2)]
        with pytest.raises(DomainError, match="duplicate edge id 0"):
            cone_admissibility_verdict(edges, [], -1)

    def test_random_small_angles_always_admissible(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            angles = rng.uniform(0.05, math.pi, size=3)
            edges = [SingularEdge(k, float(a)) for k, a in enumerate(angles)]
            vertices = [SingularVertex((0, 1, 2)), SingularVertex((0, 1, 2))]
            for kappa in (-1, 0, 1):
                assert cone_admissibility_verdict(edges, vertices, kappa).admissible


class TestTypes:
    def test_cone_point_validation(self):
        with pytest.raises(DomainError):
            ConePoint(0.0, (), 0)
        with pytest.raises(DomainError):
            ConePoint(1.0, (7.0,), 0)
        with pytest.raises(DomainError):
            ConePoint(1.0, (), -1)

    @pytest.mark.parametrize("angle", [0.0, -1.0, 7.0, TWO_PI + 1e-9, math.nan, math.inf])
    def test_edge_angle_outside_the_range(self, angle):
        with pytest.raises(DomainError, match=r"must lie in \(0, 2\*pi\]"):
            SingularEdge(0, angle)

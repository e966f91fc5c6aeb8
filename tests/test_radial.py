import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conerig import cli, radial
from conerig.errors import DomainError, IllConditioned
from conerig.radial import (
    CONVERGENT,
    DIVERGENT,
    FormProfile,
    RadialGrid,
    halving_deltas,
    l2_tube_verdict,
    norm_profile,
    pb_min_singular,
    t_b0,
    t_b0_bound,
    t_b1,
    t_b1_bound,
)


def band_limited(rng):
    coef = rng.standard_normal(6) / np.arange(1.0, 7.0)

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k in range(3):
            out = out + coef[2 * k] * np.cos(2.0 * math.pi * k * x)
            out = out + coef[2 * k + 1] * np.sin(2.0 * math.pi * (k + 1) * x)
        return out

    return g


ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731


class TestTB0:
    def test_constant_equality_case(self):
        # g = 1, b = 0: the integral is r and the bound is attained
        for r in (0.1, 0.37, 0.9):
            val = t_b0(ONE, 0.0, r)
            assert val == pytest.approx(r, abs=1e-12)
            assert t_b0_bound(ONE, 0.0, r) == pytest.approx(val, abs=1e-10)

    def test_zero_function(self):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
        assert t_b0(zero, 1.3, 0.5) == 0.0

    def test_linear_closed_form(self):
        lin = lambda x: np.asarray(x, dtype=float)  # noqa: E731
        for r in (0.2, 0.5, 1.0):
            val = t_b0(lin, 1.0, r)
            assert val == pytest.approx(r * r / 3.0, abs=1e-10)
            assert val <= t_b0_bound(lin, 1.0, r) + 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            t_b0(ONE, -0.5, 0.5)
        with pytest.raises(DomainError):
            t_b0(ONE, 0.0, 0.0)

    def test_decay_bound_random_suite(self):
        rng = np.random.default_rng(100)
        worst = math.inf
        for _ in range(60):
            g = band_limited(rng)
            for _ in range(5):
                b = float(rng.uniform(-0.45, 4.0))
                r = float(rng.uniform(0.05, 1.0))
                slack = t_b0_bound(g, b, r) - abs(t_b0(g, b, r))
                worst = min(worst, slack)
        assert worst >= -1e-6

    def test_quadrature_self_consistency(self):
        rng = np.random.default_rng(101)
        g = band_limited(rng)
        for b, r in ((-0.4, 0.3), (0.0, 0.8), (2.5, 0.6)):
            assert abs(t_b0(g, b, r, n=8192) - t_b0(g, b, r, n=16384)) < 1e-6


class TestTB1:
    def test_constant_b0(self):
        for r in (0.2, 0.7):
            assert t_b1(ONE, 0.0, r) == pytest.approx(r - 1.0, abs=1e-12)
            assert abs(t_b1(ONE, 0.0, r)) <= t_b1_bound(ONE, 0.0, r) + 1e-10

    def test_zero_function(self):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
        assert t_b1(zero, -2.0, 0.5) == 0.0

    def test_log_case_closed_form(self):
        # b = -1/2, g = 1: value is 2 r^(1/2) (1 - r^(1/2)) in magnitude
        for r in np.linspace(0.05, 0.95, 10):
            val = t_b1(ONE, -0.5, float(r))
            assert abs(val) == pytest.approx(2 * math.sqrt(r) * (1 - math.sqrt(r)), abs=1e-9)
            assert abs(val) <= t_b1_bound(ONE, -0.5, float(r)) + 1e-10

    def test_decay_bound_random_suite(self):
        rng = np.random.default_rng(102)
        worst = math.inf
        for _ in range(60):
            g = band_limited(rng)
            for _ in range(5):
                b = float(rng.uniform(-4.0, 4.0))
                r = float(rng.uniform(0.05, 0.95))
                slack = t_b1_bound(g, b, r) - abs(t_b1(g, b, r))
                worst = min(worst, slack)
        assert worst >= -1e-6

    def test_quadrature_self_consistency(self):
        rng = np.random.default_rng(103)
        g = band_limited(rng)
        for b, r in ((-3.0, 0.2), (0.5, 0.5), (2.0, 0.9)):
            assert abs(t_b1(g, b, r, n=8192) - t_b1(g, b, r, n=16384)) < 1e-6


class TestPbMinSingular:
    def test_positive_at_b_zero(self):
        sigma = pb_min_singular(0.0, 0, RadialGrid(128))
        assert sigma > 0.0

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_monotone_in_b(self, kappa, n):
        grid = RadialGrid(n)
        sigmas = [pb_min_singular(b, kappa, grid) for b in (1.0, 2.0, 4.0, 8.0)]
        assert all(x < y for x, y in zip(sigmas, sigmas[1:]))

    def test_adjoint_symmetry(self):
        # transposing the flat operator sends b -> -b-1: with symmetric
        # zero boundary bands the smallest singular values agree to grid error
        for n in (128, 256):
            grid = RadialGrid(n)
            for b in (0.7, 1.5, 3.0):
                s_pos = pb_min_singular(b, 0, grid)
                s_neg = pb_min_singular(-b - 1.0, 0, grid)
                assert abs(s_pos - s_neg) < 1.0 / n

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            RadialGrid(32)


def dense_operator(b, kappa, n):
    """The n x (n-1) operator as a dense matrix, potential from the scalar
    generalised sine at each midpoint."""
    h = 1.0 / n
    sn = {-1: math.sinh, 0: lambda x: x, 1: math.sin}[kappa]
    pot = b / np.array([sn((j + 0.5) / n) for j in range(n)])
    mat = np.zeros((n, n - 1))
    idx = np.arange(1, n)
    mat[idx - 1, idx - 1] += 1.0 / h + pot[idx - 1] / 2.0
    mat[idx, idx - 1] += -1.0 / h + pot[idx] / 2.0
    return mat


def dense_sigma_min(b, kappa, n):
    """Reference: smallest singular value from a dense SVD, O(n^3)."""
    return float(np.linalg.svd(dense_operator(b, kappa, n), compute_uv=False)[-1])


class TestPbMinSingularAgainstDenseSvd:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(64, 384),
        st.sampled_from([-1, 0, 1]),
        st.floats(-9.0, 9.0, allow_nan=False),
    )
    @example(256, 0, -3.0)
    @example(256, 0, -1.0)
    @example(256, 0, 1.0)
    @example(256, 0, 3.0)
    @example(100, 1, 3.0)
    @example(64, -1, -1.0)
    def test_matches_dense_svd(self, n, kappa, b):
        got = pb_min_singular(b, kappa, RadialGrid(n))
        want = dense_sigma_min(b, kappa, n)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("b,row,col", [(-3.0, 1, 1), (-1.0, 0, 0), (3.0, 1, 0)])
    def test_exact_zero_band_entry(self, b, row, col):
        # at kappa = 0 and n = 2^k the potential b n / (j + 1/2) cancels 1/h
        # exactly: a diagonal entry vanishes for b = -1, -3, a subdiagonal one for b = 3
        mat = dense_operator(b, 0, 256)
        assert mat[row, col] == 0.0
        got = pb_min_singular(b, 0, RadialGrid(256))
        assert abs(got - dense_sigma_min(b, 0, 256)) <= 1e-12 * got

    @pytest.mark.parametrize("n", [64, 100, 256, 1000, 1024, 4096])
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_b_zero_closed_form(self, n, kappa):
        # b = 0: the plain difference matrix, sigma_min = 2n sin(pi/2n)
        exact = 2.0 * n * math.sin(math.pi / (2.0 * n))
        assert abs(pb_min_singular(0.0, kappa, RadialGrid(n)) - exact) <= 1e-13 * exact

    def test_memory_is_linear(self):
        # the dense 4096 x 4095 matrix alone would take 134 MB
        grid = RadialGrid(4096)
        tracemalloc.start()
        try:
            pb_min_singular(8.0, 1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_count_singular_values_above", lambda d, s, floor: len(d) - 1)
        with pytest.raises(IllConditioned, match="not certified"):
            pb_min_singular(1.0, 0, RadialGrid(128))

    def test_unconverged_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_MAX_ITERATIONS", 1)
        with pytest.raises(IllConditioned, match="did not converge"):
            pb_min_singular(1.0, 0, RadialGrid(128))

    @pytest.mark.parametrize("b", [-1e200, 1e100, -1e7, 1e4])
    def test_large_b(self, b):
        # the squares of these bands overflow or lose range without scaling
        got = pb_min_singular(b, 1, RadialGrid(96))
        assert abs(got - dense_sigma_min(b, 1, 96)) <= 1e-12 * got

    def test_overflowing_bands_are_a_domain_error(self):
        with pytest.raises(DomainError, match="too large"):
            pb_min_singular(1.7e308, 0, RadialGrid(64))


# the benchmark's oracle ladder: 7 grids, each with these 5 values of b
LADDER = [(256, -1), (256, 0), (256, 1), (512, -1), (512, 0), (512, 1), (1024, 0)]
LADDER_BS = (0.0, 1.0, 2.0, 4.0, 8.0)


def cold_sigma_min(b, kappa, n):
    """sigma_min from the iteration started at the vector of ones, lo = 0."""
    diag, sub, scale = radial._bands(b, kappa, n)
    return scale * radial._bidiagonal_sigma_min(diag, sub)[0]


class TestCoarseStart:
    """Grids of 256 nodes and more start from the 64-cell solution."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(256, 640),
        st.sampled_from([-1, 0, 1]),
        st.floats(-9.0, 9.0, allow_nan=False),
    )
    @example(256, 0, 3.0)
    @example(256, 0, -3.0)
    @example(256, 0, -1.0)
    @example(512, 0, 3.0)
    @example(512, 0, -3.0)
    @example(512, 0, -1.0)
    def test_matches_dense_svd(self, n, kappa, b):
        got = pb_min_singular(b, kappa, RadialGrid(n))
        want = dense_sigma_min(b, kappa, n)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("b", [-1e200, 1e100, -1e7, 1e4])
    def test_large_b(self, b):
        got = pb_min_singular(b, 1, RadialGrid(256))
        assert abs(got - dense_sigma_min(b, 1, 256)) <= 1e-12 * got

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_count_singular_values_above", lambda d, s, floor: len(d) - 1)
        with pytest.raises(IllConditioned, match="not certified"):
            pb_min_singular(1.0, 0, RadialGrid(512))

    def test_unconverged_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_MAX_ITERATIONS", 1)
        with pytest.raises(IllConditioned, match="did not converge"):
            pb_min_singular(1.0, 0, RadialGrid(512))

    @pytest.mark.parametrize("b", [-3.0, 1.0, 8.0])
    def test_a_failed_coarse_solve_starts_cold(self, b, monkeypatch):
        original = radial._bidiagonal_sigma_min
        sizes = []

        def coarse_fails(diag, sub, start=None, certify=True):
            sizes.append(len(diag))
            if len(diag) == radial._COARSE_GRID - 1:
                raise IllConditioned("coarse solve forced to fail")
            return original(diag, sub, start, certify)

        monkeypatch.setattr(radial, "_bidiagonal_sigma_min", coarse_fails)
        got = pb_min_singular(b, 0, RadialGrid(512))
        assert sizes == [63, 511]
        monkeypatch.setattr(radial, "_bidiagonal_sigma_min", original)
        assert got == cold_sigma_min(b, 0, 512)

    @pytest.mark.parametrize("n,kappa", LADDER)
    def test_ladder_matches_the_cold_start(self, n, kappa, monkeypatch):
        original = radial._ldl_pivots
        fine_shifts = []

        def recorded(a, e, mu):
            factors = original(a, e, mu)
            if len(a) == n - 1:
                fine_shifts.append((mu, factors is not None))
            return factors

        monkeypatch.setattr(radial, "_ldl_pivots", recorded)
        for b in LADDER_BS:
            fine_shifts.clear()
            got = pb_min_singular(b, kappa, RadialGrid(n))
            # the first fine factorisation takes the coarse shift, and its pivots certify it
            mu, accepted = fine_shifts[0]
            assert mu > 0.0 and accepted
            want = cold_sigma_min(b, kappa, n)
            assert abs(got - want) <= 1e-13 * want

    def test_ladder_sweeps_at_most_half_the_elements(self, monkeypatch):
        # elements swept by LDL^T factorisations and solves over the ladder;
        # started cold (vector of ones, lo = 0, steps of a quarter, stop at
        # 8 eps) every sigma took 219,186, and half of that is the bound
        swept = [0]
        pivots, solve = radial._ldl_pivots, radial._ldl_solve

        def counted_pivots(a, e, mu):
            swept[0] += len(a)
            return pivots(a, e, mu)

        def counted_solve(p, m, v):
            swept[0] += len(v)
            return solve(p, m, v)

        monkeypatch.setattr(radial, "_ldl_pivots", counted_pivots)
        monkeypatch.setattr(radial, "_ldl_solve", counted_solve)
        for n, kappa in LADDER:
            for b in LADDER_BS:
                pb_min_singular(b, kappa, RadialGrid(n))
        assert swept[0] <= 109_593, swept[0]


class TestNormProfile:
    def test_flat_case(self):
        r = 0.3
        assert norm_profile("ang", r, 0) == pytest.approx((r * r + 1) / (r * r), abs=1e-14)
        assert norm_profile("len", r, 0) == pytest.approx(1.0, abs=1e-14)
        assert norm_profile("shr", r, 0) == pytest.approx(1.0 / (r * r), abs=1e-14)
        assert norm_profile("tws", r, 0) == pytest.approx(r * r + 1, abs=1e-14)

    def test_hyperbolic_value(self):
        sh, ch = math.sinh(1.0), math.cosh(1.0)
        assert norm_profile("ang", 1.0, -1) == pytest.approx(
            (sh * sh + ch * ch) / (sh * sh), abs=1e-13
        )

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_cross_identity(self, kappa):
        # ang * sn^2 = tws * cs^2 = sn^2 + cs^2
        from conerig.liecore import sn_cs_ct

        for r in (0.2, 0.8, 1.3):
            sn, cs, _ = sn_cs_ct(kappa, r)
            lhs = norm_profile("ang", r, kappa) * sn * sn
            rhs = norm_profile("tws", r, kappa) * cs * cs
            assert lhs == pytest.approx(sn * sn + cs * cs, abs=1e-12)
            assert rhs == pytest.approx(sn * sn + cs * cs, abs=1e-12)


class TestTubeVerdict:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("name,expected", [
        ("ang", DIVERGENT),
        ("shr", DIVERGENT),
        ("tws", CONVERGENT),
        ("len", CONVERGENT),
    ])
    def test_classification(self, kappa, name, expected):
        fp = FormProfile(name, kappa, alpha=math.pi / 2, length=1.0)
        verdict = l2_tube_verdict(fp, 0.5, halving_deltas(0.5, 10))
        assert verdict.verdict == expected

    def test_divergence_increment_constant(self):
        alpha, length = math.pi / 2, 1.0
        fp = FormProfile("ang", -1, alpha, length)
        verdict = l2_tube_verdict(fp, 0.5, halving_deltas(0.5, 12))
        assert verdict.last_increment == pytest.approx(alpha * length * math.log(2.0), rel=0.01)

    def test_refinement_stability(self):
        fp = FormProfile("shr", 1, alpha=1.0, length=2.0)
        deltas = halving_deltas(0.5, 8)
        v1 = l2_tube_verdict(fp, 0.5, deltas, n=1024)
        v2 = l2_tube_verdict(fp, 0.5, deltas, n=2048)
        assert v1.verdict == v2.verdict

    def test_bad_deltas(self):
        fp = FormProfile("len", 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            l2_tube_verdict(fp, 0.5, [0.6])
        with pytest.raises(DomainError):
            l2_tube_verdict(fp, 0.5, [0.1, 0.2])

    def test_spherical_radius_cap(self):
        fp = FormProfile("len", 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            l2_tube_verdict(fp, 1.6, [0.1])

    @pytest.mark.parametrize("name,kappa,eps,count", [
        ("ang", 0, 1e-152, 10),
        ("shr", 1, 1e-200, 2),
        ("ang", 0, 1e-154, 1),
    ])
    def test_integral_that_is_not_finite_names_eps_and_delta(self, name, kappa, eps, count):
        """sn^2 underflows at radii below about 1e-154, and ang and shr divide by it."""
        fp = FormProfile(name, kappa, alpha=math.pi / 2, length=1.0)
        deltas = halving_deltas(eps, count)
        want = f"tube integral from delta = {deltas[-1]!r} to eps = {eps!r} is not finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                l2_tube_verdict(fp, eps, deltas)
        assert str(exc.value) == want

    @pytest.mark.parametrize("name,kappa,eps", [("tws", 0, 1e-300), ("ang", -1, 1e-150)])
    def test_tiny_radius_with_finite_integrals(self, name, kappa, eps):
        fp = FormProfile(name, kappa, alpha=math.pi / 2, length=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = l2_tube_verdict(fp, eps, halving_deltas(eps, 10))
        assert np.isfinite(verdict.integrals).all()


def scalar_tube_segment(fp, lo, hi, n):
    """Reference: the tube trapezoid with one scalar profile evaluation per radius."""
    sn_cs = {
        -1: lambda r: (math.sinh(r), math.cosh(r)),
        0: lambda r: (r, 1.0),
        1: lambda r: (math.sin(r), math.cos(r)),
    }[fp.kappa]
    k2 = float(fp.kappa * fp.kappa)
    us = np.linspace(math.log(lo), math.log(hi), n + 1)
    vals = []
    for u in us:
        r = math.exp(u)
        sn, cs = sn_cs(r)
        profile = {
            "ang": (sn * sn + cs * cs) / (sn * sn),
            "shr": (cs * cs + k2 * sn * sn) / (sn * sn),
            "tws": (sn * sn + cs * cs) / (cs * cs),
            "len": (cs * cs + k2 * sn * sn) / (cs * cs),
        }[fp.name]
        vals.append(profile * sn * cs * r)
    weights = np.full(n + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    h = (us[-1] - us[0]) / n
    return fp.alpha * fp.length * float((weights * np.array(vals)).sum() * h)


class TestTubeAgainstScalarLoop:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("name", ["ang", "shr", "tws", "len"])
    def test_segments_integrals_and_verdicts(self, name, kappa, monkeypatch):
        fp = FormProfile(name, kappa, alpha=1.3, length=0.7)
        for lo, hi in ((1e-4, 0.5), (0.2, 1.4), (1e-9, 2e-9)):
            want = scalar_tube_segment(fp, lo, hi, 2048)
            assert abs(radial._tube_segment(fp, lo, hi, 2048) - want) <= 1e-12 * abs(want)
        deltas = halving_deltas(0.5, 12)
        got = l2_tube_verdict(fp, 0.5, deltas)
        monkeypatch.setattr(radial, "_tube_segment", scalar_tube_segment)
        want = l2_tube_verdict(fp, 0.5, deltas)
        assert got.verdict == want.verdict
        for x, y in zip(got.integrals + got.increments, want.integrals + want.increments):
            assert abs(x - y) <= 1e-12 * abs(y)


class TestHalvingDeltas:
    def test_values(self):
        assert halving_deltas(0.5, 3) == [0.25, 0.125, 0.0625]

    @pytest.mark.parametrize("eps,count", [(0.5, 2000), (1e-300, 100)])
    def test_underflow(self, eps, count):
        with pytest.raises(DomainError, match="fewer halvings"):
            halving_deltas(eps, count)

    @pytest.mark.parametrize("eps,count", [(0.0, 1), (-0.5, 2), (math.inf, 1), (math.nan, 3)])
    def test_bad_eps(self, eps, count):
        with pytest.raises(DomainError, match=f"eps must be positive and finite, got {eps!r}"):
            halving_deltas(eps, count)


# ---------------------------------------------------------------------------
# the quadrature kernel against the one it replaced, which took both powers
# at both ends of every cell


def reference_power_cell_integrals(x0, x1, b, r):
    u0, u1 = x0 / r, x1 / r
    if b == -1.0:
        i0 = r * np.log(u1 / u0)
    else:
        i0 = (r / (b + 1.0)) * (u1 ** (b + 1.0) - u0 ** (b + 1.0))
    if b == -2.0:
        i1 = r * r * np.log(u1 / u0)
    else:
        i1 = (r * r / (b + 2.0)) * (u1 ** (b + 2.0) - u0 ** (b + 2.0))
    return i0, i1


def reference_weighted_integral(xs, ys, b, r):
    x0, x1 = xs[:-1], xs[1:]
    g0, g1 = ys[:-1], ys[1:]
    h = x1 - x0
    i0, i1 = reference_power_cell_integrals(x0, x1, b, r)
    cells = g0 * i0 + (g1 - g0) / h * (i1 - x0 * i0)
    return float(cells.sum())


def cell_gaps(xs, b, r):
    """Per cell, how far the second cell integral i1 may lie from the
    reference's.  The kernel takes the (b+2)-th power as p * u, the power
    fl(b+1) + 1 of u, where the reference takes the power fl(b+2): the two
    exponents differ by eps (|b+1| + |b+2|) / 2 at most, which moves u^(b+2)
    by that times |ln u|, and the pow, the product and the difference add a
    few ulps.  The first integral and both log branches are the reference's
    bit for bit."""
    if b == -2.0:
        return np.zeros(len(xs) - 1)
    u = xs / r
    with np.errstate(divide="ignore"):
        log_u = np.where(u > 0.0, np.abs(np.log(u)), 0.0)
    q = u ** (b + 2.0)
    gap = np.finfo(float).eps * q * (4.0 + (abs(b + 1.0) + abs(b + 2.0)) * log_u)
    return r * r / abs(b + 2.0) * (gap[1:] + gap[:-1])


def quadrature_gap(g, b, lo, hi, r, n):
    """How far the weighted sum may move when each i1 moves by its cell gap:
    near b = -2 or r = 1 the (b+2)-th power's cell differences cancel, and
    either kernel keeps fewer digits there."""
    xs = np.linspace(lo, hi, n + 1)
    ys = radial._sample(g, xs)
    return float((np.abs(np.diff(ys) / np.diff(xs)) * cell_gaps(xs, b, r)).sum())


def band_limited_from(coef):
    """Reference: the decay suite's input summed term by term, six trig sweeps."""

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k in range(3):
            out = out + coef[2 * k] * np.cos(2.0 * math.pi * k * x)
            out = out + coef[2 * k + 1] * np.sin(2.0 * math.pi * (k + 1) * x)
        return out

    return g


coefficients = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=6, max_size=6)


class TestQuadratureAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(0.05, 1.0), st.sampled_from([64, 4096]), coefficients)
    @example(-2.0, 0.5, 64, [1.0, 0.5, -0.3, 0.2, 0.1, -0.4])
    @example(-1.0, 0.5, 4096, [1.0, 0.5, -0.3, 0.2, 0.1, -0.4])
    @example(-0.5, 0.3, 64, [0.2, -1.0, 0.5, 0.0, 0.3, 0.1])
    @example(0.0, 1.0, 4096, [0.2, -1.0, 0.5, 0.0, 0.3, 0.1])
    def test_decay_functions_match(self, b, r, n, coef):
        # the reference divides 0 by 0 on cells of width 0 (r within ulps of 1)
        assume(np.all(np.diff(np.linspace(r, 1.0, n + 1)) > 0.0) or r == 1.0)
        g = band_limited_from(coef)
        functions = [(t_b1, r, 1.0), (t_b1_bound, None, None)]
        if b > -0.5:
            functions += [(t_b0, 0.0, r), (t_b0_bound, None, None)]
        for f, lo, hi in functions:
            got = f(g, b, r, n)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(radial, "_weighted_integral", reference_weighted_integral)
                want = f(g, b, r, n)
            # the bounds weigh g^2 by rho^0, where both kernels take u and u * u
            gap = 0.0 if lo is None or lo == hi else quadrature_gap(g, b, lo, hi, r, n)
            assert abs(got - want) <= 1e-13 * abs(want) + gap, (f.__name__, got, want, gap)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(0.05, 1.0), st.floats(0.0, 0.95), st.sampled_from([64, 4096]))
    @example(-2.0, 0.5, 0.5, 64)
    @example(-1.0, 0.5, 0.5, 64)
    def test_cells_match(self, b, r, lo, n):
        # grids start at 0 only where the weight is integrable there, b > -1
        xs = np.linspace(r * lo if b > -1.0 else r * max(lo, 0.05), r, n + 1)
        i0, i1 = radial._power_cell_integrals(xs, b, r)
        want0, want1 = reference_power_cell_integrals(xs[:-1], xs[1:], b, r)
        assert np.array_equal(i0, want0)
        assert np.all(np.abs(i1 - want1) <= cell_gaps(xs, b, r))


def exact_trig_input(coef, x):
    """The decay suite's input at the binary x, summed in 200-bit arithmetic."""
    with mpmath.workprec(200):
        t = 2 * mpmath.pi * mpmath.mpf(x)
        c0, c1, c2, c3, c4, c5 = (mpmath.mpf(c) for c in coef)
        value = c0 + c2 * mpmath.cos(t) + c4 * mpmath.cos(2 * t)
        value += c1 * mpmath.sin(t) + c3 * mpmath.sin(2 * t) + c5 * mpmath.sin(3 * t)
        return float(value)


@settings(max_examples=60, deadline=None)
@given(coefficients, st.floats(0.05, 1.0), st.sampled_from([64, 4096]))
@example([0.0, 0.0, 0.0, 2.0, 3.0, 3.0], 0.99999, 4096)
@example([3.0, 0.0, 3.0, 0.0, 3.0, 3.0], 0.75, 4096)
def test_suite_input_from_one_cos_and_one_sin(coef, r, n):
    # P(c) + s Q(c) against the exact sum at about 64 nodes of each of the
    # grids of t_b0 and t_b1, both ends and r among them
    picks = np.unique(np.linspace(0, n, 64).round().astype(int))
    xs = np.concatenate([np.linspace(0.0, r, n + 1)[picks], np.linspace(r, 1.0, n + 1)[picks]])
    got = cli._trig_polynomial(coef)(*radial._cos_sin(xs))
    want = np.array([exact_trig_input(coef, x) for x in xs.tolist()])
    assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * sum(map(abs, coef))


class TestDecayDomain:
    """Each decay function refuses an argument it cannot compute on, and a
    value that is not finite, with a DomainError and no numpy warning."""

    FUNCTIONS = [t_b0, t_b0_bound, t_b1, t_b1_bound]

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("r", [0.0, -0.5, 2.0, 3.0, math.nan, math.inf])
    def test_radius_outside_the_unit_interval(self, f, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"radius must lie in \(0, 1\]"):
                f(ONE, 1.0, r)

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_b_not_finite(self, f, b):
        with pytest.raises(DomainError, match="finite b"):
            f(ONE, b, 0.5)

    @pytest.mark.parametrize("f", [t_b0, t_b0_bound], ids=lambda f: f.__name__)
    def test_b_at_or_below_minus_one_half(self, f):
        with pytest.raises(DomainError, match="above -0.5"):
            f(ONE, -0.5, 0.5)

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.__name__)
    def test_no_quadrature_samples(self, f):
        with pytest.raises(DomainError, match="at least 1"):
            f(ONE, 1.0, 0.5, n=0)

    @pytest.mark.parametrize("f", [t_b1, t_b1_bound], ids=lambda f: f.__name__)
    def test_overflow_names_b_and_r(self, f):
        # the true values are about 20^300 / 301, beyond every float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"at b = 300.0, r = 0.05 is not finite"):
                f(ONE, 300.0, 0.05)

    def test_an_input_that_overflows(self):
        huge = lambda x: np.full_like(np.asarray(x, dtype=float), 1e300)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="t_b0_bound at b = 1.0, r = 0.5"):
                t_b0_bound(huge, 1.0, 0.5)

    @pytest.mark.parametrize("n", [64, 4096])
    def test_radius_a_few_ulps_below_one(self, n):
        # most cells of [r, 1] have width 0 and add 0, not 0/0
        r = 1.0 - 2.0**-53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(t_b1(ONE, 1.0, r, n)) <= 2.0**-52
            assert abs(t_b1(np.cos, -2.0, r, n)) <= 2.0**-52

    def test_values_in_range_are_kept(self):
        assert t_b1(ONE, 2.0, 1.0) == 0.0
        assert t_b1_bound(ONE, -0.5, 1.0) == 0.0
        assert t_b0(ONE, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("f", [t_b0, t_b0_bound, t_b1, t_b1_bound], ids=lambda f: f.__name__)
def test_an_input_that_overflows_as_it_is_sampled(f):
    # exp(800 x) overflows beyond x = 0.887, on each function's grid at r = 0.95;
    # the sample is taken with numpy warnings off and its value refused by the guard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{f.__name__} at b = 1.0, r = 0.95 is not finite"):
            f(lambda x: np.exp(800.0 * x), 1.0, 0.95, 64)

"""Numerical checks for the radial part of the singular model operator.

Covers the weighted integral operators with their decay bounds, a
finite-difference lower-bound proxy for the radial operator on compactly
supported functions, and the L2 (non-)integrability of the four standard
deformation forms on a singular tube.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditioned, is_integer
from .liecore import sn_cs_ct, validate_curvature

# Default quadrature resolution; chosen so that halving the step moves the
# integral values by well under 1e-6 on band-limited inputs.
QUAD_SAMPLES = 16384

# Largest grid and quadrature sizes, refused above before any array is made:
# 16x the largest tested grid (4096) and the default quadrature.
MAX_GRID = 2**16
MAX_QUAD_SAMPLES = 2**18

PROFILES = ("ang", "shr", "tws", "len")

DIVERGENT = "Divergent"
CONVERGENT = "Convergent"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid r_i = i/n on (0, 1] with one-sided differences."""

    n: int

    def __post_init__(self):
        if not is_integer(self.n) or not 64 <= self.n <= MAX_GRID:
            raise DomainError(f"grid takes 64 to {MAX_GRID} nodes, got {self.n}")


def _sample(g, xs: np.ndarray) -> np.ndarray:
    """g at the nodes xs, numpy warnings off: the value guards refuse a g that overflows."""
    with np.errstate(all="ignore"):
        ys = np.asarray(g(xs), dtype=float)
        if ys.shape != xs.shape:
            ys = np.array([float(g(float(x))) for x in xs])
    return ys


def _power_cell_integrals(xs: np.ndarray, b: float, r: float):
    """Exact integrals of (rho/r)^b and (rho/r)^b * rho over the cells of xs.

    Scaling by r keeps magnitudes tame for large |b|.  Each node's power
    p = (x/r)^(b+1) is taken once; p * (x/r) stands in for the (b+2)-th.
    """
    u = xs / r
    p = u ** (b + 1.0)
    if b == -1.0:
        i0 = r * np.log(u[1:] / u[:-1])
    else:
        i0 = (r / (b + 1.0)) * (p[1:] - p[:-1])
    if b == -2.0:
        i1 = r * r * np.log(u[1:] / u[:-1])
    else:
        q = p * u
        i1 = (r * r / (b + 2.0)) * (q[1:] - q[:-1])
    return i0, i1


def _weighted_integral(xs: np.ndarray, ys: np.ndarray, b: float, r: float) -> float:
    """Integral of (rho/r)^b g(rho) over [xs[0], xs[-1]] from the values ys of g
    at the uniform nodes xs.

    Piecewise-linear g integrated exactly against the power weight per cell;
    this reduces to the composite trapezoid rule at b = 0 and handles the
    rho^b singularity of a first cell at xs[0] = 0 (b > -1) exactly, since
    0^(b+1) = 0 there.  A cell of width 0 (an interval within a few ulps)
    adds 0.
    """
    x0 = xs[:-1]
    g0, g1 = ys[:-1], ys[1:]
    h = xs[1:] - x0
    slope = np.divide(g1 - g0, h, out=np.zeros_like(h), where=h > 0.0)
    i0, i1 = _power_cell_integrals(xs, b, r)
    cells = g0 * i0 + slope * (i1 - x0 * i0)
    return float(cells.sum())


def _l2_norm(ys: np.ndarray, r: float) -> float:
    """||g||_{L2(0,r)} by the trapezoid rule on g^2, from the values ys of g
    at the len(ys) uniform nodes of [0, r]."""
    squares = ys * ys
    n = len(ys) - 1
    return math.sqrt(r / n * (squares.sum() - 0.5 * (squares[0] + squares[-1])))


def _t_b1_factor(b: float, r: float) -> float:
    """t_b1's three-case bound over ||g||_{L2(0,1)}; r^-b may overflow."""
    if b < -0.5:
        return math.sqrt(r) / math.sqrt(abs(2.0 * b + 1.0))
    if b == -0.5:
        return math.sqrt(r) * math.sqrt(abs(math.log(r)))
    return r ** (-b) / math.sqrt(2.0 * b + 1.0)


def _check_quad_samples(n: int) -> None:
    if not is_integer(n) or not 1 <= n <= MAX_QUAD_SAMPLES:
        raise DomainError(f"quadrature takes at least 1 and at most {MAX_QUAD_SAMPLES} samples, got {n}")


def _finite_decay_value(name: str, b: float, r: float, compute, *args) -> float:
    """compute(*args) with numpy warnings off: a value that is not finite
    (the power weight or g overflows) raises DomainError naming b and r."""
    try:
        with np.errstate(all="ignore"):
            value = compute(*args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"{name} at b = {b!r}, r = {r!r} is not finite ({value!r}): "
            "the power weight or g overflows a float"
        )
    return value


def _check_decay_arguments(name: str, b: float, r: float, n: int, b_floor: float | None = None) -> None:
    """The public decay functions' argument check: a finite b (above b_floor
    when given), r in (0, 1] and n in 1..MAX_QUAD_SAMPLES."""
    if not math.isfinite(b) or (b_floor is not None and b <= b_floor):
        floor = "" if b_floor is None else f" above {b_floor}"
        raise DomainError(f"{name} requires a finite b{floor}, got {b!r}")
    if not 0.0 < r <= 1.0:
        raise DomainError(f"{name}: radius must lie in (0, 1], got {r!r}")
    _check_quad_samples(n)


# One value function per decay quantity, from g's values ys on its grid.
def _t_b0_value(xs: np.ndarray, ys: np.ndarray, b: float, r: float) -> float:
    return _finite_decay_value("t_b0", b, r, _weighted_integral, xs, ys, b, r)


def _t_b0_bound_value(ys: np.ndarray, b: float, r: float) -> float:
    """r^(1/2) (2b+1)^(-1/2) ||g||_{L2(0,r)}, from ys on [0, r]."""
    factor = math.sqrt(r) / math.sqrt(2.0 * b + 1.0)
    return _finite_decay_value("t_b0_bound", b, r, lambda: factor * _l2_norm(ys, r))


def _t_b1_value(xs: np.ndarray, ys: np.ndarray, b: float, r: float) -> float:
    return _finite_decay_value("t_b1", b, r, lambda: -_weighted_integral(xs, ys, b, r))


def _t_b1_bound_value(ys: np.ndarray, b: float, r: float) -> float:
    return _finite_decay_value("t_b1_bound", b, r, lambda: _t_b1_factor(b, r) * _l2_norm(ys, 1.0))


def t_b0(g, b: float, r: float, n: int = QUAD_SAMPLES) -> float:
    """Weighted average r^-b * integral_0^r rho^b g(rho) drho for b > -1/2,
    with g sampled at n + 1 nodes of [0, r]."""
    _check_decay_arguments("t_b0", b, r, n, b_floor=-0.5)
    xs = np.linspace(0.0, r, n + 1)
    return _t_b0_value(xs, _sample(g, xs), b, r)


def t_b0_bound(g, b: float, r: float, n: int = QUAD_SAMPLES) -> float:
    """Cauchy-Schwarz bound r^(1/2) (2b+1)^(-1/2) ||g||_{L2(0,r)}, with g
    sampled at the n + 1 nodes of [0, r] that t_b0 takes."""
    _check_decay_arguments("t_b0_bound", b, r, n, b_floor=-0.5)
    return _t_b0_bound_value(_sample(g, np.linspace(0.0, r, n + 1)), b, r)


def t_b1(g, b: float, r: float, n: int = QUAD_SAMPLES) -> float:
    """Weighted integral r^-b * integral_1^r rho^b g(rho) drho, with g
    sampled at n + 1 nodes of [r, 1]."""
    _check_decay_arguments("t_b1", b, r, n)
    if r == 1.0:
        return 0.0
    xs = np.linspace(r, 1.0, n + 1)
    return _t_b1_value(xs, _sample(g, xs), b, r)


def t_b1_bound(g, b: float, r: float, n: int = QUAD_SAMPLES) -> float:
    """Three-case decay bound with ||g||_{L2(0,1)} on the right-hand side,
    g sampled at n + 1 nodes of [0, 1] whatever r is."""
    _check_decay_arguments("t_b1_bound", b, r, n)
    return _t_b1_bound_value(_sample(g, np.linspace(0.0, 1.0, n + 1)), b, r)


def _cos_sin(x):
    """cos 2 pi x and sin 2 pi x: one cos and one sin sweep of the grid x."""
    t = 2.0 * math.pi * np.asarray(x, dtype=float)
    return np.cos(t), np.sin(t)


def min_decay_slacks(inputs, n: int = QUAD_SAMPLES) -> tuple[float, float]:
    """Least slack of t_b0 and of t_b1 against their bounds over inputs.

    Each input is (h, b0, b1, r) with b0 > -1/2 and r in (0, 1), taken as
    given, for g(x) = h(cos 2 pi x, sin 2 pi x).  The slacks are
    t_b0_bound(g, b0, r, n) - |t_b0(g, b0, r, n)| and
    t_b1_bound(g, b1, r, n) - |t_b1(g, b1, r, n)|, from the value functions
    those four call, which refuse a value that is not finite under the same
    names.  Each grid is sampled once: an input on the n + 1 nodes of [0, r]
    (t_b0 and its bound) and of [r, 1] (t_b1), and the [0, 1] grid of
    t_b1_bound takes its cos and sin once for all inputs.  That is two cos
    sweeps per input and one more, and as many sin sweeps.
    """
    _check_quad_samples(n)  # before the shared grid is made
    unit = _cos_sin(np.linspace(0.0, 1.0, n + 1))
    slack0 = slack1 = math.inf
    for h, b0, b1, r in inputs:
        xs = np.linspace(0.0, r, n + 1)
        ys = h(*_cos_sin(xs))
        slack0 = min(slack0, _t_b0_bound_value(ys, b0, r) - abs(_t_b0_value(xs, ys, b0, r)))
        bound = _t_b1_bound_value(h(*unit), b1, r)
        xs = np.linspace(r, 1.0, n + 1)
        slack1 = min(slack1, bound - abs(_t_b1_value(xs, h(*_cos_sin(xs)), b1, r)))
    return slack0, slack1


def pb_min_singular(b: float, kappa: int, grid: RadialGrid) -> float:
    """Smallest singular value of the discretized radial operator.

    One-sided differences of d/dr + b/sn(r) on (0,1) with zero padding at
    both ends stand in for compactly supported test functions; the potential
    is sampled at cell midpoints, which keeps the one-step recurrence stable
    for large |b| (sampling at nodes admits a spurious boundary-layer mode).
    The square of the return value tracks the coercivity constant, which
    grows with |b|.

    The operator is the n x (n-1) lower-bidiagonal matrix M with diagonal
    d_j = 1/h + pot_j/2 and subdiagonal s_j = -1/h + pot_{j+1}/2, and only
    these two bands are stored: time and memory are O(n).  sigma_min comes
    from inverse iteration on the tridiagonal M^T M through its LDL^T
    (Thomas) factorisation, with shifts kept below sigma_min^2 (see
    `_bidiagonal_sigma_min`).  On grids of 256 nodes or more the iteration
    starts from the same operator's solution on the 64-cell grid: its
    singular vector, interpolated linearly onto the fine nodes, and a first
    shift just below its sigma_min, kept only if the fine factorisation
    shows that shift to lie below the fine sigma_min.  Otherwise (or if the
    coarse solve fails) the iteration starts from the vector of ones at
    shift 0, as on smaller grids.  Either way sigma is read back as
    ||Mv|| / ||v|| from the fine bands of M, so the reported value is never
    squared, and one Golub-Kahan Sturm count on the fine bidiagonal (Demmel
    and Kahan, SIAM J. Sci. Stat. Comput. 11, 1990) then certifies that no
    singular value lies below sigma (1 - 1e-10): the result is an upper
    bound within 1e-10 relative of sigma_min, and agrees with a dense SVD
    to about 1e-13.  An iteration that does not converge, or a certificate
    that fails, raises `IllConditioned` (CLI exit 3); a b so large that the
    bands overflow raises `DomainError`.
    """
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got {b!r}")
    n = grid.n
    diag, sub, scale = _bands(b, kappa, n)
    start = None
    if n >= 4 * _COARSE_GRID:
        coarse_diag, coarse_sub, coarse_scale = _bands(b, kappa, _COARSE_GRID)
        try:
            coarse_sigma, coarse_x = _bidiagonal_sigma_min(coarse_diag, coarse_sub, certify=False)
        except IllConditioned:
            pass
        else:
            # the coarse vector holds f at the nodes j/64, j = 1..63; f = 0 at r = 0 and 1
            coarse_f = np.zeros(_COARSE_GRID + 1)
            coarse_f[1:-1] = coarse_x
            fine_f = np.interp(np.arange(1, n) / n, np.arange(_COARSE_GRID + 1) / _COARSE_GRID, coarse_f)
            trial = coarse_sigma * (1.0 - _COARSE_SHIFT_MARGIN) * (coarse_scale / scale)
            start = (fine_f.tolist(), trial)
    return scale * _bidiagonal_sigma_min(diag, sub, start)[0]


def _bands(b: float, kappa: int, n: int):
    """The two bands of the n-cell operator divided by a power of two, and that power.

    sigma_min scales with M; a power of two scales exactly and keeps the
    squares in M^T M within range for every finite b.  Bands that overflow
    raise DomainError naming b and n.
    """
    h = 1.0 / n
    sn = sn_cs_ct(kappa, (np.arange(n) + 0.5) / n)[0]
    with np.errstate(over="ignore"):
        pot = b / sn
        # rows i = 0..n-1 over cells [r_i, r_i+h]:
        #   (f_{i+1} - f_i)/h + pot_i (f_i + f_{i+1})/2,  f_0 = f_n = 0
        diag = 1.0 / h + pot[:-1] / 2.0
        sub = -1.0 / h + pot[1:] / 2.0
    if not (np.isfinite(diag).all() and np.isfinite(sub).all()):
        raise DomainError(f"b = {b!r} is too large for grid {n}: the operator's entries overflow")
    scale = math.ldexp(1.0, math.frexp(max(np.abs(diag).max(), np.abs(sub).max()))[1])
    return diag / scale, sub / scale, scale


# Grid of the coarse solve that starts the fine iteration; grids below
# 4 x 64 start cold, since there the coarse solve would cost about as much.
_COARSE_GRID = 64
# The first fine shift lies this far (relative) below the coarse sigma_min.
_COARSE_SHIFT_MARGIN = 1e-3
# The certificate asks every singular value to exceed sigma (1 - margin).  A
# Golub-Kahan count is exact for a bidiagonal within about 2n eps relative of
# the computed one, so the margin holds with room to spare for n up to 10^5.
_CERTIFY_MARGIN = 1e-10
# Iterations stop once sigma moves by at most this much relative.
_CONVERGED = 1e-12
# Each iteration cuts the bracket [lo, hi] around sigma_min to at most 7/8
# of its width (to 1/8 when the trial shift is kept), and the Rayleigh
# quotient converges far faster than that: 26 iterations at most on
# n = 64..4096, |b| <= 10^4, every curvature.
_MAX_ITERATIONS = 200


def _bidiagonal_sigma_min(diag: np.ndarray, sub: np.ndarray, start=None, certify: bool = True):
    """sigma_min of the (k+1) x k lower-bidiagonal matrix M = (diag, sub),
    and its unit singular vector as a list.

    Inverse iteration on M^T M = tridiag(e, a, e).  Every step solves with
    the LDL^T factorisation of M^T M - lo^2, where lo is a lower bound for
    sigma_min: a factorisation whose pivots are all positive shows that
    lo^2 lies below the smallest eigenvalue, so the shift never passes it
    and the iteration converges to the smallest singular vector.  Each step
    then tries to raise lo to hi - (hi - lo)/8, where hi is the current
    upper bound, the Rayleigh value ||Mv|| / ||v||.

    start = (v, trial) begins from the vector v with lo = trial if the
    pivots of M^T M - trial^2 are all positive; otherwise, and with no
    start, the iteration begins from the vector of ones with lo = 0.  With
    certify, a Golub-Kahan count checks that no singular value lies below
    sigma (1 - 1e-10).
    """
    k = len(diag)
    a = (diag * diag + sub * sub).tolist()
    e = (sub[:-1] * diag[1:]).tolist()

    def rayleigh(v):
        x = np.array(v)
        x /= np.linalg.norm(x)
        mx = np.zeros(k + 1)
        mx[:-1] = diag * x
        mx[1:] += sub * x
        return float(np.linalg.norm(mx)), x.tolist()

    factors = None
    if start is not None:
        x, lo = start
        factors = _ldl_pivots(a, e, lo * lo)
    if factors is None:
        x, lo = [1.0] * k, 0.0
        factors = _ldl_pivots(a, e, 0.0)
        if factors is None:
            raise IllConditioned("radial operator: M^T M has a nonpositive pivot")
    sigma, x = rayleigh(x)
    hi = sigma
    for _ in range(_MAX_ITERATIONS):
        new, x = rayleigh(_ldl_solve(*factors, x))
        if sigma - new <= _CONVERGED * new:
            break
        sigma = new
        hi = min(hi, sigma)
        trial = hi - 0.125 * (hi - lo)
        trial_factors = _ldl_pivots(a, e, trial * trial)
        if trial_factors is None:
            hi = trial
        else:
            lo, factors = trial, trial_factors
    else:
        raise IllConditioned(
            f"radial operator: inverse iteration did not converge in {_MAX_ITERATIONS} steps"
        )
    if certify:
        floor = new * (1.0 - _CERTIFY_MARGIN)
        if _count_singular_values_above(diag, sub, floor) != k:
            raise IllConditioned(
                f"radial operator: a singular value lies below {floor!r}, sigma_min is not certified"
            )
    return new, x


def _ldl_pivots(a: list, e: list, mu: float):
    """Pivots and multipliers of LDL^T = tridiag(e, a - mu, e), or None
    unless every pivot is positive (the matrix is then positive definite)."""
    pivot = a[0] - mu
    if not pivot > 0.0:
        return None
    pivots, mults = [pivot], []
    for a_j, e_j in zip(a[1:], e):
        m = e_j / pivot
        pivot = a_j - mu - m * e_j
        if not pivot > 0.0:
            return None
        pivots.append(pivot)
        mults.append(m)
    return pivots, mults


def _ldl_solve(pivots: list, mults: list, v: list) -> list:
    """Solve L D L^T x = v by forward and back substitution."""
    y_j = v[0]
    y = [y_j]
    for v_j, m in zip(v[1:], mults):
        y_j = v_j - m * y_j
        y.append(y_j)
    x_j = y[-1] / pivots[-1]
    x = [x_j]
    for y_j, p, m in zip(reversed(y[:-1]), reversed(pivots[:-1]), reversed(mults)):
        x_j = y_j / p - m * x_j
        x.append(x_j)
    x.reverse()
    return x


def _count_singular_values_above(diag: np.ndarray, sub: np.ndarray, floor: float) -> int:
    """Number of singular values of the lower-bidiagonal (diag, sub) above floor > 0.

    Sturm count on the Golub-Kahan matrix, the tridiagonal with zero
    diagonal and off-diagonal d_0, s_0, d_1, s_1, ...: its eigenvalues are
    the +-sigma_j and one 0, so the negative pivots of T + floor I count the
    sigma_j above floor.  A zero pivot is replaced by a tiny positive one,
    which can only lower the count.
    """
    off = np.empty(2 * len(diag))
    off[0::2] = diag
    off[1::2] = sub
    count = 0
    q = floor
    for b2 in (off * off).tolist():
        q = floor - b2 / (q or sys.float_info.min)
        count += q < 0.0
    return count


def norm_profile(name: str, r, kappa: int):
    """Squared pointwise norm of a named deformation form at tube radius r,
    a float or an array of radii.

    ang: (sn^2+cs^2)/sn^2   shr: (cs^2+kappa^2 sn^2)/sn^2
    tws: (sn^2+cs^2)/cs^2   len: (cs^2+kappa^2 sn^2)/cs^2
    """
    if name not in PROFILES:
        raise DomainError(f"unknown profile {name!r}")
    sn, cs, _ = sn_cs_ct(kappa, r)
    return _profile(name, kappa, sn, cs)


def _profile(name: str, kappa: int, sn, cs):
    """The squared norm of profile `name` from sn and cs at the radii."""
    k2 = float(kappa * kappa)
    if name == "ang":
        return (sn * sn + cs * cs) / (sn * sn)
    if name == "shr":
        return (cs * cs + k2 * sn * sn) / (sn * sn)
    if name == "tws":
        return (sn * sn + cs * cs) / (cs * cs)
    return (cs * cs + k2 * sn * sn) / (cs * cs)


@dataclass(frozen=True)
class FormProfile:
    """Named squared-norm profile of a deformation form on a singular tube."""

    name: str
    kappa: int
    alpha: float
    length: float

    def __post_init__(self):
        if self.name not in PROFILES:
            raise DomainError(f"unknown profile {self.name!r}")
        validate_curvature(self.kappa)
        if self.alpha <= 0.0 or self.length <= 0.0:
            raise DomainError("cone angle and tube length must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.length)):
            raise DomainError(
                f"cone angle and tube length must be finite, got {self.alpha}, {self.length}"
            )


@dataclass(frozen=True)
class TubeVerdict:
    verdict: str
    integrals: tuple[float, ...]
    increments: tuple[float, ...]
    deltas: tuple[float, ...]
    last_increment: float | None  # None with fewer than two deltas


def _tube_segment(fp: FormProfile, lo: float, hi: float, n: int) -> float:
    """alpha * L * integral of profile * sn * cs over [lo, hi].

    Trapezoid in log radius; the integrand behaves like 1/r near 0, which a
    logarithmic grid resolves uniformly.
    """
    us = np.linspace(math.log(lo), math.log(hi), n + 1)
    rs = np.exp(us)
    sn, cs, _ = sn_cs_ct(fp.kappa, rs)
    vals = _profile(fp.name, fp.kappa, sn, cs) * (sn * cs)
    integrand = vals * rs  # dr = r du
    weights = np.full(n + 1, 1.0)
    weights[0] = weights[-1] = 0.5
    h = (us[-1] - us[0]) / n
    return fp.alpha * fp.length * float((weights * integrand).sum() * h)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:  # also refuses NaN
        raise DomainError(f"eps must be positive and finite, got {eps!r}")


def l2_tube_verdict(fp: FormProfile, eps: float, deltas, n: int = 2048) -> TubeVerdict:
    """Classify the tube integral I(delta) = int_delta^eps as delta -> 0.

    Divergent when the increments per halving stabilize at a positive
    constant, convergent when they decay geometrically; anything else is
    inconclusive and the raw values are reported.
    """
    _check_quad_samples(n)
    _check_eps(eps)
    if fp.kappa == 1 and eps >= math.pi / 2.0:
        raise DomainError("tube radius must stay below pi/2 at curvature +1")
    deltas = [float(d) for d in deltas]
    if not deltas or any(not (0.0 < d < eps) for d in deltas):
        raise DomainError("deltas must lie in (0, eps)")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("deltas must be strictly decreasing")

    # sn^2 underflows at tiny radii, and a profile that divides by it overflows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        segments = [_tube_segment(fp, lo, hi, n) for lo, hi in zip(deltas, [eps, *deltas])]
        integrals = tuple(np.cumsum(segments).tolist())
    if not np.isfinite(integrals).all():
        raise DomainError(f"tube integral from delta = {deltas[-1]!r} to eps = {eps!r} is not finite")
    increments = tuple(segments[1:])

    verdict = INCONCLUSIVE
    if len(increments) >= 3:
        last = increments[-3:]
        if all(v > 1e-9 for v in last):
            ratios = [y / x for x, y in zip(last, last[1:])]
            if all(abs(rt - 1.0) < 0.25 for rt in ratios):
                verdict = DIVERGENT
            elif all(rt < 0.6 for rt in ratios):
                verdict = CONVERGENT
        elif all(v < 1e-9 for v in last):
            verdict = CONVERGENT
    return TubeVerdict(
        verdict=verdict,
        integrals=integrals,
        increments=increments,
        deltas=tuple(deltas),
        last_increment=increments[-1] if increments else None,
    )


def halving_deltas(eps: float, count: int = 10) -> list[float]:
    """eps/2, eps/4, ..., eps/2^count, for a positive finite eps and a count
    of at least 1.

    Raises DomainError once a halving is not a positive number strictly
    below the one before (eps/2^k underflows).
    """
    _check_eps(eps)
    if not is_integer(count) or count < 1:
        raise DomainError(f"halving count must be an integer of at least 1, got {count!r}")
    deltas = []
    previous = eps
    for k in range(1, count + 1):
        delta = math.ldexp(eps, -k)
        if not 0.0 < delta < previous:
            raise DomainError(
                f"halving {k} of eps = {eps!r} gives {delta!r}, not a positive number "
                f"below {previous!r}; use fewer halvings"
            )
        deltas.append(delta)
        previous = delta
    return deltas

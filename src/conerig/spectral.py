"""Closed-form cross-section spectra and cone-admissibility verdicts.

The model operator near a singular point separates into a radial part and a
cross-section operator B on the link.  Admissibility asks that spec B misses
the open interval (-1/2, 1/2); boundary values +/- 1/2 are admissible.  For
circle links the spectra are explicit in the cone angle and the holonomy
angle of each flat line bundle summand; for surface links they are expressed
through the positive spectrum of the Laplacian on functions, for which the
guaranteed lower bound is 1.

A verdict on a singular graph reads the edge angles only: it computes one
circle spectrum per distinct angle, which each edge's bigon link reads twice
and each vertex's triangle link once per incident edge.

Every spectrum records a witness for each of its values that lies in the
gap, and the gap holds exactly when there is no witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .liecore import validate_curvature

TWO_PI = 2.0 * math.pi

# Values within MERGE_TOL of each other are the same eigenvalue; the same
# slack is applied at the gap boundaries +/- 1/2 (open interval).
MERGE_TOL = 1e-12

GAP_LO, GAP_HI = -0.5, 0.5

CONTEXT_SPHERICAL = "SphericalE"
CONTEXT_HYPERBOLIC = "HyperbolicE"
CONTEXT_TRANSLATIONAL = "EuclideanEtrans"

# Guaranteed lower bound for the smallest positive function-Laplacian
# eigenvalue of an admissible link; possibly not optimal.
LAMBDA1_GUARANTEED = 1.0

# Most values one spectrum may enumerate.  A window, cone angle, holonomy
# angle or multiplicity that needs more is refused before any is computed.
MAX_SPECTRUM_VALUES = 10**6


@dataclass(frozen=True)
class ConePoint:
    """Cone point of a link: circle length alpha plus the flat bundle data.

    holonomy_angles lists one angle in [0, 2pi) per complex line summand;
    trivial_rank counts the trivial real summands.
    """

    alpha: float
    holonomy_angles: tuple[float, ...]
    trivial_rank: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= TWO_PI):
            raise DomainError(f"cone angle must lie in (0, 2*pi], got {self.alpha}")
        for a in self.holonomy_angles:
            if not (0.0 <= a < TWO_PI):
                raise DomainError(f"holonomy angle must lie in [0, 2*pi), got {a}")
        if self.trivial_rank < 0:
            raise DomainError("trivial_rank must be nonnegative")


TRIANGLE = "triangle"
BIGON = "bigon"


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues in [-W, W] with multiplicity plus the gap verdict.

    gap_ok is decided from the full spectrum, not just the reported window,
    so enlarging the window never changes it: it holds exactly when no
    witness is recorded.  min_abs is None when no value lies in the window.
    Witnesses record offending (n, holonomy angle, cone angle, value) tuples
    for circle spectra and (lambda, value) for surface links.
    """

    values: tuple[float, ...]
    gap_ok: bool
    min_abs: float | None
    window: float
    source: str
    witnesses: tuple[dict, ...]


def _check_size(count: int) -> None:
    if count > MAX_SPECTRUM_VALUES:
        raise DomainError(f"the spectrum would take more than {MAX_SPECTRUM_VALUES} values")


def _modes(reach: float, values_per_mode: int) -> range:
    """Modes |n| <= ceil(reach / 2 pi) + 1 of values_per_mode values each, within
    the cap; the reach is clipped first, so an infinite one never meets int()."""
    n_max = int(math.ceil(min(MAX_SPECTRUM_VALUES, reach / TWO_PI))) + 1
    _check_size((2 * n_max + 1) * max(values_per_mode, 1))
    return range(-n_max, n_max + 1)


def _in_gap(x: float) -> bool:
    return GAP_LO + MERGE_TOL < x < GAP_HI - MERGE_TOL


def _finish(values: list[float], window: float, source: str, witnesses) -> SpectrumReport:
    vals = tuple(sorted(v for v in values if abs(v) <= window + MERGE_TOL))
    min_abs = min((abs(v) for v in vals), default=None)
    return SpectrumReport(vals, not witnesses, min_abs, window, source, tuple(witnesses))


def _twisted_circle(alpha: float, a: float, shift: float, modes, values: list, witnesses: list) -> None:
    """Append shift +/- |2 pi n - a| / alpha over the modes n to `values`, a
    zero mode giving shift once, and a witness for each shift + |2 pi n - a| / alpha
    in the gap to `witnesses`."""
    for n in modes:
        v = abs(TWO_PI * n - a) / alpha
        if v <= MERGE_TOL:
            values.append(shift)
        else:
            values.extend((shift + v, shift - v))
        if _in_gap(shift + v):
            witnesses.append({"n": n, "holonomy_angle": a, "alpha": alpha, "value": shift + v})


def circle_dirac_spectrum(alpha: float, a: float, window: float) -> SpectrumReport:
    """Spectrum {+/- |2 pi n - a| / alpha} of the twisted circle operator."""
    if alpha <= 0.0:
        raise DomainError(f"circle length must be positive, got {alpha}")
    if window <= 0.0:
        raise DomainError(f"window must be positive, got {window}")
    values: list[float] = []
    witnesses: list[dict] = []
    _twisted_circle(alpha, a, 0.0, _modes(abs(a) + (window + 1.0) * alpha, 2), values, witnesses)
    return _finish(values, window, f"circle-dirac(alpha={alpha!r}, a={a!r})", witnesses)


def circle_B_spectrum(cp: ConePoint, window: float) -> SpectrumReport:
    """Spectrum of the cross-section operator at a circle link.

    Each complex line summand with holonomy angle a contributes
    -1/2 +/- |2 pi n - a| / alpha; each trivial summand contributes
    -1/2 + 2 pi n / alpha.
    """
    if window <= 0.0:
        raise DomainError(f"window must be positive, got {window}")
    alpha = cp.alpha
    values: list[float] = []
    witnesses: list[dict] = []
    modes = _modes(TWO_PI + (window + 2.0) * alpha, 2 * len(cp.holonomy_angles) + cp.trivial_rank)
    for a in cp.holonomy_angles:
        _twisted_circle(alpha, a, -0.5, modes, values, witnesses)
    for n in modes:
        x = -0.5 + TWO_PI * n / alpha
        values.extend([x] * cp.trivial_rank)
        if cp.trivial_rank and _in_gap(x):
            witnesses.append({"n": n, "holonomy_angle": 0.0, "alpha": alpha, "value": x})
    source = f"circle-B(alpha={alpha!r}, angles={list(cp.holonomy_angles)!r}, trivial={cp.trivial_rank})"
    return _finish(values, window, source, witnesses)


def link_B_spectrum(lambda_list, h0_dim: int, window: float) -> SpectrumReport:
    """Spectrum of the cross-section operator at a surface link.

    Takes the positive function-Laplacian eigenvalues (value, multiplicity)
    of the link; each contributes the four values +/- 1/2 +/- sqrt(1/4 +
    lambda), and the flat sections contribute +/- 1 with multiplicity h0_dim.
    """
    if h0_dim < 0:
        raise DomainError("h0_dim must be nonnegative")
    if window <= 0.0:
        raise DomainError(f"window must be positive, got {window}")
    values: list[float] = []
    witnesses: list[dict] = []
    pairs = [(lam, 1) if np.isscalar(lam) else tuple(lam) for lam in lambda_list]
    _check_size(2 * h0_dim + 4 * sum(max(int(mult), 0) for _, mult in pairs))
    values.extend([1.0] * h0_dim)
    values.extend([-1.0] * h0_dim)
    for lam, mult in pairs:
        lam = float(lam)
        mult = int(mult)
        if not -MERGE_TOL <= lam < math.inf:  # also refuses NaN
            raise DomainError(f"Laplace eigenvalues must be finite and nonnegative, got {lam}")
        if mult < 1:
            raise DomainError("multiplicity must be positive")
        if lam <= MERGE_TOL:
            # zero modes belong to the flat sections counted by h0_dim
            continue
        s = math.sqrt(0.25 + lam)
        for x in (-0.5 - s, -0.5 + s, 0.5 - s, 0.5 + s):
            values.extend([x] * mult)
            if _in_gap(x):
                witnesses.append({"lambda": lam, "value": x})
    return _finish(values, window, f"link-B(h0_dim={h0_dim})", witnesses)


@dataclass(frozen=True)
class SingularEdge:
    id: int
    angle: float

    def __post_init__(self):
        if not 0.0 < self.angle <= TWO_PI:  # also refuses NaN
            raise DomainError(f"edge angle must lie in (0, 2*pi], got {self.angle}")


@dataclass(frozen=True)
class SingularVertex:
    incident: tuple[int, int, int]

    def __post_init__(self):
        if len(self.incident) != 3:
            raise DomainError("vertices of the singular graph are trivalent")


CONTEXT_OF_CURVATURE = {1: CONTEXT_SPHERICAL, -1: CONTEXT_HYPERBOLIC, 0: CONTEXT_TRANSLATIONAL}


@dataclass(frozen=True)
class PointVerdict:
    kind: str
    label: str
    angles: tuple[float, ...]
    circle_gap_ok: bool
    link_gap_ok: bool
    admissible: bool
    witnesses: tuple[dict, ...]
    min_abs_circle: float | None
    min_abs_link: float | None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    context: str
    points: tuple[PointVerdict, ...]
    notices: tuple[str, ...]


def _check_point(
    kind: str, label: str, angles: tuple[float, ...], spectra, h0: int, window: float
) -> PointVerdict:
    """Verdict at one point from the circle spectra at its cone points and the
    dimension h0 of the flat sections over its link."""
    circle_ok = all(rep.gap_ok for rep in spectra)
    # With every circle check passed the link carries an admissible
    # orthogonally flat bundle, so its first positive Laplace eigenvalue is
    # at least 1 and the surface-link spectrum stays outside the gap.
    link_rep = link_B_spectrum([(LAMBDA1_GUARANTEED, 1)], h0, window)
    return PointVerdict(
        kind=kind,
        label=label,
        angles=angles,
        circle_gap_ok=circle_ok,
        link_gap_ok=link_rep.gap_ok,
        admissible=circle_ok and link_rep.gap_ok,
        witnesses=(*(w for rep in spectra for w in rep.witnesses), *link_rep.witnesses),
        min_abs_circle=min((rep.min_abs for rep in spectra if rep.min_abs is not None), default=None),
        min_abs_link=link_rep.min_abs,
    )


def cone_admissibility_verdict(
    edges,
    vertices,
    kappa: int,
    window: float = 3.0,
) -> AdmissibilityVerdict:
    """Cone-admissibility of the infinitesimal-isometry bundle over a
    singular graph (the translational subbundle in the Euclidean case).

    Every edge has bigon links along its interior, every trivalent vertex a
    triangle link of the three incident edge angles.  Angles in (0, pi] are
    the geometric range for trivalent singular loci; larger angles up to
    2 pi are judged rather than refused, so that an admissibility failure is
    witnessed.  An empty graph is vacuously admissible.  Edge ids must be
    distinct.
    """
    context = CONTEXT_OF_CURVATURE[validate_curvature(kappa)]
    copies = 1 if context == CONTEXT_TRANSLATIONAL else 2
    angle_of: dict[int, float] = {}
    for e in edges:
        if e.id in angle_of:
            raise DomainError(f"duplicate edge id {e.id}")
        angle_of[e.id] = e.angle
    # The bundle restricted to a circle of length alpha splits as C(alpha) + R
    # per copy of the surface isometry bundle: two copies, or one for the
    # translational subbundle in the Euclidean case.
    spectrum = {
        alpha: circle_B_spectrum(ConePoint(alpha, (alpha % TWO_PI,) * copies, copies), window)
        for alpha in dict.fromkeys(angle_of.values())
    }
    points: list[PointVerdict] = []
    for e in edges:
        # A bigon link has a single rotation holonomy whose axis is invariant,
        # and no holonomy at all at angle 0 mod 2 pi.
        h0 = 3 * copies if e.angle % TWO_PI <= MERGE_TOL else copies
        points.append(
            _check_point(BIGON, f"edge {e.id}", (e.angle, e.angle), [spectrum[e.angle]] * 2, h0, window)
        )
    for k, v in enumerate(vertices):
        try:
            angles = tuple(angle_of[i] for i in v.incident)
        except KeyError as exc:
            raise DomainError(f"vertex {k} references unknown edge {exc.args[0]}") from exc
        # A triangle link has rotations about distinct axes and no invariants.
        points.append(
            _check_point(TRIANGLE, f"vertex {k}", angles, [spectrum[a] for a in angles], 0, window)
        )
    return AdmissibilityVerdict(
        admissible=all(p.admissible for p in points),
        context=context,
        points=tuple(points),
        notices=() if points else ("empty singular locus; admissible vacuously",),
    )

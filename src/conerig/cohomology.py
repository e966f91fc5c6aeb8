"""Twisted group cohomology and the meridian trace-rank rigidity test.

Every space is computed over the coefficient field of the group with one SVD
path: over C for SL(2,C), whose algebra sl2(C) is complex, and over R for
SU(2), on each of a representation's `factors` (a pair's two SU(2) views).
Every command starts from one Fox pass per factor (`_fox_passes`) over each
relator, and for `rigidity_test` each meridian, and checks the relators once
on its images, by the hypot of the factors' distances.  The relators' rows
give Z^1, the meridians' the trace rows, whose covectors and +/- identity
test are read off the raw images (`liecore.trace_covectors`,
`identity_distance`).  Every H^1 refuses, in `_z0_b1`, an image whose Ad
or norm overflows.  A boundary component that induces the interior's
images and relators takes the interior's H^1.
Cocycles are field coordinates (`liecore.field_coords`, generator after
generator), and `z0_space`, `cocycle_space`, `coboundary_space` and
`CohomologyReport.basis_H1` are matrices over the field with orthonormal
columns.  Reported dimensions are real, twice the complex ones (the column
counts) for SL(2,C).

H^1 is Z^1 intersected with the orthocomplement of B^1.  With Z and B the
orthonormal bases of Z^1 and B^1 (dim B^1 <= 3), C = Z^H B is small, and one
SVD C = U S V^H both certifies and spans H^1.  In exact arithmetic B^1 lies in
Z^1 and C has orthonormal columns.  The certificate is that of projecting Z
off B: (I - B B^H) Z has singular values 1 (dim H^1 times) and
sqrt(1 - s_i(C)^2), and the cut between them must fall below 0.5, that is
s_min(C) >= sqrt(3)/2; otherwise `IllConditioned`.  Then H^1 = Z U[:, dim B^1:],
the last columns of the complete U spanning the complement of C's columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, IllConditioned
from .liecore import (
    SU2XSU2,
    adjoint_stack,
    coefficient_field,
    field_coords,
    identity_distance,
    matrix_stack,
    sigma_fields,
    trace_covectors,
)
from .words import (
    Presentation,
    Representation,
    Word,
    check_representation,
    fox_derivatives,
    fox_jacobian,
    free_reduce,
    prefix_walk,
)

# Singular values below RANK_REL_TOL * sigma_max count as zero; a spectral
# gap of at least RANK_GAP between the smallest kept and the largest dropped
# value is required to certify the decision.
RANK_REL_TOL = 1e-9
RANK_GAP = 10.0
_ABS_FLOOR = 1e-12

VERDICT_RIGID = "LocallyRigid"
VERDICT_DEFICIENT = "RankDeficient"

FLAG_ABELIAN = "AbelianImage"
FLAG_MERIDIAN_ID = "MeridianIdImage"
FLAG_REDUCIBLE = "ReducibleImage"


def _certified_rank(s: np.ndarray, context: str) -> int:
    """Number of singular values certified nonzero at the shared threshold."""
    if s.size == 0:
        return 0
    smax = float(s[0])
    cut = max(RANK_REL_TOL * smax, _ABS_FLOOR)
    kept = s[s > cut]
    dropped = s[s <= cut]
    if kept.size and dropped.size and float(kept[-1]) < RANK_GAP * float(dropped[0]):
        raise IllConditioned(
            f"{context}: singular values cluster at the rank threshold "
            f"(kept {kept[-1]:.3e}, dropped {dropped[0]:.3e})"
        )
    return int(kept.size)


def nullspace(mat: np.ndarray, context: str = "nullspace") -> np.ndarray:
    """Orthonormal kernel basis of mat, as columns."""
    _, s, vt = np.linalg.svd(mat)
    return vt[_certified_rank(s, context) :].conj().T


def matrix_rank(mat: np.ndarray, context: str = "rank") -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return _certified_rank(s, context)


def _field_degree(group: str) -> int:
    """Real dimension of the coefficient field: 2 for C, 1 for R."""
    return 2 if coefficient_field(group)[0] is complex else 1


# ---------------------------------------------------------------------------
# spaces


def _images_at(pres: Presentation):
    return lambda k: f"/holonomy/{pres.generators[k]}"  # image k's JSON pointer


def _z0_b1(rho: Representation, where) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal field bases of Z^0 and B^1 from one SVD of the stacked
    (I - Ad rho(gen)) blocks: Z^0 is their kernel, B^1 their column space.
    Refused at `where(k)`, image k's pointer: the first image whose Ad or norm
    overflows, then, if the singular values do, the largest block entry's."""
    d = coefficient_field(rho.group)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = (np.eye(d) - adjoint_stack(rho.group, rho.raw)).reshape(-1, d)
        sizes = np.linalg.norm(rho.raw.reshape(len(rho.raw), -1), axis=1)  # Frobenius, or 1 for SU2
    if not (finite := np.isfinite(blocks)).all():
        raise DomainError(f"{where(finite.all(axis=1).argmin() // d)}: adjoint action overflows")
    if not (finite := np.isfinite(sizes)).all():
        raise DomainError(f"{where(finite.argmin())}: image norm overflows")
    # Thin, unless no generator leaves fewer rows than the kernel needs.
    u, s, vt = np.linalg.svd(blocks, full_matrices=len(blocks) < d)
    if not np.isfinite(s).all():  # finite blocks whose norm overflows
        largest = np.abs(blocks.view(float)).max(axis=1).argmax()  # re and im parts: no modulus overflows
        raise DomainError(f"{where(largest // d)}: adjoint action overflows")
    rank = _certified_rank(s, "B1")
    return vt[rank:].conj().T, u[:, :rank]


def z0_space(rho: Representation, pres: Presentation) -> np.ndarray:
    """Orthonormal field basis (columns) of the infinitesimal centralizer
    {v : Ad rho(gamma) v = v}."""
    check_representation(rho, pres)
    return _z0_b1(rho, _images_at(pres))[0]


def cocycle_space(rho: Representation, pres: Presentation) -> np.ndarray:
    """Orthonormal field basis (columns) of the kernel of the linearized relations."""
    return nullspace(fox_jacobian(rho, pres), "Z1")


def coboundary_space(rho: Representation, pres: Presentation) -> np.ndarray:
    """Orthonormal field basis (columns) of the image of v -> (v - Ad rho(gen) v)."""
    check_representation(rho, pres)
    return _z0_b1(rho, _images_at(pres))[1]


@dataclass(frozen=True, eq=False)
class CohomologyReport:
    """Real dimensions of Z^0, Z^1, B^1, H^1 with an orthonormal H^1 basis.

    For SL(2,C) coefficients the complex dimensions are reported as well.
    `basis_H1` is a matrix over the coefficient field (complex for SL(2,C),
    real for SU(2)) with dim_H1 / degree orthonormal columns; each column
    holds the field coordinates of a cocycle, generator after generator.
    """

    group: str
    dim_Z0: int
    dim_Z1: int
    dim_B1: int
    dim_H1: int
    basis_H1: np.ndarray
    dim_Z0_complex: int | None = None
    dim_Z1_complex: int | None = None
    dim_B1_complex: int | None = None
    dim_H1_complex: int | None = None

    def dims_dict(self) -> dict:
        keys = ["dim_Z0", "dim_Z1", "dim_B1", "dim_H1"]
        if self.dim_H1_complex is not None:
            keys += ["dim_Z0_complex", "dim_Z1_complex", "dim_B1_complex", "dim_H1_complex"]
        return {"group": self.group, **{k: getattr(self, k) for k in keys}}


def _fox_passes(rho: Representation, pres: Presentation, meridians=()) -> list[tuple]:
    """Per factor of rho, one Fox pass over the relators and then `meridians`,
    then one relator check on their images, by the hypot rule across factors:
    (factor, relator rows, (meridian rows, images)).
    When a meridian refuses, the relators are walked again alone and the
    meridians' part is None: the caller refuses it after the factor's H^1."""
    n, factors = len(pres.relators), rho.factors
    rows = coefficient_field(factors[0].group)[1] * n
    where = [f"/relators/{k}" for k in range(n)] + [f"/meridians/{k}/word" for k in range(len(meridians))]
    passes = []
    for f in factors:
        try:
            jac, images = fox_derivatives(f, pres.relators + meridians, where.__getitem__)
            passes.append((f, jac, images, (jac[rows:], images[n:])))
        except DomainError:  # a relator's refusal comes again here
            passes.append((f, *fox_derivatives(f, pres.relators, where.__getitem__), None))
    check_representation(rho, pres, [images[:n] for _, _, images, _ in passes])
    return [(f, jac[:rows], mer) for f, jac, _, mer in passes]


def h1_basis(rho: Representation, pres: Presentation) -> CohomologyReport:
    """Cohomology report: H^1 as the orthocomplement of B^1 inside Z^1, from
    one SVD of Z^H B (see the module docstring).

    The Hermitian (Euclidean over R) inner product on stacked coordinates is
    used for orthonormalization (the Killing form is indefinite); only spans
    matter downstream.
    """
    return _h1(rho, fox_jacobian(rho, pres), _images_at(pres))


def h1_reports(rho: Representation, pres: Presentation) -> tuple[CohomologyReport, ...]:
    """`h1_basis` of each of rho's factors, from one Fox pass per factor."""
    return tuple(_h1(f, rows, _images_at(pres)) for f, rows, _ in _fox_passes(rho, pres))


def _h1(rho: Representation, relator_rows: np.ndarray, where) -> CohomologyReport:
    """The report of `h1_basis` from the Fox rows of the checked relators."""
    z1_basis = nullspace(relator_rows, "Z1")
    z0_basis, b1_basis = _z0_b1(rho, where)
    z0_dim, b1_rank = z0_basis.shape[1], b1_basis.shape[1]

    dim_z1 = z1_basis.shape[1]
    dim_h1 = dim_z1 - b1_rank
    if dim_h1 < 0:
        raise IllConditioned(f"dim B1 {b1_rank} exceeds dim Z1 {dim_z1}")

    h_basis = z1_basis[:, :0]
    if dim_h1 > 0:
        u, s, _ = np.linalg.svd(z1_basis.conj().T @ b1_basis)
        if b1_rank and s[-1] < math.sqrt(3.0) / 2.0:
            raise IllConditioned("B1 is not numerically contained in Z1")
        h_basis = z1_basis @ u[:, b1_rank:]

    dims, degree = (z0_dim, dim_z1, b1_rank, dim_h1), _field_degree(rho.group)
    # in CohomologyReport's field order: real dims, basis, complex dims over C
    return CohomologyReport(rho.group, *(degree * v for v in dims), h_basis, *(dims if degree == 2 else ()))


# ---------------------------------------------------------------------------
# trace differentials


def _trace_rows(group: str, fox: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Row w maps a cocycle's field coordinates to tr(z(w) rho(w)): the
    covector v -> tr(v rho(w)) (`trace_covectors`) times the Fox block of w,
    from a Fox pass's rows `fox` and raw images `raw` of the words.  Over C
    for su(2) too: `@` on its strided real rows is numpy's unblocked product,
    whose rounding the recorded trace Jacobians carry, not BLAS's."""
    covectors = trace_covectors(group, raw).astype(complex)
    rows = np.einsum("rk,rkc->rc", covectors, fox.reshape(*covectors.shape, fox.shape[1]))
    return rows if coefficient_field(group)[0] is complex else rows.real


def trace_differential(rho: Representation, z, word):
    """Derivative of the trace along the infinitesimal deformation z.

    z holds a cocycle's field coordinates, generator after generator.
    Returns tr(z(w) rho(w)), the trace row of w applied to z: a complex
    number for SL(2,C), a real number for SU(2).  For SU(2)xSU(2) evaluate
    it on each of its `Representation.factors`.
    """
    if isinstance(word, str):
        raise DomainError("pass a parsed Word, not a string")
    z = field_coords(rho.group, z, len(rho.raw))
    return (_trace_rows(rho.group, *fox_derivatives(rho, [word]))[0] @ z).item()


# ---------------------------------------------------------------------------
# rigidity


@dataclass(frozen=True, eq=False)
class RigidityReport:
    """The meridian trace-rank verdict over SL(2,C) or SU(2)."""

    group: str
    meridian_count: int
    dim_h1: int
    rank: int
    verdict: str
    degenerate_flags: tuple[str, ...]
    notes: tuple[str, ...]
    trace_jacobian: np.ndarray


@dataclass(frozen=True, eq=False)
class PairRigidityReport:
    """The SU(2)xSU(2) verdict: its two factors' verdicts and their sums."""

    group: str
    meridian_count: int
    dim_h1: int
    rank: int
    verdict: str
    degenerate_flags: tuple[str, ...]
    notes: tuple[str, ...]
    factors: tuple[RigidityReport, RigidityReport]


# A product gh of images rounds in proportion to |g| |h| (Frobenius norms,
# sqrt(2) on unitary images), so gh = hg is tested to TOL_CENTRAL |g| |h| / 2,
# and a meridian is +/- identity to TOL_CENTRAL / 2 times the product of the
# norms of its free-reduced word's letters' images, which bounds its own
# rounding; if that product overflows, the test is undecided and flagged.
TOL_CENTRAL = 1e-10


def _image_is_abelian(mats: np.ndarray, sizes: np.ndarray) -> bool:
    """Whether the (n, 2, 2) images, of finite norms `sizes`, commute; scaled to norm 1 first."""
    unit = mats / sizes[:, None, None]
    gh = unit[:, None] @ unit[None, :]
    defect = np.linalg.norm(gh - gh.transpose(1, 0, 2, 3), axis=(2, 3))
    return bool((defect <= TOL_CENTRAL / 2.0).all())


def _single_group_rigidity(
    rho: Representation, pres: Presentation, relator_rows: np.ndarray, meridian_pass
) -> RigidityReport:
    report = _h1(rho, relator_rows, _images_at(pres))
    meridians = pres.meridians
    n_mer = len(meridians)
    flags: list[str] = []
    notes: list[str] = []

    mats = matrix_stack(rho.group, rho.raw)
    sizes = np.linalg.norm(mats, axis=(1, 2))  # finite: `_h1` refuses an overflow
    if _image_is_abelian(mats, sizes):
        flags.append(FLAG_ABELIAN)
        notes.append("image group is abelian; the trace-rank criterion does not certify rigidity")
    if report.dim_Z0 > 0:
        flags.append(FLAG_REDUCIBLE)
        notes.append("nontrivial infinitesimal centralizer; smooth-point hypothesis unverified")
    if meridian_pass is None:  # a meridian refused the shared pass: refuse it here
        meridian_pass = fox_derivatives(rho, [m.word for m in meridians], "/meridians/{}/word".format)
    rows = _trace_rows(rho.group, *meridian_pass)
    norms = sizes.tolist()  # Python floats: a product that overflows is inf, without a warning
    for m, image in zip(meridians, meridian_pass[1]):
        tol = TOL_CENTRAL * math.prod(norms[g] for g, _ in free_reduce(m.word)) / 2.0
        if min(identity_distance(rho.group, image), identity_distance(rho.group, -image)) <= tol:
            flags.append(FLAG_MERIDIAN_ID)
            notes.append(f"meridian {m.text!r} maps to +/- identity; complex length undefined")
            break

    dim_h1 = report.basis_H1.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        jac = rows @ report.basis_H1
    if not (finite := np.isfinite(jac)).all():
        raise DomainError(f"/meridians/{finite.all(axis=1).argmin()}/word: trace differential overflows")

    rank = matrix_rank(jac, "trace jacobian")
    if n_mer != dim_h1:
        notes.append(f"MeridianCountMismatch: {n_mer} meridian(s) vs dim H1 = {dim_h1}")
    rigid = rank == dim_h1 == n_mer and FLAG_ABELIAN not in flags and FLAG_MERIDIAN_ID not in flags
    return RigidityReport(
        group=rho.group,
        meridian_count=n_mer,
        dim_h1=dim_h1,
        rank=rank,
        verdict=VERDICT_RIGID if rigid else VERDICT_DEFICIENT,
        degenerate_flags=tuple(flags),
        notes=tuple(notes),
        trace_jacobian=jac,
    )


def rigidity_test(rho: Representation, pres: Presentation) -> RigidityReport | PairRigidityReport:
    """Meridian trace-rank test; per factor for SU(2)xSU(2)."""
    passes = _fox_passes(rho, pres, tuple(m.word for m in pres.meridians))
    reports = tuple(_single_group_rigidity(f, pres, *rest) for f, *rest in passes)
    if rho.group != SU2XSU2:
        return reports[0]
    rigid = all(r.verdict == VERDICT_RIGID for r in reports)
    return PairRigidityReport(
        group=SU2XSU2,
        meridian_count=len(pres.meridians),
        dim_h1=sum(r.dim_h1 for r in reports),
        rank=sum(r.rank for r in reports),
        verdict=VERDICT_RIGID if rigid else VERDICT_DEFICIENT,
        degenerate_flags=tuple(dict.fromkeys(f for r in reports for f in r.degenerate_flags)),
        notes=tuple(dict.fromkeys(n for r in reports for n in r.notes)),
        factors=reports,
    )


# ---------------------------------------------------------------------------
# dimension audit


def check_boundary(genus: int, word_count: int) -> None:
    """Refuse a boundary genus below 1, or other than 2 * genus generator words."""
    if genus < 1:
        raise DomainError(f"boundary genus must be >= 1, got {genus}")
    if word_count != 2 * genus:
        raise DomainError(f"genus {genus} boundary needs {2 * genus} generator words")


@dataclass(frozen=True)
class BoundaryComponent:
    """A boundary surface, its generator words parsed next to their texts."""

    genus: int
    words: tuple[Word, ...]
    generator_words: tuple[str, ...]

    def __post_init__(self):
        check_boundary(self.genus, len(self.generator_words))


MAX_SURFACE_GENUS = 13
GENUS_CAP = (
    f"genus must be at most {MAX_SURFACE_GENUS}: generators are single letters, "
    "so at most 26 of them, and each handle takes 2"
)


@lru_cache(maxsize=None)
def surface_presentation(genus: int) -> Presentation:
    """Standard presentation of a closed orientable surface group, parsed once per genus."""
    if genus > MAX_SURFACE_GENUS:
        raise DomainError(f"{GENUS_CAP}, got {genus}")
    letters = [chr(ord("a") + k) for k in range(2 * genus)]
    relator = "".join(
        letters[2 * i] + letters[2 * i + 1] + letters[2 * i].upper() + letters[2 * i + 1].upper()
        for i in range(genus)
    )
    return Presentation.from_strings(letters, [relator])


def induced_boundary_representation(
    rho: Representation, comp: BoundaryComponent, where: str = "boundary"
) -> tuple[Representation, Presentation]:
    """The stacked images of a boundary component's parsed words under an SL2C
    or SU2 rho; an overflowing word is refused at `where`/generator_words/<k>,
    `where` the component's pointer."""
    where += "/generator_words/{}"
    raw = [prefix_walk(rho, w, where.format(k))[-1] for k, w in enumerate(comp.words)]
    return Representation(rho.group, np.array(raw)), surface_presentation(comp.genus)


@dataclass(frozen=True)
class AuditIdentity:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class DimensionAudit:
    skipped: bool
    identities: tuple[AuditIdentity, ...]
    boundary: tuple[dict, ...]
    notices: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return not self.skipped and all(i.holds for i in self.identities)


def _audit_one_group(
    rho, pres, boundary, interior: CohomologyReport
) -> tuple[list[AuditIdentity], list[dict]]:
    degree = _field_degree(rho.group)
    tau = sum(1 for c in boundary if c.genus == 1)
    chi = sum(2 - 2 * c.genus for c in boundary)

    boundary_dims = []
    boundary_h1 = 0
    for c, comp in enumerate(boundary):
        sub_rho, sub_pres = induced_boundary_representation(rho, comp, at := f"/boundary/{c}")
        # The interior's images and relators have the interior's H^1.
        same = np.array_equal(sub_rho.raw, rho.raw) and sub_pres.relators == pres.relators
        where = f"{at}/generator_words/{{}}".format
        rep = interior if same else _h1(sub_rho, fox_jacobian(sub_rho, sub_pres, lambda k: at), where)
        dim = rep.dim_H1 // degree
        boundary_h1 += dim
        boundary_dims.append({"genus": comp.genus, "dim_H1": dim})

    h1_m = interior.dim_H1 // degree
    z1_m = interior.dim_Z1 // degree
    identities = [
        AuditIdentity(
            "half_dimension: dim H1(M) = 1/2 sum dim H1(boundary)",
            float(h1_m),
            0.5 * boundary_h1,
            math.isclose(h1_m, 0.5 * boundary_h1),
        ),
        AuditIdentity(
            "cocycle_count: dim Z1(M) = tau + 3 - (3/2) chi(boundary)",
            float(z1_m),
            tau + 3.0 - 1.5 * chi,
            math.isclose(z1_m, tau + 3.0 - 1.5 * chi),
        ),
    ]
    return identities, boundary_dims


def dimension_audit(
    rho: Representation,
    pres: Presentation,
    boundary: tuple[BoundaryComponent, ...],
    interior: tuple[CohomologyReport, ...] | None = None,
) -> DimensionAudit:
    """Check the half-dimension identity and the cocycle dimension count.

    Dimensions are complex for SL(2,C) and real per factor for SU(2); for
    SU(2)xSU(2) both factors are audited.  `interior` holds `h1_reports` of
    rho, whose relators it checked, when the caller has computed it already;
    otherwise it is computed here.  It also serves an interior-equal boundary.
    """
    if not boundary:
        return DimensionAudit(
            skipped=True,
            identities=(),
            boundary=(),
            notices=("no boundary components declared; audit skipped",),
        )
    identities: list[AuditIdentity] = []
    boundary_dims: list[dict] = []
    if interior is None:
        interior = h1_reports(rho, pres)
    tags = ("left", "right") if rho.group == SU2XSU2 else (None,)
    for tag, factor, report in zip(tags, rho.factors, interior):
        ids, dims = _audit_one_group(factor, pres, boundary, report)
        if tag:
            ids = [AuditIdentity(f"{tag}.{i.name}", i.lhs, i.rhs, i.holds) for i in ids]
            dims = [{"factor": tag, **d} for d in dims]
        identities.extend(ids)
        boundary_dims.extend(dims)
    return DimensionAudit(
        skipped=False,
        identities=tuple(identities),
        boundary=tuple(boundary_dims),
        notices=(),
    )


# ---------------------------------------------------------------------------
# standard torus deformation cocycles


def standard_torus_cocycles(
    group: str,
    alpha: float,
    twist: float,
    length: float,
) -> dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """The four deformation cocycles of a standard singular tube, as field
    coordinates on its two generators: the longitude, then the meridian.

    Values on the meridian are alpha * sigma for the angle and shear
    directions and zero for twist and length; values on the longitude carry
    the twist/length periods.  Assumes the holonomy is in standard position
    (diagonal), where every diagonal-valued assignment is a cocycle.  For
    SU2xSU2 each name maps to the (left, right) pair of SU(2) cocycles, one
    for each of the pair's `Representation.factors`.
    """
    if not all(map(math.isfinite, (alpha, twist, length))):
        raise DomainError("alpha, twist and length must be finite numbers")

    def cocycles(theta: np.ndarray, z: np.ndarray) -> dict[str, np.ndarray]:
        def build(long_val: np.ndarray, mer_val: np.ndarray | float) -> np.ndarray:
            values = np.zeros((2, 3), dtype=theta.dtype)
            values[0], values[1] = long_val, mer_val
            return values.ravel()

        return {
            "ang": build(-twist * theta, alpha * theta),
            "shr": build(-twist * z, alpha * z),
            "tws": build(length * theta, 0.0),
            "len": build(length * z, 0.0),
        }

    sigma_theta, sigma_z = sigma_fields(group)
    if group != SU2XSU2:
        return cocycles(sigma_theta, sigma_z)
    left, right = (cocycles(t, z) for t, z in zip(sigma_theta, sigma_z))
    return {name: (left[name], right[name]) for name in left}

"""The cohomology flow that one Fox pass per factor replaced: the reference
that `tests/test_fox_pass_reference.py` holds the library against.

Here every word has its own `adjoint_stack` call and `np.add.at` in the Fox
pass (`fox_derivatives`); a pair's relators are checked by the hypot rule
before it is split (`checked_factors`); each factor's H^1 comes from a Fox
pass of its own that checks the relators again (`h1_basis`); the meridians
go through a second Fox pass (`rigidity`); and the audit computes H^1 of
every boundary component afresh (`audit`).  The leaves it shares with the
library (the walk, the relator rule, the rank rule, Z^0 and B^1, the
abelian test) are not what changed.  The trace rows contract each meridian
image's matrix with the field basis matrices (`_FIELD_BASIS`), and the
+/- identity test takes the hypot of the entries
(`_meridian_image_central`), where the library reads both off the raw
image."""
import math

import numpy as np

from conerig.cohomology import (
    FLAG_ABELIAN,
    FLAG_MERIDIAN_ID,
    FLAG_REDUCIBLE,
    TOL_CENTRAL,
    _image_is_abelian,
    _images_at,
    _z0_b1,
    induced_boundary_representation,
    matrix_rank,
    nullspace,
)
from conerig.errors import DomainError, IllConditioned
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    adjoint_stack,
    algebra_matrix,
    coefficient_field,
    matrix_stack,
)
from conerig.words import check_representation, free_reduce, prefix_walk


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


# The matrices of the field basis, whose coordinates are the unit vectors.
_FIELD_BASIS = {
    group: _frozen([algebra_matrix(group, e) for e in np.eye(3, dtype=field)])
    for group, field in ((SL2C, complex), (SU2, float))
}


def _meridian_image_central(mat: np.ndarray, tol: float) -> bool:
    """Whether mat is +/- identity within tol; hypot takes the norms without overflow."""
    return any(np.hypot.reduce(np.abs(mat - s * np.eye(2)).ravel()) <= tol for s in (1.0, -1.0))


def checked_factors(rho, pres):
    """rho, which `h1_basis` checks, or a pair's factors after its check."""
    if rho.group != SU2XSU2:
        return (rho,)
    check_representation(rho, pres)
    return rho.factors


def fox_derivatives(rho, words, where="word {}"):
    """Fox derivatives and images of the words, word after word."""
    field, d = coefficient_field(rho.group)
    blocks = np.zeros((len(words), len(rho.raw), d, d), dtype=field)
    finals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r, word in enumerate(words):
            word = free_reduce(word)
            prefixes = prefix_walk(rho, word, where.format(r))
            finals.append(prefixes[-1])
            if word:
                gens, exps = np.array(word).T
                ads = adjoint_stack(rho.group, np.array(prefixes)[np.arange(len(word)) + (exps < 0)])
                np.add.at(blocks[r], gens, exps[:, None, None] * ads)
                if not np.isfinite(blocks[r]).all():
                    raise DomainError(f"{where.format(r)}: Fox derivatives overflow")
    jac = blocks.transpose(0, 2, 1, 3).reshape(d * len(words), d * len(rho.raw))
    return jac, np.array(finals).reshape(-1, *rho.raw.shape[1:])


def h1_basis(rho, pres):
    """(dim Z^0, dim Z^1, dim B^1, dim H^1) over the field and the H^1 basis."""
    jac, finals = fox_derivatives(rho, pres.relators, "/relators/{}")
    check_representation(rho, pres, [finals])
    z1_basis = nullspace(jac, "Z1")
    z0_basis, b1_basis = _z0_b1(rho, _images_at(pres))
    b1_rank, dim_z1 = b1_basis.shape[1], z1_basis.shape[1]
    dim_h1 = dim_z1 - b1_rank
    if dim_h1 < 0:
        raise IllConditioned(f"dim B1 {b1_rank} exceeds dim Z1 {dim_z1}")
    h_basis = z1_basis[:, :0]
    if dim_h1 > 0:
        u, s, _ = np.linalg.svd(z1_basis.conj().T @ b1_basis)
        if b1_rank and s[-1] < math.sqrt(3.0) / 2.0:
            raise IllConditioned("B1 is not numerically contained in Z1")
        h_basis = z1_basis @ u[:, b1_rank:]
    return (z0_basis.shape[1], dim_z1, b1_rank, dim_h1), h_basis


def rigidity(rho, pres):
    """Per factor: (dim H^1, rank, rigid, flags, notes, trace Jacobian)."""
    out = []
    for f in checked_factors(rho, pres):
        (dim_z0, _, _, dim_h1), basis = h1_basis(f, pres)
        flags, notes = [], []
        mats = matrix_stack(f.group, f.raw)
        sizes = np.linalg.norm(mats, axis=(1, 2))
        if _image_is_abelian(mats, sizes):
            flags.append(FLAG_ABELIAN)
            notes.append("image group is abelian; the trace-rank criterion does not certify rigidity")
        if dim_z0 > 0:
            flags.append(FLAG_REDUCIBLE)
            notes.append("nontrivial infinitesimal centralizer; smooth-point hypothesis unverified")
        field, d = coefficient_field(f.group)
        words = [m.word for m in pres.meridians]
        fox, raw = fox_derivatives(f, words, "/meridians/{}/word")
        images = matrix_stack(f.group, raw)
        covectors = np.einsum("kij,rji->rk", _FIELD_BASIS[f.group], images)
        rows = np.einsum("rk,rkc->rc", covectors, fox.reshape(len(words), d, d * len(f.raw)))
        rows = rows if field is complex else rows.real
        norms = sizes.tolist()
        for m, image in zip(pres.meridians, images):
            central_tol = TOL_CENTRAL * math.prod(norms[g] for g, _ in free_reduce(m.word)) / 2.0
            if _meridian_image_central(image, central_tol):
                flags.append(FLAG_MERIDIAN_ID)
                notes.append(f"meridian {m.text!r} maps to +/- identity; complex length undefined")
                break
        jac = rows @ basis
        rank = matrix_rank(jac, "trace jacobian")
        if len(words) != basis.shape[1]:
            notes.append(f"MeridianCountMismatch: {len(words)} meridian(s) vs dim H1 = {basis.shape[1]}")
        rigid = rank == basis.shape[1] == len(words) and FLAG_ABELIAN not in flags
        rigid = rigid and FLAG_MERIDIAN_ID not in flags
        out.append((basis.shape[1], rank, rigid, tuple(flags), tuple(notes), jac))
    return out


def audit(rho, pres, boundary):
    """Per factor: the interior's dims and each boundary component's dim
    H^1, over the field."""
    out = []
    for f in checked_factors(rho, pres):
        dims, _ = h1_basis(f, pres)
        comps = []
        for c, comp in enumerate(boundary):
            sub_rho, sub_pres = induced_boundary_representation(f, comp, f"/boundary/{c}")
            comps.append(h1_basis(sub_rho, sub_pres)[0][3])
        out.append((dims, comps))
    return out

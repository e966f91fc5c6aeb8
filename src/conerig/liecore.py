"""Isometry groups of the three constant-curvature model spaces.

A group element has one form, its raw array: a (2, 2) complex128 matrix in
SL(2,C), a (4,) unit quaternion in SU(2), a (2, 4) left and right pair of
them in SU(2)xSU(2).  Cocycle coefficients live in the matrix Lie algebras
sl2(C) (over C) and su(2) (over R), and a vector of either has one form too:
its 3 coordinates over the field (`field_coords`), written out as a 2x2
matrix only where a formula demands it (`algebra_matrix`).  SU(2)xSU(2) has
no coefficient algebra of its own: its so(4) = su(2) + su(2) cohomology is
the sum of two SU(2) ones, solved on the two SU(2) representations of
`words.Representation.factors`.
Each group has one product, inverse and exponential on raw arrays, and
group membership is checked where an array enters (`_det_rule`, `_norm_rule`,
`su2_quaternion`).  Ad is in closed form; g v g^-1 letter by letter is the
reference in tests/cocycle_reference.py.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    DegenerateElement,
    DomainError,
    NotSemisimple,
)

VALID_CURVATURES = (-1, 0, 1)

SL2C = "SL2C"
SU2 = "SU2"
SU2XSU2 = "SU2xSU2"
GROUPS = (SL2C, SU2, SU2XSU2)

# Membership tolerance for det = 1 / unitarity; inputs within it are
# re-projected, inputs beyond it are rejected.
TOL_GROUP = 1e-10

_ID2 = np.eye(2, dtype=complex)


def validate_curvature(kappa: int) -> int:
    if kappa not in VALID_CURVATURES:
        raise DomainError(f"curvature must be one of {VALID_CURVATURES}, got {kappa!r}")
    return int(kappa)


def sn_cs_ct(kappa: int, r):
    """Generalized sine, cosine and cotangent for curvature kappa.

    sn solves f'' + kappa f = 0 with sn(0)=0, sn'(0)=1; cs likewise with
    cs(0)=1, cs'(0)=0.  Returns (sn(r), cs(r), cs(r)/sn(r)): three floats for
    a float r, three arrays of r's shape for an array of radii.
    """
    validate_curvature(kappa)
    rs = np.asarray(r, dtype=float)
    if not np.all(rs > 0.0):
        raise DomainError(f"radius must be positive, got {rs[~(rs > 0.0)].flat[0]}")
    if kappa == 1 and not np.all(rs < math.pi):
        raise DomainError(f"radius must be < pi at curvature +1, got {rs[~(rs < math.pi)].flat[0]}")
    if kappa == -1:
        sn, cs = np.sinh(rs), np.cosh(rs)
    elif kappa == 0:
        sn, cs = rs, np.ones_like(rs)
    else:
        sn, cs = np.sin(rs), np.cos(rs)
    if rs.ndim == 0:
        return float(sn), float(cs), float(cs / sn)
    return sn, cs, cs / sn


def _require_finite(a: np.ndarray, message: str | None = None) -> None:
    # NaN fails every tolerance comparison, so it must be refused explicitly.
    if not np.isfinite(a).all():
        raise DomainError(message or "entries must be finite numbers")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# group elements


# A product or an inverse of group elements, "derived" from them, can miss
# the group only through rounding.  The rules below refuse such an array only
# when it is not finite (an overflow), re-project it as they re-project an
# input within TOL_GROUP, and keep it as computed beyond that.


def _det_rule(mat: np.ndarray, derived: bool = False) -> np.ndarray:
    """A finite 2x2 complex matrix with det 1 up to TOL_GROUP, re-projected
    onto det = 1; anything else is refused, unless it is `derived`."""
    (a, b), (c, d) = mat.tolist()
    ad, bc = a * d, b * c
    # The rounding of det itself grows with |ad| + |bc|: a large product
    # of SL(2,C) elements is off by that much, and dividing by a det that
    # is off by rounding alone would inject it into every entry.
    try:
        rounding = 1e-14 * (abs(ad) + abs(bc))
    except OverflowError:  # abs of a finite complex number beyond the float range
        rounding = math.inf
    if not math.isfinite(rounding):  # ad or bc overflows, or an entry is not finite
        _require_finite(mat, "product is not finite (overflow)" if derived else None)
        if not derived:
            raise DomainError("determinant overflows: the entries are too large")
        return mat
    det = ad - bc
    defect = abs(det - 1.0)
    if defect > TOL_GROUP + rounding:
        if derived:
            return mat
        raise DomainError(f"determinant {det} is not 1 within {TOL_GROUP}")
    if defect > rounding:  # re-project, but stay idempotent at rounding level
        mat = mat / cmath.sqrt(det)
    return mat


def _norm_rule(q: np.ndarray, derived: bool = False) -> np.ndarray:
    """A finite quaternion of norm 1 up to TOL_GROUP, re-projected onto the
    unit sphere; anything else is refused, unless it is `derived`.  Run it
    under `np.errstate(over="ignore", invalid="ignore")`, as `raw_product`."""
    n2 = float(q @ q)
    if not math.isfinite(n2):  # |q|^2 overflows, or an entry is not finite
        _require_finite(q, "product is not finite (overflow)" if derived else None)
        if not derived:
            raise DomainError("|q|^2 overflows: the entries are too large")
    if abs(n2 - 1.0) > TOL_GROUP:
        if derived:
            return q
        raise DomainError(f"|q|^2 = {n2} is not 1 within {TOL_GROUP}")
    if abs(n2 - 1.0) > 1e-14:  # re-project, but stay idempotent at rounding level
        q = q / math.sqrt(n2)
    return q


def raw_product(group: str, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The product of raw arrays p and g of an SL2C or SU2 group, under the
    rule for a derived array.  Run it under
    `np.errstate(over="ignore", invalid="ignore")`, as `words.prefix_walk`
    does: an overflow is refused here, not warned about."""
    if group == SL2C:
        return _det_rule(p @ g, derived=True)
    # Python floats round exactly as numpy float64 scalars, in a fraction of the time.
    p0, p1, p2, p3 = p.tolist()
    q0, q1, q2, q3 = g.tolist()
    q = [
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ]
    return _norm_rule(np.array(q), derived=True)


def raw_inverse(group: str, raw: np.ndarray) -> np.ndarray:
    """The inverse of a raw SL2C or SU2 element, or of a stack of them, in
    closed form: the adjugate [[d, -b], [-c, a]] or the conjugate quaternion.
    An inverse has its element's determinant (squared norm), so the rules
    above keep it as computed."""
    a, b, c, d = raw.reshape(-1, 4).T
    return np.stack([d, -b, -c, a] if group == SL2C else [a, -b, -c, -d], -1).reshape(raw.shape)


def exp_raw(group: str, coords) -> np.ndarray:
    """The exponential of the algebra vector with field coordinates `coords`
    as a raw SL2C matrix or SU2 quaternion, under the rule for an input."""
    m = _exp_traceless(algebra_matrix(group, coords))
    return _det_rule(m) if group == SL2C else _norm_rule(su2_quaternion(m))


def identity_distance(group: str, raw: np.ndarray) -> float:
    """Frobenius distance of the SL2C matrix or SU2 quaternion `raw` from
    the identity, as 2x2 matrices; inf, with no numpy warning, when its
    square overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm((raw if group == SL2C else _su2_matrix(raw)) - _ID2))


def su2_quaternion(mat) -> np.ndarray:
    """The quaternion a + bj of [[a, b], [-conj(b), conj(a)]], unless the matrix
    is not in SU(2) within TOL_GROUP; its norm is left to `_norm_rule`."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise DomainError(f"expected 2x2 matrix, got shape {mat.shape}")
    _require_finite(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        a = 0.5 * (mat[0, 0] + np.conj(mat[1, 1]))
        b = 0.5 * (mat[0, 1] - np.conj(mat[1, 0]))
        q = np.array([a.real, a.imag, b.real, b.imag])
        norm = float(np.linalg.norm(q))
        defect = float(np.linalg.norm(mat - _su2_matrix(q / norm)))
    if not math.isfinite(norm):  # the entries of the finite mat overflow
        raise DomainError("|q|^2 overflows: the entries are too large")
    if defect > TOL_GROUP:
        raise DomainError(f"matrix is not in SU(2) within {TOL_GROUP} (defect {defect:.3e})")
    return q


def _su2_matrix(q: np.ndarray) -> np.ndarray:
    a = q[0] + 1j * q[1]
    b = q[2] + 1j * q[3]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


# ---------------------------------------------------------------------------
# matrix Lie algebra vectors (cocycle coefficients)


# Field and dimension over it of each coefficient Lie algebra: sl2(C) is a
# complex Lie algebra, su(2) a real one.  An algebra vector is held only as
# its coordinates over this field (see `algebra_matrix`), and so are
# cocycles, which list their generators' coordinates one after another, and
# subspace bases.
_COEFFICIENT_FIELD = {SL2C: (complex, 3), SU2: (float, 3)}


def coefficient_field(group: str) -> tuple[type, int]:
    """(field, dimension over it) of the coefficient algebra of a group."""
    if group not in _COEFFICIENT_FIELD:
        raise DomainError(f"no coefficient algebra for {group!r}: split it into Representation.factors")
    return _COEFFICIENT_FIELD[group]


def field_coords(group: str, vec, count: int = 1) -> np.ndarray:
    """Checked field coordinates of `count` algebra vectors, one after another.
    Any finite coordinates are a vector: the matrix they stand for is
    traceless, and anti-Hermitian for su(2), by construction."""
    field, dim = coefficient_field(group)
    vec = np.asarray(vec)
    if vec.shape != (dim * count,) or (field is float and np.iscomplexobj(vec)):
        raise DomainError(f"expected {dim * count} {field.__name__} coordinates for {group}")
    vec = vec.astype(field)
    _require_finite(vec)
    return vec


def algebra_matrix(group: str, coords) -> np.ndarray:
    """The traceless 2x2 matrix of the 3 coordinates over
    `coefficient_field(group)`: complex x, y, w of [[x, y], [w, -x]] for
    sl2(C), real x, y, z of [[ix, y + iz], [-y + iz, -ix]] for su(2)."""
    x, y, t = field_coords(group, coords)
    if group == SL2C:
        return np.array([[x, y], [t, -x]])
    return np.array([[1j * x, y + 1j * t], [-y + 1j * t, -1j * x]])


def adjoint_stack(group: str, raw: np.ndarray) -> np.ndarray:
    """Ad of a stack of raw elements in closed form, (L, 3, 3), acting on
    field coordinates.

    SL(2,C): (L, 2, 2) matrices in, complex 3x3 on the coordinates (x, y, w)
    of [[x, y], [w, -x]] out.  SU(2): (L, 4) unit quaternions in, the real
    3x3 rotations out.
    """
    if group == SU2:
        # q = (w, v) rotates u to (w^2 - |v|^2) u + 2 <v, u> v + 2 w v x u.
        w, v = raw[:, 0], raw[:, 1:]
        out = 2.0 * v[:, :, None] * v[:, None, :]
        out += (w * w - (v * v).sum(axis=1))[:, None, None] * np.eye(3)
        wv = 2.0 * w[:, None] * v  # 2 w (v x .): +wv at (2,1), (0,2), (1,0), -wv at the transposes
        out[:, [2, 0, 1], [1, 2, 0]] += wv
        out[:, [1, 2, 0], [2, 0, 1]] -= wv
        return out
    if group != SL2C:
        raise DomainError(f"Ad matrices exist for SL2C and SU2 elements, not {group}")
    a, b, c, d = raw[:, 0, 0], raw[:, 0, 1], raw[:, 1, 0], raw[:, 1, 1]
    rows = (
        (a * d + b * c, -a * c, b * d),
        (-2.0 * a * b, a * a, -b * b),
        (2.0 * c * d, -c * c, d * d),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def matrix_stack(group: str, raw: np.ndarray) -> np.ndarray:
    """The (L, 2, 2) matrices of a stack of raw SL2C or SU2 elements: the
    matrices themselves, or a + bj -> [[a, b], [-conj(b), conj(a)]] of each
    quaternion."""
    return raw if group == SL2C else np.ascontiguousarray(_su2_matrix(raw.T).transpose(2, 0, 1))


# A diagonal entry of exp(m) formed next to one of modulus X loses about
# X^2 eps of det exp(m) = 1; from X = 8 on, that is beyond the 1e-14 rounding
# that `_det_rule` allows, and the entry is taken from the determinant.
_EXP_DET_SWITCH = 8.0


def _exp_traceless(m: np.ndarray) -> np.ndarray:
    """exp(m) of a traceless 2x2 matrix [[a, b], [c, d]], or a DomainError
    when it leaves the float range.

    m^2 = -det(m) I, so the series sums to cosh(mu) I + sinh(mu)/mu m with
    mu^2 = -det(m) (branch-independent).  Of the diagonal entries
    cosh(mu) + a sinh(mu)/mu and cosh(mu) + d sinh(mu)/mu, the larger in
    modulus sums without cancellation.  From _EXP_DET_SWITCH on, the other is
    taken from det exp(m) = 1 instead, so that it keeps its digits down to
    e^-|mu|.
    """
    (a, b), (c, d) = m.tolist()  # Python numbers overflow without a numpy warning
    mu = cmath.sqrt(-(a * d - b * c))
    try:
        if abs(mu) < 1e-8:
            ch = 1.0 + mu**2 / 2.0 + mu**4 / 24.0
            sh = 1.0 + mu**2 / 6.0 + mu**4 / 120.0
        else:
            ch = cmath.cosh(mu)
            sh = cmath.sinh(mu) / mu
    except (OverflowError, ValueError):  # |mu| beyond the float range
        raise DomainError("the exponential leaves the float range") from None
    with np.errstate(over="ignore", invalid="ignore"):
        out = ch * _ID2 + sh * m
    _require_finite(out, "the exponential leaves the float range")
    (x, p), (q, y) = out.tolist()
    if abs(x) >= max(abs(y), _EXP_DET_SWITCH):
        out[1, 1] = (1.0 + p * q) / x
    elif abs(y) >= max(abs(x), _EXP_DET_SWITCH):
        out[0, 0] = (1.0 + p * q) / y
    return out


# ---------------------------------------------------------------------------
# complex length and standard deformation directions


def complex_length_sl2c(raw: np.ndarray) -> complex:
    """Complex length L with tr g = +/- 2 cosh(L/2) of the raw SL2C matrix g.

    Branch: Im L in [0, pi]; ties at Im in {0, pi} resolved by Re L >= 0.
    """
    _require_finite(raw)
    t = complex(raw[0, 0] + raw[1, 1])
    if abs(t - 2.0) <= TOL_GROUP or abs(t + 2.0) <= TOL_GROUP:
        if min(identity_distance(SL2C, raw), identity_distance(SL2C, -raw)) <= TOL_GROUP:
            raise DegenerateElement("complex length undefined at +/- identity")
        raise NotSemisimple(f"parabolic element (trace {t})")
    lam = (t + cmath.sqrt(t * t - 4.0)) / 2.0
    ell = 2.0 * cmath.log(lam)
    return _normalize_complex_length(ell)


def _normalize_complex_length(ell: complex) -> complex:
    # Rotation angles within snap_tol of 0 or pi are ties between the two
    # sign branches; snapping keeps the choice stable under rounding noise.
    two_pi = 2.0 * math.pi
    snap_tol = 1e-9
    candidates = []
    for cand in (ell, -ell):
        im = cand.imag % two_pi
        if im < snap_tol or two_pi - im < snap_tol:
            im = 0.0
        elif abs(im - math.pi) < snap_tol:
            im = math.pi
        candidates.append(complex(cand.real, im))
    inside = [c for c in candidates if c.imag <= math.pi]
    if len(inside) == 1:
        return inside[0]
    inside.sort(key=lambda c: (-c.real, c.imag))
    return inside[0]


def _axis_angle(q: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit axis and angle in [0, pi] of the quaternion, q = cos + sin*axis."""
    v = q[1:]
    s = float(np.linalg.norm(v))
    if s < TOL_GROUP:
        raise DegenerateElement("no axis at +/- identity")
    return v / s, math.atan2(s, float(q[0]))


def complex_length_su2pair(raw_pair: np.ndarray) -> tuple[float, float]:
    """Translation lengths (L1, L2) along the invariant pair of axes of the
    raw SU2xSU2 pair, a (2, 4) stack of the left and right quaternions.

    tr left = +/- 2 cos((L1+L2)/2) and tr right = +/- 2 cos((-L1+L2)/2) with
    a common sign (the windowed representative may differ from the raw angle
    sum by 2 pi, which flips both cosines together).  Signed angles are read
    off when the two factors share an axis; otherwise both angles are taken
    in [0, pi] from the traces.  Normalization: L2 in [0, 2pi), L1 in
    (-pi, pi], and L1 >= 0 when L2 = 0.
    """
    _require_finite(raw_pair)
    axis_l, x = _axis_angle(raw_pair[0])
    axis_r, y = _axis_angle(raw_pair[1])
    dot = float(axis_l @ axis_r)
    if dot < -(1.0 - 1e-9):
        y = -y
    ell1 = x - y
    ell2 = x + y
    two_pi = 2.0 * math.pi
    ell2 %= two_pi
    if ell2 >= two_pi:  # a tiny negative sum rounds up to 2 pi under %
        ell2 = 0.0
    ell1 = _wrap_half_open(ell1)
    if abs(ell2) < 1e-12 and ell1 < 0.0:
        ell1 = -ell1
    return ell1, ell2


def _wrap_half_open(t: float) -> float:
    """Wrap to (-pi, pi]."""
    two_pi = 2.0 * math.pi
    t = t % two_pi
    if t > math.pi:
        t -= two_pi
    return t


def sigma_fields(group: str) -> tuple:
    """Standard-position rotational and translational Killing sections.

    Returns (sigma_theta, sigma_z) for the axis in standard position, as
    field coordinates; these are the values of the parallel sections
    generating rotation around and translation along the axis:
    diag(i, -i) / 2 and diag(1, -1) / 2 in sl2(C).  For SU2xSU2 each section
    is a (left, right) pair of su(2) vectors, sigma_theta = (h, h) and
    sigma_z = (h, -h) with h = diag(i, -i) / 2, one for each of the two
    `words.Representation.factors` of a pair.
    """
    if group == SL2C:
        return np.array([0.5j, 0.0, 0.0]), np.array([0.5, 0.0, 0.0], dtype=complex)
    if group == SU2XSU2:
        h = np.array([0.5, 0.0, 0.0])
        return (h, h), (h, -h)
    raise DomainError(f"no standard deformation sections for group {group!r}")

"""The letter-by-letter cocycle calculus: the reference that the tests hold
the library's Fox pass, closed-form Ad and raw-array arithmetic against.

The library evaluates cocycles only through `words.fox_derivatives`; these
functions are the definitions it replaces, one algebra vector at a time.
Group elements are raw arrays, as in the library: a 2x2 complex matrix in
SL(2,C), a unit quaternion in SU(2); algebra vectors are field coordinates.
Their matrices are built here, apart from `liecore.adjoint_stack`,
`liecore.matrix_stack` and `liecore.algebra_matrix`."""
import math

import numpy as np

from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    _det_rule,
    _exp_traceless,
    _norm_rule,
    coefficient_field,
    field_coords,
    raw_product,
    su2_quaternion,
)
from conerig.words import Representation, Word, free_reduce, prefix_walk

_GROUP_OF_SHAPE = {(2, 2): SL2C, (4,): SU2}


def element_matrix(g: np.ndarray) -> np.ndarray:
    """The 2x2 matrix of a raw SL2C matrix or SU2 quaternion: the matrix
    itself, or a + bj -> [[a, b], [-conj(b), conj(a)]]."""
    if g.shape == (2, 2):
        return g
    a, b = complex(g[0], g[1]), complex(g[2], g[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def mul(group: str, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The raw product g h by `raw_product`; an SU2xSU2 pair multiplies
    factor by factor."""
    if group == SU2XSU2:
        return np.array([mul(SU2, a, b) for a, b in zip(g, h)])
    with np.errstate(over="ignore", invalid="ignore"):
        return raw_product(group, g, h)


def dist(g: np.ndarray, h: np.ndarray) -> float:
    """Frobenius distance of the matrices of two raw elements; for SU2xSU2
    pairs, the hypot of their factors' distances."""
    if g.shape == (2, 4):
        return math.hypot(dist(g[0], h[0]), dist(g[1], h[1]))
    return float(np.linalg.norm(element_matrix(g) - element_matrix(h)))


def coords_to_matrix(group: str, v) -> np.ndarray:
    """The traceless 2x2 matrix of field coordinates v: [[x, y], [w, -x]] in
    sl2(C), [[ix, y + iz], [-y + iz, -ix]] in su(2)."""
    x, y, t = field_coords(group, v)
    if group == SL2C:
        return np.array([[x, y], [t, -x]])
    return np.array([[1j * x, y + 1j * t], [-y + 1j * t, -1j * x]])


def matrix_to_coords(group: str, m: np.ndarray) -> np.ndarray:
    """Field coordinates of a traceless 2x2 matrix; for su(2), those of its
    anti-Hermitian part (m - m^H) / 2."""
    if group == SL2C:
        return np.array([m[0, 0], m[0, 1], m[1, 0]])
    yz = 0.5 * (m[0, 1] - np.conj(m[1, 0]))
    return np.array([m[0, 0].imag, yz.real, yz.imag])


def ad_action(g: np.ndarray, v) -> np.ndarray:
    """Field coordinates of Ad(g) v = g v g^-1 for the raw SL2C matrix or SU2
    quaternion g and the field coordinates v of an algebra vector."""
    group = _GROUP_OF_SHAPE.get(np.shape(g))
    if group is None:
        raise DomainError(f"an array of shape {np.shape(g)} is no SL2C or SU2 element")
    m = element_matrix(g)
    mi = np.conj(m.T) if group == SU2 else np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    conj = m @ coords_to_matrix(group, v) @ mi
    # g v g^-1 is traceless: read its diagonal as (a - d) / 2, which drops
    # the trace that rounding leaves, growing like |g|^2 |v|.
    x = 0.5 * (conj[0, 0] - conj[1, 1])
    conj[0, 0], conj[1, 1] = x, -x
    return matrix_to_coords(group, conj)


def _generator_values(rho: Representation, z) -> np.ndarray:
    """The field coordinates of a cocycle's generator values, one row each."""
    z = field_coords(rho.group, z, len(rho.raw))
    return z.reshape(len(rho.raw), -1)


def coboundary(rho: Representation, v) -> np.ndarray:
    """Field coordinates of the coboundary of v: gamma -> v - Ad(rho(gamma)) v."""
    return np.concatenate([v - ad_action(g, v) for g in rho.raw])


def extend_cocycle(rho: Representation, z, word: Word) -> np.ndarray:
    """Extend a cocycle over a word by z(uv) = z(u) + Ad(rho(u)) z(v), and
    return the field coordinates of z(word).

    z holds the field coordinates of the generator values, generator after
    generator, as `fox_derivatives` takes them.  Inverse letters use
    z(g^-1) = -Ad(rho(g)^-1) z(g), so g^-1 at prefix p adds -Ad(p g^-1) z(g).
    The word is free-reduced first: the value is the same, and a cancelling
    pair would add and subtract two terms as large as Ad of the prefix.
    Letter by letter through `ad_action` on the prefixes of `prefix_walk`,
    this is the reference for the Fox pass.
    """
    values = _generator_values(rho, z)
    field, d = coefficient_field(rho.group)
    val = np.zeros(d, dtype=field)
    word = free_reduce(word)
    prefixes = prefix_walk(rho, word)
    for t, (i, e) in enumerate(word):
        if e > 0:
            val = val + ad_action(prefixes[t], values[i])
        else:
            val = val - ad_action(prefixes[t + 1], values[i])
    return val


def deform_reference(rho: Representation, z, t: float) -> np.ndarray:
    """The raw stack of `words.deform`, one generator at a time:
    exp(t z(gamma)) rho(gamma) through `exp_algebra_reference`."""
    values = _generator_values(rho, z)
    with np.errstate(over="ignore", invalid="ignore"):
        exps = [exp_algebra_reference(rho.group, t * v) for v in values]
        raws = [raw_product(rho.group, x, g) for x, g in zip(exps, rho.raw)]
    return np.array(raws)


def exp_algebra_reference(group: str, v) -> np.ndarray:
    """`liecore.exp_raw` of the field coordinates v through the matrix
    exponential of `coords_to_matrix` and, for su(2), the quaternion
    `su2_quaternion` reads off the matrix, under the input norm rule."""
    m = _exp_traceless(coords_to_matrix(group, v))
    if group == SL2C:
        return _det_rule(m)
    return _norm_rule(su2_quaternion(m))

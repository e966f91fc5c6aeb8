"""The letter-by-letter cocycle calculus: the reference that the tests hold
the library's Fox pass, closed-form Ad and raw-array arithmetic against.

The library evaluates cocycles only through `words.fox_derivatives`; these
functions are the definitions it replaces, one algebra vector at a time.
Group elements are raw arrays, as in the library: a 2x2 complex matrix in
SL(2,C), a unit quaternion in SU(2).  Their matrices are built here, apart
from `liecore.adjoint_stack` and `liecore.matrix_stack`."""
import math

import numpy as np

from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    AlgebraVector,
    _det_rule,
    _exp_traceless,
    _norm_rule,
    coefficient_field,
    field_coords,
    raw_product,
    su2_quaternion,
)
from conerig.words import Representation, Word, free_reduce, prefix_walk

_RAW_SHAPE = {SL2C: (2, 2), SU2: (4,)}


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


def ad_action(g: np.ndarray, v: AlgebraVector) -> AlgebraVector:
    """Adjoint action Ad(g) v = g v g^-1 of the raw element g of v's group."""
    if np.shape(g) != _RAW_SHAPE[v.group]:
        raise DomainError(f"an array of shape {np.shape(g)} is no {v.group} element")
    m = element_matrix(g)
    mi = np.conj(m.T) if v.group == SU2 else np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    conj = m @ v.mat @ mi
    # g v g^-1 is traceless; the trace left by rounding grows like |g|^2 |v|
    # and would fail the absolute trace check of a large conjugate.
    x = 0.5 * (conj[0, 0] - conj[1, 1])
    conj[0, 0], conj[1, 1] = x, -x
    return AlgebraVector(v.group, conj)


def _generator_values(rho: Representation, z) -> list[AlgebraVector]:
    """The algebra vectors of a cocycle's field coordinates, one per generator."""
    z = field_coords(rho.group, z, len(rho.raw))
    d = coefficient_field(rho.group)[1]
    return [AlgebraVector.from_coords(rho.group, v) for v in z.reshape(-1, d)]


def coboundary(rho: Representation, v: AlgebraVector) -> np.ndarray:
    """Field coordinates of the coboundary of v: gamma -> v - Ad(rho(gamma)) v."""
    return np.concatenate([(v - ad_action(g, v)).coords() for g in rho.raw])


def extend_cocycle(rho: Representation, z, word: Word) -> AlgebraVector:
    """Extend a cocycle over a word by z(uv) = z(u) + Ad(rho(u)) z(v).

    z holds the field coordinates of the generator values, generator after
    generator, as `fox_derivatives` takes them.  Inverse letters use
    z(g^-1) = -Ad(rho(g)^-1) z(g), so g^-1 at prefix p adds -Ad(p g^-1) z(g).
    The word is free-reduced first: the value is the same, and a cancelling
    pair would add and subtract two terms as large as Ad of the prefix.
    Letter by letter through `ad_action` on the prefixes of `prefix_walk`,
    this is the reference for the Fox pass.
    """
    values = _generator_values(rho, z)
    val = AlgebraVector.zero(rho.group)
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
        exps = [exp_algebra_reference(v.scaled(t)) for v in values]
        raws = [raw_product(rho.group, x, g) for x, g in zip(exps, rho.raw)]
    return np.array(raws)


def exp_algebra_reference(v: AlgebraVector) -> np.ndarray:
    """`liecore.exp_raw` through the matrix exponential and, for su(2), the
    quaternion `su2_quaternion` reads off the matrix, under the input norm rule."""
    m = _exp_traceless(v.mat)
    if v.group == SL2C:
        return _det_rule(m)
    return _norm_rule(su2_quaternion(m))

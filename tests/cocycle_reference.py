"""The letter-by-letter cocycle calculus: the reference that the tests hold
the library's Fox pass, closed-form Ad and raw-array arithmetic against.

The library evaluates cocycles only through `words.fox_derivatives`; these
functions are the definitions it replaces, one algebra vector at a time."""
import numpy as np

from conerig.errors import DomainError
from conerig.liecore import (
    SL2C,
    SU2,
    AlgebraVector,
    GroupElement,
    Sl2cElement,
    Su2Element,
    _exp_traceless,
    coefficient_field,
    field_coords,
    group_of,
)
from conerig.words import Representation, Word, free_reduce, prefix_walk


def ad_action(g: GroupElement, v: AlgebraVector) -> AlgebraVector:
    """Adjoint action Ad(g) v = g v g^-1."""
    group = group_of(g)
    if group != v.group:
        raise DomainError(f"group mismatch: {group} vs {v.group}")
    m = g.mat
    mi = np.conj(m.T) if group == SU2 else np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    conj = m @ v.mat @ mi
    # g v g^-1 is traceless; the trace left by rounding grows like |g|^2 |v|
    # and would fail the absolute trace check of a large conjugate.
    x = 0.5 * (conj[0, 0] - conj[1, 1])
    conj[0, 0], conj[1, 1] = x, -x
    return AlgebraVector(group, conj)


def _generator_values(rho: Representation, z) -> list[AlgebraVector]:
    """The algebra vectors of a cocycle's field coordinates, one per generator."""
    z = field_coords(rho.group, z, len(rho.images))
    d = coefficient_field(rho.group)[1]
    return [AlgebraVector.from_coords(rho.group, v) for v in z.reshape(-1, d)]


def coboundary(rho: Representation, v: AlgebraVector) -> np.ndarray:
    """Field coordinates of the coboundary of v: gamma -> v - Ad(rho(gamma)) v."""
    return np.concatenate([(v - ad_action(g, v)).coords() for g in rho.images])


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
    element = Sl2cElement if rho.group == SL2C else Su2Element
    prefixes = [element(p, derived=True) for p in prefix_walk(rho, word)]
    for t, (i, e) in enumerate(word):
        if e > 0:
            val = val + ad_action(prefixes[t], values[i])
        else:
            val = val - ad_action(prefixes[t + 1], values[i])
    return val


def deform_reference(rho: Representation, z, t: float) -> Representation:
    """`words.deform` on element objects: exp(t z(gamma)) rho(gamma) by `mul`."""
    values = _generator_values(rho, z)
    images = tuple(exp_algebra_reference(v.scaled(t)).mul(g) for v, g in zip(values, rho.images))
    return Representation(rho.group, images)


def exp_algebra_reference(v: AlgebraVector) -> GroupElement:
    """`liecore.exp_algebra` through the matrix exponential and, for su(2),
    `Su2Element.from_matrix`."""
    m = _exp_traceless(v.mat)
    return Sl2cElement(m) if v.group == SL2C else Su2Element.from_matrix(m)

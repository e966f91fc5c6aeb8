"""Group presentations, words, representations and the cocycle calculus.

Words are case-sensitive letter strings over the declared generators; an
uppercase letter is the inverse of its lowercase generator.  Evaluation never
free-reduces, so word identity stays traceable in reports.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidRepresentation, UnknownGenerator
from .liecore import (
    AlgebraVector,
    GroupElement,
    SU2,
    SU2XSU2,
    ad_action,
    adjoint_matrix,
    coefficient_field,
    exp_algebra,
    field_coords,
    group_identity,
    group_of,
)

# A word is a sequence of (generator index, exponent) with exponent +/-1.
Word = tuple[tuple[int, int], ...]

IDENTITY_WORD: Word = ()

# Acceptance tolerance for a representation read from a manifest.
TOL_REP = 1e-8


def parse_word(text: str, generators: tuple[str, ...] | list[str]) -> Word:
    """Parse a letter string; parse_word("") is the identity word."""
    index = {g: i for i, g in enumerate(generators)}
    letters = []
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low not in index:
            raise UnknownGenerator(ch, pos)
        letters.append((index[low], 1 if ch == low else -1))
    return tuple(letters)


def word_text(word: Word, generators: tuple[str, ...]) -> str:
    return "".join(generators[i] if e > 0 else generators[i].upper() for i, e in word)


def word_inverse(word: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(word))


def free_reduce(word: Word) -> Word:
    out: list[tuple[int, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class Meridian:
    word: Word
    text: str
    edge_id: int
    cone_angle: float

    def __post_init__(self):
        if not (0.0 < self.cone_angle <= 2.0 * np.pi):
            raise DomainError(f"cone angle must lie in (0, 2*pi], got {self.cone_angle}")


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with tagged meridian words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    relator_texts: tuple[str, ...]
    meridians: tuple[Meridian, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if len(g) != 1 or not ("a" <= g <= "z"):
                raise DomainError(f"generators must be single lowercase letters, got {g!r}")
            if g in seen:
                raise DomainError(f"duplicate generator {g!r}")
            seen.add(g)

    @classmethod
    def from_strings(
        cls,
        generators,
        relators,
        meridians=(),
    ) -> "Presentation":
        """Build from letter strings; meridians are (text, edge_id, cone_angle)."""
        gens = tuple(generators)
        rel_words = tuple(parse_word(r, gens) for r in relators)
        mers = tuple(
            Meridian(parse_word(text, gens), text, int(edge_id), float(angle))
            for text, edge_id, angle in meridians
        )
        return cls(gens, rel_words, tuple(relators), mers)


@dataclass(frozen=True, eq=False)
class Representation:
    """Group tag plus one image per generator."""

    group: str
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        for g in self.images:
            if group_of(g) != self.group:
                raise DomainError(f"image {g!r} does not live in {self.group}")

    def image(self, index: int, exponent: int) -> GroupElement:
        g = self.images[index]
        return g if exponent > 0 else g.inv()


def evaluate(rho: Representation, word: Word) -> GroupElement:
    """Product of generator images along the word; identity word maps to id."""
    out = group_identity(rho.group)
    for i, e in word:
        out = out.mul(rho.image(i, e))
    return out


def relator_residual(rho: Representation, pres: Presentation) -> float:
    """Max Frobenius distance of relator images from the identity (NaN stays NaN)."""
    dists = [evaluate(rho, rel).dist_to_identity() for rel in pres.relators]
    return float(np.max(dists, initial=0.0))


def check_representation(rho: Representation, pres: Presentation, tol: float = TOL_REP) -> None:
    res = relator_residual(rho, pres)
    if not res <= tol:
        raise InvalidRepresentation(f"relator residual {res:.3e} exceeds {tol:.1e}")


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
    z(g^-1) = -Ad(rho(g)^-1) z(g).  The word is free-reduced first: the
    value is the same, and a cancelling pair would add and subtract two terms
    as large as Ad of the prefix.  Letter by letter through `ad_action`, this
    is the reference for the Fox pass.
    """
    values = _generator_values(rho, z)
    val = AlgebraVector.zero(rho.group)
    g = group_identity(rho.group)
    for i, e in free_reduce(word):
        if e > 0:
            letter_val = values[i]
            letter_img = rho.images[i]
        else:
            letter_img = rho.images[i].inv()
            letter_val = -ad_action(letter_img, values[i])
        val = val + ad_action(g, letter_val)
        g = g.mul(letter_img)
    return val


def fox_derivatives(rho: Representation, words) -> np.ndarray:
    """Fox derivatives of words over the coefficient field, g^n -> g^{#words}.

    Row block r maps a cocycle's field coordinates, generator after generator,
    to its value on word r; block (r, j) is the Fox derivative by generator j
    acting through Ad.  One pass per word carries the prefix p: g_j adds Ad(p)
    to block j, then p <- p g_j; g_j^-1 sets p <- p g_j^-1, then subtracts
    Ad(p).  Ad(p) comes in closed form from p, not as a product of Ad
    matrices, whose condition number is the square of p's.  Words are
    free-reduced first, as in `extend_cocycle`.
    """
    field, d = coefficient_field(rho.group)
    inverses = [g.inv() for g in rho.images]
    jac = np.zeros((d * len(words), d * len(rho.images)), dtype=field)
    for r, word in enumerate(words):
        rows = jac[d * r : d * (r + 1)]
        prefix = group_identity(rho.group)
        for j, e in free_reduce(word):
            block = rows[:, d * j : d * (j + 1)]
            if e > 0:
                block += adjoint_matrix(prefix)
                prefix = prefix.mul(rho.images[j])
            else:
                prefix = prefix.mul(inverses[j])
                block -= adjoint_matrix(prefix)
    return jac


def fox_jacobian(rho: Representation, pres: Presentation) -> np.ndarray:
    """Linearized relations over the coefficient field: the Fox derivatives of
    the relators, after checking them.  The kernel is the cocycle space."""
    check_representation(rho, pres)
    return fox_derivatives(rho, pres.relators)


def deform(rho: Representation, z, t: float) -> Representation:
    """First-order deformation rho_t(gamma) = exp(t z(gamma)) rho(gamma) along
    the cocycle with field coordinates z."""
    images = tuple(
        exp_algebra(v.scaled(t)).mul(g) for v, g in zip(_generator_values(rho, z), rho.images)
    )
    return Representation(rho.group, images)


def split_representation(rho: Representation) -> tuple[Representation, Representation]:
    """Factor representations of an SU(2)xSU(2) representation."""
    if rho.group != SU2XSU2:
        raise DomainError("only SU2xSU2 representations split")
    left = Representation(SU2, tuple(g.left for g in rho.images))
    right = Representation(SU2, tuple(g.right for g in rho.images))
    return left, right

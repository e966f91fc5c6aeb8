"""Group presentations, words, representations and the Fox calculus.

Words are case-sensitive letter strings over the declared generators; an
uppercase letter is the inverse of its lowercase generator.  `evaluate`
never free-reduces, so word identity stays traceable in reports.

Every word is evaluated by one prefix walk (`prefix_walk`): p_0 = 1 and
p_t = p_{t-1} g_t on raw arrays, a 2x2 complex matrix for SL(2,C) and a unit
quaternion for SU(2), by `liecore.raw_product`, of which element `mul` is a
view.  A representation stacks the raw arrays of its images and of their
inverses once; an SU(2)xSU(2) representation holds its two SU(2) factor
representations instead, built once, and is walked per factor.

Cocycles are evaluated only by the Fox pass (`fox_derivatives`): it takes
the Ad matrices of all its prefixes in one stacked closed form
(`liecore.adjoint_stack`) and hands out the images of its words with them.
The letter-by-letter calculus z(uv) = z(u) + Ad(rho(u)) z(v) is its
reference, in `tests/cocycle_reference.py`.  A walk that overflows is
refused at the JSON pointer of its word.

Relators are checked by one rule in every subcommand:
- a relator is checked on its free reduction: its distance from the
  identity is read off the last prefix of that walk (`relator_distances`,
  which `fox_jacobian` feeds with the images of its own walks);
- an SU(2)xSU(2) representation is checked by the hypot of its two factors'
  distances, before it is split (`checked_factors`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidRepresentation, UnknownGenerator
from .liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    GroupElement,
    Sl2cElement,
    Su2Element,
    Su2PairElement,
    adjoint_stack,
    coefficient_field,
    exp_raw,
    field_coords,
    group_identity,
    group_of,
    identity_distance,
    raw_inverse,
    raw_product,
)

# A word is a sequence of (generator index, exponent) with exponent +/-1.
Word = tuple[tuple[int, int], ...]

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
    def from_strings(cls, generators, relators, meridians=()) -> "Presentation":
        """Build from letter strings; meridians are (text, edge_id, cone_angle)."""
        gens = tuple(generators)
        rel_words = tuple(parse_word(r, gens) for r in relators)
        mers = tuple(
            Meridian(parse_word(text, gens), text, int(edge_id), float(angle))
            for text, edge_id, angle in meridians
        )
        return cls(gens, rel_words, tuple(relators), mers)


def _raw(g: GroupElement) -> np.ndarray:
    """The array an SL2C or SU2 element is held as: its matrix or its quaternion."""
    return g.q if isinstance(g, Su2Element) else g.mat


def _element(group: str, raw: np.ndarray) -> GroupElement:
    """The element of a walk's prefix, a product of images."""
    return Sl2cElement(raw, derived=True) if group == SL2C else Su2Element(raw, derived=True)


_IDENTITY = {group: _raw(group_identity(group)) for group in (SL2C, SU2)}


@dataclass(frozen=True, eq=False)
class Representation:
    """Group tag plus one image per generator.

    SL2C and SU2 images are also stacked as read-only (n, 2, 2) matrices or
    (n, 4) quaternions: `raw`, and `raw_inverses` from `liecore.raw_inverse`,
    the closed form that `inv()` also takes.  An SU2xSU2 representation holds
    its two SU2 factors instead, `factors`."""

    group: str
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        for g in self.images:
            if group_of(g) != self.group:
                raise DomainError(f"image {g!r} does not live in {self.group}")
        if self.group != SU2XSU2:
            raw = np.array([_raw(g) for g in self.images]).reshape(-1, *_IDENTITY[self.group].shape)
            inverses = raw_inverse(self.group, raw)
            raw.flags.writeable = inverses.flags.writeable = False
            object.__setattr__(self, "raw", raw)
            object.__setattr__(self, "raw_inverses", inverses)
        else:
            halves = (tuple(g.left for g in self.images), tuple(g.right for g in self.images))
            object.__setattr__(self, "factors", tuple(Representation(SU2, h) for h in halves))


def prefix_walk(rho: Representation, word: Word, where: str = "word") -> list[np.ndarray]:
    """Raw prefixes p_0 = 1, p_t = p_{t-1} g_t of the image of a word, one
    per letter after the identity, for an SL2C or SU2 representation.  A
    prefix that overflows is refused at `where`, the word's JSON pointer,
    with no numpy warning."""
    if rho.group == SU2XSU2:
        raise DomainError("walk SU2xSU2 words per factor of split_representation")
    images, inverses = rho.raw, rho.raw_inverses
    p = _IDENTITY[rho.group]
    prefixes = [p]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i, e in word:
                p = raw_product(rho.group, p, images[i] if e > 0 else inverses[i])
                prefixes.append(p)
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from None
    return prefixes


def evaluate(rho: Representation, word: Word, where: str = "word") -> GroupElement:
    """Product of generator images along the word; identity word maps to id.
    An overflow is refused at `where`, the word's JSON pointer."""
    if rho.group == SU2XSU2:
        return Su2PairElement(*(evaluate(f, word, where) for f in rho.factors))
    return _element(rho.group, prefix_walk(rho, word, where)[-1])


def relator_distances(rho: Representation, pres: Presentation, finals=None) -> list[float]:
    """`dist_to_identity` of each relator's free reduction, read off its walk
    or `finals`, the last prefixes a Fox pass gave; for a pair, the hypot."""
    if rho.group == SU2XSU2:
        left, right = (relator_distances(f, pres) for f in rho.factors)
        return [math.hypot(x, y) for x, y in zip(left, right)]
    if finals is None:
        rels = enumerate(pres.relators)
        finals = [prefix_walk(rho, free_reduce(r), f"/relators/{k}")[-1] for k, r in rels]
    return [identity_distance(rho.group, p) for p in finals]


def relator_residual(rho: Representation, pres: Presentation) -> float:
    """Max Frobenius distance of relator images from the identity (NaN stays NaN)."""
    return worst_relator(relator_distances(rho, pres))[0]


def worst_relator(dists: list[float]) -> tuple[float, str | None]:
    """The largest relator distance, NaN when one is NaN, and, unless it is
    within TOL_REP, a message naming that relator by its JSON pointer."""
    worst = float(np.max(dists, initial=0.0))
    if worst <= TOL_REP:
        return worst, None
    return worst, f"/relators/{np.argmax(dists)}: relator residual {worst:.3e} exceeds {TOL_REP:.1e}"


def check_representation(rho: Representation, pres: Presentation, finals=None) -> None:
    """Refuse `relator_distances` beyond TOL_REP, naming the worst relator."""
    if failure := worst_relator(relator_distances(rho, pres, finals))[1]:
        raise InvalidRepresentation(failure)


def checked_factors(rho: Representation, pres: Presentation) -> tuple[Representation, ...]:
    """rho, which `fox_jacobian` checks, or a pair's factors after its check."""
    if rho.group != SU2XSU2:
        return (rho,)
    check_representation(rho, pres)
    return rho.factors


def fox_derivatives(
    rho: Representation, words, where: str = "word {}"
) -> tuple[np.ndarray, np.ndarray]:
    """Fox derivatives of words over the coefficient field, g^n -> g^{#words},
    and the raw images of the words from the same walks.

    Row block r maps a cocycle's field coordinates, generator after generator,
    to its value on word r; block (r, j) is the Fox derivative by generator j
    acting through Ad.  One prefix walk per word: a letter g_j at prefix p
    adds Ad(p) to block j, a letter g_j^-1 subtracts Ad(p g_j^-1).  Ad(p)
    comes in closed form from p, not as a product of Ad matrices, whose
    condition number is the square of p's.  Words are free-reduced first: a
    cancelling pair would add and subtract two terms as large as Ad of the
    prefix.  The images, stacked as `raw`, are the reduced words' last
    prefixes.  An overflow is refused naming word r as `where.format(r)`.
    """
    field, d = coefficient_field(rho.group)
    blocks = np.zeros((len(words), len(rho.images), d, d), dtype=field)
    finals = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r, word in enumerate(words):
            word = free_reduce(word)
            prefixes = prefix_walk(rho, word, where.format(r))
            finals.append(prefixes[-1])
            if word:
                gens, exps = np.array(word).T
                # g_j adds Ad(p_{t-1}) to block j; g_j^-1 subtracts Ad(p_t).
                ads = adjoint_stack(rho.group, np.array(prefixes)[np.arange(len(word)) + (exps < 0)])
                np.add.at(blocks[r], gens, exps[:, None, None] * ads)
                if not np.isfinite(blocks[r]).all():
                    raise DomainError(f"{where.format(r)}: Fox derivatives overflow")
    jac = blocks.transpose(0, 2, 1, 3).reshape(d * len(words), d * len(rho.images))
    return jac, np.array(finals).reshape(-1, *_IDENTITY[rho.group].shape)


def fox_jacobian(rho: Representation, pres: Presentation) -> np.ndarray:
    """Linearized relations over the coefficient field, whose kernel is the
    cocycle space: the Fox derivatives of the relators, after checking the
    relator images that their walks give (`check_representation`)."""
    jac, finals = fox_derivatives(rho, pres.relators, "/relators/{}")
    check_representation(rho, pres, finals)
    return jac


def deform(rho: Representation, z, t: float) -> Representation:
    """First-order deformation rho_t(gamma) = exp(t z(gamma)) rho(gamma) along
    the cocycle with field coordinates z, on the raw images."""
    z = field_coords(rho.group, z, len(rho.images)).reshape(len(rho.images), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        raws = [raw_product(rho.group, exp_raw(rho.group, t * v), g) for v, g in zip(z, rho.raw)]
    return Representation(rho.group, tuple(_element(rho.group, p) for p in raws))


def split_representation(rho: Representation) -> tuple[Representation, Representation]:
    """Factor representations of an SU(2)xSU(2) representation, the ones it holds."""
    if rho.group != SU2XSU2:
        raise DomainError("only SU2xSU2 representations split")
    return rho.factors

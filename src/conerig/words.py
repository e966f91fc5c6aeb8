"""Group presentations, words, representations and the Fox calculus.

Words are case-sensitive letter strings over the declared generators; an
uppercase letter is the inverse of its lowercase generator.  `evaluate`
never free-reduces, so word identity stays traceable in reports.

Every word is evaluated by one prefix walk (`prefix_walk`): p_0 = 1 and
p_t = p_{t-1} g_t on raw arrays, a 2x2 complex matrix for SL(2,C) and a unit
quaternion for SU(2), by `liecore.raw_product`.  A representation holds its
images once, as the stack of those arrays (`Representation.raw`); each of
its `factors` (itself, or a pair's two SU(2) views) is walked alone.  Every
image, product and prefix is such an array; there is no other element form.

Cocycles are evaluated only by the Fox pass (`fox_derivatives`): it walks
all its words, takes the Ad matrices of all their prefixes in one stacked
closed form (`liecore.adjoint_stack`), and hands out the images of its words
with them.  The letter-by-letter calculus z(uv) = z(u) + Ad(rho(u)) z(v) is
its reference, in `tests/cocycle_reference.py`.  A walk that overflows is
refused at the JSON pointer of its word.

Relators are checked by one rule in every subcommand:
- a relator is checked on its free reduction: its distance from the
  identity is read off the last prefix of that walk (`relator_distances`,
  which a Fox pass feeds with the images of its own walks);
- across the factors of a representation the distances combine by their
  hypot, before any per-factor result is used (`cohomology._fox_passes`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, InvalidRepresentation, UnknownGenerator
from .liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    adjoint_stack,
    coefficient_field,
    exp_raw,
    field_coords,
    identity_distance,
    raw_inverse,
    raw_product,
)

# A word is a sequence of (generator index, exponent) with exponent +/-1.
Word = tuple[tuple[int, int], ...]

# Acceptance tolerance for a representation read from a manifest.
TOL_REP = 1e-8
# The JSON pointer of a manifest's relator k.
RELATORS = "/relators/{}".format


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


def check_generators(generators) -> tuple[str, ...]:
    """The generators as a tuple, refused unless they are distinct single
    lowercase letters; checked before any word over them is parsed."""
    seen = set()
    for g in generators:
        if len(g) != 1 or not ("a" <= g <= "z"):
            raise DomainError(f"generators must be single lowercase letters, got {g!r}")
        if g in seen:
            raise DomainError(f"duplicate generator {g!r}")
        seen.add(g)
    return tuple(generators)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with tagged meridian words, over generators that
    passed `check_generators`."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    relator_texts: tuple[str, ...]
    meridians: tuple[Meridian, ...]

    @classmethod
    def from_strings(cls, generators, relators, meridians=()) -> "Presentation":
        """Build from letter strings; meridians are (text, edge_id, cone_angle)."""
        gens = check_generators(generators)
        rel_words = tuple(parse_word(r, gens) for r in relators)
        mers = tuple(
            Meridian(parse_word(text, gens), text, int(edge_id), float(angle))
            for text, edge_id, angle in meridians
        )
        return cls(gens, rel_words, tuple(relators), mers)


_IDENTITY = {SL2C: np.eye(2, dtype=complex), SU2: np.array([1.0, 0.0, 0.0, 0.0])}
for _one in _IDENTITY.values():  # the walk of the identity word hands it out
    _one.flags.writeable = False
_IMAGE = {SL2C: ((2, 2), "complex128"), SU2: ((4,), "float64"), SU2XSU2: ((2, 4), "float64")}


@dataclass(frozen=True, eq=False)
class Representation:
    """The generators' images as one read-only stack `raw`: (n, 2, 2) complex
    matrices for SL2C, (n, 4) quaternions for SU2, (n, 2, 4) left and right
    quaternions for SU2xSU2.  SL2C and SU2 stack `raw_inverses` too.  Group
    membership is checked where an image is read (`manifest`) or made
    (`liecore.exp_raw`); here only the shape, dtype and finiteness of the
    stack."""

    group: str
    raw: np.ndarray

    def __post_init__(self):
        if self.group not in _IMAGE:
            raise DomainError(f"unknown group {self.group!r}: expected a stack of SL2C, SU2 or SU2xSU2")
        shape, dtype = _IMAGE[self.group]
        raw = np.asarray(self.raw)
        if raw.shape[1:] != shape or raw.dtype != dtype:
            dims = ", ".join(map(str, ("n", *shape)))
            raise DomainError(f"expected an ({dims}) {dtype} stack of {self.group} images")
        if not np.isfinite(raw).all():
            raise DomainError("images must have finite entries")
        if raw.flags.writeable:  # the caller's array: hold a frozen copy
            raw = raw.copy()
            raw.flags.writeable = False
        object.__setattr__(self, "raw", raw)
        if self.group == SU2XSU2:
            object.__setattr__(self, "_pair", tuple(Representation(SU2, raw[:, k]) for k in (0, 1)))
        else:
            inverses = raw_inverse(self.group, raw)
            inverses.flags.writeable = False
            object.__setattr__(self, "raw_inverses", inverses)

    @property
    def factors(self) -> tuple[Representation, ...]:
        """A pair's two SU2 views, else (self,), made per call: no reference cycle."""
        return self.__dict__.get("_pair", (self,))


def prefix_walk(rho: Representation, word: Word, where: str = "word") -> list[np.ndarray]:
    """Raw prefixes p_0 = 1, p_t = p_{t-1} g_t of the image of a word, one
    per letter after the identity, for an SL2C or SU2 representation.  A
    prefix that overflows is refused at `where`, the word's JSON pointer,
    with no numpy warning."""
    if rho.group == SU2XSU2:
        raise DomainError("split SU2xSU2: walk each of its Representation.factors")
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


def evaluate(rho: Representation, word: Word, where: str = "word") -> np.ndarray:
    """The raw product of generator images along the word, the last prefix
    of its walk; the identity word maps to the identity.  For SU2xSU2, the
    (2, 4) stack of its factors' products.  An overflow is refused at
    `where`, the word's JSON pointer."""
    if rho.group == SU2XSU2:
        return np.array([evaluate(f, word, where) for f in rho.factors])
    return prefix_walk(rho, word, where)[-1]


def relator_distances(rho: Representation, pres: Presentation, finals=None, where=RELATORS) -> list[float]:
    """`identity_distance` of each relator's free reduction, per factor of rho,
    read off its walk or off `finals`, the last prefixes a Fox pass gave, one
    sequence per factor; across factors, their hypot.  A distance that
    overflows is refused at `where(k)`, relator k's pointer, factor after factor."""
    per_factor = []
    for f, last in zip(rho.factors, repeat(None) if finals is None else finals):
        if last is None:
            rels = enumerate(pres.relators)
            last = [prefix_walk(f, free_reduce(r), where(k))[-1] for k, r in rels]
        dists = [identity_distance(f.group, p) for p in last]
        if math.inf in dists:
            raise DomainError(f"{where(dists.index(math.inf))}: relator residual overflows")
        per_factor.append(dists)
    return [math.hypot(*d) for d in zip(*per_factor)]


def relator_residual(rho: Representation, pres: Presentation) -> float:
    """Max Frobenius distance of relator images from the identity (NaN stays NaN)."""
    return worst_relator(relator_distances(rho, pres))[0]


def worst_relator(dists: list[float], where=RELATORS) -> tuple[float, str | None]:
    """The largest relator distance, NaN when one is NaN, and, unless it is
    within TOL_REP, a message naming that relator k at `where(k)`."""
    worst = float(np.max(dists, initial=0.0))
    if worst <= TOL_REP:
        return worst, None
    return worst, f"{where(np.argmax(dists))}: relator residual {worst:.3e} exceeds {TOL_REP:.1e}"


def check_representation(rho: Representation, pres: Presentation, finals=None, where=RELATORS) -> None:
    """Refuse `relator_distances` beyond TOL_REP, naming the worst relator at `where`."""
    if failure := worst_relator(relator_distances(rho, pres, finals, where), where)[1]:
        raise InvalidRepresentation(failure)


def fox_derivatives(rho: Representation, words, where="word {}".format) -> tuple[np.ndarray, np.ndarray]:
    """Fox derivatives of words over the coefficient field, g^n -> g^{#words},
    and the raw images of the words from the same walks.

    Row block r maps a cocycle's field coordinates, generator after generator,
    to its value on word r; block (r, j) is the Fox derivative by generator j
    acting through Ad.  One prefix walk per word: a letter g_j at prefix p
    adds Ad(p) to block j, a letter g_j^-1 subtracts Ad(p g_j^-1).  Ad(p)
    comes in closed form from p, not as a product of Ad matrices, whose
    condition number is the square of p's: one `adjoint_stack` for all the
    letters, added in letter order by one `np.add.at`.  Words are
    free-reduced first: a cancelling pair would add and subtract two terms
    as large as Ad of the prefix.  The images, stacked as `raw`, are the
    reduced words' last prefixes.  Word r's walk or Fox overflow is refused,
    before word r + 1's, at `where(r)`.
    """
    field, d = coefficient_field(rho.group)
    walks, letters, prefixes, refusal = [], [], [], None
    try:
        for word in map(free_reduce, words):
            walks.append(prefix_walk(rho, word, where(len(walks))))
            letters += word
            prefixes += walks[-1]
    except DomainError as exc:  # raised after the Fox overflows of the words before it
        refusal = exc
    blocks = np.zeros((len(walks), len(rho.raw), d, d), dtype=field)
    if letters:
        gens, exps = np.array(letters).T
        rows = np.repeat(np.arange(len(walks)), [len(walk) - 1 for walk in walks])
        # Word r's prefixes sit r places after its letters; g_j^-1 takes Ad(p_t).
        at = np.arange(len(letters)) + rows + (exps < 0)
        with np.errstate(over="ignore", invalid="ignore"):
            ads = adjoint_stack(rho.group, np.array(prefixes)[at])
            np.add.at(blocks, (rows, gens), exps[:, None, None] * ads)
    if not (finite := np.isfinite(blocks)).all():
        raise DomainError(f"{where(int(finite.all(axis=(1, 2, 3)).argmin()))}: Fox derivatives overflow")
    if refusal:
        raise refusal
    jac = blocks.transpose(0, 2, 1, 3).reshape(d * len(words), d * len(rho.raw))
    return jac, np.array([walk[-1] for walk in walks]).reshape(-1, *rho.raw.shape[1:])


def fox_jacobian(rho: Representation, pres: Presentation, where=RELATORS) -> np.ndarray:
    """Linearized relations over the coefficient field, whose kernel is the
    cocycle space: the Fox derivatives of the relators, after checking the
    relator images that their walks give (`check_representation`).  Relator
    k's refusals name `where(k)`."""
    jac, finals = fox_derivatives(rho, pres.relators, where)
    check_representation(rho, pres, [finals], where)
    return jac


def deform(rho: Representation, z, t: float) -> Representation:
    """First-order deformation rho_t(gamma) = exp(t z(gamma)) rho(gamma) along
    the cocycle with field coordinates z, on the raw images."""
    z = field_coords(rho.group, z, len(rho.raw)).reshape(len(rho.raw), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        raws = [raw_product(rho.group, exp_raw(rho.group, t * v), g) for v, g in zip(z, rho.raw)]
    return Representation(rho.group, np.array(raws, dtype=rho.raw.dtype).reshape(rho.raw.shape))


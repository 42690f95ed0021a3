"""Braid words and the induced right action on the free group."""

from __future__ import annotations

from dataclasses import dataclass

from . import words
from .autf2 import AutF2, is_basis
from .localrep import LocalRep, _adjacent_pairs, _equations
from .words import Word

__all__ = [
    "BraidWord",
    "Endo",
    "check_pair_via_braid",
    "endo_of_braid",
    "local_endo",
    "parse_braid",
    "verify_braid_relations",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the standard generators of the n-strand braid group.

    Letters are signed generator indices: +i for the i-th generator, -i
    for its inverse, with 1 <= i <= n-1.
    """

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        for l in self.letters:
            if l == 0 or abs(l) >= self.n:
                raise ValueError(f"generator index {l} out of range for {self.n} strands")

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"strand mismatch: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-l for l in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse whitespace/comma-separated signed generator indices."""
    if n < 2:
        raise ValueError("braid words need at least 2 strands")
    letters = []
    for tok in text.replace(",", " ").split():
        try:
            l = int(tok)
        except ValueError:
            raise ValueError(f"bad braid letter {tok!r}") from None
        letters.append(l)
    return BraidWord(n, tuple(letters))


@dataclass(frozen=True)
class Endo:
    """An endomorphism of F_n, stored by its generator images."""

    images: tuple[Word, ...]

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Endo:
        return cls(tuple(Word.gen(i) for i in range(1, n + 1)))

    def compose(self, other: Endo) -> Endo:
        """Right-action composition: self first, then other."""
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return Endo(tuple(w.substitute(other.images) for w in self.images))

    def __str__(self) -> str:
        return "; ".join(
            f"x{i + 1} -> {img.text(self.n)}" for i, img in enumerate(self.images)
        )


def local_endo(rep: LocalRep, i: int, sign: int = 1) -> Endo:
    """The endomorphism of F_n induced by the i-th generator (or its inverse):
    the image of the one-letter braid."""
    if i < 1:
        raise ValueError(f"generator index {i} out of range for {rep.n} strands")
    return endo_of_braid(rep, BraidWord(rep.n, (-i if sign < 0 else i,)))


def endo_of_braid(rep: LocalRep, b: BraidWord) -> Endo:
    """Image of a braid word: letters act in word order (right action).

    The image of l_1 ... l_m is local(l_1) composed with the image of the
    suffix l_2 ... l_m, so the letters are applied last to first.  Crossing
    i then evaluates its core's two words at the suffix's images i and i+1
    and leaves the other n - 2 images as they are.

    Raises ValueError once the suffix images l_k ... l_m total more than
    MAX_IMAGE_LETTERS; the message names k, the letter's position in the
    word.  That total is the sum of n images, which the bound ``substitute``
    keeps on each word cannot bound.
    """
    if rep.n != b.n:
        raise ValueError(f"strand mismatch: rep has {rep.n}, braid has {b.n}")
    images = list(Endo.identity(rep.n).images)
    size = rep.n
    for k in range(len(b.letters), 0, -1):
        l = b.letters[k - 1]
        i = abs(l)
        core = rep.cores[i - 1] if l > 0 else rep.cores[i - 1].inverse()
        pair = (images[i - 1], images[i])
        images[i - 1] = core.image_a.substitute(pair)
        images[i] = core.image_b.substitute(pair)
        size += len(images[i - 1]) + len(images[i]) - len(pair[0]) - len(pair[1])
        if size > words.MAX_IMAGE_LETTERS:
            raise ValueError(
                f"braid image has {size} letters after crossing {k}, over {words.MAX_IMAGE_LETTERS}"
            )
    return Endo(tuple(images))


def verify_braid_relations(rep: LocalRep) -> bool:
    """Check the defining relations of B_n on the braid action: i, i+1, i
    against i+1, i, i+1, and i, j against j, i for j >= i + 2.

    Crossing i rewrites images i and i+1 from those two images alone and
    leaves the others as they are.  So for j >= i + 2 the crossings i and
    j rewrite disjoint pairs of images, each from its own pair, and i, j
    and j, i give the same images: the far relations hold for every rep.
    The triple relation at i touches only images i, i+1 and i+2, and its
    two sides there are the two sides of the relation 1 2 1 = 2 1 2 of the
    cores i and i+1 on F_3 with x, y and z renamed x_i, x_{i+1} and
    x_{i+2}; that renaming is injective, so the sides agree in F_n exactly
    when they agree in F_3.  Those are the three word equations T, M and B of
    :func:`braidact.localrep.check_quad` (the six images are written out
    beside ``_equations``).  So the relations hold exactly when each
    distinct adjacent pair of cores satisfies T, M and B, and each is
    evaluated once, in order of first occurrence.  An oversized equation
    word is refused by ``substitute``.
    """
    return all(all(_equations(p, c)) for p, c in _adjacent_pairs(rep.cores))


def check_pair_via_braid(tau: AutF2, kappa: AutF2) -> bool:
    """Whether two cores satisfy the braid relation on F_3, by the word
    action: endo_of_braid on 1 2 1 against 2 1 2.  It shares no equation
    code with :func:`braidact.localrep.check_quad`, so it is an independent
    cross-check of it on pairs of bases."""
    for phi in (tau, kappa):
        if not is_basis(phi.image_a, phi.image_b):
            raise ValueError(f"core ({phi}) is not a basis of F_2")
    rep = LocalRep(3, (tau, kappa))
    lhs, rhs = (endo_of_braid(rep, BraidWord(3, side)) for side in ((1, 2, 1), (2, 1, 2)))
    return lhs == rhs

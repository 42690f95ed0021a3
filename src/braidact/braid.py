"""Braid words and the induced right action on the free group."""

from __future__ import annotations

from dataclasses import dataclass

from .autf2 import AutF2, is_basis
from .localrep import LocalRep
from .words import Word

__all__ = [
    "BraidWord",
    "Endo",
    "check_pair_via_braid",
    "endo_of_braid",
    "free_reduce_braid",
    "local_endo",
    "parse_braid",
    "verify_braid_relations",
]

# Refuse a braid whose image words outgrow this many letters in total; the
# images can grow exponentially with the crossing count.
MAX_IMAGE_LETTERS = 1_000_000


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


def free_reduce_braid(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs only; no braid relations are applied."""
    stack: list[int] = []
    for l in b.letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return BraidWord(b.n, tuple(stack))


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

    def apply(self, w: Word) -> Word:
        return w.substitute(self.images)

    def compose(self, other: Endo) -> Endo:
        """Right-action composition: self first, then other."""
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        return Endo(tuple(w.substitute(other.images) for w in self.images))

    def is_identity(self) -> bool:
        return all(img.letters == (i + 1,) for i, img in enumerate(self.images))

    def __str__(self) -> str:
        return "; ".join(
            f"x{i + 1} -> {img.text(self.n)}" for i, img in enumerate(self.images)
        )


def local_endo(rep: LocalRep, i: int, sign: int = 1) -> Endo:
    """The endomorphism of F_n induced by the i-th generator (or its inverse).

    The core acts on x_i, x_{i+1}; every other generator is fixed.
    """
    if not 1 <= i <= rep.n - 1:
        raise ValueError(f"generator index {i} out of range for {rep.n} strands")
    core = rep.cores[i - 1]
    if sign < 0:
        core = core.inverse()
    xi, xi1 = Word.gen(i), Word.gen(i + 1)
    images = [Word.gen(j) for j in range(1, rep.n + 1)]
    images[i - 1] = core.image_a.substitute((xi, xi1))
    images[i] = core.image_b.substitute((xi, xi1))
    return Endo(tuple(images))


def endo_of_braid(rep: LocalRep, b: BraidWord) -> Endo:
    """Image of a braid word: letters act in word order (right action).

    The image of l_1 ... l_m is local(l_1) composed with the image of the
    suffix l_2 ... l_m, so the letters are applied last to first.  Crossing
    i then evaluates its core's two words at the suffix's images i and i+1
    and leaves the other n - 2 images as they are.

    Raises ValueError once the suffix images l_k ... l_m total more than
    MAX_IMAGE_LETTERS; the message names k, the letter's position in the word.
    """
    if rep.n != b.n:
        raise ValueError(f"strand mismatch: rep has {rep.n}, braid has {b.n}")
    # Each core used by a negative crossing is inverted once, not per crossing.
    inverse = {i: rep.cores[i - 1].inverse() for i in {-l for l in b.letters if l < 0}}
    images = list(Endo.identity(rep.n).images)
    size = rep.n
    for k in range(len(b.letters), 0, -1):
        l = b.letters[k - 1]
        i = abs(l)
        core = rep.cores[i - 1] if l > 0 else inverse[i]
        pair = (images[i - 1], images[i])
        images[i - 1] = core.image_a.substitute(pair)
        images[i] = core.image_b.substitute(pair)
        size += len(images[i - 1]) + len(images[i]) - len(pair[0]) - len(pair[1])
        if size > MAX_IMAGE_LETTERS:
            raise ValueError(
                f"braid image has {size} letters after crossing {k}, over {MAX_IMAGE_LETTERS}"
            )
    return Endo(tuple(images))


def verify_braid_relations(rep: LocalRep) -> bool:
    """Check the two defining braid relations on the induced endomorphisms."""
    gens = [local_endo(rep, i) for i in range(1, rep.n)]
    for i in range(len(gens) - 1):
        g, h = gens[i], gens[i + 1]
        if g.compose(h).compose(g) != h.compose(g).compose(h):
            return False
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            if gens[i].compose(gens[j]) != gens[j].compose(gens[i]):
                return False
    return True


def check_pair_via_braid(tau: AutF2, kappa: AutF2) -> bool:
    """Whether two cores satisfy the braid relation on F_3: an independent
    cross-check of :func:`braidact.localrep.check_quad` on pairs of bases."""
    for phi in (tau, kappa):
        if not is_basis(phi.image_a, phi.image_b):
            raise ValueError(f"core ({phi}) is not a basis of F_2")
    return verify_braid_relations(LocalRep(3, (tau, kappa)))

"""Automorphisms of the rank-two free group as ordered image pairs.

An endomorphism a |-> image_a, b |-> image_b of F_2 is an automorphism
exactly when (image_a, image_b) is a basis.  The basis test is the
classical commutator criterion; greedy Nielsen reduction decides the same
question on its own while it builds a constructive inverse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .words import Word, word_sort_key

__all__ = [
    "AutF2",
    "aut_sort_key",
    "commutator",
    "is_basis",
    "nielsen_reduce",
]

_A = Word((1,))
_B = Word((2,))
_X2_X3 = (_B, Word((3,)))
# The cyclic words conjugate to [a, b] = abAB or to its inverse baBA.
_BASIS_COMMUTATORS = frozenset(
    w[k:] + w[:k] for w in ((1, 2, -1, -2), (2, 1, -2, -1)) for k in range(4)
)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def is_basis(image_a: Word, image_b: Word) -> bool:
    """Whether a |-> image_a, b |-> image_b extends to an automorphism of F_2.

    The pair is a basis exactly when the commutator of the images is
    conjugate to the commutator of the generators or to its inverse, that
    is, when its cyclic core is a rotation of abAB or of baBA.
    """
    for w in (image_a, image_b):
        if w.max_generator() > 2:
            raise ValueError("basis test is defined for words over a, b only")
    core, _ = commutator(image_a, image_b).cyclically_reduce()
    return len(core) == 4 and core.letters in _BASIS_COMMUTATORS


# The elementary multiplications, in a fixed tie-break order: either entry
# times the other entry or its inverse, on either side.  The other Nielsen
# moves (inverting an entry, swapping the two) keep the total length, so a
# greedy shortening never fires them.  The table is closed under inverses:
# "a<-ab" and "a<-aB" undo each other, as do "a<-ba" and "a<-Ba", and the
# same for b.
_MOVES = (
    ("a<-ab", lambda u, v: (u * v, v)),
    ("a<-aB", lambda u, v: (u * v.inverse(), v)),
    ("a<-ba", lambda u, v: (v * u, v)),
    ("a<-Ba", lambda u, v: (v.inverse() * u, v)),
    ("b<-ba", lambda u, v: (u, v * u)),
    ("b<-bA", lambda u, v: (u, v * u.inverse())),
    ("b<-ab", lambda u, v: (u, u * v)),
    ("b<-Ab", lambda u, v: (u, u.inverse() * v)),
)


def _greedy_reduce(u: Word, v: Word):
    """Greedily shorten (u, v) by elementary moves.  Returns the shortened
    pair, the move tags, and (a, b) taken through the same moves."""
    moves: list[str] = []
    mirror = (_A, _B)
    while True:
        total = len(u) + len(v)
        for tag, f in _MOVES:
            u2, v2 = f(u, v)
            if len(u2) + len(v2) < total:
                u, v = u2, v2
                mirror = f(*mirror)
                moves.append(tag)
                break
        else:
            return (u, v), tuple(moves), mirror


def nielsen_reduce(image_a: Word, image_b: Word) -> tuple[tuple[Word, Word], tuple[str, ...]]:
    """Greedily shorten a pair by elementary moves; returns (pair, move tags).

    A pair generates F_2 exactly when the reduction bottoms out at total
    length 2.
    """
    return _greedy_reduce(image_a, image_b)[:2]


@dataclass(frozen=True)
class AutF2:
    """An automorphism of F_2 = <a, b>, stored by its images of a and b."""

    image_a: Word
    image_b: Word

    @classmethod
    def identity(cls) -> AutF2:
        return cls(_A, _B)

    @classmethod
    def parse(cls, text: str) -> AutF2:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'A,B' core syntax, got {text!r}")
        return cls(Word.parse(parts[0]), Word.parse(parts[1]))

    def apply(self, w: Word) -> Word:
        return w.substitute((self.image_a, self.image_b))

    def compose(self, other: AutF2) -> AutF2:
        """Right-action composition: the result sends x to (x . self) . other."""
        return AutF2(other.apply(self.image_a), other.apply(self.image_b))

    def inverse(self) -> AutF2:
        """Invert by tracking preimages along a greedy Nielsen reduction, which
        ends at a and b (up to order and signs) exactly on a basis.  The
        result is kept on the instance, so each core is reduced once."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> AutF2:
        (u, v), _, mirrors = _greedy_reduce(self.image_a, self.image_b)
        if len(u) != 1 or len(v) != 1 or {abs(u.letters[0]), abs(v.letters[0])} != {1, 2}:
            raise ValueError(f"({self}) is not a basis of F_2; cannot invert")
        images: dict[int, Word] = {}
        for end, mirror in zip((u, v), mirrors):
            letter = end.letters[0]
            images[abs(letter)] = mirror if letter > 0 else mirror.inverse()
        return AutF2(images[1], images[2])

    @functools.cached_property
    def shifted(self) -> tuple[Word, Word]:
        """The two images one strand up, with a and b renamed x_2 and x_3.
        Kept on the instance like the inverse."""
        return self.image_a.substitute(_X2_X3), self.image_b.substitute(_X2_X3)

    def __str__(self) -> str:
        return f"{self.image_a.text(2)},{self.image_b.text(2)}"


def aut_sort_key(phi: AutF2) -> tuple:
    return (word_sort_key(phi.image_a), word_sort_key(phi.image_b))

"""Reduced words in finitely generated free groups.

A letter is a nonzero integer: ``+i`` is the i-th generator and ``-i``
its inverse.  Every :class:`Word` is stored freely reduced, so equality
of values is equality of group elements.

Text form: words over the first two generators use the compact letters
``a``/``b`` with capitals for inverses, so ``"abA"`` is a b a^-1; words
involving higher generators use whitespace-separated tokens such as
``"x1 X3"``.  The empty word renders as ``"1"``.
"""

from __future__ import annotations

import operator
import re
from itertools import islice
from typing import Iterable, Sequence

__all__ = ["Word", "word_sort_key"]

# Word.substitute refuses to write a word longer than this; words grow
# through substitution, exponentially with a braid's crossing count.
# endo_of_braid also bounds the sum of its images, and strand counts and
# catalog words longer than this are refused before they are built.
MAX_IMAGE_LETTERS = 1_000_000

_TOKEN = re.compile(r"([xX])([1-9][0-9]*)")
_CHARS = {"a": 1, "b": 2, "A": -1, "B": -2}
_CHARS_REV = {v: k for k, v in _CHARS.items()}


def _reduced(letters: Iterable[int]) -> tuple[int, ...]:
    # Single left-to-right cancellation pass; linear in the input.  Only raw
    # letters go through it: the group operations below build reduced words.
    stack: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a letter; use +i / -i for x_i and its inverse")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _word(letters: tuple[int, ...]) -> Word:
    # Trusted constructor: the letters are reduced by construction.
    w = Word.__new__(Word)
    w.letters = letters
    return w


class Word:
    """A freely reduced word.  Instances are immutable values.

    >>> Word((1, 2, -2))
    Word('a')
    >>> Word.parse("abb") * Word.parse("BB")
    Word('a')
    >>> Word.parse("aB").inverse()
    Word('bA')
    """

    __slots__ = ("letters",)

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int] = ()) -> None:
        self.letters = _reduced(letters)

    @classmethod
    def gen(cls, index: int, power: int = 1) -> Word:
        """The word ``x_index ** power``."""
        if index < 1:
            raise ValueError("generator index must be >= 1")
        letter = index if power >= 0 else -index
        return _word((letter,) * abs(power))

    @classmethod
    def parse(cls, text: str) -> Word:
        s = text.strip()
        if s in ("", "1"):
            return cls()
        if any(c.isdigit() for c in s):
            letters = []
            for tok in s.split():
                m = _TOKEN.fullmatch(tok)
                if m is None:
                    raise ValueError(f"bad word token {tok!r} (expected xK or XK)")
                index = int(m.group(2))
                letters.append(index if m.group(1) == "x" else -index)
            return cls(letters)
        try:
            return cls(_CHARS[c] for c in s)
        except KeyError as exc:
            raise ValueError(f"bad word character {exc.args[0]!r} in {text!r}") from None

    def text(self, rank: int | None = None) -> str:
        """Render the word; compact a/b form when the rank context is <= 2."""
        if not self.letters:
            return "1"
        r = self.max_generator() if rank is None else max(rank, self.max_generator())
        if r <= 2:
            return "".join(_CHARS_REV[l] for l in self.letters)
        return " ".join(("x" if l > 0 else "X") + str(abs(l)) for l in self.letters)

    # -- group structure ------------------------------------------------

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        # Reduced words cancel only where they meet, and only if the letters
        # there are inverse.  Then scan in C for the first mismatch of a read
        # backwards against b inverted; a full match raises ValueError.
        a, b = self.letters, other.letters
        if not (a and b and a[-1] == -b[0]):
            return _word(a + b)
        try:
            k = operator.indexOf(map(operator.ne, reversed(a), map(operator.neg, b)), True)
        except ValueError:
            k = min(len(a), len(b))
        return _word(a[: len(a) - k] + b[k:])

    def inverse(self) -> Word:
        return _word(tuple(map(operator.neg, reversed(self.letters))))

    def __pow__(self, n: int) -> Word:
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def substitute(self, images: Sequence[Word]) -> Word:
        """Replace x_i by images[i-1]; a homomorphism into the target group.

        Each image is reduced, so letters can cancel only where an image
        meets the output built so far.  Raises ValueError naming
        MAX_IMAGE_LETTERS as soon as that reduced output passes it, even if
        later images would cancel it back under: the output never holds more
        than the bound plus one image.
        """
        bound = MAX_IMAGE_LETTERS
        out: list[int] = []
        for letter in self.letters:
            try:
                img = images[abs(letter) - 1].letters
            except IndexError:
                raise ValueError(f"no image provided for generator x{abs(letter)}") from None
            if not img:
                continue
            if letter > 0:
                first, piece = img[0], img
            else:
                first, piece = -img[-1], map(operator.neg, reversed(img))
            if out and out[-1] == -first:
                # The piece cancels against out as in __mul__; undo is -piece.
                undo = map(operator.neg, img) if letter > 0 else reversed(img)
                try:
                    k = operator.indexOf(map(operator.ne, reversed(out), undo), True)
                except ValueError:
                    k = min(len(out), len(img))
                del out[-k:]
                piece = islice(piece, k, None)
            out.extend(piece)
            if len(out) > bound:
                raise ValueError(
                    f"a substituted word reached {len(out)} letters, "
                    f"over MAX_IMAGE_LETTERS ({bound})"
                )
        return _word(tuple(out))

    # -- letter-level transformations -------------------------------------

    def cyclically_reduce(self) -> tuple[Word, Word]:
        """Return (core, conjugator) with self = conjugator * core * conjugator^-1."""
        ls = self.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i] == -ls[j - 1]:
            i += 1
            j -= 1
        return _word(ls[i:j]), _word(ls[:i])

    def exponent_sum(self, gen: int) -> int:
        return self.letters.count(gen) - self.letters.count(-gen)

    def max_generator(self) -> int:
        ls = self.letters
        return max(max(ls), -min(ls)) if ls else 0

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


_LETTER_SWAP = {1: 2, 2: 1, -1: -2, -2: -1}


def _swapped_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    # a and b interchanged in reduced letters over a, b; still reduced.
    return tuple(map(_LETTER_SWAP.__getitem__, letters))


def word_sort_key(w: Word) -> tuple:
    """Length-lexicographic order with a < a^-1 < b < b^-1 < x3 < ..."""
    return _letters_sort_key(w.letters)


def _letters_sort_key(letters: tuple[int, ...]) -> tuple:
    # Letter l ranks 2|l| + (l < 0), so a < a^-1 < b < b^-1 < x3 < ...
    return (len(letters), tuple(2 * abs(l) + (l < 0) for l in letters))

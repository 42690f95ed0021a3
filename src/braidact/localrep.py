"""Local actions on the rank-three free group and their classification.

A quad is two endomorphisms of F_2, its cores tau: a|->A, b|->B and
kappa: a|->C, b|->D, written as the reduced words (A, B, C, D).  The
pair defines a braid-compatible local action on F_3 exactly when three
word equations hold and both pairs are bases.  This module checks those
equations, applies the three commuting symmetries (inverse, swap,
backward), emits the fourteen classified families, re-derives the
classification by bounded exhaustive search, and builds the successor
graph whose edge-paths enumerate local actions on F_n.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import words
from .autf2 import AutF2, aut_sort_key, is_basis
from .words import Word, _letters_sort_key, _swapped_letters, _word, word_sort_key

__all__ = [
    "ARTIN_CORE",
    "COMPONENT_KINDS",
    "FAMILY_TAGS",
    "FamilyId",
    "GammaEdge",
    "GammaGraph",
    "LocalRep",
    "PathError",
    "Quad",
    "QuadReport",
    "base_quad",
    "canonicalize",
    "catalog",
    "check_quad",
    "classify_search",
    "component_graph",
    "constant_rep",
    "identify_quad",
    "outgoing_cores",
    "quad_sort_key",
    "rep_from_cores",
    "symmetry_orbit",
]

_X, _Y, _Z = Word((1,)), Word((2,)), Word((3,))

ARTIN_CORE = AutF2(Word((1, 2, -1)), _X)


class PathError(ValueError):
    """A vertex sequence uses a pair that is not a valid adjacency."""


@dataclass(frozen=True)
class Quad:
    """Two rank-two endomorphisms, the cores tau: a|->A, b|->B and
    kappa: a|->C, b|->D, written (A, B, C, D)."""

    tau: AutF2
    kappa: AutF2

    @classmethod
    def parse(cls, text: str) -> Quad:
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 'A,B,C,D' quad syntax, got {text!r}")
        a, b, c, d = map(Word.parse, parts)
        return cls(AutF2(a, b), AutF2(c, d))

    @property
    def words(self) -> tuple[Word, Word, Word, Word]:
        return self.tau.image_a, self.tau.image_b, self.kappa.image_a, self.kappa.image_b

    def max_word_length(self) -> int:
        return max(len(w) for w in self.words)

    def __str__(self) -> str:
        return f"{self.tau},{self.kappa}"


@dataclass(frozen=True)
class QuadReport:
    """Outcome of the defining checks, condition by condition."""

    basis_ab: bool
    basis_cd: bool
    eq_t: bool
    eq_m: bool
    eq_b: bool

    def conditions(self) -> dict[str, bool]:
        """Each condition by name, in check order."""
        return {
            "aut_ab": self.basis_ab,
            "aut_cd": self.basis_cd,
            "T": self.eq_t,
            "M": self.eq_m,
            "B": self.eq_b,
        }

    @property
    def valid(self) -> bool:
        return all(self.conditions().values())

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.conditions().items() if not ok)


def _equations(tau: AutF2, kappa: AutF2) -> Iterator[bool]:
    """The three defining word equations (T, M, B) in F_3 for the cores
    tau = (a, b) and kappa = (c, d), evaluated lazily in that order, so
    ``all(...)`` stops at the first that fails.  c(y, z) and d(y, z) are
    kappa's images one strand up, kept on kappa.

    They are the braid relation 1 2 1 = 2 1 2 on F_3 = <x, y, z>, with tau
    crossing strands 1, 2 and kappa strands 2, 3, for any two
    endomorphisms.  Under the right action of
    :func:`braidact.braid.endo_of_braid`, with a and b short for a(x, y)
    and b(x, y), the six images are

        1 2 1:  x -> a(a, c(b, z)),  y -> b(a, c(b, z)),  z -> d(b, z)
        2 1 2:  x -> a(x, c(y, z)),  y -> c(b(x, c(y, z)), d(y, z)),
                z -> d(b(x, c(y, z)), d(y, z))

    and T, M and B say that the images of x, of y and of z agree.  A word
    past MAX_IMAGE_LETTERS letters is refused by :meth:`Word.substitute`.
    """
    a, b = tau.image_a, tau.image_b
    c, d = kappa.image_a, kappa.image_b
    c_yz, d_yz = kappa.shifted
    c_bz = c.substitute((b, _Z))
    yield a.substitute((a, c_bz)) == a.substitute((_X, c_yz))
    b_xc = b.substitute((_X, c_yz))
    yield b.substitute((a, c_bz)) == c.substitute((b_xc, d_yz))
    yield d.substitute((b, _Z)) == d.substitute((b_xc, d_yz))


def _adjacent_pairs(cores: Sequence[AutF2]) -> dict[tuple[AutF2, AutF2], int]:
    """Each distinct adjacent pair of cores, in order of first occurrence,
    with the position i of that occurrence (cores i and i + 1)."""
    first: dict[tuple[AutF2, AutF2], int] = {}
    for i, pair in enumerate(zip(cores, cores[1:]), start=1):
        first.setdefault(pair, i)
    return first


def check_quad(q: Quad) -> QuadReport:
    """Evaluate the three defining word equations in F_3 plus both basis tests.

    Failure is data, not an error: the report carries one flag per condition.
    A word over more than a, b is refused by the basis test, before any
    equation runs, and an oversized equation word by ``substitute``.
    :func:`rep_from_cores` decides each distinct adjacent pair of cores by
    this one check.
    """
    a, b, c, d = q.words
    return QuadReport(is_basis(a, b), is_basis(c, d), *_equations(q.tau, q.kappa))


# -- the three commuting symmetries -------------------------------------

# A basis pair as letter tuples, and a quad as its two basis pairs: the form
# the symmetries act on and the search compares.
_Pair = tuple[tuple[int, ...], tuple[int, ...]]
_Letters = tuple[_Pair, _Pair]


def _reversed(p: _Pair) -> _Pair:
    """Both words read backward: backward's action on one basis pair."""
    return p[0][::-1], p[1][::-1]


def _swapped(p: _Pair) -> _Pair:
    """(v, u) with a and b interchanged, for p = (u, v): swap sends a quad
    (p, p') to (swapped p', swapped p)."""
    return _swapped_letters(p[1]), _swapped_letters(p[0])


def _decorate(q: Quad, inv: bool, swap: bool, backward: bool) -> _Letters:
    """q under the flagged symmetries, applied in the order inverse, swap,
    backward.  Each core keeps its inverse."""
    tau, kappa = (q.tau.inverse(), q.kappa.inverse()) if inv else (q.tau, q.kappa)
    p = tau.image_a.letters, tau.image_b.letters
    p2 = kappa.image_a.letters, kappa.image_b.letters
    if swap:
        p, p2 = _swapped(p2), _swapped(p)
    if backward:
        p, p2 = _reversed(p), _reversed(p2)
    return p, p2


def _quad(q: _Letters) -> Quad:
    (a, b), (c, d) = q
    return Quad(AutF2(_word(a), _word(b)), AutF2(_word(c), _word(d)))


# (inv, swap, backward) flags; the symmetry images apply them in that order.
_DECORATIONS = tuple(itertools.product((False, True), repeat=3))


def _orbit(q: Quad) -> tuple[_Letters, ...]:
    """The 8 symmetry images of q, in _DECORATIONS order."""
    return tuple(_decorate(q, *flags) for flags in _DECORATIONS)


def _least(orbit: Iterable[_Letters]) -> Quad:
    """The least image under :func:`quad_sort_key`'s order; only it becomes a Quad."""
    return _quad(min(orbit, key=lambda q: tuple(_letters_sort_key(w) for p in q for w in p)))


def _require_valid(q: Quad, op: str) -> None:
    report = check_quad(q)
    if not report.valid:
        raise ValueError(f"{op}: quad ({q}) is not valid (fails {report.failures()})")


def symmetry_orbit(q: Quad) -> tuple[Quad, ...]:
    """The 8 symmetry images of a valid quad (duplicates possible)."""
    _require_valid(q, "symmetry_orbit")
    return tuple(map(_quad, _orbit(q)))


def quad_sort_key(q: Quad) -> tuple:
    return tuple(word_sort_key(w) for w in q.words)


def canonicalize(q: Quad) -> Quad:
    """Least symmetry image under the length-lexicographic word order."""
    _require_valid(q, "canonicalize")
    return _least(_orbit(q))


# -- the fourteen classified families ------------------------------------


# Each family's two cores as text, in catalog order.  The A families are
# templates in p = a^r and m = a^-r, so a^r b a^-r is "{p}b{m}".
_FAMILIES = {
    "T": ("a,b", "a,b"),
    "T'": ("a,B", "A,b"),
    "A1": ("{p}b{m},a", "{p}b{m},a"),
    "A2": ("{p}b{m},a", "{p}B{m},A"),
    "A3": ("{p}B{m},A", "{m}B{p},A"),
    "B1": ("B,a", "B,a"),
    "B2": ("B,a", "b,A"),
    "C1": ("aBa,a", "aBa,a"),
    "C2": ("aBa,a", "aba,A"),
    "C3": ("aba,A", "aba,A"),
    "D1": ("ABa,bba", "ABa,bba"),
    "D2": ("abA,bbA", "ABa,bba"),
    "D3": ("ABa,bba", "Aba,Abb"),
    "D4": ("abA,bbA", "Aba,Abb"),
}

FAMILY_TAGS = tuple(_FAMILIES)

_A_FAMILIES = ("A1", "A2", "A3")


def base_quad(family: str, r: int | None = None) -> Quad:
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {family!r}")
    if family in _A_FAMILIES and (r is None or r < 0):
        raise ValueError(f"family {family} needs a parameter r >= 0")
    if family not in _A_FAMILIES and r is not None:
        raise ValueError(f"family {family} takes no parameter r")
    if r is not None and 2 * r + 1 > words.MAX_IMAGE_LETTERS:
        raise ValueError(
            f"family {family} at r={r} has a word of {2 * r + 1} letters, "
            f"over MAX_IMAGE_LETTERS ({words.MAX_IMAGE_LETTERS})"
        )
    p, m = "a" * (r or 0), "A" * (r or 0)
    return Quad(*(AutF2.parse(text.format(p=p, m=m)) for text in _FAMILIES[family]))


# The two kinds of part after a family tag, each given at most once.  A
# decoration names inverse, swap and backward, each at most once, in that order.
_PART_GRAMMAR = {"parameter": re.compile(r"r=-?\d+"), "decoration": re.compile(r"-?s?(bw)?")}


@dataclass(frozen=True)
class FamilyId:
    """A family tag, its parameter when applicable, and a symmetry decoration."""

    family: str
    r: int | None = None
    inv: bool = False
    swap: bool = False
    backward: bool = False

    @classmethod
    def parse(cls, text: str) -> FamilyId:
        parts = text.split(":")
        family = parts[0]
        if family not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {family!r}")
        given: dict[str, str] = {}
        for part in filter(None, parts[1:]):
            kind = "parameter" if part.startswith("r=") else "decoration"
            if not _PART_GRAMMAR[kind].fullmatch(part):
                raise ValueError(f"bad {kind} {part!r} in {text!r}")
            if kind in given:
                raise ValueError(f"repeated {kind} {part!r} in {text!r}")
            given[kind] = part
        r = int(given["parameter"][2:]) if "parameter" in given else None
        decoration = given.get("decoration", "")
        return cls(family, r, "-" in decoration, "s" in decoration, "bw" in decoration)

    @property
    def decoration(self) -> str:
        return "-" * self.inv + "s" * self.swap + "bw" * self.backward

    def __str__(self) -> str:
        r = "" if self.r is None else f"r={self.r}"
        return ":".join(part for part in (self.family, r, self.decoration) if part)


def catalog(fid: FamilyId) -> Quad:
    """Exact quad for a (possibly decorated) family identifier."""
    return _quad(_decorate(base_quad(fid.family, fid.r), fid.inv, fid.swap, fid.backward))


@functools.cache
def _catalog_level(r: int) -> dict[AutF2, dict[AutF2, FamilyId]]:
    """The one read-only index for queries whose longest word has 2r+1
    letters: the decorated quads of every family whose longest word has that
    length (the fixed families at r = 0 or 1, the A families at r), added in
    catalog order.  Each first core maps to its second cores, each with its
    first identifier in catalog order.

    It answers :func:`identify_quad` and :func:`outgoing_cores`, and through
    them the successor graph and its components, with one lookup.  Every
    decorated family quad keeps its family's longest word length, in its
    first core too (the tests check r <= 6), so no other level can hold a
    query's family, and a query of even length has none.
    """
    level: dict[AutF2, dict[AutF2, FamilyId]] = {}
    for family in FAMILY_TAGS:
        fr = r if family in _A_FAMILIES else None
        base = base_quad(family, fr)
        if base.max_word_length() != 2 * r + 1:
            continue
        for flags, q in zip(_DECORATIONS, map(_quad, _orbit(base))):
            level.setdefault(q.tau, {}).setdefault(q.kappa, FamilyId(family, fr, *flags))
    return level


def _query_level(word_len: int) -> dict[AutF2, dict[AutF2, FamilyId]]:
    return _catalog_level((word_len - 1) // 2) if word_len % 2 else {}


def identify_quad(q: Quad) -> FamilyId | None:
    """First decorated family identifier whose quad equals q, if any."""
    return _query_level(q.max_word_length()).get(q.tau, {}).get(q.kappa)


# -- bounded exhaustive classification search ------------------------------

# A search whose 7 signed permutation matrices alone have more than this
# many basis pairs is refused before it builds any.  The search builds each
# basis pair once and joins it to few others, so the pairs bound its work.
# From word length 3 on, the other 4 matrices of _BRAID_MATRIX_PAIRS have as
# many as each of the 7, so length 15 builds 48,103 (30,611 counted), and
# length 17 (91,847 counted) is refused.
MAX_SEARCH_BASES = 60_000


# The exponent-sum matrix pairs (m, n) that the two cores of a valid quad can
# have: 18 pairs over 11 matrices.  A matrix (m0, m1, m2, m3) holds the
# exponent sums of a and b in the first word, then in the second.  Stage 1
# of classify_search proves that the abelianized braid relation leaves these
# and 16 pairs with an entry +-3, which hold no valid quad.
_BRAID_MATRIX_PAIRS = (
    ((1, 0, 0, 1), (1, 0, 0, 1)),
    ((1, 0, 0, -1), (-1, 0, 0, 1)),
    *(
        ((0, s, t, 0), (0, u, v, 0))
        for s, t, u, v in itertools.product((1, -1), repeat=4)
        if s * t == u * v
    ),
    *(((0, s, -s, 2), (0, u, -u, 2)) for s, u in itertools.product((1, -1), repeat=2)),
    *(((2, s, -s, 0), (2, u, -u, 0)) for s, u in itertools.product((1, -1), repeat=2)),
)


def _representative(m: tuple[int, ...]) -> tuple[Word, Word]:
    """One basis pair with exponent-sum matrix m (determinant +-1).

    Euclid on the a column, then one more move, takes the rows to a signed
    permutation matrix by row moves r_i <- r_i - q r_j; the pair of a^+-1
    and b^+-1 with that matrix is taken back through the moves in reverse,
    each undone by the Nielsen move w_i <- w_i w_j^q."""
    rows = [list(m[:2]), list(m[2:])]
    moves = []

    def move(i: int, q: int) -> None:
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[1 - i])]
        moves.append((i, q))

    while rows[0][0] and rows[1][0]:
        i = int(abs(rows[0][0]) < abs(rows[1][0]))
        move(i, rows[i][0] // rows[1 - i][0])
    j = int(rows[0][0] == 0)  # rows[j] is (+-1, y), rows[1 - j] is (0, +-1)
    move(j, rows[j][1] * rows[1 - j][1])
    pair = [Word((rows[0][0] + 2 * rows[0][1],)), Word((rows[1][0] + 2 * rows[1][1],))]
    for i, q in reversed(moves):
        pair[i] = pair[i] * pair[1 - i] ** q
    return pair[0], pair[1]


def _conjugate(u: tuple[int, ...], x: int) -> tuple[int, ...]:
    """x u x^-1 for reduced letters u: x cancels only at the two ends."""
    h = u[1:] if u and u[0] == -x else (x,) + u
    return h[:-1] if h and h[-1] == x else h + (-x,)


def _conjugates(pair: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    u, v = pair
    for x in (1, -1, 2, -2):
        yield _conjugate(u, x), _conjugate(v, x)


def _size(pair: tuple[tuple[int, ...], ...]) -> int:
    return max(len(pair[0]), len(pair[1]))


def _bases_with_matrix(m: tuple[int, ...], max_len: int) -> list[tuple[Word, Word]]:
    """Every basis pair with exponent-sum matrix m and both words of length
    <= max_len: the bounded simultaneous conjugates of one representative,
    found by descent and flood fill on letter tuples (see classify_search)."""
    pair = tuple(w.letters for w in _representative(m))
    while True:
        best = min(_conjugates(pair), key=_size)
        if _size(best) >= _size(pair):
            break
        pair = best
    if _size(pair) > max_len:
        return []
    out = [pair]
    seen = {pair}
    for pair in out:  # breadth first: the loop also visits the pairs it appends
        for c in _conjugates(pair):
            if c not in seen and _size(c) <= max_len:
                seen.add(c)
                out.append(c)
    return [(_word(u), _word(v)) for u, v in out]


def classify_search(max_len: int) -> set[Quad]:
    """All canonical classes of valid quads with word lengths <= max_len.

    The search runs in five stages, each doing its work once.

    1. Matrices.  A quad is valid exactly when its two cores satisfy the
       braid relation on F_3 (:func:`braidact.braid.check_pair_via_braid`),
       and abelianizing is multiplicative, so the exponent-sum matrices m
       and n of its cores, each of determinant +-1, satisfy E1 E2 E1 =
       E2 E1 E2 for E1 = diag(m, 1) and E2 = diag(1, n).  The relation
       word is a palindrome, so the row or column convention does not
       matter.  With m = (m0, m1, m2, m3), p = m1 m2, and likewise n and
       q = n1 n2, the entries of that 3x3 equation that do not hold
       identically are
         (1) m0^2 - m0 + p n0 = 0,
         (2) m1 = m2 = 0, or m0 + (m3 - 1) n0 = 0,
         (3) p + m3^2 n0 - m3 n0^2 - q = 0,
         (4) n1 = n2 = 0, or n3 + m3 (n0 - 1) = 0,
         (5) n3^2 - n3 + m3 q = 0.
       Their solutions are exactly 34 pairs, whatever the word length: the
       18 of ``_BRAID_MATRIX_PAIRS`` and 16 with an entry +-3, which hold
       no valid quad (see below).  Proof, calling a matrix diagonal when
       both its off-diagonal entries are 0:
       - m diagonal.  Then m0, m3 = +-1 and p = 0, so (1) gives m0 = 1.
         If m3 = 1 and n is not diagonal, (4) gives n3 = 1 - n0 and (3)
         gives q = n0 (1 - n0), so det n = 0; so n is diagonal, and (3)
         and (5) give n = I.  If m3 = -1 and n is not diagonal, (3), (4)
         and (5) give -4 n0 + 2 = 0; so n is diagonal, with n0 = -1 by (3)
         and n3 = 1 by (5).  These are 2 pairs.
       - m not diagonal, n diagonal.  Then n3 = 1 by (5), and m0 =
         n0 (1 - m3) by (2).  If n0 = 1, (3) gives det m = 0; if n0 = -1,
         (3) and (1) give -4 m3 + 2 = 0.  Neither can be.
       - Neither diagonal.  (2) and (4) give m0 = n0 (1 - m3) and n3 =
         m3 (1 - n0).  Put in p = m0 m3 - det m, q = n0 n3 - det n and
         t = (1 - n0)(m3 - 1): (3) becomes det m = det n = e, (1) becomes
         n0 (t - e) = 0 and (5) becomes m3 (t - e) = 0.  If n0 = m3 = 0,
         then m0 = n3 = 0 and p = q = -e: m = (0, s, s', 0) and n =
         (0, u, u', 0) with s s' = u u' = +-1, 8 pairs.  If n0 = 0 and
         m3 != 0, then t = m3 - 1 = e gives m3 = n3 = 2, e = 1 and m0 = 0:
         m = (0, s, -s, 2) and n = (0, u, -u, 2).  If m3 = 0 and n0 != 0,
         likewise m = (2, s, -s, 0) and n = (2, u, -u, 0).  If both are
         nonzero, t = e = +-1 makes both factors of t equal +-1, so n0 =
         m3 = 2 and e = -1, hence m0 = n3 = -2: m = (-2, s, s', 2) and
         n = (2, u, u', -2) with s s' = u u' = -3, 16 pairs.
       Theorem: these 16 blocks (a block is the quads of one matrix pair)
       hold no valid quad at any word length.  Proof, by a certificate in
       S3.  By Nielsen's theorem (stage 2) the basis pairs with matrix m
       are the (w u0 w^-1, w v0 w^-1), w in F_2, for (u0, v0) =
       ``_representative(m)``.  Send x, y, z to any X, Y, Z in S3: an
       equation that holds in F_3 holds there.  Each side of T, M and B
       evaluates the core words at points of S3^2, so it depends on w only
       through w's word function S3^2 -> S3, and there are 972 of those,
       the closure of the two coordinate projections under pointwise
       product.  For each of the 16 blocks and each of the 972^2 pairs of
       word functions, some point of S3^3 breaks T, M or B;
       ``tests/test_localrep.py::TestS3Certificate`` checks this.  Swap
       (stage 4) maps the 16 blocks onto each other, so the 18 that remain
       are closed under it.
       No matrix is listed per search: a word with exponent sums (x, y) has
       at least |x| + |y| letters, so a matrix with a row that does not fit
       in max_len has no basis pairs in stage 2, and its pairs add no
       candidates.  Before any of this, a search is refused whose 7
       signed permutation matrices alone have more than
       ``MAX_SEARCH_BASES`` basis pairs.  Those of I are the (w a w^-1,
       w b w^-1), one per w (stage 2).  w a w^-1 has length 2 |w'| + 1 for
       w' = w less its trailing power of a, likewise for b, and w ends in
       at most one of the two letters, so both fit in max_len exactly when
       |w| <= k = (max_len - 1) // 2: 2 3^k - 1 words.  A signed
       permutation matrix is the matrix of a letter renaming, which keeps
       word lengths and commutes with conjugation, so it has as many basis
       pairs as I.  The count 7 (2 3^k - 1) is grown only until it passes
       the budget, so no huge integer is built.
    2. Bases, for the 11 matrices of the table.  They are generated, not
       tested.  By Nielsen's theorem (Math. Ann. 78, 1918)
       the kernel of Aut(F_2) -> GL_2(Z) is Inn(F_2), so the basis pairs
       with matrix M are exactly the simultaneous conjugates
       (w u_0 w^-1, w v_0 w^-1) of one pair (u_0, v_0) with matrix M,
       distinct w giving distinct pairs.  Euclid builds (u_0, v_0).  On
       the Cayley tree of F_2, |w u w^-1| is the displacement d(p, u p) of
       p = w^-1, which is the translation length of u plus twice d(p,
       axis(u)), a convex function along every geodesic.  So is the
       maximum f(p) of the two words' lengths, and its sublevel set
       {f <= max_len} is a connected subtree.  A one-letter conjugation
       moves p to a neighbour, so a pair that no one-letter conjugation
       shortens (in max(|u|, |v|)) is a global minimum of f, and from it a
       flood fill over one-letter conjugations that keeps f <= max_len
       reaches every pair of the sublevel set and no other.  Both run on
       letter tuples, which also key each pair in stages 3 to 5.  From
       max_len = 3 on, each of the 11 matrices has 2 3^k - 1 basis pairs
       (the tests check this up to 17), so a search builds at most 11/7 of
       the count that stage 1 bounds.
    3. Join.  A homomorphism F_3 -> F_2 keeps an identity, so each block
       pairs its bases through four images of T and B, with a = A(x, y),
       b = B(x, y) and c(u, v) = C(u, v):
       - T, a(a, c(b, z)) = a(x, c(y, z)), under z -> 1, where c(u, 1) =
         u^n0: A(A, B^n0) = A(x, y^n0), so tau fixes A(a, b^n0).
       - B, d(b, z) = d(b(x, c(y, z)), d(y, z)), under x -> 1, where
         b(1, y) = y^m3: D(y^m3, z) = D(C(y, z)^m3, D(y, z)), so kappa
         fixes D(a^m3, b).
       - T under y -> 1: A(x^m0, C(x^m2, z)) = A(x, z^n1).  If m0 = 0 the
         left side is C(x^m2, z)^m1, so C = A(a^m2, b^n1)^m1.
       - B under y -> 1: D(x^m2, z) = D(B(x, z^n1), z^n3).  If n3 = 0 the
         right side is B(x, z^n1)^n2, so D = B(a^m2, b^n1)^n2.
       The last two take m1, m2 and n2 to be +-1, as they are in every
       block with m0 = 0 or n3 = 0.  So the 8 A-type blocks find at most
       one kappa per tau, by (C, D); the 8 blocks with an entry 2 find
       kappa by C alone and filter kappa, or by D alone and filter tau; the
       2 T blocks pair their filtered cores.  Every valid quad passes.
    4. Words, once per orbit of swap and backward.  The candidates are the
       quads of the table's matrix pairs, and they are closed under both
       symmetries.  Backward reads each word backward, which keeps every
       word length and exponent-sum matrix, and takes a basis pair to a
       basis pair (its words are the inverses of the pair's image under a
       -> a^-1, b -> b^-1).  Swap sends a quad (p, p') to (s p', s p),
       where s(u, v) = (v, u) with a and b interchanged, so it keeps word
       lengths and sends the matrix pair (m, n) to (rot n, rot m), rot
       reversing the four entries; s is a bijection from the bases of m
       onto those of rot m, and the table is closed under (m, n) ->
       (rot n, rot m).  Both symmetries keep validity, so every valid quad
       is in the orbit of a valid candidate that is least, by letter tuples,
       among its at most four images.  That candidate passes the join, and
       only such least joined quads meet the word equations.  Each basis
       pair's reversal and swap image are computed once, so the test is
       three tuple comparisons.  The
       equations are evaluated lazily in the order T, M, B, so a quad costs
       no more equations than its first failure; the basis tests are
       already known.  A second core keeps its images one strand up,
       c(y, z) and d(y, z), once computed, so beyond them a quad failing T
       costs three substitutions.
    5. Orbits.  A valid quad, the first candidate made a :class:`Quad`,
       gives its 8 symmetry images from its two cores and their inverses,
       as letter tuples; the least is its class and the only image that
       becomes a Quad, and later quads of the same orbit are skipped
       unchecked, since they are valid too.  Each core keeps its inverse,
       so each basis pair is inverted at most once per search, and at most
       two per class.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    # The 7 signed permutation matrices' 2 3^j - 1 basis pairs each, from
    # j = 0 up to (max_len - 1) // 2.
    perm_bases, k = 1, (max_len - 1) // 2
    while k and 7 * perm_bases <= MAX_SEARCH_BASES:
        perm_bases, k = 3 * perm_bases + 2, k - 1
    if 7 * perm_bases > MAX_SEARCH_BASES:
        raise ValueError(
            f"classification search refused: at least {7 * perm_bases} basis pairs "
            f"exceeds the budget of {MAX_SEARCH_BASES}"
        )
    bases = {}
    for m in {m for pair in _BRAID_MATRIX_PAIRS for m in pair}:
        bases[m] = []
        for a, b in _bases_with_matrix(m, max_len):
            p = a.letters, b.letters
            r = _reversed(p)
            bases[m].append((p, r, _swapped(p), _swapped(r), AutF2(a, b)))
    found, seen = set(), set()
    # Per first matrix and n0, the bases that pass T under z -> 1 and are no
    # greater than their reversal (a quad (p, p2) with p > p_r exceeds its
    # backward image).  Per second matrix, the bases by the words a block
    # forces on them, and B under x -> 1 once per basis pair and m3 (stage 3).
    taus: dict[tuple, list] = {}
    indexes: dict[tuple, dict[tuple, list]] = {}
    kappa_kept: dict[tuple[_Pair, int], bool] = {}
    for m, n in _BRAID_MATRIX_PAIRS:
        n0, m3, forced = n[0], m[3], (m[0] == 0, n[3] == 0)
        if (m, n0) not in taus:
            taus[m, n0] = [
                e for e in bases[m] if e[0] <= e[1] and (not n0 or _t_without_z(e[4], n0))
            ]
        if (n, forced) not in indexes:
            index = indexes[n, forced] = {}
            for e in bases[n]:
                index.setdefault(tuple(w for w, f in zip(e[0], forced) if f), []).append(e)
        index = indexes[n, forced]
        for p, p_r, p_s, p_rs, tau in taus[m, n0]:
            for p2, p2_r, p2_s, p2_rs, kappa in index.get(_forced_by_y(tau, m, n), ()):
                # The quad against its backward, swap and swap-backward images.
                q = p, p2
                if not ((p < p_r or p2 <= p2_r) and q <= (p2_s, p_s) and q <= (p2_rs, p_rs)):
                    continue
                if m3 and (p2, m3) not in kappa_kept:
                    kappa_kept[p2, m3] = _b_without_x(kappa, m3)
                if (
                    (not m3 or kappa_kept[p2, m3])
                    and q not in seen
                    and all(_equations(tau, kappa))
                ):
                    orbit = _orbit(Quad(tau, kappa))
                    seen.update(orbit)
                    found.add(_least(orbit))
    return found


def _t_without_z(tau: AutF2, n0: int) -> bool:
    """T under z -> 1: whether tau fixes A(a, b^n0)."""
    w = tau.image_a.substitute((_X, Word.gen(2, n0)))
    return tau.apply(w) == w


def _b_without_x(kappa: AutF2, m3: int) -> bool:
    """B under x -> 1: whether kappa fixes D(a^m3, b)."""
    w = kappa.image_b.substitute((Word.gen(1, m3), _Y))
    return kappa.apply(w) == w


def _forced_by_y(tau: AutF2, m: tuple[int, ...], n: tuple[int, ...]) -> tuple:
    """The words that T and B under y -> 1 force on kappa in the block
    (m, n), as letter tuples: C = A(a^m2, b^n1)^m1 if m0 = 0, then
    D = B(a^m2, b^n1)^n2 if n3 = 0."""
    images = Word.gen(1, m[2]), Word.gen(2, n[1])
    forced = ()
    if m[0] == 0:
        c = tau.image_a.substitute(images)
        forced += ((c if m[1] > 0 else c.inverse()).letters,)
    if n[3] == 0:
        d = tau.image_b.substitute(images)
        forced += ((d if n[2] > 0 else d.inverse()).letters,)
    return forced


# -- representations as core sequences -------------------------------------


@dataclass(frozen=True)
class LocalRep:
    """Cores (tau_1, ..., tau_{n-1}) of a local action on F_n, checked for
    their count only; :func:`rep_from_cores` checks that they define one."""

    n: int
    cores: tuple[AutF2, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        if len(self.cores) != self.n - 1:
            raise ValueError(f"{self.n} strands need {self.n - 1} cores, got {len(self.cores)}")


def rep_from_cores(cores: Sequence[AutF2]) -> LocalRep:
    """The rep with these cores, for example the vertices of an edge-path of
    the successor graph in order.  Each distinct adjacent pair is decided
    once by :func:`check_quad`, in order of first occurrence, which is strand
    order, so a constant rep costs one check at any n; raises PathError on
    the first bad pair.  A lone core gets one basis test."""
    rep = LocalRep(len(cores) + 1, tuple(cores))
    if len(rep.cores) == 1 and not is_basis(rep.cores[0].image_a, rep.cores[0].image_b):
        raise PathError(f"core 1 ({rep.cores[0]}) is not a basis of F_2")
    for (prev, core), i in _adjacent_pairs(rep.cores).items():
        if not check_quad(Quad(prev, core)).valid:
            raise PathError(
                f"cores {i} and {i + 1} (({prev}); ({core})) do not define a local action"
            )
    return rep


def constant_rep(core: AutF2, n: int) -> LocalRep:
    """The rep with every core equal (requires a self-adjacency for n >= 3),
    refused before any core is repeated past MAX_IMAGE_LETTERS strands."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    if n > words.MAX_IMAGE_LETTERS:
        raise ValueError(f"strand count {n} is over MAX_IMAGE_LETTERS ({words.MAX_IMAGE_LETTERS})")
    return rep_from_cores((core,) * (n - 1))


# -- the successor graph ----------------------------------------------------


@dataclass(frozen=True)
class GammaEdge:
    src: AutF2
    dst: AutF2
    label: str


@dataclass(frozen=True)
class GammaGraph:
    vertices: tuple[AutF2, ...]
    edges: tuple[GammaEdge, ...]

    def to_dot(self) -> str:
        lines = ["digraph gamma {"]
        for v in self.vertices:
            lines.append(f'  "({v})";')
        for e in self.edges:
            lines.append(f'  "({e.src})" -> "({e.dst})" [label="{e.label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# A component's kind is a family tag without its number.
COMPONENT_KINDS = tuple(dict.fromkeys(tag.rstrip("0123456789") for tag in FAMILY_TAGS))


def component_graph(kind: str, r: int | None = None) -> GammaGraph:
    """One connected component of the successor graph: the cores reachable by
    :func:`outgoing_cores` from the first core of the kind's first family (T,
    T', A1 at r, B1, C1 or D1), sorted by :func:`aut_sort_key`, and every
    edge between them, self-loops included, labelled as outgoing_cores labels
    it.  Each vertex reads the catalog index once."""
    if kind not in COMPONENT_KINDS:
        raise ValueError(f"unknown component {kind!r} (one of {', '.join(COMPONENT_KINDS)})")
    if kind == "A":
        if r is None or r < 0:
            raise ValueError("component A needs a parameter r >= 0")
    elif r is not None:
        raise ValueError(f"component {kind} takes no parameter r")
    targets: dict[AutF2, dict[AutF2, FamilyId]] = {}
    queue = [base_quad(kind if kind in FAMILY_TAGS else kind + "1", r).tau]
    for v in queue:  # breadth first: the loop also visits the vertices it appends
        if v not in targets:
            targets[v] = dict(outgoing_cores(v))
            queue += targets[v]
    verts = tuple(sorted(targets, key=aut_sort_key))
    edges = [GammaEdge(v, w, str(targets[v][w])) for v in verts for w in verts if w in targets[v]]
    return GammaGraph(verts, tuple(edges))


def outgoing_cores(core: AutF2) -> tuple[tuple[AutF2, FamilyId], ...]:
    """All successors of a core, found by matching decorated family quads.

    Every valid pair is a symmetry image of a classified family, so the
    decorated quads whose first core equals `core` give the full outgoing
    edge set, self-loop included; each target keeps its first identifier.
    """
    level = _query_level(max(len(core.image_a), len(core.image_b)))
    return tuple(level.get(core, {}).items())

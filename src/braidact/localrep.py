"""Local actions on the rank-three free group and their classification.

A quadruple of reduced words (A, B, C, D) over {a, b} encodes two
endomorphisms of F_2 — tau: a|->A, b|->B and kappa: a|->C, b|->D.  The
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

from .autf2 import AutF2, aut_sort_key, is_basis
from .words import Word, _word, word_sort_key

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
    "backward_dual",
    "base_quad",
    "build_gamma",
    "canonicalize",
    "catalog",
    "check_quad",
    "classify_search",
    "component_vertices",
    "constant_rep",
    "identify_quad",
    "inverse_rep",
    "outgoing_cores",
    "quad_sort_key",
    "rep_from_cores",
    "swap_dual",
    "symmetry_orbit",
]

_X, _Z = Word((1,)), Word((3,))

ARTIN_CORE = AutF2(Word((1, 2, -1)), _X)


class PathError(ValueError):
    """A vertex sequence uses a pair that is not a valid adjacency."""


@dataclass(frozen=True)
class Quad:
    """Images (A, B, C, D) of two rank-two endomorphisms."""

    a: Word
    b: Word
    c: Word
    d: Word

    @classmethod
    def parse(cls, text: str) -> Quad:
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 'A,B,C,D' quad syntax, got {text!r}")
        return cls(*(Word.parse(p) for p in parts))

    @classmethod
    def from_cores(cls, tau: AutF2, kappa: AutF2) -> Quad:
        return cls(tau.image_a, tau.image_b, kappa.image_a, kappa.image_b)

    @property
    def tau(self) -> AutF2:
        return AutF2(self.a, self.b)

    @property
    def kappa(self) -> AutF2:
        return AutF2(self.c, self.d)

    @property
    def words(self) -> tuple[Word, Word, Word, Word]:
        return (self.a, self.b, self.c, self.d)

    def max_word_length(self) -> int:
        return max(len(w) for w in self.words)

    def __str__(self) -> str:
        return ",".join(w.text(2) for w in self.words)


@dataclass(frozen=True)
class QuadReport:
    """Outcome of the defining checks, condition by condition."""

    quad: Quad
    basis_ab: bool
    basis_cd: bool
    eq_t: bool
    eq_m: bool
    eq_b: bool

    @property
    def valid(self) -> bool:
        return self.basis_ab and self.basis_cd and self.eq_t and self.eq_m and self.eq_b

    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.basis_ab:
            out.append("Aut(A,B)")
        if not self.basis_cd:
            out.append("Aut(C,D)")
        if not self.eq_t:
            out.append("T")
        if not self.eq_m:
            out.append("M")
        if not self.eq_b:
            out.append("B")
        return tuple(out)


def _equations(tau: AutF2, kappa: AutF2) -> Iterator[bool]:
    """The three defining word equations (T, M, B) in F_3 for the cores
    tau = (a, b) and kappa = (c, d), evaluated lazily in that order, so
    ``all(...)`` stops at the first that fails.  c(y, z) and d(y, z) are
    kappa's images one strand up, kept on kappa."""
    a, b = tau.image_a, tau.image_b
    c, d = kappa.image_a, kappa.image_b
    c_yz, d_yz = kappa.shifted
    c_bz = c.substitute((b, _Z))
    yield a.substitute((a, c_bz)) == a.substitute((_X, c_yz))
    b_xc = b.substitute((_X, c_yz))
    yield b.substitute((a, c_bz)) == c.substitute((b_xc, d_yz))
    yield d.substitute((b, _Z)) == d.substitute((b_xc, d_yz))


def check_quad(a: Word, b: Word, c: Word, d: Word) -> QuadReport:
    """Evaluate the three defining word equations in F_3 plus both basis tests.

    Failure is data, not an error: the report carries one flag per condition.
    """
    for w in (a, b, c, d):
        if w.max_generator() > 2:
            raise ValueError("quad words must be over a, b")
    q = Quad(a, b, c, d)
    return QuadReport(q, is_basis(a, b), is_basis(c, d), *_equations(q.tau, q.kappa))


# -- the three commuting symmetries -------------------------------------


def _inverse_quad(q: Quad) -> Quad:
    return Quad.from_cores(q.tau.inverse(), q.kappa.inverse())


def _swap_quad(q: Quad) -> Quad:
    return Quad(
        q.d.swap_letters(), q.c.swap_letters(), q.b.swap_letters(), q.a.swap_letters()
    )


def _backward_quad(q: Quad) -> Quad:
    return Quad(*(w.reverse() for w in q.words))


def _require_valid(q: Quad, op: str) -> None:
    report = check_quad(*q.words)
    if not report.valid:
        raise ValueError(f"{op}: quad ({q}) is not valid (fails {report.failures()})")


def inverse_rep(q: Quad) -> Quad:
    """Quad of the inverted cores; an involution on valid quads."""
    _require_valid(q, "inverse_rep")
    return _inverse_quad(q)


def swap_dual(q: Quad) -> Quad:
    """(D, C, B, A) with a and b interchanged; an involution on valid quads."""
    _require_valid(q, "swap_dual")
    return _swap_quad(q)


def backward_dual(q: Quad) -> Quad:
    """Each word read backward; an involution on valid quads."""
    _require_valid(q, "backward_dual")
    return _backward_quad(q)


# (inv, swap, backward) flags; the symmetry images apply them in that order.
_DECORATIONS = tuple(itertools.product((False, True), repeat=3))


def _decorate(q: Quad, inv: bool, swap: bool, backward: bool) -> Quad:
    if inv:
        q = _inverse_quad(q)
    if swap:
        q = _swap_quad(q)
    if backward:
        q = _backward_quad(q)
    return q


def _orbit(tau: AutF2, kappa: AutF2) -> tuple[Quad, ...]:
    # The inverse is the only costly symmetry; each core keeps its own.
    q, q_inv = Quad.from_cores(tau, kappa), Quad.from_cores(tau.inverse(), kappa.inverse())
    return tuple(
        _decorate(q_inv if inv else q, False, swap, backward)
        for inv, swap, backward in _DECORATIONS
    )


def symmetry_orbit(q: Quad) -> tuple[Quad, ...]:
    """The 8 symmetry images of a valid quad (duplicates possible)."""
    _require_valid(q, "symmetry_orbit")
    return _orbit(q.tau, q.kappa)


def quad_sort_key(q: Quad) -> tuple:
    return tuple(word_sort_key(w) for w in q.words)


def canonicalize(q: Quad) -> Quad:
    """Least symmetry image under the length-lexicographic word order."""
    return min(symmetry_orbit(q), key=quad_sort_key)


# -- the fourteen classified families ------------------------------------


def _family_texts(r: int) -> dict[str, tuple[str, str, str, str]]:
    """Each family's quad as four words of text, in catalog order, with the
    A families written at r: a^r b a^-r is ``p + "b" + m``."""
    p, m = "a" * r, "A" * r
    return {
        "T": ("a", "b", "a", "b"),
        "T'": ("a", "B", "A", "b"),
        "A1": (p + "b" + m, "a", p + "b" + m, "a"),
        "A2": (p + "b" + m, "a", p + "B" + m, "A"),
        "A3": (p + "B" + m, "A", m + "B" + p, "A"),
        "B1": ("B", "a", "B", "a"),
        "B2": ("B", "a", "b", "A"),
        "C1": ("aBa", "a", "aBa", "a"),
        "C2": ("aBa", "a", "aba", "A"),
        "C3": ("aba", "A", "aba", "A"),
        "D1": ("ABa", "bba", "ABa", "bba"),
        "D2": ("abA", "bbA", "ABa", "bba"),
        "D3": ("ABa", "bba", "Aba", "Abb"),
        "D4": ("abA", "bbA", "Aba", "Abb"),
    }


FAMILY_TAGS = tuple(_family_texts(0))

_A_FAMILIES = ("A1", "A2", "A3")


def base_quad(family: str, r: int | None = None) -> Quad:
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {family!r}")
    if family in _A_FAMILIES and (r is None or r < 0):
        raise ValueError(f"family {family} needs a parameter r >= 0")
    if family not in _A_FAMILIES and r is not None:
        raise ValueError(f"family {family} takes no parameter r")
    return Quad(*(Word.parse(t) for t in _family_texts(r or 0)[family]))


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
    return _decorate(base_quad(fid.family, fid.r), fid.inv, fid.swap, fid.backward)


@functools.cache
def _catalog_level(r: int | None) -> dict[AutF2, dict[AutF2, FamilyId]]:
    """The one read-only index for queries whose longest word has L letters:
    level None (L even) holds the fixed families, and level r (L = 2r+1) a
    copy of it plus the A families at r.  Each first core maps to its second
    cores, each with its first identifier in catalog order.

    It answers :func:`identify_quad` and :func:`outgoing_cores`, and through
    them the successor graph and its components, with one lookup.  Every
    decorated A quad at r has max word length 2r+1, in its first core too,
    so no other level can hold a query's family.  No first core of an A
    family at r is a first core of a fixed family (the tests check r <= 3;
    for r >= 2 an A first core has a word of 2r+1 >= 5 letters, the fixed
    families none longer than 3), so the copied and the added entries never
    share an inner dict, and each inner dict is in catalog order as built.
    """
    if r is None:
        level, families = {}, [f for f in FAMILY_TAGS if f not in _A_FAMILIES]
    else:
        level = {core: dict(targets) for core, targets in _catalog_level(None).items()}
        families = _A_FAMILIES
    for family in families:
        base = base_quad(family, r)
        for flags, q in zip(_DECORATIONS, _orbit(base.tau, base.kappa)):
            level.setdefault(q.tau, {}).setdefault(q.kappa, FamilyId(family, r, *flags))
    return level


def _query_level(word_len: int) -> dict[AutF2, dict[AutF2, FamilyId]]:
    return _catalog_level((word_len - 1) // 2 if word_len % 2 else None)


def identify_quad(q: Quad) -> FamilyId | None:
    """First decorated family identifier whose quad equals q, if any."""
    return _query_level(q.max_word_length()).get(q.tau, {}).get(q.kappa)


# -- bounded exhaustive classification search ------------------------------

# Past this many quads the search refuses before checking any word equation.
MAX_SEARCH_QUADS = 10_000_000

def _matrices(max_len: int) -> list[tuple[int, int, int, int]]:
    """Every integer matrix (u_a, u_b, v_a, v_b) of determinant +-1 whose two
    rows have |entries| summing to <= max_len: the exponent-sum matrices that
    a basis pair of words of length <= max_len can have."""
    rows = [
        (x, y)
        for x in range(-max_len, max_len + 1)
        for y in range(abs(x) - max_len, max_len - abs(x) + 1)
    ]
    return [(ua, ub, va, vb) for ua, ub in rows for va, vb in rows if abs(ua * vb - ub * va) == 1]


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


def _abelian_braid(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    """Whether E1 = diag(m, 1) and E2 = diag(1, n), the exponent-sum
    matrices of the 1-local and 2-local maps, satisfy E1 E2 E1 = E2 E1 E2.

    The five conditions are the entries of that 3x3 equation written out;
    the others hold identically."""
    m0, m1, m2, m3 = m
    n0, n1, n2, n3 = n
    p, q = m1 * m2, n1 * n2
    return (
        m0 * m0 - m0 + p * n0 == 0
        and (m1 == m2 == 0 or m0 + m3 * n0 - n0 == 0)
        and p + m3 * m3 * n0 - m3 * n0 * n0 - q == 0
        and (n1 == n2 == 0 or m3 * n0 - m3 + n3 == 0)
        and n3 * n3 - n3 + m3 * q == 0
    )


def _braid_matrix_pairs(
    matrices: list[tuple[int, ...]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (m, n) of the given matrices that pass :func:`_abelian_braid`.

    Its first condition, c + p n0 = 0 with c = m0^2 - m0 and p = m1 m2,
    fixes n0 when p != 0, and holds for every n or for none when p = 0.  If
    it holds for every n and m is not diagonal, the second condition,
    m0 + (m3 - 1) n0 = 0, fixes n0 when m3 != 1.  A fixed n0 is looked up;
    a condition that fixes none passes every matrix or none."""
    by_n0: dict[int, list[tuple[int, ...]]] = {}
    for n in matrices:
        by_n0.setdefault(n[0], []).append(n)
    out = []
    for m in matrices:
        m0, m1, m2, m3 = m
        c, p = m0 * m0 - m0, m1 * m2
        # The condition alpha + beta n0 = 0 that is solved for n0.
        alpha, beta = (c, p) if p or c or not (m1 or m2) else (m0, m3 - 1)
        if beta:
            n0, rest = divmod(-alpha, beta)
            tried = [] if rest else by_n0.get(n0, [])
        else:
            tried = [] if alpha else matrices
        out += [(m, n) for n in tried if _abelian_braid(m, n)]
    return out


def classify_search(max_len: int) -> set[Quad]:
    """All canonical classes of valid quads with word lengths <= max_len.

    The search runs in four stages, each doing its work once.

    1. Matrices.  A basis pair (u, v) of words of length <= max_len has an
       exponent-sum matrix (u_a, u_b, v_a, v_b) of determinant +-1 with
       |u_a| + |u_b| <= max_len and |v_a| + |v_b| <= max_len; these
       finitely many matrices are listed.  Each pair of them is tested
       against the abelianized braid relation E1 E2 E1 = E2 E1 E2 in
       closed form.  This is sound: a quad is valid exactly when its two
       cores satisfy the braid relation on F_3
       (:func:`braidact.braid.check_pair_via_braid`), and abelianizing is
       multiplicative.  The relation word is a palindrome, so the row or
       column convention does not matter.
    2. Bases, only for the matrices of surviving pairs.  They are
       generated, not tested.  By Nielsen's theorem (Math. Ann. 78, 1918)
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
       letter tuples, which also key each pair in stages 3 and 4.  Once the
       bases are built, a search over more than ``MAX_SEARCH_QUADS`` quads
       is refused with ValueError before any word equation runs.
    3. Words.  Each basis pair becomes one :class:`AutF2`, and only the
       quads of surviving matrix pairs meet the three word equations,
       evaluated lazily in the order T, M, B, so a quad costs no more
       equations than its first failure; their basis tests are already
       known.  A second core keeps its images one strand up, c(y, z) and
       d(y, z), once computed, so beyond them a quad failing T costs three
       substitutions.
    4. Orbits.  A valid quad's 8 symmetry images come from its two cores
       and their inverses; the least is its class, and later quads of the
       same orbit are skipped unchecked, since they are valid too.  Each
       core keeps its inverse, so each basis pair is inverted at most once
       per search, and only valid quads become :class:`Quad` values.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    pairs = _braid_matrix_pairs(_matrices(max_len))
    bases = {
        m: [((a.letters, b.letters), AutF2(a, b)) for a, b in _bases_with_matrix(m, max_len)]
        for m in {m for pair in pairs for m in pair}
    }
    quads = sum(len(bases[m]) * len(bases[n]) for m, n in pairs)
    if quads > MAX_SEARCH_QUADS:
        raise ValueError(
            f"classification search refused: {quads} quads exceeds the budget "
            f"of {MAX_SEARCH_QUADS}"
        )
    found, seen = set(), set()
    for m, n in pairs:
        for (ab, tau), (cd, kappa) in itertools.product(bases[m], bases[n]):
            if (ab, cd) not in seen and all(_equations(tau, kappa)):
                orbit = _orbit(tau, kappa)
                seen.update(((q.a.letters, q.b.letters), (q.c.letters, q.d.letters)) for q in orbit)
                found.add(min(orbit, key=quad_sort_key))
    return found


# -- representations as core sequences -------------------------------------


@dataclass(frozen=True)
class LocalRep:
    """Cores (tau_1, ..., tau_{n-1}) of a local action on F_n."""

    n: int
    cores: tuple[AutF2, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("strand count must be >= 1")
        if len(self.cores) != self.n - 1:
            raise ValueError(f"{self.n} strands need {self.n - 1} cores, got {len(self.cores)}")

    def validate(self) -> None:
        """Check that every core is a basis of F_2, each by one basis test, and
        every adjacent pair by the three word equations; raises PathError on
        the first bad pair, in strand order, or on a lone bad core."""
        bases = []
        for i, core in enumerate(self.cores):
            bases.append(is_basis(core.image_a, core.image_b))
            if i == 0:
                continue
            prev = self.cores[i - 1]
            if not (bases[i - 1] and bases[i] and all(_equations(prev, core))):
                raise PathError(
                    f"cores {i} and {i + 1} (({prev}); ({core})) do not define a local action"
                )
        for i, (core, basis) in enumerate(zip(self.cores, bases), start=1):
            if not basis:
                raise PathError(f"core {i} ({core}) is not a basis of F_2")


def rep_from_cores(cores: Sequence[AutF2]) -> LocalRep:
    """The validated rep with these cores, for example the vertices of an
    edge-path of the successor graph in order."""
    rep = LocalRep(len(cores) + 1, tuple(cores))
    rep.validate()
    return rep


def constant_rep(core: AutF2, n: int) -> LocalRep:
    """The rep with every core equal (requires a self-adjacency for n >= 3)."""
    rep = LocalRep(n, (core,) * (n - 1))
    rep.validate()
    return rep


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


def build_gamma(vertices: Iterable[AutF2]) -> GammaGraph:
    """Every edge of the successor graph between the given vertices, self-loops
    included, labelled as :func:`outgoing_cores` labels it."""
    verts = tuple(sorted(set(vertices), key=aut_sort_key))
    for v in verts:
        if not is_basis(v.image_a, v.image_b):
            raise ValueError(f"vertex ({v}) is not a basis of F_2")
    edges = []
    for v in verts:
        targets = dict(outgoing_cores(v))
        edges += [GammaEdge(v, w, str(targets[w])) for w in verts if w in targets]
    return GammaGraph(verts, tuple(edges))


COMPONENT_KINDS = ("T", "T'", "A", "B", "C", "D")


def component_vertices(kind: str, r: int | None = None) -> tuple[AutF2, ...]:
    """Vertex set of one connected component of the classification graph: the
    cores reachable by :func:`outgoing_cores` from the first core of the
    kind's first family (T, T', A1 at r, B1, C1 or D1), in breadth-first order.
    """
    if kind not in COMPONENT_KINDS:
        raise ValueError(f"unknown component {kind!r} (one of {', '.join(COMPONENT_KINDS)})")
    if kind == "A":
        if r is None or r < 0:
            raise ValueError("component A needs a parameter r >= 0")
    elif r is not None:
        raise ValueError(f"component {kind} takes no parameter r")
    out = [base_quad(kind if kind in FAMILY_TAGS else kind + "1", r).tau]
    for v in out:  # breadth first: the loop also visits the vertices it appends
        for w, _ in outgoing_cores(v):
            if w not in out:
                out.append(w)
    return tuple(out)


def outgoing_cores(core: AutF2) -> tuple[tuple[AutF2, FamilyId], ...]:
    """All successors of a core, found by matching decorated family quads.

    Every valid pair is a symmetry image of a classified family, so the
    decorated quads whose first core equals `core` give the full outgoing
    edge set, self-loop included; each target keeps its first identifier.
    """
    level = _query_level(max(len(core.image_a), len(core.image_b)))
    return tuple(level.get(core, {}).items())

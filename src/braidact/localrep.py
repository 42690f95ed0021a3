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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .autf2 import _MOVES, AutF2, aut_sort_key, is_basis
from .words import Word, word_sort_key

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
    "can_extend",
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
    "rep_from_path",
    "swap_dual",
    "symmetry_orbit",
]

_X, _Y, _Z = Word((1,)), Word((2,)), Word((3,))
_A, _B = Word((1,)), Word((2,))

ARTIN_CORE = AutF2(Word((1, 2, -1)), _A)


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


def _equations(a: Word, b: Word, c: Word, d: Word) -> tuple[bool, bool, bool]:
    """The three defining word equations (T, M, B) in F_3."""
    c_yz = c.substitute((_Y, _Z))
    d_yz = d.substitute((_Y, _Z))
    c_bz = c.substitute((b, _Z))
    b_xc = b.substitute((_X, c_yz))
    return (
        a.substitute((a, c_bz)) == a.substitute((_X, c_yz)),
        b.substitute((a, c_bz)) == c.substitute((b_xc, d_yz)),
        d.substitute((b, _Z)) == d.substitute((b_xc, d_yz)),
    )


def check_quad(a: Word, b: Word, c: Word, d: Word) -> QuadReport:
    """Evaluate the three defining word equations in F_3 plus both basis tests.

    Failure is data, not an error: the report carries one flag per condition.
    """
    for w in (a, b, c, d):
        if w.max_generator() > 2:
            raise ValueError("quad words must be over a, b")
    return QuadReport(Quad(a, b, c, d), is_basis(a, b), is_basis(c, d), *_equations(a, b, c, d))


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


def _orbit(q: Quad) -> tuple[Quad, ...]:
    # The inverse is the only costly symmetry; compute it once, not per image.
    q_inv = _inverse_quad(q)
    return tuple(
        _decorate(q_inv if inv else q, False, swap, backward)
        for inv, swap, backward in _DECORATIONS
    )


def symmetry_orbit(q: Quad) -> tuple[Quad, ...]:
    """The 8 symmetry images of a valid quad (duplicates possible)."""
    _require_valid(q, "symmetry_orbit")
    return _orbit(q)


def quad_sort_key(q: Quad) -> tuple:
    return tuple(word_sort_key(w) for w in q.words)


def canonicalize(q: Quad) -> Quad:
    """Least symmetry image under the length-lexicographic word order."""
    return min(symmetry_orbit(q), key=quad_sort_key)


# -- the fourteen classified families ------------------------------------

FAMILY_TAGS = (
    "T",
    "T'",
    "A1",
    "A2",
    "A3",
    "B1",
    "B2",
    "C1",
    "C2",
    "C3",
    "D1",
    "D2",
    "D3",
    "D4",
)

_A_FAMILIES = ("A1", "A2", "A3")

_FIXED_QUADS = {
    "T": ("a", "b", "a", "b"),
    "T'": ("a", "B", "A", "b"),
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


def _conj_power(r: int, mid: int) -> Word:
    """a^r mid a^-r (r may be negative)."""
    outer = 1 if r >= 0 else -1
    return Word((outer,) * abs(r) + (mid,) + (-outer,) * abs(r))


def base_quad(family: str, r: int | None = None) -> Quad:
    if family in _FIXED_QUADS:
        if r is not None:
            raise ValueError(f"family {family} takes no parameter r")
        return Quad(*(Word.parse(t) for t in _FIXED_QUADS[family]))
    if family in _A_FAMILIES:
        if r is None or r < 0:
            raise ValueError(f"family {family} needs a parameter r >= 0")
        a_inv = _A.inverse()
        if family == "A1":
            return Quad(_conj_power(r, 2), _A, _conj_power(r, 2), _A)
        if family == "A2":
            return Quad(_conj_power(r, 2), _A, _conj_power(r, -2), a_inv)
        return Quad(_conj_power(r, -2), a_inv, _conj_power(-r, -2), a_inv)
    raise ValueError(f"unknown family tag {family!r}")


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
        r: int | None = None
        inv = swap = backward = False
        for part in parts[1:]:
            if part.startswith("r="):
                if not part[2:].removeprefix("-").isdecimal():
                    raise ValueError(f"bad parameter {part!r} in {text!r}")
                if r is not None:
                    raise ValueError(f"repeated parameter {part!r} in {text!r}")
                r = int(part[2:])
            else:
                rest = part
                if rest.startswith("-"):
                    inv = True
                    rest = rest[1:]
                if rest.startswith("s"):
                    swap = True
                    rest = rest[1:]
                if rest.startswith("bw"):
                    backward = True
                    rest = rest[2:]
                if rest:
                    raise ValueError(f"bad decoration {part!r} in {text!r}")
        return cls(family, r, inv, swap, backward)

    @property
    def decoration(self) -> str:
        return ("-" if self.inv else "") + ("s" if self.swap else "") + (
            "bw" if self.backward else ""
        )

    def __str__(self) -> str:
        out = self.family
        if self.r is not None:
            out += f":r={self.r}"
        if self.decoration:
            out += f":{self.decoration}"
        return out


def catalog(fid: FamilyId) -> Quad:
    """Exact quad for a (possibly decorated) family identifier."""
    return _decorate(base_quad(fid.family, fid.r), fid.inv, fid.swap, fid.backward)


@functools.cache
def _catalog_level(r: int | None) -> dict[AutF2, dict[AutF2, FamilyId]]:
    """The one read-only index of the fixed families (r None) or the A
    families at r: each first core maps to its second cores, each with its
    first identifier in catalog order.

    It answers :func:`identify_quad` and :func:`outgoing_cores`, and through
    them the successor graph and its components.  Every decorated A quad at
    r has max word length 2r+1, in its first core too, so a query of length
    L meets only level None and level (L-1)/2.
    """
    level: dict[AutF2, dict[AutF2, FamilyId]] = {}
    families = _A_FAMILIES if r is not None else [f for f in FAMILY_TAGS if f not in _A_FAMILIES]
    for family in families:
        for inv, swap, backward in _DECORATIONS:
            fid = FamilyId(family, r, inv, swap, backward)
            q = catalog(fid)
            level.setdefault(q.tau, {}).setdefault(q.kappa, fid)
    return level


def _levels(word_len: int):
    yield _catalog_level(None)
    if word_len % 2:
        yield _catalog_level((word_len - 1) // 2)


def _catalog_rank(fid: FamilyId) -> int:
    return FAMILY_TAGS.index(fid.family)


def identify_quad(q: Quad) -> FamilyId | None:
    """First decorated family identifier whose quad equals q, if any."""
    tau, kappa = q.tau, q.kappa
    hits = [fid for level in _levels(q.max_word_length()) if (fid := level.get(tau, {}).get(kappa))]
    return min(hits, key=_catalog_rank, default=None)


# -- bounded exhaustive classification search ------------------------------


def _basis_pairs_by_matrix(max_len: int) -> dict[tuple[int, ...], list[tuple[Word, Word]]]:
    """Basis pairs (u, v) of words of length <= max_len, keyed by their
    exponent-sum matrix (u_a, u_b, v_a, v_b), each list in word order.

    Generated from the 8 length-2 bases by Nielsen moves (see classify_search)."""
    pairs = [p for x in (_A, _A.inverse()) for y in (_B, _B.inverse()) for p in ((x, y), (y, x))]
    seen = set(pairs)
    for u, v in pairs:  # breadth first: the loop also visits the pairs it appends
        for _, move in _MOVES:
            pair = move(u, v)
            if pair not in seen and len(pair[0]) <= max_len and len(pair[1]) <= max_len:
                seen.add(pair)
                pairs.append(pair)
    out: dict[tuple[int, ...], list[tuple[Word, Word]]] = {}
    for u, v in sorted(pairs, key=lambda p: (word_sort_key(p[0]), word_sort_key(p[1]))):
        matrix = (u.exponent_sum(1), u.exponent_sum(2), v.exponent_sum(1), v.exponent_sum(2))
        out.setdefault(matrix, []).append((u, v))
    return out


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


def classify_search(max_len: int) -> set[Quad]:
    """All canonical classes of valid quads with word lengths <= max_len.

    The search runs in four stages, each doing its work once.

    1. Bases.  The basis pairs are generated, not tested.  A breadth-first
       search from the 8 length-2 bases (a^+-1, b^+-1) and (b^+-1, a^+-1)
       applies every Nielsen multiplication of ``autf2._MOVES`` and keeps a
       pair when both its words have length <= max_len.  Each move is an
       automorphism, so every pair found is a basis.  Every basis pair is
       found: greedy Nielsen reduction (Magnus, Karrass and Solitar,
       *Combinatorial Group Theory*, section 3.2) takes it to a length-2
       basis by multiplications alone, each shortening the one word it
       changes, and the table holds the inverse of each move, so the
       reversed path reaches the pair without a word ever outgrowing the
       bound.  The pairs are grouped by their 2x2 exponent-sum matrix.
    2. Matrices.  Each pair of matrices is tested once against the
       abelianized braid relation E1 E2 E1 = E2 E1 E2 in closed form.
       This is sound: a quad is valid exactly when its two cores satisfy
       the braid relation on F_3 (:func:`braidact.braid.check_pair_via_braid`),
       and abelianizing is multiplicative.  The relation word is a
       palindrome, so the row or column convention does not matter.
    3. Words again.  Only the quads of surviving matrix pairs meet the
       three word equations; their basis tests are already known.
    4. Orbits.  A valid quad's 8 symmetry images come from the quad and
       its one inverse; the least is its class, and later quads of the
       same orbit are skipped unchecked, since they are valid too.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    by_matrix = _basis_pairs_by_matrix(max_len)
    found = set()
    seen: set[Quad] = set()
    for m, n in itertools.product(by_matrix, repeat=2):
        if not _abelian_braid(m, n):
            continue
        for (a, b), (c, d) in itertools.product(by_matrix[m], by_matrix[n]):
            quad = Quad(a, b, c, d)
            if quad not in seen and all(_equations(a, b, c, d)):
                orbit = _orbit(quad)
                seen.update(orbit)
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
            q = Quad.from_cores(prev, core)
            if not (bases[i - 1] and bases[i] and all(_equations(*q.words))):
                raise PathError(
                    f"cores {i} and {i + 1} (({prev}); ({core})) do not define a local action"
                )
        for i, (core, basis) in enumerate(zip(self.cores, bases), start=1):
            if not basis:
                raise PathError(f"core {i} ({core}) is not a basis of F_2")


def rep_from_cores(cores: Sequence[AutF2]) -> LocalRep:
    rep = LocalRep(len(cores) + 1, tuple(cores))
    rep.validate()
    return rep


def constant_rep(core: AutF2, n: int) -> LocalRep:
    """The rep with every core equal (requires a self-adjacency for n >= 3)."""
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

    def has_edge(self, src: AutF2, dst: AutF2) -> bool:
        return any(e.src == src and e.dst == dst for e in self.edges)

    def to_dot(self, name: str = "gamma") -> str:
        lines = [f"digraph {name} {{"]
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


def rep_from_path(graph: GammaGraph, path: Sequence[AutF2]) -> LocalRep:
    """Rep whose cores are the vertices of an edge-path of the graph."""
    for v, w in zip(path, path[1:]):
        if not graph.has_edge(v, w):
            raise PathError(f"no edge from ({v}) to ({w}) in the graph")
    return LocalRep(len(path) + 1, tuple(path))


def outgoing_cores(core: AutF2) -> tuple[tuple[AutF2, FamilyId], ...]:
    """All successors of a core, found by matching decorated family quads.

    Every valid pair is a symmetry image of a classified family, so the
    decorated quads whose first core equals `core` give the full outgoing
    edge set, self-loop included; each target keeps its first identifier.
    """
    word_len = max(len(core.image_a), len(core.image_b))
    found = [e for level in _levels(word_len) for e in level.get(core, {}).items()]
    out: dict[AutF2, FamilyId] = {}
    for target, fid in sorted(found, key=lambda e: _catalog_rank(e[1])):
        out.setdefault(target, fid)
    return tuple(out.items())


def can_extend(rep: LocalRep) -> bool:
    """Whether the rep extends to more strands (last core has a successor)."""
    if not rep.cores:
        return True
    return bool(outgoing_cores(rep.cores[-1]))

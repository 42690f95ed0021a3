"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from braidact.autf2 import _A, _B, _MOVES, AutF2, is_basis
from braidact.braid import BraidWord, Endo
from braidact.groups import FiniteGroupTable, _group
from braidact.invariant import (
    Fingerprint,
    GroupPresentation,
    abelianization,
    presentation,
    tietze_simplify,
)
from braidact.localrep import (
    FAMILY_TAGS,
    FamilyId,
    LocalRep,
    Quad,
    _bases_with_matrix,
    _equations,
    _representative,
    canonicalize,
    catalog,
    check_quad,
    quad_sort_key,
    symmetry_orbit,
)
from braidact.words import Word, _word


def reduced_letter_tuples(max_len: int) -> list[tuple[int, ...]]:
    """Every reduced word over a, b with length <= max_len, as letter tuples."""
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        step = []
        for w in frontier:
            for letter in (1, -1, 2, -2):
                if w and w[-1] == -letter:
                    continue
                step.append(w + (letter,))
        out.extend(step)
        frontier = step
    return out


def reduced_words(max_len: int) -> list[Word]:
    return [Word(t) for t in reduced_letter_tuples(max_len)]


def letters_sort_key(letters: tuple[int, ...]) -> tuple:
    """Oracle for ``words._letters_sort_key``: length, then each letter as
    (generator, 0 for a positive letter or 1 for an inverse)."""
    return (len(letters), tuple((abs(l), 0 if l > 0 else 1) for l in letters))


def basis_pairs(m: tuple[int, ...], max_len: int) -> list[tuple[Word, Word]]:
    """The basis pairs that ``localrep._bases_with_matrix`` generates for the
    matrix m, as word pairs, without their conjugators."""
    return [(_word(u), _word(v)) for (u, v), _ in _bases_with_matrix(_representative(m), max_len)]


def greedy_reduce(u: Word, v: Word):
    """Oracle for ``autf2._greedy_reduce``: the same greedy loop without its
    early stop, so it ends only when none of the 8 moves shortens the pair."""
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


def concat_substitute(word: Word, images) -> Word:
    """Independent substitution oracle: every letter's image written out in
    full, then the whole word reduced in one pass by the Word constructor."""
    flat: list[int] = []
    for letter in word.letters:
        img = images[abs(letter) - 1].letters
        flat.extend(img if letter > 0 else [-l for l in reversed(img)])
    return Word(flat)


def brute_hom_count(p: GroupPresentation, group: FiniteGroupTable) -> int:
    """Independent hom-count oracle: evaluate relators as explicit products.

    Works on the presentation exactly as given (no simplification), mapping
    each relator to a flat list of group elements and folding the product.
    """
    count = 0
    for assignment in itertools.product(range(group.order), repeat=p.ngens):
        images = list(assignment)
        ok = True
        for rel in p.relators:
            elems = [
                images[l - 1] if l > 0 else group.inverse[images[-l - 1]]
                for l in rel.letters
            ]
            acc = 0  # the identity
            for e in elems:
                acc = group.table[acc][e]
            if acc != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def plain_count_homs(p: GroupPresentation, group: FiniteGroupTable) -> int:
    """Hom-count oracle without conjugacy classes: walks all |H|^k tuples,
    evaluating each relator by table lookups until one fails."""
    n = p.ngens
    # A tuple's images hold x_j's value at j - 1 and x_j^-1's at n + j - 1.
    relators = [tuple(l - 1 if l > 0 else n - l - 1 for l in r.letters) for r in p.relators]
    table = group.table
    e = 0  # the identity
    count = 0
    for values, inverted in zip(
        itertools.product(range(group.order), repeat=n),
        itertools.product(group.inverse, repeat=n),
    ):
        image = values + inverted
        for rel in relators:
            cur = e
            for k in rel:
                cur = table[cur][image[k]]
            if cur != e:
                break
        else:
            count += 1
    return count


def disjoint_union(p: GroupPresentation, q: GroupPresentation) -> GroupPresentation:
    """The free product p * q as one presentation, its generators interleaved:
    p's x_i and q's x_i take x_{2i-1} and x_{2i} while both have one, then
    the rest follow in order.  p's relators come first, each kept as given
    (empty ones too)."""
    places: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for pair in itertools.zip_longest(range(1, p.ngens + 1), range(1, q.ngens + 1)):
        for side, g in zip(places, pair):
            if g is not None:
                side[g] = len(places[0]) + len(places[1]) + 1
    relators = tuple(
        Word(tuple(place[l] if l > 0 else -place[-l] for l in r.letters))
        for place, factor in zip(places, (p, q))
        for r in factor.relators
    )
    return GroupPresentation(p.ngens + q.ngens, relators)


def validated_group(name: str, rows: list[list[int]]) -> FiniteGroupTable:
    """Group-axiom oracle: check that a raw table is a group's (square with
    entries in range, an identity, two-sided inverses, associativity by
    Light's test), then build it with the library's unchecked builder.
    Raises ValueError on a table that is not a group's; the builder needs
    the identity at element 0."""
    order = len(rows)
    if order == 0:
        raise ValueError("a group table needs at least the identity element")
    for row in rows:
        if len(row) != order or any(not 0 <= x < order for x in row):
            raise ValueError("table must be square with entries in 0..order-1")
    identity = None
    for e in range(order):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    inverse = []
    for x in range(order):
        y = next(
            (y for y in range(order) if rows[x][y] == identity and rows[y][x] == identity),
            None,
        )
        if y is None:
            raise ValueError(f"element {x} has no inverse")
        inverse.append(y)
    # Light's test: check (x y) z = x (y z) for every x and z but only for y
    # in a generating set.  The y that pass are closed under the product, so
    # then every y passes.  Each element not yet reached from the identity by
    # right multiplication with the generators so far becomes a generator.
    table = tuple(tuple(r) for r in rows)
    gens: list[int] = []
    reached = {identity}
    for y in range(order):
        if y in reached:
            continue
        for x, row in enumerate(table):
            if table[row[y]] != tuple(map(row.__getitem__, table[y])):
                z = next(z for z in range(order) if table[row[y]][z] != row[table[y][z]])
                raise ValueError(f"table is not associative at ({x}, {y}, {z})")
        gens.append(y)
        reached = {identity}
        frontier = [identity]
        for x in frontier:  # breadth first: the loop also visits what it appends
            new = {table[x][g] for g in gens} - reached
            reached |= new
            frontier += new
    assert identity == 0, f"{name}: identity at element {identity}, not 0"
    group = _group(name, rows)
    assert group.inverse == tuple(inverse)
    return group


def quaternion_group() -> FiniteGroupTable:
    """Q8 from its raw table: element 4 s + u is (-1)^s q_u, q = (1, i, j, k).

    Its centre {1, -1} is nontrivial, and it has 5 conjugacy classes."""
    # Sign and unit of q_u q_v: i j = k, j i = -k, i i = -1, and so on.
    units = [
        [(0, 0), (0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 0), (0, 3), (1, 2)],
        [(0, 2), (1, 3), (1, 0), (0, 1)],
        [(0, 3), (0, 2), (1, 1), (1, 0)],
    ]
    rows = [
        [4 * ((s + t + units[u][v][0]) % 2) + units[u][v][1] for t in (0, 1) for v in range(4)]
        for s in (0, 1)
        for u in range(4)
    ]
    return validated_group("Q8", rows)


def klein_four_group() -> FiniteGroupTable:
    """V4 = Z2 x Z2 from its raw table: the product of a and b is a XOR b.

    It is abelian but not cyclic: every element but the identity has order 2."""
    return validated_group("V4", [[a ^ b for b in range(4)] for a in range(4)])


def burnside_pair_orbit_count(group: FiniteGroupTable) -> int:
    """Orbits of the group on pairs under simultaneous conjugation, by
    Burnside's lemma: conjugation by h fixes the pairs of elements of the
    centralizer C_H(h), so the count is (1/|H|) sum_h |C_H(h)|^2."""
    total = 0
    for h in range(group.order):
        centralizer = sum(group.table[h][x] == group.table[x][h] for x in range(group.order))
        total += centralizer**2
    assert total % group.order == 0
    return total // group.order


def walk_fingerprint(rep: LocalRep, braid: BraidWord, groups) -> Fingerprint:
    """Reference fingerprint that counts every hom by walking all tuples of
    the Tietze-simplified presentation (plain_count_homs), never by the
    braid's action or by conjugacy classes."""
    simplified = tietze_simplify(presentation(rep, braid))
    counts = tuple(sorted((g.name, plain_count_homs(simplified, g)) for g in groups))
    return Fingerprint(abelianization(simplified), counts)


def crossing_endo(rep: LocalRep, i: int, sign: int) -> Endo:
    """Full endomorphism of crossing i (its inverse for sign < 0): the core's
    words in x_i, x_{i+1} at positions i and i+1, every other x_j fixed."""
    core = rep.cores[i - 1]
    if sign < 0:
        core = core.inverse()
    xi, xi1 = Word.gen(i), Word.gen(i + 1)
    images = [Word.gen(j) for j in range(1, rep.n + 1)]
    images[i - 1] = core.image_a.substitute((xi, xi1))
    images[i] = core.image_b.substitute((xi, xi1))
    return Endo(tuple(images))


def prefix_endo_of_braid(rep: LocalRep, b: BraidWord) -> Endo:
    """Independent braid-action oracle: the identity composed with each
    crossing's full endomorphism, in word order."""
    endo = Endo.identity(rep.n)
    for l in b.letters:
        endo = endo.compose(crossing_endo(rep, abs(l), l))
    return endo


def compose_braid_relations(rep: LocalRep) -> bool:
    """Independent braid-relation oracle: the relations of B_n multiplied out
    from the crossings' full endomorphisms with Endo.compose."""
    gens = [crossing_endo(rep, i, 1) for i in range(1, rep.n)]
    for i in range(len(gens) - 1):
        g, h = gens[i], gens[i + 1]
        if g.compose(h).compose(g) != h.compose(g).compose(h):
            return False
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            if gens[i].compose(gens[j]) != gens[j].compose(gens[i]):
                return False
    return True


# -- the family table as hand-written words, an oracle for base_quad -----------

FIXED_QUADS = {
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


def conj_power(r: int, mid: int) -> Word:
    """a^r mid a^-r (r may be negative), built letter by letter."""
    outer = 1 if r >= 0 else -1
    return Word((outer,) * abs(r) + (mid,) + (-outer,) * abs(r))


def oracle_base_quad(family: str, r: int | None = None) -> Quad:
    """A family's undecorated quad: the fixed families from their words, the
    A families as conjugates of b^+-1 by powers of a."""
    if family in FIXED_QUADS:
        a, b, c, d = map(Word.parse, FIXED_QUADS[family])
        return Quad(AutF2(a, b), AutF2(c, d))
    a, a_inv = Word((1,)), Word((-1,))
    if family == "A1":
        return Quad(AutF2(conj_power(r, 2), a), AutF2(conj_power(r, 2), a))
    if family == "A2":
        return Quad(AutF2(conj_power(r, 2), a), AutF2(conj_power(r, -2), a_inv))
    assert family == "A3", family
    return Quad(AutF2(conj_power(r, -2), a_inv), AutF2(conj_power(-r, -2), a_inv))


# -- linear-scan oracle for the catalog index ---------------------------------


def scan_family_ids(max_word_len: int):
    """Every decorated family id whose A parameter r has 2r+1 <= max_word_len,
    in catalog order: family tag, then r, then decoration."""
    for family in FAMILY_TAGS:
        rs = range((max_word_len - 1) // 2 + 1) if family in ("A1", "A2", "A3") else (None,)
        for r in rs:
            for inv, swap, backward in itertools.product((False, True), repeat=3):
                yield FamilyId(family, r, inv, swap, backward)


# Memoized here only so the oracle runs fast; the scans below still test
# every id in order.
_scan_catalog = functools.cache(catalog)


def scan_identify_quad(q: Quad) -> FamilyId | None:
    """First decorated family id whose quad equals q, by a linear scan."""
    for fid in scan_family_ids(q.max_word_length()):
        if _scan_catalog(fid) == q:
            return fid
    return None


def scan_outgoing_cores(core: AutF2) -> tuple[tuple[AutF2, FamilyId], ...]:
    """Successors of a core by a linear scan; first-seen targets, in order."""
    lmax = max(len(core.image_a), len(core.image_b), 1)
    seen: list[AutF2] = []
    out = []
    for fid in scan_family_ids(lmax):
        q = _scan_catalog(fid)
        if q.tau == core and q.kappa not in seen:
            seen.append(q.kappa)
            out.append((q.kappa, fid))
    return tuple(out)


# -- brute-force oracle for the classification search ---------------------------


def scan_classify(max_len: int) -> set[Quad]:
    """Canonical classes of valid quads with word lengths <= max_len, by
    running every basis pair against every basis pair through check_quad."""
    words = reduced_words(max_len)
    bases = [AutF2(u, v) for u in words for v in words if is_basis(u, v)]
    quads = (Quad(tau, kappa) for tau, kappa in itertools.product(bases, repeat=2))
    return {canonicalize(quad) for quad in quads if check_quad(quad).valid}


def all_candidates_classify(max_len: int) -> set[Quad]:
    """Canonical classes of valid quads with word lengths <= max_len, by
    running the word equations on every candidate quad of the search's
    matrix pairs, listed by enumeration, with no reduction by swap and
    backward.  A quad in the symmetry orbit of an earlier valid one is
    skipped, since it is valid too."""
    pairs = braid_matrix_pairs_by_enumeration(max_len)
    bases = {
        m: [AutF2(a, b) for a, b in basis_pairs(m, max_len)]
        for m in {m for pair in pairs for m in pair}
    }
    found, seen = set(), set()
    for m, n in pairs:
        for tau, kappa in itertools.product(bases[m], bases[n]):
            quad = Quad(tau, kappa)
            if quad not in seen and all(_equations(tau, kappa)):
                orbit = symmetry_orbit(quad)
                seen.update(orbit)
                found.add(min(orbit, key=quad_sort_key))
    return found


def scan_basis_pairs_by_matrix(max_len: int) -> dict[tuple[int, ...], set[tuple[Word, Word]]]:
    """Basis pairs of words of length <= max_len keyed by exponent-sum matrix,
    with every word pair of determinant +-1 through is_basis."""
    by_vector: dict[tuple[int, int], list[Word]] = {}
    for w in reduced_words(max_len):
        by_vector.setdefault((w.exponent_sum(1), w.exponent_sum(2)), []).append(w)
    out: dict[tuple[int, ...], set[tuple[Word, Word]]] = {}
    for (ua, ub), (va, vb) in itertools.product(by_vector, repeat=2):
        if abs(ua * vb - ub * va) == 1:
            for u, v in itertools.product(by_vector[ua, ub], by_vector[va, vb]):
                if is_basis(u, v):
                    out.setdefault((ua, ub, va, vb), set()).add((u, v))
    return out


def nielsen_basis_pairs_by_matrix(max_len: int) -> dict[tuple[int, ...], set[tuple[Word, Word]]]:
    """Basis pairs of words of length <= max_len keyed by exponent-sum matrix,
    by a breadth-first search from the 8 length-2 bases under every Nielsen
    multiplication of ``autf2._MOVES`` that keeps both words within the bound.

    Every move is an automorphism, so every pair found is a basis.  Every
    basis pair is found: greedy Nielsen reduction (Magnus, Karrass and
    Solitar, *Combinatorial Group Theory*, section 3.2) takes it to a
    length-2 basis by multiplications alone, each shortening the one word
    it changes, and the table holds the inverse of each move, so the
    reversed path reaches the pair without a word ever outgrowing the bound."""
    a, b = Word((1,)), Word((2,))
    pairs = [p for x in (a, a.inverse()) for y in (b, b.inverse()) for p in ((x, y), (y, x))]
    seen = set(pairs)
    for u, v in pairs:  # breadth first: the loop also visits the pairs it appends
        for _, move in _MOVES:
            pair = move(u, v)
            if pair not in seen and len(pair[0]) <= max_len and len(pair[1]) <= max_len:
                seen.add(pair)
                pairs.append(pair)
    out: dict[tuple[int, ...], set[tuple[Word, Word]]] = {}
    for u, v in pairs:
        matrix = (u.exponent_sum(1), u.exponent_sum(2), v.exponent_sum(1), v.exponent_sum(2))
        out.setdefault(matrix, set()).add((u, v))
    return out


# -- enumeration oracle for the table of braid matrix pairs ---------------------


def det_one_matrices(max_len: int) -> list[tuple[int, int, int, int]]:
    """Every integer matrix (u_a, u_b, v_a, v_b) of determinant +-1 whose two
    rows have |entries| summing to <= max_len: the exponent-sum matrices that
    a basis pair of words of length <= max_len can have."""
    rows = [
        (x, y)
        for x in range(-max_len, max_len + 1)
        for y in range(abs(x) - max_len, max_len - abs(x) + 1)
    ]
    return [(ua, ub, va, vb) for ua, ub in rows for va, vb in rows if abs(ua * vb - ub * va) == 1]


def abelian_braid(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
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


def braid_matrix_pairs_by_enumeration(
    max_len: int,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (m, n) of ``det_one_matrices(max_len)`` that pass
    :func:`abelian_braid`.

    Its first condition, c + p n0 = 0 with c = m0^2 - m0 and p = m1 m2,
    fixes n0 when p != 0, and holds for every n or for none when p = 0.  If
    it holds for every n and m is not diagonal, the second condition,
    m0 + (m3 - 1) n0 = 0, fixes n0 when m3 != 1.  A fixed n0 is looked up;
    a condition that fixes none passes every matrix or none."""
    matrices = det_one_matrices(max_len)
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
        out += [(m, n) for n in tried if abelian_braid(m, n)]
    return out


# -- explicit-product oracle for the abelian braid relation ---------------------


def mul3(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two 3x3 integer matrices stored row by row."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = p
    q0, q1, q2, q3, q4, q5, q6, q7, q8 = q
    return (
        p0 * q0 + p1 * q3 + p2 * q6, p0 * q1 + p1 * q4 + p2 * q7, p0 * q2 + p1 * q5 + p2 * q8,
        p3 * q0 + p4 * q3 + p5 * q6, p3 * q1 + p4 * q4 + p5 * q7, p3 * q2 + p4 * q5 + p5 * q8,
        p6 * q0 + p7 * q3 + p8 * q6, p6 * q1 + p7 * q4 + p8 * q7, p6 * q2 + p7 * q5 + p8 * q8,
    )


def abelian_braid_by_product(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    """E1 E2 E1 == E2 E1 E2 for E1 = diag(m, 1) and E2 = diag(1, n), multiplied out."""
    e1 = (m[0], m[1], 0, m[2], m[3], 0, 0, 0, 1)
    e2 = (1, 0, 0, 0, n[0], n[1], 0, n[2], n[3])
    return mul3(mul3(e1, e2), e1) == mul3(mul3(e2, e1), e2)


# -- the S3 certificate for the matrix pairs with an entry +-3 -------------------
#
# S3 is the permutations of (0, 1, 2) in itertools order, the identity at 0,
# multiplied as maps: (p q)(i) = p(q(i)).  A function S3^2 -> S3 is a tuple
# of 36 elements, its value at (X, Y) at index 6 X + Y.

_S3 = tuple(itertools.permutations(range(3)))
_S3_MUL = tuple(tuple(_S3.index(tuple(p[i] for i in q)) for q in _S3) for p in _S3)
_S3_INV = tuple(row.index(0) for row in _S3_MUL)
_S3_PROJECTIONS = (tuple(i // 6 for i in range(36)), tuple(i % 6 for i in range(36)))
# The identity last: every equation holds at (e, e, e), so a failing pair
# tends to fail sooner.
_S3_POINTS = tuple(itertools.product(range(5, -1, -1), repeat=3))


def _pointwise(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_S3_MUL[x][y] for x, y in zip(f, g))


def s3_word_function(w: Word) -> tuple[int, ...]:
    """The word function (X, Y) |-> w(X, Y) of a word over a, b into S3."""
    f = (0,) * 36
    for letter in w.letters:
        g = _S3_PROJECTIONS[abs(letter) - 1]
        f = _pointwise(f, g if letter > 0 else tuple(_S3_INV[x] for x in g))
    return f


@functools.cache
def s3_word_functions() -> tuple[tuple[int, ...], ...]:
    """Every word function S3^2 -> S3: the closure of the constant identity
    under pointwise right multiplication by the two coordinate projections.
    A finite monoid inside a group is a group, so no inverse is needed."""
    functions = [(0,) * 36]
    seen = set(functions)
    for f in functions:  # breadth first: the loop also visits what it appends
        for g in _S3_PROJECTIONS:
            h = _pointwise(f, g)
            if h not in seen:
                seen.add(h)
                functions.append(h)
    return tuple(functions)


def s3_core_tables(m: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The word functions of the two words of (w u0 w^-1, w v0 w^-1), for
    (u0, v0) = ``_representative(m)`` and each word function of w, in the
    order of :func:`s3_word_functions`.  By Nielsen's theorem these pairs
    are every basis pair with matrix m, so these are all their functions."""
    rep = _representative(m)
    u0, v0 = s3_word_function(rep.image_a), s3_word_function(rep.image_b)
    return [
        tuple(
            tuple(_S3_MUL[_S3_MUL[x][y]][_S3_INV[x]] for x, y in zip(w, f)) for f in (u0, v0)
        )
        for w in s3_word_functions()
    ]


def s3_equations_hold(a, b, c, d) -> bool:
    """Whether the core functions a, b (of tau) and c, d (of kappa) satisfy
    T, M and B, as ``localrep._equations`` writes them, at every point
    (X, Y, Z) of S3^3; stops at the first failing point:

        T: a(a(X, Y), c(b(X, Y), Z)) = a(X, c(Y, Z))
        M: b(a(X, Y), c(b(X, Y), Z)) = c(b(X, c(Y, Z)), d(Y, Z))
        B: d(b(X, Y), Z) = d(b(X, c(Y, Z)), d(Y, Z))
    """
    for x, y, z in _S3_POINTS:
        xy, yz = 6 * x + y, 6 * y + z
        a_xy, b_xy, c_yz, d_yz = a[xy], b[xy], c[yz], d[yz]
        c_bz = c[6 * b_xy + z]
        b_xc = b[6 * x + c_yz]
        if (
            a[6 * a_xy + c_bz] != a[6 * x + c_yz]
            or b[6 * a_xy + c_bz] != c[6 * b_xc + d_yz]
            or d[6 * b_xy + z] != d[6 * b_xc + d_yz]
        ):
            return False
    return True


def s3_survivors(m: tuple[int, ...], n: tuple[int, ...]) -> int:
    """The pairs (w^, w'^) of word functions whose cores, built by
    :func:`s3_core_tables` for the matrix pair (m, n), satisfy T, M and B at
    every point of S3^3.  A valid quad of the block maps to a survivor at
    every word length, so 0 survivors prove the block empty."""
    kappas = s3_core_tables(n)
    return sum(s3_equations_hold(a, b, c, d) for a, b in s3_core_tables(m) for c, d in kappas)


# -- per-round renumbering oracles for Tietze elimination and the S1 test ------


def _renumber(w: Word, gone: int) -> Word:
    return Word(tuple(l - (1 if l > gone else 0) + (1 if l < -gone else 0) for l in w.letters))


def renumbering_tietze(p: GroupPresentation) -> GroupPresentation:
    """Tietze simplification that solves each relator by its own rotation and
    renumbers the solution, then builds one image per generator."""
    ngens = p.ngens
    relators = list(p.relators)
    while True:
        relators = [r.cyclically_reduce()[0] for r in relators]
        relators = [r for r in relators if r]
        choice = None
        for ri, r in enumerate(relators):
            ls = r.letters
            for g in range(1, ngens + 1):
                if ls.count(g) + ls.count(-g) == 1:
                    key = (len(r), ri, g)
                    if choice is None or key < choice:
                        choice = key
        if choice is None:
            break
        _, ri, gone = choice
        r = relators.pop(ri)
        pos = next(k for k, l in enumerate(r.letters) if abs(l) == gone)
        rotated = r.letters[pos:] + r.letters[:pos]
        u = Word(rotated[1:])
        replacement = u.inverse() if rotated[0] > 0 else u
        replacement = _renumber(replacement, gone)
        images = []
        for m in range(1, ngens + 1):
            if m == gone:
                images.append(replacement)
            else:
                images.append(Word.gen(m - (1 if m > gone else 0)))
        relators = [rel.substitute(images) for rel in relators]
        ngens -= 1
    return GroupPresentation(ngens, tuple(relators))


def one_relator_side(core: AutF2) -> tuple[str, str]:
    """One side of the S1 test, reading the forced exponent off its own
    rotation of the relator with a letter-by-letter +-1 sum."""
    relator = (core.image_b * Word.gen(2, -1)).cyclically_reduce()[0]
    if not relator:
        return "fails", "relator is trivial, quotient is free of rank 2"
    counts = {1: 0, 2: 0}
    for l in relator.letters:
        counts[abs(l)] += 1
    for single, other in ((1, 2), (2, 1)):
        if counts[single] == 1:
            pos = next(k for k, l in enumerate(relator.letters) if abs(l) == single)
            rotated = relator.letters[pos:] + relator.letters[:pos]
            m = sum(1 if l == other else -1 for l in rotated[1:])
            k = -m if rotated[0] > 0 else m
            names = {1: "a", 2: "b"}
            s, o = names[single], names[other]
            if k == 1:
                return "holds", f"relator {relator.text(2)} forces {s} = {o}"
            if k == -1:
                return (
                    "holds-up-to-inversion",
                    f"relator {relator.text(2)} forces {s} = {o}^-1",
                )
            return "fails", f"relator {relator.text(2)} forces {s} = {o}^{k}"
    g = math.gcd(relator.exponent_sum(1), relator.exponent_sum(2))
    if g != 1:
        shape = "Z x Z" if g == 0 else f"Z x Z/{g}"
        return "fails", f"abelianized quotient is {shape}"
    return "unknown", f"relator {relator.text(2)} was not resolved"


# The child runs the command, then prints the peak resident set size of its
# own address space, VmHWM in kB, as the last line of its stdout.  Its
# ru_maxrss would not do: Linux carries the spawning process's peak across
# exec, so under pytest it reads over 100 MB before the child does anything.
_CLI_CHILD = """
import re, sys
from braidact.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
sys.exit(code)
"""


def cli_in_child(*argv: str) -> tuple[int, str, str, float, float]:
    """Run ``braidact.cli.main(argv)`` in a fresh interpreter, so its memory
    peak is its own.  Returns the exit code, stdout (less the peak line),
    stderr, the wall time in seconds and the child's peak resident set size
    in MB."""
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-c", _CLI_CHILD, *argv]
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    *lines, peak_kb = done.stdout.splitlines(keepends=True)
    return done.returncode, "".join(lines), done.stderr, seconds, int(peak_kb) / 1024

"""Group-valued link invariants from braid closures.

Fixing a local action, a braid beta on n strands yields the group
G(beta) = < x_1..x_n | (x_i)beta = x_i >.  When the action has the
stabilization properties this group only depends on the closure link,
so computable fingerprints of it (abelianization via Smith normal form,
homomorphism counts into small finite groups) are link invariants.
Fingerprint equality is "consistent with isomorphic"; inequality is a
definitive distinction.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .autf2 import AutF2
from .braid import BraidWord, endo_of_braid
from .groups import FiniteGroupTable
from .localrep import LocalRep
from .snf import smith_normal_form
from .words import Word

__all__ = [
    "Fingerprint",
    "GroupPresentation",
    "S1Report",
    "abelianization",
    "check_S1",
    "count_homs",
    "count_homs_by_action",
    "fingerprint",
    "fingerprint_report",
    "markov_conjugate",
    "markov_stabilize",
    "pair_action",
    "presentation",
    "tietze_simplify",
]

# count_homs_by_action refuses once H^n has more points than this: each
# distinct letter of the braid keeps a list of them.
MAX_ACTION_STATES = 1_000_000
# count_homs refuses once the candidate tuples |H|^ngens outnumber this.
MAX_HOM_TUPLES = 10_000_000
# fingerprint counts by the action only up to this many points of H^n.  The
# lists then stay small, and the walk it replaces is far inside its budget,
# so the choice never turns a count into a refusal or back.
ACTION_STATES_CHOSEN = 4096


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation < x_1..x_ngens | relators >."""

    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.ngens < 0:
            raise ValueError("generator count must be >= 0")
        for r in self.relators:
            if r.max_generator() > self.ngens:
                raise ValueError(f"relator {r} uses a generator beyond x{self.ngens}")

    def text(self) -> str:
        rels = ", ".join(r.text(self.ngens) for r in self.relators)
        return f"gens: {self.ngens}; relators: {rels}"

    def __str__(self) -> str:
        return self.text()


def presentation(rep: LocalRep, braid: BraidWord) -> GroupPresentation:
    """Nontrivial relators (x_i)beta * x_i^-1 for the closed-braid group."""
    endo = endo_of_braid(rep, braid)
    relators = []
    for i, image in enumerate(endo.images, start=1):
        r = image * Word.gen(i, -1)
        if r:
            relators.append(r)
    return GroupPresentation(rep.n, tuple(relators))


def markov_conjugate(b: BraidWord, g: BraidWord) -> BraidWord:
    """g^-1 b g on the same strand count."""
    return g.inverse() * (b * g)


def markov_stabilize(b: BraidWord, sign: int) -> BraidWord:
    """b with one extra strand and a trailing crossing on it."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    return BraidWord(b.n + 1, b.letters + (sign * b.n,))


def abelianization(p: GroupPresentation) -> tuple[int, ...]:
    """Invariant factors of the abelianized group, 0 for each free factor.

    The Smith normal form diagonal of the relator exponent matrix, padded
    with zeros to one entry per generator, without the units: a
    presentation-independent divisibility chain.
    """
    rows = []
    for r in p.relators:
        counts = Counter(r.letters)
        rows.append([counts[j] - counts[-j] for j in range(1, p.ngens + 1)])
    diag = smith_normal_form(rows)
    return tuple(d for d in diag if d != 1) + (0,) * (p.ngens - len(diag))


def count_homs(p: GroupPresentation, group: FiniteGroupTable) -> int:
    """Exact number of homomorphisms into the group.

    Into an abelian group every hom factors through the abelianization, and
    the count is read from its invariant factors.  Otherwise the
    presentation is split into its free factors (_free_factors) and counted
    by _homs_from_factors.

    Refuses (raises ValueError) when the candidate tuple space |H|^n of the
    whole presentation exceeds MAX_HOM_TUPLES, whichever rule counts; it
    never truncates silently.
    """
    _check_hom_budget(group, p.ngens)
    if not group.pair_orbits:  # only an abelian group stores no pair orbits
        return _homs_from_abelianization(abelianization(p), group)
    return _homs_from_factors(*_free_factors(p), group)


def _homs_from_factors(
    cyclic: tuple[int, ...], walked: list[tuple[int, tuple]], group: FiniteGroupTable
) -> int:
    """The homs into a non-abelian group from the free product of cyclic
    groups with these invariant factors and of the walked factors.

    Since Hom(A * B, H) = Hom(A, H) x Hom(B, H), the count is the product of
    the factors' counts.  A cyclic factor's count is read from its invariant
    factor.  On a factor with k >= 2 generators, conjugation by h permutes
    the homs, so each orbit of H on pairs (x_1, x_2) under simultaneous
    conjugation (pair_orbits) adds its size times the homs that send
    (x_1, x_2) to its representative.  That walks (1/|H|) sum_h |C_H(h)|^2
    pairs times |H|^(k-2) values of x_3..x_k; each tuple evaluates the
    relators by table lookups until one fails.
    """
    count = _homs_from_abelianization(cyclic, group)
    for k, relators in walked:
        count *= _walk_homs(k, relators, group)
    return count


def _slot(letter: int, k: int) -> int:
    """Where a hom's values on k generators keep the value of this letter:
    x_1, x_2, x_1^-1, x_2^-1 (the layout of a stored pair orbit
    representative), then x_3..x_k, then x_3^-1..x_k^-1."""
    if letter > 0:
        return letter - 1 if letter <= 2 else letter + 1
    return 1 - letter if letter >= -2 else k - letter - 1


def _free_factors(p: GroupPresentation) -> tuple[tuple[int, ...], list[tuple[int, tuple]]]:
    """p as a free product: the generators linked by sharing a nonempty
    relator form one factor, and a generator in no relator is a factor
    < x | > of its own.

    Returns the invariant factors of the factors on one generator, which are
    cyclic (0 for Z, none for the trivial group), and each factor on k >= 2
    generators as (k, relators): its generators renumbered from x_1 in
    order, each nonempty relator, in order, as the _slot of each letter.  So
    a presentation on two or more generators that does not split comes back
    as one factor, without its empty relators.
    """
    # block[g] is the lowest generator of g's class so far.
    block = list(range(p.ngens + 1))
    for r in p.relators:
        linked = set(map(block.__getitem__, set(map(abs, r.letters))))
        if len(linked) > 1:
            lowest = min(linked)
            block = [lowest if b in linked else b for b in block]
    cyclic = []
    walked = []
    for head in sorted(set(block[1:])):
        gens = [g for g in range(1, p.ngens + 1) if block[g] == head]
        relators = [r for r in p.relators if r and block[abs(r.letters[0])] == head]
        if len(gens) == 1:
            d = math.gcd(*(r.exponent_sum(head) for r in relators))
            if d != 1:
                cyclic.append(d)
            continue
        k = len(gens)
        slot = {s * g: _slot(s * i, k) for i, g in enumerate(gens, start=1) for s in (1, -1)}
        walked.append((k, tuple(tuple(map(slot.__getitem__, r.letters)) for r in relators)))
    return tuple(cyclic), walked


def _walk_homs(k: int, relators: tuple, group: FiniteGroupTable) -> int:
    """The homs into a non-abelian group from a factor on k >= 2 generators
    whose relators are given as _slot values, one pair orbit of (x_1, x_2)
    at a time."""
    product = itertools.product
    tails = product(range(group.order), repeat=k - 2), product(group.inverse, repeat=k - 2)
    table = group.table
    count = 0
    for tail in map(operator.add, *tails):
        for weight, reps in group.pair_orbits:
            homs = 0
            for rep in reps:
                image = rep + tail
                for rel in relators:
                    cur = 0  # the identity
                    for slot in rel:
                        cur = table[cur][image[slot]]
                    if cur != 0:
                        break
                else:
                    homs += 1
            count += weight * homs
    return count


def _check_hom_budget(group: FiniteGroupTable, ngens: int) -> None:
    total = group.order**ngens
    if total > MAX_HOM_TUPLES:
        raise ValueError(
            f"hom counting refused: {group.order}^{ngens} = {total} tuples "
            f"exceeds the budget of {MAX_HOM_TUPLES}"
        )


def _homs_from_abelianization(factors: tuple[int, ...], group: FiniteGroupTable) -> int:
    """The product over the factors d (0 for Z) of |Hom(Z/d, H)|, the number
    of h whose order divides d.  That is |Hom(G, H)| when G is the free
    product of these cyclic groups, or when H is abelian and they are G's
    invariant factors."""
    return math.prod(sum(d % order == 0 for order in group.orders) for d in factors)


def _walk_tuples(group: FiniteGroupTable, walked: list[tuple[int, tuple]]) -> int:
    """The tuples _homs_from_factors walks over these free factors, each on
    k >= 2 generators: P(H) |H|^(k-2) per factor, and none into an abelian
    group."""
    return sum(
        len(reps) * group.order ** (k - 2) for k, _ in walked for _, reps in group.pair_orbits
    )


def pair_action(core: AutF2, group: FiniteGroupTable) -> tuple[int, ...]:
    """The core's action on Hom(F_2, H) = H^2, as one |H|^2-entry table.

    A hom is its pair of values (a, b) of the generators, stored as
    a * |H| + b.  The entry there is the pair of values of the core's two
    image words: the hom composed with the core.
    """
    q = group.order
    table = group.table
    words = [tuple(_slot(l, 2) for l in w.letters) for w in (core.image_a, core.image_b)]
    out = []
    for a, b in itertools.product(range(q), repeat=2):
        values = (a, b, group.inverse[a], group.inverse[b])
        image = []
        for word in words:
            cur = 0  # the identity
            for k in word:
                cur = table[cur][values[k]]
            image.append(cur)
        out.append(image[0] * q + image[1])
    return tuple(out)


def count_homs_by_action(rep: LocalRep, braid: BraidWord, group: FiniteGroupTable) -> int:
    """Exact number of homomorphisms from G(beta) into the group, as the
    points of H^n that the braid's action fixes.

    A hom from F_n is its tuple of values of x_1..x_n, and it factors
    through G(beta) exactly when composing it with the braid's endomorphism
    gives it back.  Crossing i rewrites coordinates i and i+1 through the
    pair_action table of its core, or through that table's inverse
    permutation for a negative crossing.  The action is a right action, so
    the braid's map on H^n applies the letters last to first.  No words are
    built: the cost is |H|^n per crossing and per distinct letter.

    Refuses (raises ValueError) when H^n has more than MAX_ACTION_STATES
    points, since each distinct letter keeps a list of them.
    """
    if rep.n != braid.n:
        raise ValueError(f"strand mismatch: rep has {rep.n}, braid has {braid.n}")
    q, n = group.order, rep.n
    states = q**n
    if states > MAX_ACTION_STATES:
        raise ValueError(
            f"hom counting refused: {q}^{n} = {states} states exceeds the limit of "
            f"{MAX_ACTION_STATES}"
        )
    qq = q * q
    tables: dict[AutF2, tuple[int, ...]] = {}
    moves = {}
    for l in set(braid.letters):
        i = abs(l)
        core = rep.cores[i - 1]
        if core not in tables:
            tables[core] = pair_action(core, group)
        table = tables[core]
        if l < 0:
            # The inverse core acts by the inverse permutation.
            table = sorted(range(qq), key=table.__getitem__)
        # State sum_j v_j |H|^(n - j): coordinates i and i+1 form one digit
        # base |H|^2, with `low` states below it.
        low = q ** (n - i - 1)
        moves[l] = [
            (high * qq + table[pair]) * low + rest
            for high in range(q ** (i - 1))
            for pair in range(qq)
            for rest in range(low)
        ]
    points = range(states)
    for l in reversed(braid.letters):
        points = list(map(moves[l].__getitem__, points))
    return sum(map(operator.eq, points, range(states)))


def _solve(relator: Word, g: int) -> Word:
    """The word x_g equals where the cyclic relator holds, when x_g occurs in
    it exactly once: rotated to x_g^e u = 1, x_g is u^-1 (e = 1) or u."""
    ls = relator.letters
    pos = next(k for k, l in enumerate(ls) if abs(l) == g)
    u = Word(ls[pos + 1 :] + ls[:pos])
    return u.inverse() if ls[pos] > 0 else u


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Shrink a presentation without changing the group.

    Per round: cyclically reduce relators, drop empty ones, then eliminate a
    generator that occurs exactly once in some relator (shortest relator
    first).  Every step is an isomorphism-preserving move, so group-level
    fingerprints are unchanged.  Every round but the last removes a generator.
    """
    ngens = p.ngens
    relators = list(p.relators)
    while True:
        relators = [r.cyclically_reduce()[0] for r in relators]
        relators = [r for r in relators if r]
        choice = None
        for ri, r in enumerate(relators):
            ls = r.letters
            for g in range(1, ngens + 1):
                # Each `in` stops at its first hit; only one sign is counted.
                pos, neg = g in ls, -g in ls
                if pos != neg and ls.count(g if pos else -g) == 1:
                    key = (len(r), ri, g)
                    if choice is None or key < choice:
                        choice = key
        if choice is None:
            break
        _, ri, gone = choice
        # One substitution renumbers x_m to x_{m-1} above the eliminated
        # generator and replaces it by its renumbered solution.  The solution
        # has no x_gone, so it is renumbered before its own image is set.
        images = [Word.gen(m - (m > gone)) for m in range(1, ngens + 1)]
        images[gone - 1] = _solve(relators.pop(ri), gone).substitute(images)
        relators = [rel.substitute(images) for rel in relators]
        ngens -= 1
    return GroupPresentation(ngens, tuple(relators))


# The S1 statuses, weakest verdict first.
S1_WEAKEST_FIRST = ("fails", "unknown", "holds-up-to-inversion", "holds")


@dataclass(frozen=True)
class S1Report:
    """Verdict on whether a core collapses the two-generator quotient to Z.

    status is one of "holds" (core and inverse core both force a = b), the
    separately reported "holds-up-to-inversion" (both force a = b^-1),
    "fails" (a side forces neither, or the two sides force different
    collapses), or "unknown" (a one-relator question was not decided).
    """

    status: str
    witness: str


def _s1_side(core: AutF2) -> tuple[str, str]:
    relator = (core.image_b * Word.gen(2, -1)).cyclically_reduce()[0]
    if not relator:
        return "fails", "relator is trivial, quotient is free of rank 2"
    for single, other in ((1, 2), (2, 1)):
        if relator.letters.count(single) + relator.letters.count(-single) == 1:
            k = _solve(relator, single).exponent_sum(other)
            s, o = "ab"[single - 1], "ab"[other - 1]
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


def check_S1(core: AutF2) -> S1Report:
    """Decide the collapse property for a core and for its inverse.

    Both directions matter because a stabilizing crossing can carry either
    sign, and both signs must give the same group: a = b on one side with
    a = b^-1 on the other fails.  Otherwise the weaker verdict wins.
    """
    s1, w1 = _s1_side(core)
    s2, w2 = _s1_side(core.inverse())
    witness = f"core: {w1}; inverse core: {w2}"
    statuses = {s1, s2}
    if statuses == {"holds", "holds-up-to-inversion"}:
        return S1Report("fails", f"the two sides collapse differently: {witness}")
    return S1Report(min(statuses, key=S1_WEAKEST_FIRST.index), witness)


@dataclass(frozen=True)
class Fingerprint:
    """Computable isomorphism invariants of a presented group.

    abelianization lists the nontrivial invariant factors (0 per free
    factor); hom_counts pairs group names with exact homomorphism counts.
    """

    abelianization: tuple[int, ...]
    hom_counts: tuple[tuple[str, int], ...]

    def hom_count(self, name: str) -> int:
        for n, c in self.hom_counts:
            if n == name:
                return c
        raise KeyError(name)

    def describe(self) -> str:
        if not self.abelianization:
            ab = "trivial"
        else:
            parts = [("Z" if d == 0 else f"Z/{d}") for d in self.abelianization]
            ab = " x ".join(parts)
        homs = ", ".join(f"{n}: {c}" for n, c in self.hom_counts)
        return f"abelianization {ab}" + (f"; hom counts {homs}" if homs else "")


def fingerprint_report(
    rep: LocalRep, braid: BraidWord, groups: Iterable[FiniteGroupTable] = ()
) -> tuple[GroupPresentation, GroupPresentation, Fingerprint]:
    """The closed-braid presentation, its Tietze simplification, and the
    Fingerprint: abelianization plus hom counts of the closed-braid group.

    Both measurements are invariants of the group, so the simplification
    only buys speed.  Each group's budget is checked once, as count_homs
    checks it.  The abelianization, computed once, gives each hom count into
    an abelian group.  When some group is non-abelian, the simplified
    presentation is also split once into its free factors, and a count into
    a non-abelian group comes from _homs_from_factors, or from
    count_homs_by_action where some factor would be walked and the action
    should cost less for that group; all three rules are exact.
    """
    groups = tuple(groups)
    pres = presentation(rep, braid)
    simplified = tietze_simplify(pres)
    factors = abelianization(simplified)
    if any(g.pair_orbits for g in groups):
        cyclic, walkable = _free_factors(simplified)
    # In table lookups per point: the action makes one per crossing and about
    # 12 per distinct letter to build that letter's list; the walk visits
    # _walk_tuples tuples, which mostly fail within the first relator.
    action_steps = len(braid.letters) + 12 * len(set(braid.letters))
    walk_steps = len(simplified.relators[0]) if simplified.relators else 0
    counts = []
    for g in groups:
        _check_hom_budget(g, simplified.ngens)
        states = g.order**rep.n
        if not g.pair_orbits:
            count = _homs_from_abelianization(factors, g)
        elif (
            states <= ACTION_STATES_CHOSEN
            and states * action_steps < _walk_tuples(g, walkable) * walk_steps
        ):
            count = count_homs_by_action(rep, braid, g)
        else:
            count = _homs_from_factors(cyclic, walkable, g)
        counts.append((g.name, count))
    return pres, simplified, Fingerprint(factors, tuple(sorted(counts)))


def fingerprint(
    rep: LocalRep, braid: BraidWord, groups: Iterable[FiniteGroupTable] = ()
) -> Fingerprint:
    """Abelianization plus hom counts of the closed-braid group; see
    fingerprint_report."""
    return fingerprint_report(rep, braid, groups)[2]

"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools

from braidact.autf2 import AutF2, is_basis
from braidact.groups import FiniteGroupTable
from braidact.invariant import GroupPresentation
from braidact.localrep import FAMILY_TAGS, FamilyId, Quad, canonicalize, catalog, check_quad
from braidact.words import Word


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
            acc = group.identity
            for e in elems:
                acc = group.table[acc][e]
            if acc != group.identity:
                ok = False
                break
        if ok:
            count += 1
    return count


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
    bases = [(u, v) for u in words for v in words if is_basis(u, v)]
    return {
        canonicalize(Quad(a, b, c, d))
        for (a, b), (c, d) in itertools.product(bases, repeat=2)
        if check_quad(a, b, c, d).valid
    }

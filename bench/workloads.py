"""The four workloads: seeded inputs, one callable per operation, and the
independent checks of a round's outputs.

Every workload is built against a freshly imported `braidact` package
(passed in as `ba`), so set-up time includes the import.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class OperationFailed(Exception):
    """An operation whose outcome the program got wrong; counted as failed."""


@dataclass
class Plan:
    """One round: the operations in order and the check of their results.

    `ops` holds (fn, args) pairs; `check` gets the list of results (None
    for an operation that failed) and returns the problems it found.
    """

    ops: list[tuple[Callable, tuple]]
    check: Callable[[list], list[str]]
    info: dict = field(default_factory=dict)


# -- shared checks -------------------------------------------------------------


def permutation_cycles(n: int, letters) -> int:
    """Cycles of the permutation a braid word induces on its n strands."""
    perm = list(range(n))
    for letter in letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
    return cycles


def cyclic_hom_problems(fp, ks) -> list[str]:
    """|Hom(G, Z_k)| must be the product of gcd(d, k) over G's abelian factors."""
    out = []
    for k in ks:
        expected = math.prod(math.gcd(d, k) for d in fp.abelianization)
        got = fp.hom_count(f"Z{k}")
        if got != expected:
            out.append(f"Z{k} hom count {got} != {expected} from abelianization {fp.abelianization}")
    return out


def free_abelian_problems(fp, n: int, letters) -> list[str]:
    """For conjugation-type actions the abelianization is Z^(strand cycles)."""
    c = permutation_cycles(n, letters)
    if fp.abelianization != (0,) * c:
        return [f"abelianization {fp.abelianization} != Z^{c}"]
    return []


def _shuffled(rng: random.Random, ops: list, meta: list) -> tuple[list, list]:
    """Operations and their descriptions in one seeded random order."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [meta[i] for i in order]


def _fingerprint(ba, rep, braid, groups):
    # Looked up at call time, so a traced round calls the wrapped function.
    return ba.fingerprint(rep, braid, groups)


# -- classify ------------------------------------------------------------------

CLASSIFY_MAX_LEN = 3


def _run_classify_cli(ba) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ba.cli.main(["classify", "--max-len", str(CLASSIFY_MAX_LEN), "--json"])
    if code != 0:
        raise OperationFailed(f"classify exited with {code}")
    return buf.getvalue()


def classify(ba, rng: random.Random) -> Plan:
    def check(results):
        (text,) = results
        if text is None:
            return []
        payload = json.loads(text)
        found = {ba.Quad.parse(e["quad"]): e["family"] for e in payload["classes"]}
        problems = []
        expected = set()
        for family in ba.FAMILY_TAGS:
            rs = range((CLASSIFY_MAX_LEN - 1) // 2 + 1) if family in ("A1", "A2", "A3") else (None,)
            for r in rs:
                quad = ba.catalog(ba.FamilyId(family, r))
                if quad.max_word_length() <= CLASSIFY_MAX_LEN:
                    expected.add(ba.canonicalize(quad))
        if set(found) != expected or payload["count"] != len(expected):
            problems.append(f"classes {sorted(map(str, found))} != catalog {sorted(map(str, expected))}")
        for quad, label in found.items():
            if not ba.check_pair_via_braid(quad.tau, quad.kappa):
                problems.append(f"class ({quad}) fails the braid cross-check")
            if label is None or ba.catalog(ba.FamilyId.parse(label)) != quad:
                problems.append(f"label {label} does not reproduce ({quad})")
        return problems

    return Plan([(_run_classify_cli, (ba,))], check, {"max_len": CLASSIFY_MAX_LEN})


# -- successors ----------------------------------------------------------------

SUCCESSORS_MAX_R = 5


def _successor_steps(ba, fid):
    quad = ba.catalog(fid)
    rep3 = ba.rep_from_cores((quad.tau, quad.kappa))
    holds3 = ba.verify_braid_relations(rep3)
    extensions = ba.outgoing_cores(quad.kappa)
    holds4 = [
        ba.verify_braid_relations(ba.LocalRep(4, rep3.cores + (core,)))
        for core, _ in extensions
    ]
    return quad, holds3, extensions, holds4, ba.identify_quad(quad)


def successors(ba, rng: random.Random) -> Plan:
    fids = [
        ba.FamilyId(family, r, inv, swap, backward)
        for family in ba.FAMILY_TAGS
        for r in (range(SUCCESSORS_MAX_R + 1) if family in ("A1", "A2", "A3") else (None,))
        for inv, swap, backward in itertools.product((False, True), repeat=3)
    ]
    rng.shuffle(fids)

    def check(results):
        problems = []
        for fid, result in zip(fids, results):
            if result is None:
                continue
            quad, holds3, extensions, holds4, back = result
            if not holds3:
                problems.append(f"{fid}: braid relations fail on 3 strands")
            if not all(holds4):
                problems.append(f"{fid}: braid relations fail on a 4-strand extension")
            for core, _ in extensions:
                if not ba.check_pair_via_braid(quad.kappa, core):
                    problems.append(f"{fid}: successor ({core}) fails the braid cross-check")
            if back is None or ba.catalog(back) != quad:
                problems.append(f"{fid}: identify_quad gives {back}")
        return problems

    return Plan([(_successor_steps, (ba, fid)) for fid in fids], check, {"family_ids": len(fids)})


# -- fingerprints --------------------------------------------------------------

MARKOV_CORES = {
    "artin": "abA,a",
    "A1-backward": "Aba,a",
    "B": "B,a",
    "C": "aBa,a",
    "D": "ABa,bba",
}
STABLE_TYPES = ("artin", "A1-backward", "C", "D")
FREE_ABELIAN_TYPES = ("artin", "A1-backward")
MAX_LEN_3_STRANDS = 2
MAX_POWER_2_STRANDS = 6
CONJUGATOR_LEN = 3
# The conjugators come from this constant stream, not from the seed: a
# conjugate's cost varies a lot with the conjugator, so seeded conjugators
# made the work of a round depend on the seed.
CONJUGATOR_STREAM = 1406
# Knots whose stabilizations decide a core's collapse verdict: the unknot
# and trefoil on 2 strands, the figure-eight knot on 3.
VERDICT_BATTERY = ((2, (1,)), (2, (1, 1, 1)), (3, (1, -2, 1, -2)))


def battery_braids() -> list[tuple[int, tuple[int, ...]]]:
    """Every reduced braid word of length 1..2 on 3 strands, and s1^k on 2."""
    out = [(2, (s,) * k) for k in range(1, MAX_POWER_2_STRANDS + 1) for s in (1, -1)]
    letters = (1, -1, 2, -2)
    for length in range(1, MAX_LEN_3_STRANDS + 1):
        for word in itertools.product(letters, repeat=length):
            if all(word[k] != -word[k + 1] for k in range(length - 1)):
                out.append((3, word))
    return out


def _verdict(ba, core, extensions, groups):
    report = ba.check_S1(core)
    status = report.status
    if status not in ("holds", "holds-up-to-inversion"):
        return report
    for n, letters in VERDICT_BATTERY:
        rep = ba.constant_rep(core, n)
        braid = ba.BraidWord(n, letters)
        base = ba.fingerprint(rep, braid, groups)
        for ext in extensions:
            taller = ba.LocalRep(n + 1, rep.cores + (ext,))
            for sign in (1, -1):
                moved = ba.fingerprint(taller, ba.markov_stabilize(braid, sign), groups)
                if moved != base:
                    raise OperationFailed(
                        f"check_S1({core}) says {status}, but stabilizing {letters} on "
                        f"{n} strands changes {base.describe()} to {moved.describe()}"
                    )
    return report


def fingerprints(ba, rng: random.Random) -> Plan:
    groups = [ba.builtin_group(name) for name in ba.DEFAULT_FINGERPRINT_GROUPS]
    ks = [int(g.name[1:]) for g in groups if g.name.startswith("Z")]
    ops = []
    meta = []  # per op: (type, braid index, role, strands, letters)
    braids = battery_braids()
    conjugators = random.Random(CONJUGATOR_STREAM)
    for kind, text in MARKOV_CORES.items():
        core = ba.AutF2.parse(text)
        extensions = tuple(c for c, _ in ba.outgoing_cores(core))
        ops.append((_verdict, (ba, core, extensions, groups)))
        meta.append((kind, None, "verdict", 0, ()))
        for index, (n, letters) in enumerate(braids):
            rep = ba.constant_rep(core, n)
            braid = ba.BraidWord(n, letters)
            choices = [i for i in range(1 - n, n) if i]
            g = ba.BraidWord(n, tuple(conjugators.choice(choices) for _ in range(CONJUGATOR_LEN)))
            conj = ba.markov_conjugate(braid, g)
            ops.append((_fingerprint, (ba, rep, braid, groups)))
            meta.append((kind, index, "base", n, letters))
            ops.append((_fingerprint, (ba, rep, conj, groups)))
            meta.append((kind, index, "conjugate", n, conj.letters))
            for ext in extensions:
                taller = ba.LocalRep(n + 1, rep.cores + (ext,))
                for sign in (1, -1):
                    stab = ba.markov_stabilize(braid, sign)
                    ops.append((_fingerprint, (ba, taller, stab, groups)))
                    meta.append((kind, index, "stabilized", n + 1, stab.letters))
    ops, meta = _shuffled(rng, ops, meta)

    def check(results):
        problems = []
        base = {}
        for (kind, index, role, n, letters), fp in zip(meta, results):
            if role == "base" and fp is not None:
                base[kind, index] = fp
        for (kind, index, role, n, letters), fp in zip(meta, results):
            if fp is None or role == "verdict":
                continue
            where = f"{kind} braid {letters} on {n} strands"
            problems += [f"{where}: {p}" for p in cyclic_hom_problems(fp, ks)]
            if kind in FREE_ABELIAN_TYPES:
                problems += [f"{where}: {p}" for p in free_abelian_problems(fp, n, letters)]
            reference = base.get((kind, index))
            if role == "conjugate" or (role == "stabilized" and kind in STABLE_TYPES):
                if reference is not None and fp != reference:
                    problems.append(f"{where}: {role} fingerprint {fp} != {reference}")
        return problems

    return Plan(ops, check, {"braids_per_core": len(braids), "cores": len(MARKOV_CORES)})


# -- long_braids ---------------------------------------------------------------

LONG_CORES = {
    "artin": "abA,a",
    # A1 at r = 2: at r = 1 the A1 core is the artin core itself.
    "A1": "aabAA,a",
    "C": "aBa,a",
    "D": "ABa,bba",
}
LONG_STRANDS = 4
# Written by make_long_pool.py; the braids are fixed, the seed only picks
# the words that spell them (random braid relations) and their order.
LONG_POOL_FILE = "long_braids.json"
REWRITES_PER_BRAID = 40


def _relation_moves(word: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """Words equal to `word` in the braid group by one relation at position p."""
    out = []
    if p + 1 >= len(word):
        return out
    x, y = word[p], word[p + 1]
    if abs(abs(x) - abs(y)) >= 2:
        out.append(word[:p] + (y, x) + word[p + 2 :])
    if p + 2 < len(word):
        z = word[p + 2]
        i, j = abs(x), abs(y)
        if abs(i - j) == 1 and abs(z) == i:
            sx, sy, sz = (1 if v > 0 else -1 for v in (x, y, z))
            # s_i^a s_j^b s_i^c = s_j^c s_i^b s_j^a whenever a, b, c are not
            # (+, -, +) or (-, +, -); those two patterns have no such move.
            if not (sx == sz and sx != sy):
                out.append(word[:p] + (sz * j, sy * i, sx * j) + word[p + 3 :])
    return out


def rewrite(word: tuple[int, ...], rng: random.Random, moves: int) -> tuple[int, ...]:
    """Apply `moves` random braid relations; the braid itself is unchanged."""
    done = 0
    tries = 0
    while done < moves and tries < 50 * moves:
        tries += 1
        options = _relation_moves(word, rng.randrange(len(word)))
        if options:
            word = rng.choice(options)
            done += 1
    return word


def long_braids(ba, rng: random.Random) -> Plan:
    groups = [ba.builtin_group("Z2"), ba.builtin_group("Z3")]
    ops = []
    meta = []
    pool = json.loads((Path(__file__).resolve().parent / LONG_POOL_FILE).read_text())
    for kind, braids in pool["braids"].items():
        rep = ba.constant_rep(ba.AutF2.parse(LONG_CORES[kind]), LONG_STRANDS)
        for word in braids:
            braid = ba.BraidWord(LONG_STRANDS, rewrite(tuple(word), rng, REWRITES_PER_BRAID))
            ops.append((_fingerprint, (ba, rep, braid, groups)))
            meta.append((kind, braid.letters))
    ops, meta = _shuffled(rng, ops, meta)

    def check(results):
        problems = []
        for (kind, letters), fp in zip(meta, results):
            if fp is None:
                continue
            where = f"{kind} braid of {len(letters)} crossings"
            problems += [f"{where}: {p}" for p in cyclic_hom_problems(fp, (2, 3))]
            if kind in ("artin", "A1"):
                problems += [f"{where}: {p}" for p in free_abelian_problems(fp, LONG_STRANDS, letters)]
        return problems

    return Plan(ops, check, {"braids": len(ops)})


WORKLOADS = {
    "classify": classify,
    "successors": successors,
    "fingerprints": fingerprints,
    "long_braids": long_braids,
}

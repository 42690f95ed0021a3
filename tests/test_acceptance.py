"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The type-B stabilization check is expected to stay red: the group genuinely
changes under stabilization for that action (see the assertion message),
so the suite reports the counterexample instead of hiding it.
"""

import itertools
import random
import time

import pytest

from braidact.autf2 import AutF2, is_basis, nielsen_reduce
from braidact.braid import (
    BraidWord,
    check_pair_via_braid,
    endo_of_braid,
    parse_braid,
    verify_braid_relations,
)
from braidact.groups import builtin_group
from braidact.invariant import (
    GroupPresentation,
    abelianization,
    check_S1,
    count_homs,
    fingerprint,
    markov_conjugate,
    markov_stabilize,
    presentation,
    tietze_simplify,
)
from braidact.localrep import (
    ARTIN_CORE,
    FAMILY_TAGS,
    FamilyId,
    LocalRep,
    Quad,
    backward_dual,
    build_gamma,
    canonicalize,
    catalog,
    check_quad,
    classify_search,
    component_vertices,
    constant_rep,
    inverse_rep,
    outgoing_cores,
    rep_from_cores,
    swap_dual,
)
from braidact.words import Word

from .util import brute_hom_count, reduced_words

GROUPS = [builtin_group(n) for n in ("Z2", "Z3", "Z4", "Z5", "S3", "S4")]

A_FAMILIES = ("A1", "A2", "A3")


def _all_family_ids(max_r, decorations=True):
    decos = (
        list(itertools.product((False, True), repeat=3)) if decorations else [(False, False, False)]
    )
    for fam in FAMILY_TAGS:
        rs = range(max_r + 1) if fam in A_FAMILIES else (None,)
        for r in rs:
            for inv, swap, backward in decos:
                yield FamilyId(fam, r, inv, swap, backward)


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _random_braid(rng, n, max_len):
    choices = [i for i in range(-(n - 1), n) if i != 0]
    return BraidWord(n, tuple(rng.choice(choices) for _ in range(rng.randint(0, max_len))))


def test_criterion_1_catalog_soundness():
    t0 = time.time()
    checked = 0
    for fid in _all_family_ids(10):
        quad = catalog(fid)
        report = check_quad(*quad.words)
        assert report.valid, f"{fid} fails {report.failures()}"
        assert check_pair_via_braid(quad.tau, quad.kappa), f"{fid} fails braid cross-check"
        checked += 1
    _report(1, True, f"{checked} decorated family quads pass both checkers "
                     f"({time.time() - t0:.1f}s)")


def _truncated_catalog_classes(max_len):
    classes = set()
    for fid in _all_family_ids((max_len - 1) // 2, decorations=False):
        quad = catalog(fid)
        if quad.max_word_length() <= max_len:
            classes.add(canonicalize(quad))
    return classes


def test_criterion_2_classification_completeness():
    t0 = time.time()
    search1 = classify_search(1)
    assert search1 == _truncated_catalog_classes(1)
    assert len(search1) == 7
    search3 = classify_search(3)
    truncated3 = _truncated_catalog_classes(3)
    assert search3 == truncated3
    # The fourteen family names cover only 16 classes at this length: the
    # two mixing families D2 and D3 are images of each other under the
    # inverse-swap-backward symmetry, so their canonical classes coincide.
    assert len(search3) == 16
    assert canonicalize(catalog(FamilyId("D2"))) == canonicalize(catalog(FamilyId("D3")))
    names = {}
    for fid in _all_family_ids(1, decorations=False):
        quad = catalog(fid)
        if quad.max_word_length() <= 3:
            names.setdefault(canonicalize(quad), []).append(str(fid))
    merged = [v for v in names.values() if len(v) > 1]
    assert merged == [["D2", "D3"]]
    search5 = classify_search(5)
    assert search5 == _truncated_catalog_classes(5)
    assert len(search5) == 19
    search6 = classify_search(6)
    assert search6 == _truncated_catalog_classes(6)
    assert len(search6) == 19
    search7 = classify_search(7)
    assert search7 == _truncated_catalog_classes(7)
    assert len(search7) == 22
    _report(2, True,
            f"search(1) = 7, search(3) = 16, search(5) = search(6) = 19, search(7) = 22 "
            f"classes, each equal to the truncated catalog; D2/D3 share one symmetry orbit "
            f"({time.time() - t0:.1f}s)")


@pytest.mark.extended
def test_criterion_2_extended_lengths_eight_nine():
    t0 = time.time()
    search8 = classify_search(8)
    assert search8 == _truncated_catalog_classes(8)
    assert len(search8) == 22
    search9 = classify_search(9)
    assert search9 == _truncated_catalog_classes(9)
    assert len(search9) == 25
    _report("2x", True, f"search(8) = {len(search8)}, search(9) = {len(search9)} classes, "
                        f"each equal to the truncated catalog ({time.time() - t0:.1f}s)")


# Expected labelled edge sets read off the classification graph figure,
# with each component's vertices in the catalog text form.
_FIGURE_EDGES = {
    "T": {("a,b", "a,b")},
    "T'": {("a,B", "A,b")},
    "B": {("B,a", "B,a"), ("B,a", "b,A"), ("b,A", "b,A"), ("b,A", "B,a")},
    "C": {("aBa,a", "aBa,a"), ("aBa,a", "aba,A"), ("aba,A", "aba,A"), ("aba,A", "aBa,a")},
    "D": {
        ("ABa,bba", "ABa,bba"),
        ("ABa,bba", "Aba,Abb"),
        ("abA,bbA", "ABa,bba"),
        ("abA,bbA", "Aba,Abb"),
        ("Aba,Abb", "abA,bbA"),
        ("Aba,Abb", "aBA,abb"),
        ("aBA,abb", "aBA,abb"),
        ("aBA,abb", "abA,bbA"),
    },
}


def _a_component_edges(r):
    v1 = f"{'a' * r}b{'A' * r},a"
    v2 = f"{'a' * r}B{'A' * r},A"
    v3 = f"{'A' * r}B{'a' * r},A"
    v4 = f"{'A' * r}b{'a' * r},a"
    return {
        (v1, v1), (v1, v2), (v2, v4), (v2, v3),
        (v3, v1), (v3, v2), (v4, v3), (v4, v4),
    }


def test_criterion_3_figure_reconstruction():
    t0 = time.time()
    for kind, expected in _FIGURE_EDGES.items():
        graph = build_gamma(component_vertices(kind))
        assert {(str(e.src), str(e.dst)) for e in graph.edges} == expected, kind
        for e in graph.edges:
            assert catalog(FamilyId.parse(e.label)) == Quad.from_cores(e.src, e.dst)
    for r in range(1, 6):
        graph = build_gamma(component_vertices("A", r))
        assert {(str(e.src), str(e.dst)) for e in graph.edges} == _a_component_edges(r), r
        for e in graph.edges:
            assert catalog(FamilyId.parse(e.label)) == Quad.from_cores(e.src, e.dst)
    # r = 0 degeneration: the four parametric vertices collapse to two.
    vertices0 = component_vertices("A", 0)
    graph0 = build_gamma(vertices0)
    assert len(vertices0) == 2 and len(graph0.edges) == 4
    _report(3, True,
            "all components match the figure's labelled edges for r = 1..5; "
            f"r = 0 collapses to 2 vertices with 4 edges ({time.time() - t0:.1f}s)")


def test_criterion_4_braid_homomorphism():
    t0 = time.time()
    reps_checked = 0
    on_four = 0
    for fid in _all_family_ids(10):
        quad = catalog(fid)
        rep3 = LocalRep(3, (quad.tau, quad.kappa))
        assert verify_braid_relations(rep3), f"{fid} fails on 3 strands"
        reps_checked += 1
        for extension, _ in outgoing_cores(quad.kappa):
            rep4 = LocalRep(4, (quad.tau, quad.kappa, extension))
            assert verify_braid_relations(rep4), f"{fid} + ({extension}) fails on 4 strands"
            on_four += 1
    rng = random.Random(4242)
    reps = [
        constant_rep(ARTIN_CORE, 4),
        constant_rep(AutF2.parse("B,a"), 4),
        constant_rep(AutF2.parse("ABa,bba"), 4),
        constant_rep(AutF2.parse("aBa,a"), 4),
    ]
    pairs = 0
    while pairs < 200:
        rep = reps[pairs % len(reps)]
        b1 = _random_braid(rng, 4, 6)
        b2 = _random_braid(rng, 4, 6)
        assert endo_of_braid(rep, b1 * b2) == endo_of_braid(rep, b1).compose(
            endo_of_braid(rep, b2)
        )
        pairs += 1
    _report(4, True,
            f"braid relations hold for {reps_checked} reps on 3 strands and "
            f"{on_four} extensions on 4 strands; concatenation respected on "
            f"{pairs} random braid pairs ({time.time() - t0:.1f}s)")


# One representative per family type used by the Markov checks.
_MARKOV_REPS = {
    "artin": ARTIN_CORE,
    "A1-backward": AutF2.parse("Aba,a"),
    "B": AutF2.parse("B,a"),
    "C": AutF2.parse("aBa,a"),
    "D": AutF2.parse("ABa,bba"),
}


def test_criterion_5_markov_conjugation():
    t0 = time.time()
    rng = random.Random(501)
    for name, core in _MARKOV_REPS.items():
        for _ in range(50):
            n = rng.choice((2, 3))
            rep = constant_rep(core, n)
            braid = _random_braid(rng, n, 6)
            conjugator = _random_braid(rng, n, 4)
            base = fingerprint(rep, braid, GROUPS)
            moved = fingerprint(rep, markov_conjugate(braid, conjugator), GROUPS)
            assert base == moved, (name, str(braid), str(conjugator))
    _report(5, True,
            f"conjugation invariance: 50 random conjugations per rep x "
            f"{len(_MARKOV_REPS)} reps ({time.time() - t0:.1f}s)")


def _stabilization_mismatches(core, trials, rng):
    mismatches = []
    for _ in range(trials):
        n = rng.choice((2, 3))
        rep = constant_rep(core, n)
        braid = _random_braid(rng, n, 6)
        base = fingerprint(rep, braid, GROUPS)
        for extension, _ in outgoing_cores(rep.cores[-1]):
            taller = LocalRep(n + 1, rep.cores + (extension,))
            for sign in (1, -1):
                moved = fingerprint(taller, markov_stabilize(braid, sign), GROUPS)
                if moved != base:
                    mismatches.append((str(braid), n, str(extension), sign))
    return mismatches


def test_criterion_5_markov_stabilization_stable_types():
    t0 = time.time()
    rng = random.Random(502)
    for name in ("artin", "A1-backward", "C", "D"):
        core = _MARKOV_REPS[name]
        assert check_S1(core).status in ("holds", "holds-up-to-inversion")
        mismatches = _stabilization_mismatches(core, 20, rng)
        assert not mismatches, (name, mismatches[:3])
    _report(5, True,
            "stabilization invariance (both signs, every extension): types "
            f"A1, C, D over 20 braids each ({time.time() - t0:.1f}s)")


def test_criterion_5_markov_stabilization_type_B():
    """Faithful check of stabilization invariance for the type-B action.

    This check fails, and the failure is genuine rather than a defect of
    the implementation: for the type-B action x -> y^-1, y -> x, the
    closed-braid group is not stable under adding a strand.  The crossing
    s1 on two strands closes to the unknot and gives relations
    x1 = x2^-1, x1 = x2, i.e. the group Z/2; one stabilization later,
    s1 s2 on three strands closes to the same unknot but gives Z.  The
    collapse property behind the invariance proof needs the core to act
    as the identity on the collapsed infinite cyclic quotient, and the
    type-B core acts as negation instead.
    """
    rng = random.Random(503)
    core = _MARKOV_REPS["B"]
    assert check_S1(core).status == "fails"
    mismatches = _stabilization_mismatches(core, 20, rng)
    _report(5, not mismatches,
            "type-B stabilization invariance "
            f"({len(mismatches)} mismatches; unknot witness: s1 in B_2 gives Z/2, "
            "s1 s2 in B_3 gives Z)")
    assert not mismatches, (
        "type-B stabilization changes the group: e.g. the unknot as the closure "
        "of s1 in B_2 has group Z/2 but as the closure of s1 s2 in B_3 has group Z; "
        f"first mismatches: {mismatches[:3]}"
    )


_BATTERY = (
    ("unknot", "1", 2),
    ("trefoil", "1 1 1", 2),
    ("figure-eight", "1 -2 1 -2", 3),
    ("hopf", "1 1", 2),
)


def test_criterion_6_same_type_same_invariant():
    t0 = time.time()
    v1 = AutF2.parse("abA,a")
    v2 = AutF2.parse("aBA,A")
    v3 = AutF2.parse("ABa,A")
    v4 = AutF2.parse("Aba,a")
    paths = {
        "constant": {2: [v1], 3: [v1, v1]},
        "reversed-conjugation": {2: [v4], 3: [v4, v3]},
    }
    for name, braid_text, n in _BATTERY:
        prints = {
            pname: fingerprint(rep_from_cores(path[n]), parse_braid(braid_text, n), GROUPS)
            for pname, path in paths.items()
        }
        assert len(set(prints.values())) == 1, (name, prints)
    # Replay of the mixed construction: embed both reps in one tall rep and
    # compare the two stabilized presentations of the same closure.
    tall = rep_from_cores([v1, v2, v4])
    trefoil_low = fingerprint(rep_from_cores([v1]), parse_braid("1 1 1", 2), GROUPS)
    trefoil_tail = fingerprint(rep_from_cores([v4]), parse_braid("1 1 1", 2), GROUPS)
    stabilized = fingerprint(tall, parse_braid("1 1 1 2 3", 4), GROUPS)
    shifted = fingerprint(tall, parse_braid("1 2 3 3 3", 4), GROUPS)
    assert trefoil_low == trefoil_tail == stabilized == shifted
    _report(6, True,
            "two distinct same-component paths agree on the whole battery; "
            f"the shifted-braid replay agrees as well ({time.time() - t0:.1f}s)")


def test_criterion_7_invariant_nontriviality():
    t0 = time.time()
    s3 = builtin_group("S3")
    artin2 = constant_rep(ARTIN_CORE, 2)
    trefoil_p = presentation(artin2, parse_braid("1 1 1", 2))
    unknot_p = presentation(artin2, parse_braid("1", 2))
    trefoil_s3 = count_homs(trefoil_p, s3)
    unknot_s3 = count_homs(unknot_p, s3)
    assert trefoil_s3 == brute_hom_count(trefoil_p, s3) == 12
    assert unknot_s3 == brute_hom_count(unknot_p, s3) == 6
    assert trefoil_s3 > 6
    assert abelianization(trefoil_p) == abelianization(unknot_p) == (0,)

    bcore = AutF2.parse("B,a")
    prints = {}
    for name, braid_text, n in _BATTERY:
        rep = constant_rep(bcore, n)
        braid = parse_braid(braid_text, n)
        prints[name] = fingerprint(rep, braid, GROUPS)
        raw = presentation(rep, braid)
        simplified = tietze_simplify(raw)
        for g in GROUPS:
            assert brute_hom_count(raw, g) == count_homs(simplified, g)
    distinct = {
        (a, b)
        for a, b in itertools.combinations(prints, 2)
        if prints[a] != prints[b]
    }
    assert distinct, prints
    _report(7, True,
            f"S3 separates trefoil (12) from unknot (6) under the conjugation "
            f"action; the type-B battery separates {sorted(distinct)} "
            f"({time.time() - t0:.1f}s)")


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = random.Random(800)

    # word algebra laws
    def random_word(max_len=12, rank=2):
        choices = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        return Word(rng.choice(choices) for _ in range(rng.randint(0, max_len)))

    for _ in range(400):
        u, v, x = random_word(), random_word(), random_word()
        raw = u.letters + v.letters
        assert Word(Word(raw).letters) == Word(raw)
        assert (u * v) * x == u * (v * x)
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert u.reverse().reverse() == u
        assert u.swap_letters().swap_letters() == u
        assert u.inverse().inverse() == u
        assert u.reverse().swap_letters() == u.swap_letters().reverse()
        images = (random_word(6), random_word(6))
        assert (u * v).substitute(images) == u.substitute(images) * v.substitute(images)
        core, conj = u.cyclically_reduce()
        assert conj * core * conj.inverse() == u

    # dual basis tests agree on every pair with total length <= 8
    by_len = {}
    for word in reduced_words(8):
        by_len.setdefault(len(word), []).append(word)
    pair_count = 0
    for la in range(9):
        for lb in range(9 - la):
            for u in by_len[la]:
                for v in by_len[lb]:
                    (p, q), _ = nielsen_reduce(u, v)
                    assert is_basis(u, v) == (len(p) == 1 and len(q) == 1)
                    pair_count += 1

    # symmetry commutation and validity on the full catalog, r <= 5
    ops = (inverse_rep, swap_dual, backward_dual)
    for fid in _all_family_ids(5, decorations=False):
        quad = catalog(fid)
        for f in ops:
            assert f(f(quad)) == quad
            assert check_quad(*f(quad).words).valid
        for f, g in itertools.combinations(ops, 2):
            assert f(g(quad)) == g(f(quad))

    # simplification preserves group-level fingerprints
    s3 = builtin_group("S3")
    z4 = builtin_group("Z4")
    for _ in range(30):
        ngens = rng.randint(1, 3)
        rels = tuple(
            Word(
                rng.choice([s * g for g in range(1, ngens + 1) for s in (1, -1)])
                for _ in range(rng.randint(0, 6))
            )
            for _ in range(rng.randint(0, 3))
        )
        p = GroupPresentation(ngens, rels)
        simplified = tietze_simplify(p)
        assert abelianization(simplified) == abelianization(p)
        assert count_homs(simplified, s3) == count_homs(p, s3)
        assert count_homs(simplified, z4) == count_homs(p, z4)

    _report(8, True,
            f"algebra laws on 400 random words, dual basis tests on {pair_count} "
            f"pairs, symmetry commutation on the catalog, simplification "
            f"preservation on 30 presentations ({time.time() - t0:.1f}s)")

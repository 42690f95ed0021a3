import random

import pytest

from braidact import invariant
from braidact.autf2 import AutF2, is_basis
from braidact.braid import BraidWord, parse_braid
from braidact.groups import builtin_group
from braidact.invariant import (
    GroupPresentation,
    abelianization,
    check_S1,
    count_homs,
    count_homs_by_action,
    fingerprint,
    markov_conjugate,
    markov_stabilize,
    pair_action,
    presentation,
    tietze_simplify,
)
from braidact.localrep import (
    ARTIN_CORE,
    FamilyId,
    LocalRep,
    catalog,
    constant_rep,
    outgoing_cores,
)
from braidact.words import Word

from .util import (
    brute_hom_count,
    burnside_pair_orbit_count,
    disjoint_union,
    klein_four_group,
    one_relator_side,
    plain_count_homs,
    quaternion_group,
    reduced_words,
    renumbering_tietze,
    scan_family_ids,
    walk_fingerprint,
)

S3 = builtin_group("S3")
S4 = builtin_group("S4")
GROUPS = [builtin_group(n) for n in ("Z2", "Z3", "Z4", "Z5", "S3", "S4")]
# The cores of the braid-action oracle tests: artin, A1 at r = 2, C, D and B.
ACTION_CORES = [AutF2.parse(t) for t in ("abA,a", "aabAA,a", "aBa,a", "ABa,bba", "B,a")]
ACTION_GROUPS = [builtin_group(n) for n in ("Z2", "Z3", "Z4", "Z5", "S3", "D4")]


def random_braid(rng, n, crossings):
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(crossings)))


def w(text):
    return Word.parse(text)


def pres(ngens, *relators):
    return GroupPresentation(ngens, tuple(w(r) for r in relators))


class TestPresentation:
    def test_one_strand_unknot(self):
        p = presentation(LocalRep(1, ()), BraidWord(1, ()))
        assert p.ngens == 1 and p.relators == ()

    def test_trefoil(self):
        p = presentation(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2))
        assert p.ngens == 2
        assert [r.text(2) for r in p.relators] == ["ababABAA", "abaBAB"]

    def test_empty_braid_drops_trivial_relators(self):
        p = presentation(constant_rep(ARTIN_CORE, 2), BraidWord(2, ()))
        assert p.ngens == 2 and p.relators == ()

    def test_relator_bounds_checked(self):
        with pytest.raises(ValueError):
            GroupPresentation(1, (w("ab"),))


class TestMarkovMoves:
    def test_conjugate_free_reduces_to_original(self):
        b = parse_braid("1 1 1", 2)
        conj = markov_conjugate(b, parse_braid("1", 2))
        assert conj.letters == (-1, 1, 1, 1, 1)

    def test_conjugate_strand_mismatch(self):
        with pytest.raises(ValueError):
            markov_conjugate(parse_braid("1", 2), parse_braid("1", 3))

    def test_stabilize(self):
        b = markov_stabilize(parse_braid("1 1 1", 2), 1)
        assert b.n == 3 and b.letters == (1, 1, 1, 2)

    def test_stabilize_one_strand(self):
        b = markov_stabilize(BraidWord(1, ()), 1)
        assert b.n == 2 and b.letters == (1,)

    def test_stabilize_sign_checked(self):
        with pytest.raises(ValueError):
            markov_stabilize(BraidWord(2, ()), 2)


class TestAbelianization:
    def test_free_rank_one(self):
        assert abelianization(pres(1)) == (0,)

    def test_trefoil_matrix(self):
        # Two generators, one relator: the diagonal (1, 0) loses its unit.
        p = presentation(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2))
        assert p.ngens == 2 and abelianization(p) == (0,)

    def test_torsion_presentation(self):
        # Z/2 x Z/3: the diagonal (1, 6) loses its unit.
        assert abelianization(pres(2, "aa", "bbb")) == (6,)

    def test_invariant_form_drops_units(self):
        # Without units the factors do not depend on the presentation.
        p = presentation(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2))
        assert abelianization(p) == abelianization(tietze_simplify(p)) == abelianization(pres(1))


class TestCountHoms:
    def test_free_rank_one(self):
        assert count_homs(pres(1), S3) == 6

    def test_free_rank_two(self):
        assert count_homs(pres(2), S3) == 36

    def test_trefoil_exceeds_cyclic_count(self):
        p = presentation(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2))
        n = count_homs(p, S3)
        assert n == 12
        assert n > 6
        assert brute_hom_count(p, S3) == 12

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setattr(invariant, "MAX_HOM_TUPLES", 24**2)
        assert count_homs(pres(2), S4) == 24**2
        with pytest.raises(ValueError, match="budget"):
            count_homs(pres(3), S4)

    def test_zero_generators(self):
        assert count_homs(pres(0), S3) == 1

    def test_matches_brute_oracle_on_random_presentations(self):
        rng = random.Random(17)
        groups = [S3] + [builtin_group(name) for name in ("Z4", "Z5", "D4")]
        for _ in range(25):
            ngens = rng.randint(1, 4)
            rels = []
            for _ in range(rng.randint(0, 3)):
                rels.append(
                    Word(
                        rng.choice([s * g for g in range(1, ngens + 1) for s in (1, -1)])
                        for _ in range(rng.randint(0, 6))
                    )
                )
            p = GroupPresentation(ngens, tuple(rels))
            for group in groups:
                assert count_homs(p, group) == brute_hom_count(p, group)

    def test_matches_both_oracles_by_generator_count(self):
        # D4, D6 and Q8 have a centre of order 2, S3, S4 and D5 a trivial one;
        # with four generators x_3 and x_4 are both walked in full for each
        # pair orbit.  Z1, Z4, Z5, Z6 and the non-cyclic V4 are abelian, and
        # every group is counted from the abelianization at 0 and 1 generators.
        groups = [S3, S4, quaternion_group(), klein_four_group()] + [
            builtin_group(n) for n in ("D4", "D5", "D6", "Z1", "Z4", "Z5", "Z6")
        ]
        rng = random.Random(31)
        for ngens in (0, 1, 2, 3, 4):
            letters = [s * g for g in range(1, ngens + 1) for s in (1, -1)]
            for _ in range(5):
                rels = [
                    Word(rng.choice(letters) for _ in range(rng.randint(0, 7) if letters else 0))
                    for _ in range(rng.randint(0, 3))
                ]
                # A commutator relator keeps many homs, so the pair orbits
                # contribute unequally.
                if ngens >= 2 and rng.random() < 0.5:
                    rels.append(w("x1 x2 X1 X2"))
                p = GroupPresentation(ngens, tuple(rels))
                for group in groups:
                    if ngens == 4 and group.name not in ("S3", "D4", "Q8", "V4", "Z1", "Z4", "Z6"):
                        continue
                    count = count_homs(p, group)
                    assert count == plain_count_homs(p, group) == brute_hom_count(p, group), (
                        str(p), group.name,
                    )

    def test_matches_brute_oracle_on_braid_presentations(self):
        rng = random.Random(23)
        groups = [builtin_group(name) for name in ("Z2", "Z3", "S3")]
        for text in ("aBa,a", "ABa,bba"):
            rep = constant_rep(AutF2.parse(text), 4)
            for _ in range(4):
                letters = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(8, 12)))
                p = presentation(rep, BraidWord(4, letters))
                for group in groups:
                    assert count_homs(p, group) == brute_hom_count(p, group)

    def test_last_generator_only_inverted(self):
        # x3 occurs only as X3, whose value sits at the last position.  Reading
        # X3 one position too low or too high gives 24 homs into S3, and 48 or
        # 64 into D4.
        p = pres(3, "x1 x2 X3 x2", "x1 X3 X3 x2")
        assert all(l != 3 for r in p.relators for l in r.letters)
        assert count_homs(p, S3) == brute_hom_count(p, S3) == 6
        d4 = builtin_group("D4")
        assert count_homs(p, d4) == brute_hom_count(p, d4) == 8

    def test_free_product_of_cyclic_groups_reads_each_factor(self):
        # Z/2 * Z/3 into S4: 10 elements of order dividing 2 times 9 of order
        # dividing 3.  Its abelianization Z/6 would allow only 18 homs.
        p = pres(2, "x1 x1", "x2 x2 x2")
        assert abelianization(p) == (6,)
        assert invariant._homs_from_abelianization((6,), S4) == 18
        assert count_homs(p, S4) == brute_hom_count(p, S4) == 90

    def test_free_factors_renumber_interleaved_generators(self):
        # The commutator lives on x1 and x3, the square on x2 and x4 is free;
        # the empty relator belongs to no factor.
        # A factor's relators come as the _slot values of its renumbered
        # letters: x1, x2, X1, X2, then x3..xk, then X3..Xk.
        u = disjoint_union(pres(2, "x1 x2 X1 X2", ""), pres(2, "x1 x1"))
        assert str(u) == "gens: 4; relators: x1 x3 X1 X3, 1, x2 x2"
        assert invariant._free_factors(u) == ((2, 0), [(2, ((0, 1, 2, 3),))])
        # A generator whose relators have coprime exponent sums is trivial.
        assert invariant._free_factors(pres(3, "x2 x2", "x2 x2 x2")) == ((0, 0), [])
        connected = pres(3, "x1 x3", "x3 X2 X2")
        assert invariant._free_factors(connected) == ((), [(3, ((0, 4), (4, 3, 3)))])
        # A factor keeps only its nonempty relators.
        with_empty = pres(3, "x1 x3", "", "x3 X2 X2")
        assert invariant._free_factors(with_empty) == invariant._free_factors(connected)
        # Past two generators the inverses follow the values.
        assert invariant._free_factors(pres(4, "x4 X3 x1 X2")) == ((), [(4, ((5, 6, 0, 3),))])

    def test_slot_layout_matches_the_stored_pair_orbits(self):
        # A pair orbit representative is stored as (g, h, g^-1, h^-1); the
        # walk appends the values of x_3..x_k and then their inverses.  Each
        # letter's slot must hold its value, on every k.
        for group in (S3, S4, builtin_group("D4"), quaternion_group()):
            inverse = group.inverse
            reps = [rep for _, block in group.pair_orbits for rep in block]
            assert reps and all(rep[2:] == (inverse[rep[0]], inverse[rep[1]]) for rep in reps)
            for k in (2, 3, 4):
                slots = [invariant._slot(s * i, k) for i in range(1, k + 1) for s in (1, -1)]
                assert sorted(slots) == list(range(2 * k))
                tail = tuple(range(1, k - 1))
                for rep in reps:
                    values = rep[:2] + tail
                    image = rep + tail + tuple(inverse[t] for t in tail)
                    for i, v in enumerate(values, start=1):
                        assert image[invariant._slot(i, k)] == v
                        assert image[invariant._slot(-i, k)] == inverse[v]

    def test_free_products_match_both_oracles(self):
        # A factor may leave one generator out of its relators, and may
        # carry an empty relator; the union interleaves the factors'
        # generators, so the split has to renumber them.
        groups = [S3, S4, builtin_group("D4"), quaternion_group(), klein_four_group()]
        groups.append(builtin_group("Z6"))
        rng = random.Random(61)

        def factor(ngens):
            used = rng.sample(range(1, ngens + 1), rng.randint(max(ngens - 1, 0), ngens))
            letters = [s * g for g in used for s in (1, -1)]
            rels = [Word(rng.choice(letters) for _ in range(rng.randint(2, 6))) for _ in used[:2]]
            if len(used) >= 2 and rng.random() < 0.5:
                rels.append(Word((used[0], used[1], -used[0], -used[1])))
            if rng.random() < 0.3:
                rels.insert(rng.randint(0, len(rels)), Word(()))
            return GroupPresentation(ngens, tuple(rels))

        # At four generators S4 takes 331,776 tuples per oracle, so only the
        # splits 1 + 3 and 2 + 2 run there.
        splits = [(left, total - left) for total in range(4) for left in range(total + 1)]
        for left, right in splits + [(1, 3), (2, 2)]:
            for _ in range(2 if left + right < 4 else 1):
                p, q = factor(left), factor(right)
                u = disjoint_union(p, q)
                for group in groups:
                    count = count_homs(u, group)
                    assert count == count_homs(p, group) * count_homs(q, group)
                    assert count == plain_count_homs(u, group) == brute_hom_count(u, group), (
                        str(u), group.name,
                    )


class TestCountHomsByAction:
    def test_matches_walk_and_brute_oracles_on_random_braids(self):
        rng = random.Random(88)
        for _ in range(40):
            n = rng.randint(2, 5)
            rep = constant_rep(rng.choice(ACTION_CORES), n)
            braid = random_braid(rng, n, rng.randint(1, 6))
            p = presentation(rep, braid)
            for group in ACTION_GROUPS:
                if group.order**n > 4096:
                    continue
                count = count_homs_by_action(rep, braid, group)
                assert count == count_homs(p, group) == brute_hom_count(p, group), (
                    str(rep.cores[0]), str(braid), group.name,
                )

    def test_empty_braid_fixes_every_tuple(self):
        for n in (2, 3, 4):
            rep = constant_rep(AutF2.parse("aBa,a"), n)
            for group in ACTION_GROUPS:
                assert count_homs_by_action(rep, BraidWord(n, ()), group) == group.order**n

    def test_one_negative_crossing(self):
        for core in ACTION_CORES:
            rep = constant_rep(core, 3)
            braid = BraidWord(3, (-2,))
            p = presentation(rep, braid)
            for group in ACTION_GROUPS:
                count = count_homs_by_action(rep, braid, group)
                assert count == count_homs(p, group) == brute_hom_count(p, group)

    def test_one_strand_counts_the_group(self):
        for core in ACTION_CORES:
            rep = constant_rep(core, 1)
            for group in ACTION_GROUPS:
                assert count_homs_by_action(rep, BraidWord(1, ()), group) == group.order

    def test_inverse_core_acts_by_the_inverse_table(self):
        for core in ACTION_CORES:
            for group in ACTION_GROUPS:
                forward = pair_action(core, group)
                backward = pair_action(core.inverse(), group)
                assert sorted(forward) == list(range(group.order**2))
                assert all(backward[forward[x]] == x for x in range(group.order**2))

    def test_letter_order_off_the_braid_relations(self):
        # On the cores of local actions a word and its reverse gave equal
        # counts in every case tried, so these cores, which satisfy no braid
        # relation, pin the order in which the letters act.
        rep = LocalRep(4, tuple(AutF2.parse(t) for t in ("ab,b", "b,ab", "ab,b")))
        for letters, expected in (((1, 2, 2, 3, 2), 24), ((2, 3, 2, 2, 1), 36)):
            braid = BraidWord(4, letters)
            p = presentation(rep, braid)
            assert count_homs_by_action(rep, braid, S3) == brute_hom_count(p, S3) == expected

    def test_negative_crossings_need_no_inverse_core(self, monkeypatch):
        rep = constant_rep(AutF2.parse("ABa,bba"), 4)
        braid = BraidWord(4, (1, -2, 3, -1, -3, -2, 2, 1, -3))
        p = presentation(rep, braid)
        expected = [brute_hom_count(p, group) for group in ACTION_GROUPS[:5]]
        monkeypatch.setattr(AutF2, "inverse", _refuse)
        assert [count_homs_by_action(rep, braid, g) for g in ACTION_GROUPS[:5]] == expected

    def test_strand_mismatch(self):
        with pytest.raises(ValueError, match="strand mismatch"):
            count_homs_by_action(constant_rep(ARTIN_CORE, 3), BraidWord(2, (1,)), S3)

    def test_refuses_past_the_state_limit(self):
        # 24^5 = 7,962,624 points of S4^5; refused before any list is built.
        with pytest.raises(ValueError, match="24\\^5 = 7962624 states exceeds the limit"):
            count_homs_by_action(constant_rep(ARTIN_CORE, 5), BraidWord(5, (1,)), S4)


def _refuse(*args, **kwargs):
    raise AssertionError("this backend must not run here")


class TestFingerprintBackends:
    def test_long_braid_into_S3_counts_by_the_action(self, monkeypatch):
        rep = constant_rep(AutF2.parse("aBa,a"), 4)
        braid = random_braid(random.Random(43), 4, 40)
        reference = walk_fingerprint(rep, braid, [S3])
        monkeypatch.setattr(invariant, "_walk_homs", _refuse)
        assert fingerprint(rep, braid, [S3]) == reference

    def test_abelian_targets_and_cyclic_groups_read_the_abelianization(self, monkeypatch):
        # Neither the walk nor the action may run: into Z2..Z5, and from a
        # closed-braid group whose simplified presentation has one generator
        # (s1 in B_2 gives Z, s1^3 and s1^5 under the type-B core give Z/2),
        # the counts come from the abelianization alone.
        long = (constant_rep(AutF2.parse("aBa,a"), 4), random_braid(random.Random(43), 4, 40))
        cyclic = [(constant_rep(ARTIN_CORE, 2), parse_braid("1", 2))] + [
            (constant_rep(AutF2.parse("B,a"), 2), BraidWord(2, (1,) * k)) for k in (3, 5)
        ]
        assert all(tietze_simplify(presentation(*case)).ngens == 1 for case in cyclic)
        cases = [(long, GROUPS[:4])] + [(case, [S3, S4]) for case in cyclic]
        references = [walk_fingerprint(*case, groups) for case, groups in cases]
        monkeypatch.setattr(invariant, "_walk_homs", _refuse)
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        assert [fingerprint(*case, groups) for case, groups in cases] == references

    def test_3_strand_braids_into_S4_count_by_the_walk(self, monkeypatch):
        rep = constant_rep(ARTIN_CORE, 3)
        short = parse_braid("1 -2 1 -2", 3)
        # Its first simplified relator (100 letters) is long enough for the
        # cost rule to pick the action, but S4^3 has 13,824 points, past
        # ACTION_STATES_CHOSEN.
        long = random_braid(random.Random(2), 3, 20)
        references = [walk_fingerprint(rep, b, [S4]) for b in (short, long)]
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        assert [fingerprint(rep, b, [S4]) for b in (short, long)] == references

    def test_class_walk_cost_takes_the_walk_into_S3(self, monkeypatch):
        # Three simplified generators and a 72-letter first relator: the walk
        # visits 11 pair orbits times 6 values of x_3, 66 S3 tuples and 4,752
        # lookups, against 9,936 for the action (216 points, 10 crossings, 3
        # distinct letters); counted over all 6^3 tuples, the walk would cost
        # 15,552 and lose.
        rep = constant_rep(ARTIN_CORE, 3)
        braid = parse_braid("-1 2 2 -2 2 2 -1 2 -1 2", 3)
        simplified = tietze_simplify(presentation(rep, braid))
        assert simplified.ngens == 3 and len(simplified.relators[0]) == 72
        reference = walk_fingerprint(rep, braid, [S3])
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        assert fingerprint(rep, braid, [S3]) == reference

    def test_walk_estimate_counts_the_pair_orbits(self):
        # Counts into an abelian group, or from a factor on at most one
        # generator, read the abelianization and walk no tuple.
        def connected(k):
            return invariant._free_factors(GroupPresentation(k, (Word(range(1, k + 1)),)))[1]

        for name, pairs in (("S3", 11), ("S4", 43), ("D4", 28)):
            group = builtin_group(name)
            assert burnside_pair_orbit_count(group) == pairs
            walk = invariant._walk_tuples
            assert walk(group, connected(0)) == walk(group, connected(1)) == 0
            assert walk(group, connected(2)) == pairs
            assert walk(group, connected(3)) == pairs * group.order
        z5 = builtin_group("Z5")
        assert [invariant._walk_tuples(z5, connected(k)) for k in range(4)] == [0, 0, 0, 0]

    def test_split_hopf_link_walks_only_its_linked_pair(self, monkeypatch):
        # s1^2 on 3 strands closes to the Hopf link plus a split unknot,
        # < x1, x2 | [x1, x2] > * < x3 >: the walk visits S4's 43 pair
        # orbits instead of 43 * 24 = 1,032 tuples.
        rep, braid = constant_rep(ARTIN_CORE, 3), parse_braid("1 1", 3)
        simplified = tietze_simplify(presentation(rep, braid))
        cyclic, walked = invariant._free_factors(simplified)
        assert simplified.ngens == 3 and cyclic == (0,) and [k for k, _ in walked] == [2]
        assert invariant._walk_tuples(S4, [(3, ())]) == 1032
        assert invariant._walk_tuples(S4, walked) == 43
        reference = walk_fingerprint(rep, braid, [S4])
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        fp = fingerprint(rep, braid, [S4])
        assert fp == reference and fp.hom_count("S4") == 2880

    def test_one_split_per_fingerprint(self, monkeypatch):
        # The split Hopf link into S3 and S4: both counts walk the linked
        # pair, from one split of the simplified presentation, and neither
        # goes through count_homs.
        rep, braid = constant_rep(ARTIN_CORE, 3), parse_braid("1 1", 3)
        reference = walk_fingerprint(rep, braid, [S3, S4])
        free_factors = invariant._free_factors
        splits = []

        def counted(p):
            splits.append(p)
            return free_factors(p)

        monkeypatch.setattr(invariant, "_free_factors", counted)
        monkeypatch.setattr(invariant, "count_homs", _refuse)
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        assert fingerprint(rep, braid, [S3, S4]) == reference
        assert len(splits) == 1

    def test_free_product_of_cyclic_groups_walks_nothing(self, monkeypatch):
        # Under the type-B core, s1^2 s3 on 4 strands closes to
        # Z/2 * Z/2 * Z/2: ten elements of S4 square to the identity.
        rep, braid = constant_rep(AutF2.parse("B,a"), 4), BraidWord(4, (1, 1, 3))
        simplified = tietze_simplify(presentation(rep, braid))
        assert invariant._free_factors(simplified) == ((2, 2, 2), [])
        reference = walk_fingerprint(rep, braid, [S3, S4])
        monkeypatch.setattr(invariant, "_walk_homs", _refuse)
        monkeypatch.setattr(invariant, "count_homs_by_action", _refuse)
        fp = fingerprint(rep, braid, [S3, S4])
        assert fp == reference and fp.hom_count("S4") == 1000

    @staticmethod
    def _count_backends(monkeypatch):
        used = {"action": 0, "walk": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                used[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(invariant, "_walk_homs", counted("walk", invariant._walk_homs))
        monkeypatch.setattr(
            invariant, "count_homs_by_action", counted("action", count_homs_by_action)
        )
        return used

    def test_matches_walk_reference_on_markov_battery(self, monkeypatch):
        # The knots of the acceptance battery under the cores of the Markov
        # checks, as they are and after every stabilization of either sign.
        battery = [("1", 2), ("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1", 2)]
        cases = []
        for text in ("abA,a", "Aba,a", "B,a", "aBa,a", "ABa,bba"):
            core = AutF2.parse(text)
            for letters, n in battery:
                rep, braid = constant_rep(core, n), parse_braid(letters, n)
                cases.append((rep, braid))
                for extension, _ in outgoing_cores(core):
                    taller = LocalRep(n + 1, rep.cores + (extension,))
                    cases += [(taller, markov_stabilize(braid, sign)) for sign in (1, -1)]
        references = [walk_fingerprint(rep, braid, GROUPS) for rep, braid in cases]
        used = self._count_backends(monkeypatch)
        assert [fingerprint(rep, braid, GROUPS) for rep, braid in cases] == references
        assert used["walk"] > 0

    def test_matches_walk_reference_on_long_braids(self, monkeypatch):
        rng = random.Random(44)
        groups = [builtin_group(n) for n in ("Z2", "Z3", "S3")]
        cases = [
            (constant_rep(core, 4), random_braid(rng, 4, rng.randint(24, 32)))
            for core in ACTION_CORES[:4]
            for _ in range(3)
        ]
        references = [walk_fingerprint(rep, braid, groups) for rep, braid in cases]
        used = self._count_backends(monkeypatch)
        assert [fingerprint(rep, braid, groups) for rep, braid in cases] == references
        assert used["action"] > 0 and used["walk"] > 0


class TestTietze:
    def test_identifies_generators(self):
        simplified = tietze_simplify(pres(2, "aB"))
        assert simplified.ngens == 1 and simplified.relators == ()

    def test_commutator_not_eliminable(self):
        simplified = tietze_simplify(pres(2, "abAB"))
        assert simplified.ngens == 2
        assert simplified.relators == (w("abAB"),)

    def test_tie_break_eliminates_the_lower_generator(self):
        # x1 and x2 both occur once in the shortest relator; x1 goes, as
        # x1 = X3 X3 X2, which renumbers to X2 X2 X1.  The second relator
        # becomes X2 X2 X1 X2 x1 x1 x2, cyclically X2 X1 X2 x1 x1, where no
        # generator occurs once.  Eliminating x2 instead would substitute
        # X1 X3 X3 into the second relator and end elsewhere.
        p = pres(3, "x1 x2 x3 x3", "x1 x1 x2 x3 x2 x2 x3")
        assert tietze_simplify(p) == GroupPresentation(2, (w("X2 X1 X2 x1 x1"),))

    def test_stabilized_trefoil_same_fingerprints(self):
        flat = fingerprint(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2), GROUPS)
        tall = fingerprint(constant_rep(ARTIN_CORE, 3), parse_braid("1 1 1 2", 3), GROUPS)
        assert flat == tall

    def test_preserves_group_level_data_on_random_presentations(self):
        rng = random.Random(8)
        for _ in range(20):
            ngens = rng.randint(1, 3)
            rels = []
            for _ in range(rng.randint(0, 3)):
                rels.append(
                    Word(
                        rng.choice([s * g for g in range(1, ngens + 1) for s in (1, -1)])
                        for _ in range(rng.randint(0, 5))
                    )
                )
            p = GroupPresentation(ngens, tuple(rels))
            simplified = tietze_simplify(p)
            assert abelianization(simplified) == abelianization(p)
            assert count_homs(simplified, S3) == count_homs(p, S3)

    def test_matches_renumbering_oracle_on_braid_presentations(self):
        rng = random.Random(29)
        cores = ACTION_CORES + [AutF2.parse("Aba,a")]
        seen = 0
        for core in cores:
            for n in range(2, 6):
                rep = constant_rep(core, n)
                for _ in range(22):
                    p = presentation(rep, random_braid(rng, n, rng.randint(0, 9)))
                    assert tietze_simplify(p).text() == renumbering_tietze(p).text()
                    seen += 1
        assert seen >= 500

    def test_matches_renumbering_oracle_on_random_presentations(self):
        # Relators over a random subset of the generators, so some generators
        # occur in no relator, and some relators empty or reducing to empty.
        rng = random.Random(31)
        for _ in range(1000):
            ngens = rng.randint(0, 5)
            used = rng.sample(range(1, ngens + 1), rng.randint(0, ngens))
            letters = [s * g for g in used for s in (1, -1)]
            rels = []
            for _ in range(rng.randint(0, 4)):
                length = rng.randint(0, 8) if letters else 0
                rels.append(Word(rng.choice(letters) for _ in range(length)))
            p = GroupPresentation(ngens, tuple(rels))
            assert tietze_simplify(p).text() == renumbering_tietze(p).text()


class TestCheckS1:
    def test_artin_core_holds(self):
        report = check_S1(ARTIN_CORE)
        assert report.status == "holds"
        assert "a = b" in report.witness

    def test_trivial_core_fails(self):
        assert check_S1(AutF2.identity()).status == "fails"

    def test_mixing_family_second_core_inverts(self):
        core = catalog(FamilyId("D1")).kappa
        report = check_S1(core)
        assert report.status == "holds-up-to-inversion"

    def test_inverting_family_fails(self):
        assert check_S1(AutF2.parse("a,B")).status == "fails"

    def test_conjugation_family_second_core_inverts(self):
        core = catalog(FamilyId("A2", 1)).kappa
        assert check_S1(core).status == "holds-up-to-inversion"

    def test_type_b_sides_disagree(self):
        # B,a: the core forces a = b, its inverse b,A forces a = b^-1
        for text in ("B,a", "b,A"):
            report = check_S1(AutF2.parse(text))
            assert report.status == "fails"
            assert report.witness.count("forces a = b") == 2
            assert report.witness.count("forces a = b^-1") == 1

    def test_matches_one_relator_oracle(self, monkeypatch):
        words = reduced_words(3)
        cores = [AutF2(u, v) for u in words for v in words if is_basis(u, v)]
        assert len(cores) == 456
        for fid in scan_family_ids(11):
            quad = catalog(fid)
            cores += [quad.tau, quad.kappa]
        reports = [check_S1(core) for core in cores]
        monkeypatch.setattr(invariant, "_s1_side", one_relator_side)
        assert [check_S1(core) for core in cores] == reports

    def test_only_type_b_mixes_in_catalog(self):
        cores = set()
        for fid in scan_family_ids(7):
            quad = catalog(fid)
            cores.update((quad.tau, quad.kappa))
        mixed = {
            str(core) for core in cores if "collapse differently" in check_S1(core).witness
        }
        assert mixed == {"B,a", "b,A"}


class TestFingerprint:
    def test_unknot(self):
        fp = fingerprint(constant_rep(ARTIN_CORE, 2), parse_braid("1", 2), [S3])
        assert fp.abelianization == (0,)
        assert fp.hom_counts == (("S3", 6),)

    def test_trefoil(self):
        fp = fingerprint(constant_rep(ARTIN_CORE, 2), parse_braid("1 1 1", 2), [S3])
        assert fp.abelianization == (0,)
        assert fp.hom_count("S3") == 12

    def test_empty_braid_two_strands(self):
        fp = fingerprint(constant_rep(ARTIN_CORE, 2), BraidWord(2, ()), [S3])
        assert fp.abelianization == (0, 0)
        assert fp.hom_count("S3") == 36

    def test_describe(self):
        fp = fingerprint(constant_rep(ARTIN_CORE, 2), parse_braid("1 1", 2), [S3])
        assert fp.describe() == "abelianization Z x Z; hom counts S3: 18"

    def test_unknown_group_name(self):
        fp = fingerprint(constant_rep(ARTIN_CORE, 2), parse_braid("1", 2), [])
        with pytest.raises(KeyError):
            fp.hom_count("S3")

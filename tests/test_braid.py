import random
import time

import pytest

from braidact import autf2, braid, words
from braidact.autf2 import AutF2, is_basis
from braidact.braid import (
    BraidWord,
    Endo,
    endo_of_braid,
    local_endo,
    parse_braid,
    verify_braid_relations,
)
from braidact.invariant import fingerprint, presentation
from braidact.localrep import (
    ARTIN_CORE,
    LocalRep,
    catalog,
    constant_rep,
    outgoing_cores,
    rep_from_cores,
)
from braidact.words import Word

from .util import (
    compose_braid_relations,
    concat_substitute,
    crossing_endo,
    prefix_endo_of_braid,
    reduced_words,
    scan_family_ids,
)

MIXED_REP = rep_from_cores((AutF2.parse("B,a"), AutF2.parse("b,A"), AutF2.parse("B,a")))


def w(text):
    return Word.parse(text)


class TestParseBraid:
    def test_simple(self):
        assert parse_braid("1 1 1", 2).letters == (1, 1, 1)

    def test_empty(self):
        assert parse_braid("", 3).letters == ()

    def test_comma_separated(self):
        assert parse_braid("-2,1", 3).letters == (-2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_braid("2", 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_braid("0", 3)

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="bad braid letter"):
            parse_braid("x", 3)

    def test_needs_two_strands(self):
        with pytest.raises(ValueError):
            parse_braid("", 1)


class TestOperands:
    def test_braid_word_times_free_word_refused(self):
        with pytest.raises(TypeError):
            BraidWord(2, (1,)) * w("a")

    def test_compose_checks_rank(self):
        with pytest.raises(ValueError, match="^rank mismatch: 2 vs 3$"):
            Endo.identity(2).compose(Endo.identity(3))


class TestLocalEndo:
    def test_artin_positive(self):
        rep = constant_rep(ARTIN_CORE, 3)
        endo = local_endo(rep, 1, 1)
        assert endo.images == (w("x1 x2 X1"), w("x1"), w("x3"))

    def test_artin_negative(self):
        rep = constant_rep(ARTIN_CORE, 3)
        endo = local_endo(rep, 1, -1)
        assert endo.images == (w("x2"), w("X2 x1 x2"), w("x3"))

    def test_sign_pair_composes_to_identity(self):
        rep = constant_rep(AutF2.parse("ABa,bba"), 3)
        for i in (1, 2):
            assert local_endo(rep, i, 1).compose(local_endo(rep, i, -1)) == Endo.identity(3)
            assert local_endo(rep, i, -1).compose(local_endo(rep, i, 1)) == Endo.identity(3)

    def test_index_range(self):
        rep = constant_rep(ARTIN_CORE, 3)
        for i in (0, -1, 3):
            with pytest.raises(ValueError, match=f"generator index {i} out of range"):
                local_endo(rep, i, 1)

    def test_matches_crossing_oracle(self):
        for i in range(1, MIXED_REP.n):
            for sign in (1, -1):
                assert local_endo(MIXED_REP, i, sign) == crossing_endo(MIXED_REP, i, sign)

    def test_locality(self):
        rep = constant_rep(AutF2.parse("aBa,a"), 5)
        endo = local_endo(rep, 2, 1)
        for j in (1, 4, 5):
            assert endo.images[j - 1] == Word.gen(j)
        for j in (2, 3):
            assert set(abs(l) for l in endo.images[j - 1].letters) <= {2, 3}


class TestEndoOfBraid:
    def test_cube_of_generator(self):
        rep = constant_rep(ARTIN_CORE, 2)
        endo = endo_of_braid(rep, parse_braid("1 1 1", 2))
        # frozen from a step-by-step substitution oracle, replayed below
        assert endo.images == (w("x1 x2 x1 x2 X1 X2 X1"), w("x1 x2 x1 X2 X1"))
        step = Endo.identity(2)
        for _ in range(3):
            step = step.compose(local_endo(rep, 1, 1))
        assert step == endo

    def test_empty_braid(self):
        rep = constant_rep(ARTIN_CORE, 3)
        assert endo_of_braid(rep, BraidWord(3, ())) == Endo.identity(3)

    def test_cancelling_pair(self):
        rep = constant_rep(AutF2.parse("ABa,bba"), 3)
        assert endo_of_braid(rep, parse_braid("2 -2", 3)) == Endo.identity(3)

    def test_strand_mismatch(self):
        rep = constant_rep(ARTIN_CORE, 3)
        with pytest.raises(ValueError, match="strand mismatch"):
            endo_of_braid(rep, BraidWord(2, (1,)))

    def test_homomorphism_on_random_braids(self):
        rng = random.Random(5)
        reps = [
            constant_rep(ARTIN_CORE, 4),
            constant_rep(AutF2.parse("B,a"), 4),
            constant_rep(AutF2.parse("ABa,bba"), 4),
        ]
        for rep in reps:
            for _ in range(25):
                choices = [i for i in range(-3, 4) if i != 0]
                b1 = BraidWord(4, tuple(rng.choice(choices) for _ in range(rng.randint(0, 5))))
                b2 = BraidWord(4, tuple(rng.choice(choices) for _ in range(rng.randint(0, 5))))
                assert endo_of_braid(rep, b1 * b2) == endo_of_braid(rep, b1).compose(
                    endo_of_braid(rep, b2)
                )

    def test_matches_prefix_oracle_on_random_braids(self):
        # The concatenation tests above compare endo_of_braid only with
        # itself; the oracle composes full local endomorphisms in word order.
        rng = random.Random(29)
        for text in ("abA,a", "Aba,a", "B,a", "aBa,a", "ABa,bba", "aabAA,a"):
            core = AutF2.parse(text)
            for n in range(2, 6):
                rep = constant_rep(core, n)
                choices = [i for i in range(1 - n, n) if i != 0]
                for _ in range(8):
                    b = BraidWord(n, tuple(rng.choice(choices) for _ in range(rng.randint(0, 14))))
                    assert endo_of_braid(rep, b) == prefix_endo_of_braid(rep, b)

    def test_matches_concat_substitution_on_long_braids(self, monkeypatch):
        # The four cores of the long-braid benchmark, on seeded 40-crossing
        # braids; the oracle writes every image out and reduces it once.
        rng = random.Random(41)
        cases = []
        for text in ("abA,a", "aabAA,a", "aBa,a", "ABa,bba"):
            rep = constant_rep(AutF2.parse(text), 4)
            for _ in range(5):
                b = BraidWord(4, tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(40)))
                cases.append((rep, b, endo_of_braid(rep, b)))
        assert sum(len(img) for *_, endo in cases for img in endo.images) > 40_000
        monkeypatch.setattr(Word, "substitute", concat_substitute)
        for rep, b, endo in cases:
            assert endo_of_braid(rep, b) == endo

    def test_inverse_braid_gives_inverse_endo(self):
        rep = constant_rep(AutF2.parse("aBa,a"), 3)
        b = parse_braid("1 2 -1 2", 3)
        both = endo_of_braid(rep, b).compose(endo_of_braid(rep, b.inverse()))
        assert both == Endo.identity(3)

    def test_each_core_is_inverted_once(self, monkeypatch):
        # Two distinct cores, each crossed negatively in both calls: the
        # Nielsen reduction behind AutF2.inverse runs once per core.
        rep = rep_from_cores((AutF2.parse("B,a"), AutF2.parse("b,A")))
        reductions = []

        def counting(*args):
            reductions.append(args[:2])
            return greedy(*args)

        greedy = autf2._greedy_reduce
        monkeypatch.setattr(autf2, "_greedy_reduce", counting)
        b = parse_braid("-1 -2 -1", 3)
        first = endo_of_braid(rep, b)
        assert endo_of_braid(rep, b) == first
        assert len(reductions) == 2

    def test_refuses_oversized_images(self, monkeypatch):
        rep = constant_rep(ARTIN_CORE, 2)
        b = parse_braid("1 1 1", 2)
        # The images total 4, 8 and 12 letters after the three crossings.
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 12)
        assert sum(len(img) for img in endo_of_braid(rep, b).images) == 12
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 7)
        for compute in (endo_of_braid, presentation, fingerprint):
            with pytest.raises(ValueError, match="8 letters after crossing 2"):
                compute(rep, b)

    def test_one_image_over_the_bound_refused_by_substitute(self, monkeypatch):
        # At crossing 2 the first image, a b a^-1 evaluated at (x1 x2 X1, x1),
        # reaches 5 letters: substitute refuses before the total is summed.
        rep = constant_rep(ARTIN_CORE, 2)
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 4)
        message = r"^a substituted word reached 5 letters, over MAX_IMAGE_LETTERS \(4\)$"
        with pytest.raises(ValueError, match=message):
            endo_of_braid(rep, parse_braid("1 1 1", 2))

    def test_refusal_names_suffix_crossing(self, monkeypatch):
        rep = constant_rep(ARTIN_CORE, 3)
        b = parse_braid("1 1 1 2", 3)
        # Applied last to first, the suffixes from crossing 4, 3, 2 and 1
        # total 5, 7, 15 and 23 letters; in word order the prefixes would
        # total 5, 9, 13 and 23, and a bound of 12 would name crossing 3.
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 23)
        assert sum(len(img) for img in endo_of_braid(rep, b).images) == 23
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 12)
        with pytest.raises(ValueError, match="15 letters after crossing 2, over 12"):
            endo_of_braid(rep, b)


class TestBraidRelations:
    def test_artin_four_strands(self):
        assert verify_braid_relations(constant_rep(ARTIN_CORE, 4))

    def test_identity_with_swap_fails(self):
        rep = LocalRep(3, (AutF2.parse("a,b"), AutF2.parse("b,a")))
        assert not verify_braid_relations(rep)
        assert not compose_braid_relations(rep)

    def test_mixed_component_path(self):
        assert verify_braid_relations(MIXED_REP)

    def test_matches_compose_oracle_on_catalog(self):
        # Every decorated catalog quad up to r = 2 on 3 strands, and on 4
        # strands with each successor of its second core appended.
        reps = []
        for fid in scan_family_ids(5):
            quad = catalog(fid)
            reps.append(LocalRep(3, (quad.tau, quad.kappa)))
            reps += [LocalRep(4, (quad.tau, quad.kappa, c)) for c, _ in outgoing_cores(quad.kappa)]
        assert len(reps) == 456
        for rep in reps:
            assert verify_braid_relations(rep) and compose_braid_relations(rep), rep

    def test_matches_compose_oracle_on_unvalidated_reps(self):
        # Constant reps and seeded random paths over the basis pairs of
        # length <= 2; most of them are no local action.
        bases = [AutF2(u, v) for u in reduced_words(2) for v in reduced_words(2) if is_basis(u, v)]
        rng = random.Random(17)
        reps = [LocalRep(n, (c,) * (n - 1)) for c in bases for n in (3, 4)]
        reps += [LocalRep(n, tuple(rng.choices(bases, k=n - 1))) for n in (3, 4) for _ in range(200)]
        results = [verify_braid_relations(rep) for rep in reps]
        assert results == [compose_braid_relations(rep) for rep in reps]
        assert 0 < results.count(True) < results.count(False)

    def test_matches_compose_oracle_on_five_and_six_strands(self):
        # Seeded random reps over every core of one-letter words, bases or
        # not, and seeded walks of the successor graph from catalog cores,
        # which are local actions with several distinct pairs.  On 5 and 6
        # strands the oracle checks far relations too.
        words = reduced_words(1)
        cores = [AutF2(u, v) for u in words for v in words]
        rng = random.Random(56)
        reps = [
            LocalRep(n, tuple(rng.choices(cores, k=n - 1))) for n in (5, 6) for _ in range(60)
        ]
        for fid in scan_family_ids(3):
            for n in (5, 6):
                path = [catalog(fid).tau]
                while len(path) < n - 1 and outgoing_cores(path[-1]):
                    path.append(rng.choice(outgoing_cores(path[-1]))[0])
                if len(path) == n - 1:
                    reps.append(LocalRep(n, tuple(path)))
        results = [verify_braid_relations(rep) for rep in reps]
        assert results == [compose_braid_relations(rep) for rep in reps]
        assert 0 < results.count(False) < results.count(True)
        pair_counts = [len(set(zip(rep.cores, rep.cores[1:]))) for rep in reps]
        assert max(k for k, ok in zip(pair_counts, results) if ok) >= 3

    def test_one_equation_check_per_distinct_pair(self, monkeypatch):
        # Far relations cost nothing and a repeated pair is checked once,
        # through the pair equations: the word action is never run.
        calls = []
        equations, endo = braid._equations, braid.endo_of_braid
        monkeypatch.setattr(
            braid, "_equations", lambda *pair: calls.append(pair) or equations(*pair)
        )
        monkeypatch.setattr(braid, "endo_of_braid", lambda *args: calls.append(args) or endo(*args))
        assert verify_braid_relations(LocalRep(100, (ARTIN_CORE,) * 99))
        assert calls == [(ARTIN_CORE, ARTIN_CORE)]
        calls.clear()
        b, bi = MIXED_REP.cores[:2]
        assert verify_braid_relations(LocalRep(5, (b, bi, b, bi)))
        assert calls == [(b, bi), (bi, b)]

    def test_long_constant_rep_is_quick(self):
        # One pair equation check, well under a millisecond; the word action
        # on both sides of all 12,561 relations takes seconds.
        t0 = time.perf_counter()
        assert verify_braid_relations(LocalRep(160, (ARTIN_CORE,) * 159))
        assert time.perf_counter() - t0 < 0.1

    def test_refuses_oversized_equation_words(self, monkeypatch):
        # c(b, z) = y^9 for these cores (see tests/test_localrep.py).
        rep = LocalRep(3, (AutF2.parse("abb,bbb"), AutF2.parse("aaa,b")))
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 8)
        message = r"^a substituted word reached 9 letters, over MAX_IMAGE_LETTERS \(8\)$"
        with pytest.raises(ValueError, match=message):
            verify_braid_relations(rep)

    def test_no_relations_below_three_strands(self):
        for rep in (
            LocalRep(1, ()),
            LocalRep(2, (AutF2.parse("b,a"),)),
            LocalRep(2, (AutF2.parse("aa,b"),)),
        ):
            assert verify_braid_relations(rep) and compose_braid_relations(rep)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(0, ())

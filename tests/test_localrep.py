import itertools
from collections import Counter

import pytest

from braidact import braid, localrep, words
from braidact.autf2 import AutF2, is_basis
from braidact.braid import check_pair_via_braid
from braidact.localrep import (
    ARTIN_CORE,
    FAMILY_TAGS,
    FamilyId,
    LocalRep,
    PathError,
    Quad,
    _BRAID_MATRIX_PAIRS,
    _bases_with_matrix,
    _catalog_level,
    _DECORATIONS,
    _equations,
    _representative,
    _reversed,
    _swapped,
    base_quad,
    canonicalize,
    catalog,
    check_quad,
    classify_search,
    component_graph,
    constant_rep,
    identify_quad,
    outgoing_cores,
    quad_sort_key,
    rep_from_cores,
    symmetry_orbit,
)
from braidact.words import Word, word_sort_key

from .util import (
    abelian_braid,
    abelian_braid_by_product,
    all_candidates_classify,
    braid_matrix_pairs_by_enumeration,
    det_one_matrices,
    nielsen_basis_pairs_by_matrix,
    oracle_base_quad,
    reduced_words,
    s3_core_tables,
    s3_equations_hold,
    s3_survivors,
    s3_word_function,
    s3_word_functions,
    scan_basis_pairs_by_matrix,
    scan_classify,
    scan_family_ids,
    scan_identify_quad,
    scan_outgoing_cores,
)


def q(text):
    return Quad.parse(text)


def all_family_ids(max_r):
    for fam in FAMILY_TAGS:
        rs = range(max_r + 1) if fam in ("A1", "A2", "A3") else (None,)
        for r in rs:
            yield FamilyId(fam, r)


class TestCheckQuad:
    def test_trivial_family_valid(self):
        assert check_quad(q("a,b,a,b")).valid

    def test_conjugation_family_valid(self):
        assert check_quad(q("abA,a,abA,a")).valid

    def test_mismatched_pair_fails_m_and_b(self):
        report = check_quad(q("a,b,b,a"))
        assert not report.valid
        assert report.eq_t and not report.eq_m and not report.eq_b
        assert report.failures() == ("M", "B")

    def test_conditions_in_check_order(self):
        report = check_quad(q("1,1,1,1"))
        assert list(report.conditions()) == ["aut_ab", "aut_cd", "T", "M", "B"]
        assert list(report.conditions().values()) == [False, False, True, True, True]
        assert report.failures() == ("aut_ab", "aut_cd")
        assert not report.valid

    def test_rank_error(self):
        with pytest.raises(ValueError):
            check_quad(q("x3,a,b,a"))


class TestEquationWordBound:
    # tau = (ab^2, b^3) and kappa = (a^3, b) write, in order, c(b, z) = y^9,
    # a(a, c(b, z)) = x y^20, a(x, c(y, z)) = x y^6 (T fails),
    # b(x, c(y, z)) = y^9 and b(a, c(b, z)) = y^27.  Nothing cancels, so
    # substitute refuses in the first word over the bound, once the images
    # it has appended pass it: y^9 after 3 images of y^3, x y^20 after x y^2
    # and y^9, y^27 after 3 images of y^9.
    QUAD = "abb,bbb,aaa,b"

    @pytest.mark.parametrize("bound, letters", [(8, 9), (9, 12), (21, 27), (26, 27)])
    def test_refused_at_first_word_over_the_bound(self, monkeypatch, bound, letters):
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", bound)
        message = rf"^a substituted word reached {letters} letters, over MAX_IMAGE_LETTERS "
        message += rf"\({bound}\)$"
        with pytest.raises(ValueError, match=message):
            check_quad(q(self.QUAD))

    def test_longest_word_at_the_bound_passes(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 27)
        report = check_quad(q(self.QUAD))
        assert report.failures() == ("aut_ab", "aut_cd", "T")

    def test_lazy_equations_stop_before_longer_words(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 21)
        quad = q(self.QUAD)
        assert not all(_equations(quad.tau, quad.kappa))

    def test_refused_before_t_is_written(self):
        # c(b, z) = b^1001 under a^1001 would have 1,002,001 letters, and T's
        # left side about 10^9 more: refused in c(b, z), after 1000 images.
        tau = AutF2(Word.parse("a" + "b" * 1000), Word.parse("b" * 1001))
        kappa = AutF2(Word.parse("a" * 1001), Word.parse("b"))
        with pytest.raises(ValueError, match="^a substituted word reached 1001000 letters"):
            check_quad(Quad(tau, kappa))
        with pytest.raises(ValueError, match="^a substituted word reached 1001000 letters"):
            rep_from_cores((tau, kappa))


class TestCheckPairViaBraid:
    def test_artin_cores(self):
        assert check_pair_via_braid(ARTIN_CORE, ARTIN_CORE)

    def test_identity_cores(self):
        assert check_pair_via_braid(AutF2.parse("a,b"), AutF2.parse("a,b"))

    def test_identity_with_swap_fails(self):
        assert not check_pair_via_braid(AutF2.parse("a,b"), AutF2.parse("b,a"))

    def test_non_basis_rejected(self):
        with pytest.raises(ValueError):
            check_pair_via_braid(AutF2.parse("aa,b"), AutF2.parse("a,b"))

    def test_decides_the_catalog_without_the_equations(self, monkeypatch):
        # The word action alone decides every decorated catalog quad up to
        # r = 2, so it stays an independent cross-check of check_quad.
        def refuse(tau, kappa):
            raise AssertionError("the cross-check evaluated _equations")

        monkeypatch.setattr(localrep, "_equations", refuse)
        monkeypatch.setattr(braid, "_equations", refuse)
        fids = list(scan_family_ids(5))
        assert len(fids) == 160
        for fid in fids:
            quad = catalog(fid)
            assert check_pair_via_braid(quad.tau, quad.kappa), fid
        assert not check_pair_via_braid(AutF2.parse("a,b"), AutF2.parse("b,a"))

    def test_agreement_with_check_quad_exhaustive(self):
        words = reduced_words(2)
        from braidact.autf2 import is_basis

        pairs = [(u, v) for u in words for v in words if is_basis(u, v)]
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            tau, kappa = AutF2(a, b), AutF2(c, d)
            assert check_quad(Quad(tau, kappa)).valid == check_pair_via_braid(tau, kappa)

    def test_agreement_with_check_quad_random_longer(self):
        import random

        rng = random.Random(31)
        bases = sorted(
            (
                (u, v)
                for m in det_one_matrices(5)
                for u, v in _bases_with_matrix(m, 5)
                if len(u) + len(v) >= 5
            ),
            key=lambda p: (word_sort_key(p[0]), word_sort_key(p[1])),
        )
        assert len(bases) == 2976
        for _ in range(150):
            a, b = rng.choice(bases)
            c, d = rng.choice(bases)
            tau, kappa = AutF2(a, b), AutF2(c, d)
            assert check_quad(Quad(tau, kappa)).valid == check_pair_via_braid(tau, kappa)


# Each one-symmetry image is an entry of symmetry_orbit, in _DECORATIONS order.
ONE_SYMMETRY = {"inv": 4, "swap": 2, "bw": 1}


def one_symmetry(name, quad):
    return symmetry_orbit(quad)[ONE_SYMMETRY[name]]


class TestSymmetries:
    def test_one_symmetry_entries_carry_one_flag(self):
        for name, flags in zip(ONE_SYMMETRY, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            assert _DECORATIONS[ONE_SYMMETRY[name]] == tuple(map(bool, flags))

    def test_swap_dual_rule(self):
        # (A,B,C,D) -> (D,C,B,A) with letters interchanged
        assert one_symmetry("swap", q("B,a,B,a")) == q("b,A,b,A")

    def test_trivial_inverting_family_is_swap_self_dual(self):
        assert one_symmetry("swap", q("a,B,A,b")) == q("a,B,A,b")

    def test_backward_dual_flips_conjugation_direction(self):
        expected = Quad(AutF2.parse("AAbaa,a"), AutF2.parse("AAbaa,a"))
        assert one_symmetry("bw", catalog(FamilyId("A1", 2))) == expected

    def test_inverse_rep_of_artin_family(self):
        assert one_symmetry("inv", q("abA,a,abA,a")) == q("b,Bab,b,Bab")

    @pytest.mark.parametrize("fid", list(all_family_ids(3)), ids=str)
    def test_involutions_commutation_validity(self, fid):
        quad = catalog(fid)
        for name in ONE_SYMMETRY:
            image = one_symmetry(name, quad)
            assert check_quad(image).valid
            assert one_symmetry(name, image) == quad
        for n1, n2 in itertools.combinations(ONE_SYMMETRY, 2):
            assert one_symmetry(n1, one_symmetry(n2, quad)) == one_symmetry(
                n2, one_symmetry(n1, quad)
            )

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError, match="not valid"):
            symmetry_orbit(q("a,b,b,a"))


class TestCanonicalize:
    def test_trivial_family_fixed(self):
        assert canonicalize(q("a,b,a,b")) == q("a,b,a,b")

    def test_b_family_orbit_representative(self):
        # both B-family vertices land on the same canonical quad
        assert canonicalize(q("B,a,B,a")) == q("b,A,b,A")
        assert canonicalize(q("b,A,b,A")) == q("b,A,b,A")

    def test_idempotent_on_catalog(self):
        for fid in all_family_ids(2):
            canon = canonicalize(catalog(fid))
            assert canonicalize(canon) == canon

    def test_orbit_size_divides_eight(self):
        for fid in all_family_ids(3):
            orbit = set(symmetry_orbit(catalog(fid)))
            assert 8 % len(orbit) == 0

    def test_orbit_matches_flagwise_decoration(self):
        # The orbit must equal its one-symmetry entries applied one flag at
        # a time, in the order inverse, swap, backward, in _DECORATIONS order.
        for fid in scan_family_ids(7):
            quad = catalog(fid)
            flagwise = []
            for inv, swap, backward in _DECORATIONS:
                image = one_symmetry("inv", quad) if inv else quad
                image = one_symmetry("swap", image) if swap else image
                flagwise.append(one_symmetry("bw", image) if backward else image)
            assert symmetry_orbit(quad) == tuple(flagwise), str(fid)
            assert canonicalize(quad) == min(flagwise, key=quad_sort_key), str(fid)


def test_every_catalog_core_inverts_cleanly():
    for fid in all_family_ids(3):
        quad = catalog(fid)
        for core in (quad.tau, quad.kappa):
            assert core.compose(core.inverse()) == AutF2.parse("a,b")
            assert core.inverse().compose(core) == AutF2.parse("a,b")


class TestCatalog:
    def test_flagship_values(self):
        assert catalog(FamilyId("D4")) == q("abA,bbA,Aba,Abb")
        assert catalog(FamilyId("A2", 0)) == q("b,a,B,A")
        assert catalog(FamilyId("C3")) == q("aba,A,aba,A")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            catalog(FamilyId.parse("E1"))

    def test_a_family_needs_r(self):
        with pytest.raises(ValueError):
            catalog(FamilyId("A1"))

    def test_fixed_family_rejects_r(self):
        with pytest.raises(ValueError):
            catalog(FamilyId("B1", 2))

    @pytest.mark.parametrize("fid", list(all_family_ids(4)), ids=str)
    def test_all_emitted_quads_valid(self, fid):
        for inv, swap, backward in itertools.product((False, True), repeat=3):
            decorated = FamilyId(fid.family, fid.r, inv, swap, backward)
            assert check_quad(catalog(decorated)).valid

    def test_family_id_text_round_trip(self):
        for text in ("T", "T'", "A1:r=2", "D2:-s", "C1:bw", "A3:r=0:-sbw"):
            assert str(FamilyId.parse(text)) == text
        for flags in _DECORATIONS:
            for family, r, head in (("D2", None, "D2"), ("A1", 3, "A1:r=3")):
                fid = FamilyId(family, r, *flags)
                assert str(fid) == (f"{head}:{fid.decoration}" if any(flags) else head)
                assert FamilyId.parse(str(fid)) == fid
        assert FamilyId.parse("A1:-sbw:r=3") == FamilyId("A1", 3, True, True, True)

    def test_family_tags_pinned(self):
        assert FAMILY_TAGS == (
            "T", "T'", "A1", "A2", "A3", "B1", "B2", "C1", "C2", "C3", "D1", "D2", "D3", "D4"
        )

    def test_base_quad_matches_hand_written_oracle(self):
        for family in FAMILY_TAGS:
            for r in range(9) if family in ("A1", "A2", "A3") else (None,):
                assert base_quad(family, r) == oracle_base_quad(family, r), (family, r)

    def test_base_quad_refusals(self):
        reasons = {
            ("E1", None): "unknown family tag 'E1'",
            ("E1", 2): "unknown family tag 'E1'",
            ("A2", None): "family A2 needs a parameter r >= 0",
            ("A2", -1): "family A2 needs a parameter r >= 0",
            ("D4", 0): "family D4 takes no parameter r",
        }
        for (family, r), reason in reasons.items():
            with pytest.raises(ValueError) as exc:
                base_quad(family, r)
            assert str(exc.value) == reason

    def test_bad_or_repeated_decoration_names_the_part(self):
        reasons = {
            "D2:-:-": "repeated decoration '-' in 'D2:-:-'",
            "D2:s:-s": "repeated decoration '-s' in 'D2:s:-s'",
            "D2:sb": "bad decoration 'sb' in 'D2:sb'",
            "D2:bws": "bad decoration 'bws' in 'D2:bws'",
            "D2:--": "bad decoration '--' in 'D2:--'",
            "D2:x": "bad decoration 'x' in 'D2:x'",
            "D2:-:x": "bad decoration 'x' in 'D2:-:x'",
            "A1:r=1:r=x": "bad parameter 'r=x' in 'A1:r=1:r=x'",
        }
        for text, reason in reasons.items():
            with pytest.raises(ValueError) as exc:
                FamilyId.parse(text)
            assert str(exc.value) == reason
        assert FamilyId.parse("D2:") == FamilyId("D2")
        assert FamilyId.parse("D2::-s") == FamilyId("D2", inv=True, swap=True)

    def test_bad_or_repeated_parameter_names_the_part(self):
        reasons = {
            "A1:r=x": "bad parameter 'r=x' in 'A1:r=x'",
            "A1:r=": "bad parameter 'r=' in 'A1:r='",
            "A1:r=1.5": "bad parameter 'r=1.5' in 'A1:r=1.5'",
            "A1:r=1:r=2": "repeated parameter 'r=2' in 'A1:r=1:r=2'",
        }
        for text, reason in reasons.items():
            with pytest.raises(ValueError) as exc:
                FamilyId.parse(text)
            assert str(exc.value) == reason
        assert FamilyId.parse("A1:r=-1") == FamilyId("A1", -1)

    def test_identify_quad(self):
        assert identify_quad(q("a,b,a,b")) == FamilyId("T")
        assert identify_quad(catalog(FamilyId("A2", 1))) == FamilyId("A2", 1)
        assert identify_quad(q("a,b,b,a")) is None
        # D2 and D3:-sbw share this quad; the first family in catalog order wins
        assert identify_quad(catalog(FamilyId.parse("D3:-sbw"))) == FamilyId("D2")

    def test_shared_orbit_of_two_mixing_families(self):
        # D3 is the inverse-swap-backward image of D2; one orbit, two names
        assert catalog(FamilyId("D3")) == catalog(
            FamilyId("D2", inv=True, swap=True, backward=True)
        )


class TestCatalogIndex:
    """The lazily built index against the linear scan over the catalog."""

    FIDS = list(scan_family_ids(13))  # every decorated id with r <= 6

    def test_a_parameter_follows_from_word_length(self):
        # The level key: a decorated quad keeps its family's longest word
        # length, odd, in its first core too, and 2r+1 for the A families.
        for fid in self.FIDS:
            quad = catalog(fid)
            length = quad.max_word_length()
            assert length % 2 == 1, fid
            assert length == base_quad(fid.family, fid.r).max_word_length(), fid
            assert max(len(quad.tau.image_a), len(quad.tau.image_b)) == length, fid
            if fid.r is not None:
                assert length == 2 * fid.r + 1, fid

    @pytest.mark.parametrize("r", range(4))
    def test_level_holds_exactly_the_family_quads_of_its_length(self, r):
        expected = {}
        for fid in scan_family_ids(2 * r + 1):
            quad = catalog(fid)
            if quad.max_word_length() == 2 * r + 1:
                expected.setdefault(quad.tau, {}).setdefault(quad.kappa, fid)
        level = _catalog_level(r)
        assert list(level) == list(expected)
        for core, targets in expected.items():
            assert list(level[core].items()) == list(targets.items()), str(core)

    def test_even_lengths_have_no_level(self):
        for word_len in (0, 2, 4):
            assert localrep._query_level(word_len) == {}

    def test_identify_quad_matches_scan(self):
        for fid in self.FIDS:
            quad = catalog(fid)
            assert identify_quad(quad) == scan_identify_quad(quad), fid

    def test_outgoing_cores_match_scan(self):
        cores = {catalog(fid).tau for fid in self.FIDS}
        for core in cores:
            assert outgoing_cores(core) == scan_outgoing_cores(core), str(core)

    @pytest.mark.parametrize("r", range(4))
    def test_a_first_cores_are_not_fixed_first_cores(self, r):
        a_cores = {
            catalog(FamilyId(family, r, *flags)).tau
            for family in ("A1", "A2", "A3")
            for flags in _DECORATIONS
        }
        fixed_cores = {catalog(fid).tau for fid in scan_family_ids(1) if fid.r is None}
        assert a_cores <= set(_catalog_level(r))
        assert not a_cores & fixed_cores

    def test_non_catalog_queries(self):
        for text in ("a,b,b,a", "b,a,a,b", "aa,b,a,b", "1,1,1,1", "abA,a,aBA,a"):
            assert identify_quad(q(text)) is None
            assert scan_identify_quad(q(text)) is None
        for text in ("A,b", "aa,b", "1,1", "aabb,a", "aaabAAA,b"):
            core = AutF2.parse(text)
            assert outgoing_cores(core) == scan_outgoing_cores(core) == (), text


class TestClassifySearch:
    def test_length_one_classes(self):
        classes = classify_search(1)
        expected = {
            canonicalize(catalog(FamilyId(fam, r)))
            for fam, r in [
                ("T", None),
                ("T'", None),
                ("A1", 0),
                ("A2", 0),
                ("A3", 0),
                ("B1", None),
                ("B2", None),
            ]
        }
        assert classes == expected
        assert len(classes) == 7

    def test_length_two_adds_nothing(self):
        assert len(classify_search(2)) == 7

    def test_results_closed_under_canonicalize(self):
        for quad in classify_search(1):
            assert canonicalize(quad) == quad
            assert check_quad(quad).valid
            assert check_pair_via_braid(quad.tau, quad.kappa)

    @pytest.mark.parametrize("max_len", [1, 2])
    def test_matches_brute_force_scan(self, max_len):
        assert classify_search(max_len) == scan_classify(max_len)

    def test_catalog_passes_abelian_prune(self):
        # A table that missed a valid pair would drop classes silently.
        for fid in scan_family_ids(13):
            quad = catalog(fid)
            m, n = (
                tuple(w.exponent_sum(g) for w in (core.image_a, core.image_b) for g in (1, 2))
                for core in (quad.tau, quad.kappa)
            )
            assert (m, n) in _BRAID_MATRIX_PAIRS, str(fid)

    def test_table_solves_the_abelian_braid_relation(self):
        assert len(set(_BRAID_MATRIX_PAIRS)) == len(_BRAID_MATRIX_PAIRS) == 18
        matrices = {m for pair in _BRAID_MATRIX_PAIRS for m in pair}
        assert len(matrices) == 11
        assert all(abs(m0 * m3 - m1 * m2) == 1 for m0, m1, m2, m3 in matrices)
        assert all(abelian_braid_by_product(m, n) for m, n in _BRAID_MATRIX_PAIRS)

    @pytest.mark.parametrize("max_len", [*range(1, 13), 33])
    def test_table_equals_enumeration(self, max_len):
        # The proof in classify_search's docstring, checked on every pair of
        # matrices whose rows fit in max_len: the enumeration finds the
        # table's pairs that fit, and besides them exactly the 16 pairs with
        # an entry +-3 that the S3 certificate proves empty.
        fitting = set(det_one_matrices(max_len))
        table = {(m, n) for m, n in _BRAID_MATRIX_PAIRS if m in fitting and n in fitting}
        enumerated = set(braid_matrix_pairs_by_enumeration(max_len))
        proved_empty = {(m, n) for m, n in enumerated if 3 in map(abs, m + n)}
        assert enumerated - proved_empty == table
        assert len(proved_empty) == (16 if max_len >= 5 else 0)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
    def test_matrices_that_do_not_fit_have_no_bases(self, max_len):
        # So the search needs no length filter on the table.
        fitting = set(det_one_matrices(max_len))
        for m in {m for pair in _BRAID_MATRIX_PAIRS for m in pair} - fitting:
            assert _bases_with_matrix(m, max_len) == [], m

    @pytest.mark.parametrize("max_len, count", [(5, 296), (6, 360)])
    def test_closed_form_prune_matches_matrix_product(self, max_len, count):
        matrices = det_one_matrices(max_len)
        assert len(matrices) == count
        survivors = []
        for m, n in itertools.product(matrices, repeat=2):
            assert abelian_braid(m, n) == abelian_braid_by_product(m, n), (m, n)
            if abelian_braid(m, n):
                survivors.append((m, n))
        assert len(survivors) == 34
        # Solving the conditions for n0 drops no surviving pair.
        assert sorted(braid_matrix_pairs_by_enumeration(max_len)) == sorted(survivors)

    @pytest.mark.parametrize(
        "max_len", [1, 2, 3, 4, 5, pytest.param(7, marks=pytest.mark.extended)]
    )
    def test_basis_pairs_match_unfiltered_scan(self, max_len):
        # Neither generator misses a basis pair or makes one up.
        scan = scan_basis_pairs_by_matrix(max_len)
        generated = {
            m: set(_bases_with_matrix(m, max_len)) for m in det_one_matrices(max_len)
        }
        assert generated == scan
        assert nielsen_basis_pairs_by_matrix(max_len) == scan

    @pytest.mark.parametrize(
        "max_len, count",
        [(1, 8), (2, 40), (3, 104), (4, 168), (5, 296), (6, 360),
         pytest.param(7, 552, marks=pytest.mark.extended)],
    )
    def test_bases_match_nielsen_oracle(self, max_len, count):
        # Matrix by matrix: every listed matrix has a basis pair within the
        # bound, and its conjugate flood fill equals the Nielsen search's.
        oracle = nielsen_basis_pairs_by_matrix(max_len)
        matrices = det_one_matrices(max_len)
        assert len(matrices) == len(set(matrices)) == count
        assert set(matrices) == set(oracle)
        for m in matrices:
            bases = _bases_with_matrix(m, max_len)
            assert len(bases) == len(set(bases))
            assert set(bases) == oracle[m], m

    def test_representatives_have_their_matrix(self):
        matrices = det_one_matrices(12)
        for m in matrices:
            u, v = _representative(m)
            assert (u.exponent_sum(1), u.exponent_sum(2), v.exponent_sum(1), v.exponent_sum(2)) == m
            assert is_basis(u, v), m

    def test_descent_from_any_conjugate(self, monkeypatch):
        # The flood fill starts from a minimum wherever the representative
        # sits in its conjugacy class.
        import random

        rng = random.Random(7)
        matrices = det_one_matrices(4)
        expected = {m: set(_bases_with_matrix(m, 4)) for m in matrices}
        representative = _representative

        def far_representative(m):
            w = Word(rng.choice((1, -1, 2, -2)) for _ in range(12))
            u, v = representative(m)
            return w * u * w.inverse(), w * v * w.inverse()

        monkeypatch.setattr(localrep, "_representative", far_representative)
        for m in matrices:
            assert set(_bases_with_matrix(m, 4)) == expected[m], m

    def test_equations_are_lazy_in_order_t_m_b(self, monkeypatch):
        # Each quad fails exactly one equation, so the order shows.
        for text, flags in (
            ("A,b,a,b", [False, True, True]),
            ("a,b,A,b", [True, False, True]),
            ("a,b,a,B", [True, True, False]),
        ):
            quad = q(text)
            assert list(_equations(quad.tau, quad.kappa)) == flags
            report = check_quad(quad)
            assert [report.eq_t, report.eq_m, report.eq_b] == flags
        calls = []
        substitute = Word.substitute
        monkeypatch.setattr(
            Word, "substitute", lambda w, images: calls.append(w) or substitute(w, images)
        )
        tau, kappa = AutF2.parse("aa,b"), AutF2.parse("a,b")
        # c(y, z) and d(y, z), kept on kappa.
        assert kappa.shifted == (Word((2,)), Word((3,))) and len(calls) == 2
        # T fails here, so all() stops before M and B substitute anything:
        # T alone substitutes c(b, z), a(a, c(b, z)) and a(x, c(y, z)).
        assert not all(_equations(tau, kappa))
        assert len(calls) == 5

    def test_search_fails_t_in_three_substitutions(self, monkeypatch):
        # Each basis pair is one AutF2 for the whole search, which computes
        # c(y, z) and d(y, z) on its first quad as a second core and keeps
        # them.  So the T check of a search substitutes only c(b, z),
        # a(a, c(b, z)) and a(x, c(y, z)).
        calls = []
        substitute = Word.substitute
        monkeypatch.setattr(
            Word, "substitute", lambda w, images: calls.append(w) or substitute(w, images)
        )
        equations = _equations
        t_costs = []
        kappas = set()

        def counted(tau, kappa):
            before = len(calls)
            kappa.shifted
            assert len(calls) - before == (0 if id(kappa) in kappas else 2)
            kappas.add(id(kappa))
            flags = equations(tau, kappa)
            before = len(calls)
            t = next(flags)
            if not t:
                t_costs.append(len(calls) - before)
            yield t
            yield from flags

        monkeypatch.setattr(localrep, "_equations", counted)
        assert len(classify_search(3)) == 16
        # Only the least quad of each swap/backward orbit is word-checked:
        # 80 fail T, against 276 when every candidate was.
        assert len(t_costs) == 80
        assert set(t_costs) == {3}

    def test_search_inverts_each_basis_pair_once(self, monkeypatch):
        # Each basis pair of a quad that starts a new class is inverted by
        # one greedy reduction per search, not one per class that holds it,
        # and a class inverts only its own two cores.
        from braidact import autf2

        calls = []
        reduce = autf2._greedy_reduce
        monkeypatch.setattr(
            autf2, "_greedy_reduce", lambda *args: calls.append(args[:2]) or reduce(*args)
        )
        classes = classify_search(3)
        assert len(classes) == 16
        assert 0 < len(calls) <= 2 * len(classes)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("max_len", [3, 4, 5])
    def test_matches_all_candidates_oracle(self, max_len):
        # The search word-checks one quad per swap/backward orbit; the oracle
        # word-checks every candidate quad of the surviving matrix pairs.
        assert classify_search(max_len) == all_candidates_classify(max_len)

    @pytest.mark.parametrize("max_len", range(1, 10))
    def test_surviving_pairs_closed_under_swap(self, max_len):
        # Swap sends the matrix pair (m, n) to (rot n, rot m), rot reversing
        # the four entries.  The table is closed under it, and so are its
        # pairs that have basis pairs at max_len.
        def swapped(pairs):
            return {(n[::-1], m[::-1]) for m, n in pairs}

        table = set(_BRAID_MATRIX_PAIRS)
        assert swapped(table) == table
        live = {pair for pair in table if all(_bases_with_matrix(m, max_len) for m in pair)}
        assert swapped(live) == live

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
    def test_bases_closed_under_swap_and_reversal(self, max_len):
        # Swap maps the bases of m onto those of rot m, reversal maps them
        # onto themselves: both keep the candidate quads a closed set.
        def pairs(m):
            return {(u.letters, v.letters) for u, v in _bases_with_matrix(m, max_len)}

        for m in det_one_matrices(max_len):
            assert {_swapped(p) for p in pairs(m)} == pairs(m[::-1]), m
            assert {_reversed(p) for p in pairs(m)} == pairs(m), m

    @pytest.mark.parametrize("max_len", range(1, 14))
    def test_t_pair_basis_count(self, max_len):
        # The early refusal's lower bound: the identity matrix has exactly
        # 2 3^k - 1 basis pairs, k = (max_len - 1) // 2.
        k = (max_len - 1) // 2
        assert len(_bases_with_matrix((1, 0, 0, 1), max_len)) == 2 * 3**k - 1

    def test_refuses_before_building_bases(self, monkeypatch):
        def refuse(m, max_len):
            raise AssertionError("bases built before the refusal")

        monkeypatch.setattr(localrep, "_bases_with_matrix", refuse)
        with pytest.raises(ValueError, match=r"refused: at least 19123129 quads exceeds"):
            classify_search(15)
        # The T pair's 5 basis pairs at length 3 give 25 quads.
        monkeypatch.setattr(localrep, "MAX_SEARCH_QUADS", 24)
        with pytest.raises(ValueError, match=r"refused: at least 25 quads exceeds the budget of 24$"):
            classify_search(3)

    def test_search_makes_no_basis_test(self, monkeypatch):
        def refuse(u, v):
            raise AssertionError("classify_search ran a basis test")

        monkeypatch.setattr("braidact.localrep.is_basis", refuse)
        assert len(classify_search(3)) == 16

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            classify_search(0)

    def test_classes_by_kind_of_block(self):
        # The baseline table's split at length 7, read from the exponent-sum
        # matrices of each class's cores: 2 classes in the T blocks
        # (diagonal), 14 in the A-type blocks (0, +-1, +-1, 0) and 6 in the
        # blocks with an entry 2.
        def kind(core):
            m0, m1, m2, m3 = (
                w.exponent_sum(g) for w in (core.image_a, core.image_b) for g in (1, 2)
            )
            if 2 in map(abs, (m0, m1, m2, m3)):
                return "2"
            return "T" if m1 == m2 == 0 else "A"

        classes = classify_search(7)
        assert all(kind(quad.tau) == kind(quad.kappa) for quad in classes)
        assert Counter(kind(quad.tau) for quad in classes) == {"T": 2, "A": 14, "2": 6}


# The matrix pairs of the abelianized braid relation with an entry +-3, taken
# from the enumeration: the blocks the S3 certificate proves empty.
# test_table_equals_enumeration checks that they are 16 and outside the table.
_PROVED_EMPTY = [
    (m, n) for m, n in braid_matrix_pairs_by_enumeration(5) if 3 in map(abs, m + n)
]


class TestS3Certificate:
    # The certificate in classify_search's docstring: a valid quad's cores,
    # seen through S3, satisfy T, M and B at every point of S3^3, and depend
    # on the conjugator w only through its word function S3^2 -> S3.

    def test_word_function_count(self):
        functions = s3_word_functions()
        assert len(functions) == len(set(functions)) == 972

    def test_catalog_quads_hold_at_every_point(self):
        # Guards the evaluator against a swapped argument: every valid quad
        # must pass it.
        fids = list(scan_family_ids(7))
        assert len(fids) == 184
        for fid in fids:
            tables = map(s3_word_function, catalog(fid).words)
            assert s3_equations_hold(*tables), str(fid)

    def test_failure_at_a_point_fails_the_word_equations(self):
        # On a seeded sample of basis-pair quads up to length 3, a failure
        # in S3 is a failure in F_3.
        import random

        rng = random.Random(33)
        bases = [
            AutF2(u, v) for pairs in nielsen_basis_pairs_by_matrix(3).values() for u, v in pairs
        ]
        failing = 0
        for _ in range(3000):
            quad = Quad(rng.choice(bases), rng.choice(bases))
            if not s3_equations_hold(*map(s3_word_function, quad.words)):
                failing += 1
                assert not all(_equations(quad.tau, quad.kappa)), str(quad)
        assert failing > 2000

    def test_core_tables_cover_every_basis_pair(self):
        # Guards the conjugation: for each of the 19 matrices of the
        # abelianized braid relation, the word functions of every basis pair
        # up to length 5 are among those built from its representative.
        matrices = {m for pair in braid_matrix_pairs_by_enumeration(5) for m in pair}
        assert len(matrices) == 19
        for m in matrices:
            tables = set(s3_core_tables(m))
            for u, v in _bases_with_matrix(m, 5):
                assert (s3_word_function(u), s3_word_function(v)) in tables, (m, u, v)

    @pytest.mark.extended
    def test_identity_block_keeps_its_survivors(self):
        # The control: a block that holds valid quads keeps survivors, so an
        # evaluator that rejects everything fails here.
        assert s3_survivors((1, 0, 0, 1), (1, 0, 0, 1)) == 81

    @pytest.mark.extended
    @pytest.mark.parametrize("m, n", _PROVED_EMPTY, ids=str)
    def test_block_with_an_entry_three_is_empty(self, m, n):
        assert s3_survivors(m, n) == 0


def _pairs(graph):
    return {(str(e.src), str(e.dst)) for e in graph.edges}


class TestGamma:
    def test_trivial_component(self):
        g = component_graph("T")
        assert _pairs(g) == {("a,b", "a,b")}

    def test_inverting_component_single_arrow(self):
        g = component_graph("T'")
        assert _pairs(g) == {("a,B", "A,b")}

    def test_b_component(self):
        g = component_graph("B")
        assert _pairs(g) == {
            ("B,a", "B,a"),
            ("b,A", "b,A"),
            ("B,a", "b,A"),
            ("b,A", "B,a"),
        }

    def test_a_component_r1(self):
        g = component_graph("A", 1)
        assert _pairs(g) == {
            ("abA,a", "abA,a"),
            ("abA,a", "aBA,A"),
            ("aBA,A", "Aba,a"),
            ("aBA,A", "ABa,A"),
            ("ABa,A", "abA,a"),
            ("ABa,A", "aBA,A"),
            ("Aba,a", "Aba,a"),
            ("Aba,a", "ABa,A"),
        }

    def test_a_component_r0_degenerates(self):
        g = component_graph("A", 0)
        assert len(g.vertices) == 2
        assert _pairs(g) == {
            ("b,a", "b,a"),
            ("b,a", "B,A"),
            ("B,A", "b,a"),
            ("B,A", "B,A"),
        }

    def test_labels_expand_to_edge_quads(self):
        for kind, r in [("A", 1), ("B", None), ("C", None), ("D", None)]:
            g = component_graph(kind, r)
            for e in g.edges:
                fid = FamilyId.parse(e.label)
                assert catalog(fid) == Quad(e.src, e.dst)

    def test_edges_and_labels_match_the_definition(self):
        # The graph comes from the catalog index; the oracle is the
        # definition: an edge for each vertex pair that passes check_quad,
        # labelled by a linear scan of the catalog.
        components = [(kind, None) for kind in ("T", "T'", "B", "C", "D")]
        components += [("A", r) for r in range(6)]
        for kind, r in components:
            g = component_graph(kind, r)
            expected = {
                (v, w_) for v in g.vertices for w_ in g.vertices
                if check_quad(Quad(v, w_)).valid
            }
            assert {(e.src, e.dst) for e in g.edges} == expected, (kind, r)
            for e in g.edges:
                assert e.label == str(scan_identify_quad(Quad(e.src, e.dst)))

    def test_dot_output(self):
        g = component_graph("T")
        dot = g.to_dot()
        assert dot.startswith("digraph gamma {")
        assert '"(a,b)" -> "(a,b)" [label="T"];' in dot

    def test_one_index_read_per_vertex(self, monkeypatch):
        query_level = localrep._query_level
        calls = []

        def counted(word_len):
            calls.append(word_len)
            return query_level(word_len)

        monkeypatch.setattr(localrep, "_query_level", counted)
        for kind, r in [("T", None), ("B", None), ("D", None), ("A", 0), ("A", 2)]:
            calls.clear()
            g = component_graph(kind, r)
            assert len(calls) == len(g.vertices), (kind, r)


class TestReps:
    def test_constant_artin_path(self):
        rep = constant_rep(ARTIN_CORE, 4)
        assert rep.n == 4 and len(rep.cores) == 3

    def test_alternating_b_path(self):
        g = component_graph("B")
        v, w_ = g.vertices
        rep = rep_from_cores([v, w_, v])
        assert rep.n == 4

    def test_single_vertex_path(self):
        g = component_graph("C")
        rep = rep_from_cores([g.vertices[0]])
        assert rep.n == 2

    def test_missing_edge_names_pair(self):
        g = component_graph("T'")
        src, dst = g.vertices[1], g.vertices[0]
        assert (src, dst) not in {(e.src, e.dst) for e in g.edges}
        with pytest.raises(PathError, match=r"^cores 1 and 2 \(\(A,b\); \(a,B\)\) do not"):
            rep_from_cores([src, dst])

    def test_rep_from_cores_validates(self):
        with pytest.raises(PathError):
            rep_from_cores((AutF2.parse("a,b"), AutF2.parse("b,a")))

    def test_two_strand_rep_checks_its_core(self):
        with pytest.raises(PathError, match=r"^core 1 \(aa,b\) is not a basis of F_2$"):
            rep_from_cores((AutF2.parse("aa,b"),))
        with pytest.raises(PathError, match="core 1"):
            constant_rep(AutF2.parse("ab,ab"), 2)
        assert rep_from_cores((AutF2.parse("aBa,a"),)).n == 2

    def test_non_basis_core_reported_with_its_first_pair(self):
        with pytest.raises(PathError, match=r"^cores 2 and 3 \(\(abA,a\); \(aa,b\)\) do not"):
            rep_from_cores((ARTIN_CORE, ARTIN_CORE, AutF2.parse("aa,b"), ARTIN_CORE))

    def test_repeated_pair_checked_once(self, monkeypatch):
        # Four equal cores make one distinct pair: one check_quad call, which
        # runs one basis test per core of the pair.
        check, quads, bases = localrep.check_quad, [], []

        def counted_check(quad):
            quads.append(quad)
            return check(quad)

        def counted_basis(u, v):
            bases.append((u, v))
            return is_basis(u, v)

        monkeypatch.setattr(localrep, "check_quad", counted_check)
        monkeypatch.setattr(localrep, "is_basis", counted_basis)
        rep_from_cores((ARTIN_CORE,) * 4)
        assert quads == [Quad(ARTIN_CORE, ARTIN_CORE)]
        assert bases == [(ARTIN_CORE.image_a, ARTIN_CORE.image_b)] * 2

    def test_constant_cores_evaluate_equations_once(self, monkeypatch):
        calls = []

        def counted(tau, kappa):
            calls.append((tau, kappa))
            return _equations(tau, kappa)

        monkeypatch.setattr(localrep, "_equations", counted)
        assert rep_from_cores((ARTIN_CORE,) * 99_999).n == 100_000
        assert calls == [(ARTIN_CORE, ARTIN_CORE)]
        for n in (3, 4, 40):
            calls.clear()
            assert constant_rep(ARTIN_CORE, n).n == n
            assert calls == [(ARTIN_CORE, ARTIN_CORE)]

    def test_repeated_bad_pair_reported_at_first_occurrence(self):
        cores = tuple(map(AutF2.parse, "a,B;A,b;a,B;A,b".split(";")))
        message = r"^cores 2 and 3 \(\(A,b\); \(a,B\)\) do not define a local action$"
        with pytest.raises(PathError, match=message):
            rep_from_cores(cores)

    def test_local_rep_shape_checked(self):
        with pytest.raises(ValueError):
            LocalRep(3, (ARTIN_CORE,))
        with pytest.raises(ValueError, match="^strand count must be >= 1$"):
            LocalRep(0, ())

    def test_sizes_past_max_image_letters_refused(self):
        # Refused before a core is repeated or a catalog word is built.
        assert words.MAX_IMAGE_LETTERS == 1_000_000
        with pytest.raises(ValueError, match="^strand count 1000001 is over MAX_IMAGE_LETTERS"):
            constant_rep(ARTIN_CORE, 1_000_001)
        assert max(map(len, base_quad("A1", 499_999).words)) == 999_999
        with pytest.raises(ValueError, match="^family A1 at r=500000 has a word of 1000001 "):
            base_quad("A1", 500_000)


class TestExtension:
    # A rep extends to one more strand exactly when its last core has a
    # successor; each successor appended gives a valid rep.
    def test_artin_extends(self):
        rep = constant_rep(ARTIN_CORE, 3)
        successors = outgoing_cores(rep.cores[-1])
        assert {str(core) for core, _ in successors} == {"abA,a", "aBA,A"}
        for core, _ in successors:
            assert rep_from_cores(rep.cores + (core,)).n == 4

    def test_inverting_type_does_not_extend(self):
        rep = rep_from_cores((AutF2.parse("a,B"), AutF2.parse("A,b")))
        assert not outgoing_cores(rep.cores[-1])

    def test_self_loop_vertex_extends(self):
        core = AutF2.parse("aBa,a")
        assert core in dict(outgoing_cores(constant_rep(core, 2).cores[-1]))
        assert rep_from_cores((core, core)).n == 3

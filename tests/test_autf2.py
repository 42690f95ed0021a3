import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidact import autf2
from braidact.autf2 import _MOVES, AutF2, commutator, is_basis, nielsen_reduce
from braidact.localrep import catalog
from braidact.words import Word

from .util import reduced_words, scan_family_ids

rank2_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(Word)


def w(text):
    return Word.parse(text)


class TestIsBasis:
    def test_elementary_image(self):
        assert is_basis(w("abA"), w("a"))

    def test_degenerate_determinant(self):
        assert not is_basis(w("ab"), w("ba"))

    def test_determinant_two(self):
        assert not is_basis(w("aa"), w("b"))

    def test_empty_image(self):
        assert not is_basis(Word(), w("ab"))

    def test_rank_error(self):
        with pytest.raises(ValueError):
            is_basis(w("x3"), w("a"))

    @given(rank2_words, rank2_words)
    def test_determinant_necessary(self, u, v):
        det = u.exponent_sum(1) * v.exponent_sum(2) - u.exponent_sum(2) * v.exponent_sum(1)
        if is_basis(u, v):
            assert abs(det) == 1

    def test_agreement_with_nielsen_exhaustive_short(self):
        by_len = {}
        for word in reduced_words(6):
            by_len.setdefault(len(word), []).append(word)
        for la in range(7):
            for lb in range(7 - la):
                for u in by_len[la]:
                    for v in by_len[lb]:
                        (p, q), _ = nielsen_reduce(u, v)
                        assert is_basis(u, v) == (len(p) == 1 and len(q) == 1)

    def test_agreement_with_nielsen_random_long(self):
        rng = random.Random(20240811)
        for _ in range(300):
            u = Word(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 14)))
            v = Word(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 14)))
            (p, q), _ = nielsen_reduce(u, v)
            assert is_basis(u, v) == (len(p) == 1 and len(q) == 1)


class TestNielsenReduce:
    def test_single_right_multiplication(self):
        (p, q), moves = nielsen_reduce(w("ab"), w("b"))
        assert (p, q) == (w("a"), w("b"))
        assert len(moves) == 1

    def test_already_minimal(self):
        (p, q), moves = nielsen_reduce(w("a"), w("b"))
        assert (p, q) == (w("a"), w("b"))
        assert moves == ()

    def test_moves_replay_to_endpoint(self):
        start = (w("abA"), w("a"))
        (p, q), moves = nielsen_reduce(*start)
        assert len(p) + len(q) == 2
        replay = {
            "a<-A": lambda u, v: (u.inverse(), v),
            "b<-B": lambda u, v: (u, v.inverse()),
            "a<-ab": lambda u, v: (u * v, v),
            "a<-aB": lambda u, v: (u * v.inverse(), v),
            "a<-ba": lambda u, v: (v * u, v),
            "a<-Ba": lambda u, v: (v.inverse() * u, v),
            "b<-ba": lambda u, v: (u, v * u),
            "b<-bA": lambda u, v: (u, v * u.inverse()),
            "b<-ab": lambda u, v: (u, u * v),
            "b<-Ab": lambda u, v: (u, u.inverse() * v),
            "swap": lambda u, v: (v, u),
        }
        pair = start
        for tag in moves:
            pair = replay[tag](*pair)
        assert pair == (p, q)

    def test_moves_closed_under_inverses(self):
        # Generating bases from the length-2 pairs reverses greedy reductions,
        # so every move needs a partner in the table that undoes it.
        words = [x for x in reduced_words(2) if x.letters]
        samples = [(u, v) for u in words for v in words]
        for tag, move in _MOVES:
            partners = [
                back_tag
                for back_tag, back in _MOVES
                if all(back(*move(u, v)) == (u, v) for u, v in samples)
            ]
            assert len(partners) == 1, tag


class TestCompose:
    def test_swap_is_involution(self):
        swap = AutF2.parse("b,a")
        assert swap.compose(swap) == AutF2.identity()

    def test_identity_neutral(self):
        phi = AutF2.parse("abA,a")
        assert phi.compose(AutF2.identity()) == phi
        assert AutF2.identity().compose(phi) == phi

    def test_square_of_artin_core(self):
        tau = AutF2.parse("abA,a")
        squared = tau.compose(tau)
        # independent route: apply tau twice to each generator
        direct = AutF2(tau.apply(tau.image_a), tau.apply(tau.image_b))
        assert squared == direct == AutF2.parse("abaBA,abA")

    def test_associative(self):
        phis = [AutF2.parse(t) for t in ("abA,a", "b,A", "aBa,a")]
        f, g, h = phis
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


class TestInverse:
    def test_swap_self_inverse(self):
        assert AutF2.parse("b,a").inverse() == AutF2.parse("b,a")

    def test_identity(self):
        assert AutF2.identity().inverse() == AutF2.identity()

    def test_artin_core(self):
        phi = AutF2.parse("abA,a")
        inv = phi.inverse()
        assert inv == AutF2.parse("b,Bab")
        assert phi.compose(inv) == AutF2.identity()
        assert inv.compose(phi) == AutF2.identity()

    def test_non_basis_rejected(self):
        with pytest.raises(ValueError):
            AutF2(w("aa"), w("b")).inverse()

    def test_letters_beyond_b_rejected(self):
        for text in ("x3,a", "a,x3", "x3,x4"):
            with pytest.raises(ValueError, match="not a basis of F_2"):
                AutF2.parse(text).inverse()

    def test_reduction_alone_decides_the_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_basis called")

        monkeypatch.setattr(autf2, "is_basis", refuse)
        quads = [catalog(fid) for fid in scan_family_ids(5)]
        cores = {core for q in quads for core in (q.tau, q.kappa)}
        assert len(cores) == 35
        for phi in cores:
            inv = phi.inverse()
            assert phi.compose(inv) == inv.compose(phi) == AutF2.identity()
        with pytest.raises(ValueError, match="not a basis"):
            AutF2(w("aa"), w("b")).inverse()

    def test_random_bases_round_trip(self):
        rng = random.Random(11)
        elementary = [AutF2.parse(t) for t in ("b,a", "A,b", "ab,b", "a,ba")]
        for _ in range(50):
            phi = AutF2.identity()
            for _ in range(rng.randint(1, 6)):
                phi = phi.compose(rng.choice(elementary))
            assert phi.compose(phi.inverse()) == AutF2.identity()
            assert phi.inverse().compose(phi) == AutF2.identity()


class TestText:
    def test_round_trip(self):
        assert str(AutF2.parse("abA,a")) == "abA,a"

    def test_bad_syntax(self):
        with pytest.raises(ValueError):
            AutF2.parse("abA")


def test_commutator_value():
    assert commutator(w("a"), w("b")) == w("abAB")

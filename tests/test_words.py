import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidact import words as words_module
from braidact.localrep import _reversed, _swapped
from braidact.words import Word, _letters_sort_key, _swapped_letters, _word, word_sort_key

from .util import concat_substitute, letters_sort_key

letters = st.integers(-3, 3).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=24)
words = raw_words.map(Word)
rank2_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16).map(Word)


def flat(*parts):
    """The concatenation of letter sequences, reduced once by the constructor."""
    return Word(l for part in parts for l in part)


def inverted(letters):
    return [-l for l in reversed(letters)]


@st.composite
def image_tuples(draw):
    """Three images that force long and total cancellation: free words, words
    sharing one long tail, conjugates u v u^-1 (aBa-shaped) and empty ones."""
    tail = draw(st.lists(letters, min_size=8, max_size=24))
    images = []
    for _ in range(3):
        kind = draw(st.sampled_from(("free", "tail", "conjugate", "empty")))
        if kind == "free":
            images.append(draw(words))
        elif kind == "tail":
            images.append(flat(draw(st.lists(letters, max_size=3)), tail))
        elif kind == "conjugate":
            u = draw(raw_words)
            images.append(flat(u, draw(st.lists(letters, max_size=2)), inverted(u)))
        else:
            images.append(Word())
    return tuple(images)


# Words whose letters cancel in pairs under many substitutions: x y x^-1
# shapes, and a word followed by a piece of its own inverse.
conjugate_words = st.tuples(raw_words, st.lists(letters, max_size=3)).map(
    lambda t: flat(t[0], t[1], inverted(t[0]))
)
cancelling_pairs = st.tuples(raw_words, st.integers(0, 24), raw_words).map(
    lambda t: (Word(t[0]), flat(inverted(Word(t[0]).letters)[: t[1]], t[2]))
)
substituted_words = st.one_of(words, conjugate_words)


def has_no_inverse_pair(u):
    ls = u.letters
    return all(ls[i] != -ls[i + 1] for i in range(len(ls) - 1))


def w(text):
    return Word.parse(text)


class TestReduce:
    def test_trailing_pair_cancels(self):
        assert Word((1, 2, -2)) == w("a")

    def test_inverse_pair_cancels(self):
        assert Word((1, -1)) == Word()

    def test_inner_cancellation_only(self):
        assert Word((2, -1, 1, 2)) == w("bb")

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            Word((1, 0))

    @given(raw_words)
    def test_no_cancelling_adjacent_pair(self, raw):
        assert has_no_inverse_pair(Word(raw))

    @given(raw_words)
    def test_idempotent(self, raw):
        once = Word(raw)
        assert Word(once.letters) == once


class TestText:
    @pytest.mark.parametrize("text", ["1", "a", "abA", "BBab", "aabAA"])
    def test_compact_round_trip(self, text):
        assert w(text).text(2) == text

    def test_token_round_trip(self):
        word = w("x1 X3 x2")
        assert word.letters == (1, -3, 2)
        assert Word.parse(word.text()) == word

    def test_low_rank_word_in_high_rank_context(self):
        assert w("ab").text(3) == "x1 x2"

    def test_empty_renders_as_one(self):
        assert str(Word()) == "1"

    def test_bad_character(self):
        with pytest.raises(ValueError):
            Word.parse("abc")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            Word.parse("x1 y2")

    def test_zero_index_token(self):
        with pytest.raises(ValueError):
            Word.parse("x0")


class TestGroupOps:
    def test_concat_cancels(self):
        assert w("ab") * w("Ba") == w("aa")

    def test_identity(self):
        assert w("abA") * Word() == w("abA")

    def test_generator_index_checked(self):
        with pytest.raises(ValueError, match="^generator index must be >= 1$"):
            Word.gen(0)

    def test_foreign_operands(self):
        # A word multiplies only words and equals only words.
        with pytest.raises(TypeError):
            w("a") * 3
        assert w("a") != "a"

    def test_inverse_law(self):
        u = w("abbA")
        assert u * u.inverse() == Word()

    def test_invert_examples(self):
        assert w("aB").inverse() == w("bA")
        assert Word().inverse() == Word()
        assert w("abA").inverse() == w("aBA")

    def test_pow(self):
        assert w("ab") ** 3 == w("ababab")
        assert w("ab") ** -2 == w("BABA")
        assert w("ab") ** 0 == Word()

    @given(words, words, words)
    def test_associative(self, u, v, x):
        assert (u * v) * x == u * (v * x)

    @given(words, words)
    def test_invert_antihomomorphism(self, u, v):
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @given(cancelling_pairs)
    def test_product_matches_concatenation_oracle(self, pair):
        u, v = pair
        assert u * v == flat(u.letters, v.letters)
        assert v * u == flat(v.letters, u.letters)

    def test_product_total_cancellation(self):
        u = w("x1 X2 x3 x3")
        assert (u * u.inverse()).letters == ()
        assert (u * u.inverse() * u) == u

    @given(st.one_of(words, conjugate_words))
    def test_inverse_matches_oracle(self, u):
        assert u.inverse() == Word(inverted(u.letters))
        assert u * u.inverse() == Word() == u.inverse() * u


class TestSubstitute:
    def test_two_generator_example(self):
        # a a b with a -> xy, b -> yx^-1 gives xyxyyx^-1
        images = (Word((1, 2)), Word((2, -1)))
        assert w("aab").substitute(images).letters == (1, 2, 1, 2, 2, -1)

    def test_identity_substitution(self):
        assert w("a").substitute((w("abA"), w("b"))) == w("abA")

    def test_conjugation_collapses(self):
        assert w("abA").substitute((w("x1"), w("x1"))) == w("x1")

    def test_missing_image(self):
        with pytest.raises(ValueError, match="no image"):
            w("ab").substitute((w("a"),))

    def test_missing_image_names_first_letter_in_word_order(self):
        with pytest.raises(ValueError, match="^no image provided for generator x4$"):
            w("x1 X4 x3").substitute((w("a"), w("b")))

    def test_total_cancellation(self):
        # a B a^-1 with a -> u and b -> u: u u^-1 u^-1 = u^-1, via a full cancel.
        u = w("x1 x2 X3 x2")
        assert w("aBA").substitute((u, u)) == u.inverse()
        assert w("aB").substitute((u, u)) == Word()
        assert w("aBa").substitute((u, Word())) == u * u

    def test_output_at_the_bound_passes(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_IMAGE_LETTERS", 10)
        assert len(w("aab").substitute((w("aaa"), w("bbbb")))) == 10

    def test_output_over_the_bound_refused(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_IMAGE_LETTERS", 10)
        message = r"^a substituted word reached 11 letters, over MAX_IMAGE_LETTERS \(10\)$"
        with pytest.raises(ValueError, match=message):
            w("aab").substitute((w("aaa"), w("bbbbb")))

    def test_refused_on_the_output_so_far(self, monkeypatch):
        # x1 x2 under x1 -> x1^11, x2 -> X1^11 x2 is x2, but after the first
        # image the output has 11 letters: the bound holds at every step.
        monkeypatch.setattr(words_module, "MAX_IMAGE_LETTERS", 10)
        with pytest.raises(ValueError, match="^a substituted word reached 11 letters"):
            Word((1, 2)).substitute((Word.gen(1, 11), Word.gen(1, -11) * Word.gen(2)))

    @given(substituted_words, image_tuples())
    def test_matches_concatenation_oracle(self, u, images):
        assert u.substitute(images) == concat_substitute(u, images)

    @given(substituted_words, image_tuples(), image_tuples())
    def test_composition_matches_oracle(self, u, first, second):
        # Images that are themselves substitution outputs, so long reduced
        # pieces meet other long pieces.
        composed = tuple(img.substitute(second) for img in first)
        oracle = tuple(concat_substitute(img, second) for img in first)
        assert composed == oracle
        assert u.substitute(composed) == concat_substitute(u, oracle)

    @given(rank2_words, rank2_words, rank2_words, rank2_words)
    def test_homomorphism(self, u, v, img_a, img_b):
        images = (img_a, img_b)
        assert (u * v).substitute(images) == u.substitute(images) * v.substitute(images)

    @given(rank2_words, rank2_words, rank2_words)
    def test_commutes_with_inverse(self, u, img_a, img_b):
        images = (img_a, img_b)
        assert u.inverse().substitute(images) == u.substitute(images).inverse()


class TestLetterTransforms:
    """Backward and swap act on letter tuples: a basis pair is reversed by
    localrep._reversed and swapped by localrep._swapped, through
    _swapped_letters on each word."""

    def test_reverse_example(self):
        assert _reversed((w("Babaa").letters, w("ab").letters)) == (
            w("aabaB").letters,
            w("ba").letters,
        )

    def test_swap_example(self):
        assert _swapped_letters(w("AAba").letters) == w("BBab").letters
        assert _swapped((w("AAba").letters, w("b").letters)) == (
            w("a").letters,
            w("BBab").letters,
        )

    @given(rank2_words, rank2_words)
    def test_involutions(self, u, v):
        p = u.letters, v.letters
        assert _reversed(_reversed(p)) == p
        assert _swapped(_swapped(p)) == p

    @given(rank2_words, rank2_words)
    def test_reverse_swap_commute(self, u, v):
        p = u.letters, v.letters
        assert _reversed(_swapped(p)) == _swapped(_reversed(p))

    @given(rank2_words)
    def test_exponent_sum_under_transforms(self, u):
        backward, _ = _reversed((u.letters, ()))
        assert Word(backward).exponent_sum(1) == u.exponent_sum(1)
        assert Word(_swapped_letters(u.letters)).exponent_sum(1) == u.exponent_sum(2)


class TestTrustedOutputs:
    """Operations that build their result as already reduced must never
    leave an adjacent inverse pair."""

    @given(substituted_words, image_tuples())
    def test_substitute(self, u, images):
        assert has_no_inverse_pair(u.substitute(images))

    @given(cancelling_pairs)
    def test_product(self, pair):
        u, v = pair
        assert has_no_inverse_pair(u * v)

    @given(st.one_of(words, conjugate_words))
    def test_inverse_reverse_and_cyclic_reduction(self, u):
        core, conjugator = u.cyclically_reduce()
        backward, _ = _reversed((u.letters, ()))
        for out in (u.inverse(), _word(backward), core, conjugator):
            assert has_no_inverse_pair(out)

    @given(rank2_words)
    def test_swap(self, u):
        assert has_no_inverse_pair(_word(_swapped_letters(u.letters)))


class TestCyclicReduction:
    def test_conjugate_strips(self):
        assert w("abA").cyclically_reduce() == (w("b"), w("a"))

    def test_already_reduced(self):
        assert w("ab").cyclically_reduce() == (w("ab"), Word())

    def test_two_layers(self):
        core, conj = w("abaBA").cyclically_reduce()
        assert (core, conj) == (w("a"), w("ab"))

    @given(words)
    def test_reconstruction(self, u):
        core, conj = u.cyclically_reduce()
        assert conj * core * conj.inverse() == u
        ls = core.letters
        assert len(ls) < 2 or ls[0] != -ls[-1]


class TestConjugacy:
    @given(words, words)
    def test_conjugation_invariance(self, u, g):
        # Conjugates have cores that are rotations of each other; is_basis
        # relies on this when it looks the commutator's core up by rotation.
        c1, c2 = (x.cyclically_reduce()[0].letters for x in (g * u * g.inverse(), u))
        assert len(c1) == len(c2)
        assert not c1 or any(c1[k:] + c1[:k] == c2 for k in range(len(c1)))


class TestExponentSum:
    def test_balanced(self):
        assert w("abA").exponent_sum(1) == 0

    def test_positive(self):
        assert w("bba").exponent_sum(2) == 2

    def test_power_word(self):
        u = w("aabAAb")
        assert u.exponent_sum(1) == 0
        assert u.exponent_sum(2) == 2

    @given(words, words)
    def test_additive_under_concat(self, u, v):
        for gen in (1, 2, 3):
            assert (u * v).exponent_sum(gen) == u.exponent_sum(gen) + v.exponent_sum(gen)


def test_sort_key_orders_by_length_then_letters():
    ordering = [w("a"), w("A"), w("b"), w("B"), w("aa"), w("ab")]
    assert sorted(ordering, key=word_sort_key) == ordering


def test_sort_key_order_matches_oracle():
    # Every reduced word up to length 4 over x1..x4 and their inverses.
    words, frontier = [()], [()]
    for _ in range(4):
        frontier = [
            w + (l,) for w in frontier for l in (1, -1, 2, -2, 3, -3, 4, -4) if not w or w[-1] != -l
        ]
        words += frontier
    assert len(words) == 1 + 8 + 56 + 392 + 2744
    assert sorted(words, key=_letters_sort_key) == sorted(words, key=letters_sort_key)


def test_module_doctests():
    import doctest

    import braidact.words

    failures, _ = doctest.testmod(braidact.words)
    assert failures == 0

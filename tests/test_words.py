import random

import pytest
from hypothesis import given, settings, strategies as st

from braid_strategies import braid_letters
from spherebraid.words import (
    BraidWord,
    Permutation,
    Residue,
    StrandCountMismatchError,
    WordSyntaxError,
    exponent_sum,
    mirror,
    named_element,
    permutation,
    xi,
)


def W(n, *letters):
    return BraidWord(n, tuple(letters))


words_any_n = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), braid_letters(n, 30))
)


class TestBraidWord:
    def test_letter_range_enforced(self):
        with pytest.raises(WordSyntaxError):
            W(4, 4)
        with pytest.raises(WordSyntaxError):
            W(4, 0)
        with pytest.raises(WordSyntaxError):
            W(1, 1)

    def test_empty_word_allowed(self):
        assert len(W(4)) == 0
        assert len(W(1)) == 0

    def test_concat_requires_same_strand_count(self):
        with pytest.raises(StrandCountMismatchError):
            W(3, 1) * W(4, 1)

    def test_inverse_and_power(self):
        w = W(4, 1, 2, -3)
        assert w.inverse().letters == (3, -2, -1)
        assert (w**2).letters == (1, 2, -3, 1, 2, -3)
        assert (w**-1).letters == w.inverse().letters
        assert (w**0).letters == ()


class TestTextSyntax:
    def test_round_trip(self):
        w = BraidWord.from_text("1 2 -3", 4)
        assert w.letters == (1, 2, -3)
        assert w.to_text() == "1 2 -3"
        assert BraidWord.from_text(w.to_text(), 4) == w

    def test_empty_text_is_identity(self):
        assert BraidWord.from_text("", 4).letters == ()
        assert BraidWord.from_text("   ", 4).letters == ()
        # the tokens are checked in the loop; the strand count still is too
        with pytest.raises(WordSyntaxError, match=r"^strand count must be >= 1, got 0$"):
            BraidWord.from_text("", 0)

    def test_strand_count_checked_before_tokens(self):
        # at 0 strands no token is in range, so the strand count is the error
        for text in ("1", "-1", "0", "x"):
            with pytest.raises(WordSyntaxError, match=r"^strand count must be >= 1, got 0$"):
                BraidWord.from_text(text, 0)

    def test_out_of_range_token_named(self):
        with pytest.raises(WordSyntaxError, match="'4'"):
            BraidWord.from_text("4", 4)

    def test_malformed_token_named(self):
        with pytest.raises(WordSyntaxError, match="'x'"):
            BraidWord.from_text("1 x", 4)

    @given(words_any_n)
    @settings(max_examples=60)
    def test_round_trip_random(self, nw):
        n, letters = nw
        w = BraidWord(n, tuple(letters))
        assert BraidWord.from_text(w.to_text(), n) == w


class TestExponentSum:
    def test_empty(self):
        assert exponent_sum(W(4)) == 0

    def test_positive_word(self):
        assert exponent_sum(W(4, 1, 2, 3, 3)) == 4

    def test_balanced(self):
        assert exponent_sum(W(4, 1, -3)) == 0

    @given(words_any_n, words_any_n.map(lambda t: t[1]))
    @settings(max_examples=60)
    def test_additive_and_mirror_invariant(self, nw, _):
        n, letters = nw
        w = BraidWord(n, tuple(letters))
        half = len(letters) // 2
        u, v = BraidWord(n, tuple(letters[:half])), BraidWord(n, tuple(letters[half:]))
        assert exponent_sum(u) + exponent_sum(v) == exponent_sum(w)
        assert exponent_sum(mirror(w)) == exponent_sum(w)


class TestXi:
    def test_alpha1_n4(self):
        # alpha1 = sigma1 sigma2 sigma3^2: four positive letters, modulus 6
        r = xi(named_element("alpha1", 4))
        assert (r.value, r.modulus) == (4, 6)

    def test_full_twist_n4(self):
        # 12 positive letters mod 6
        r = xi(named_element("full_twist", 4))
        assert (r.value, r.modulus) == (0, 6)

    def test_alpha1_squared_n5(self):
        # 10 letters mod 8
        r = xi(named_element("alpha1", 5) ** 2)
        assert (r.value, r.modulus) == (2, 8)

    def test_undefined_for_one_strand(self):
        with pytest.raises(WordSyntaxError):
            xi(W(1))

    def test_surface_relator_in_kernel(self):
        for n in range(2, 9):
            assert xi(named_element("surface_relator", n)).is_zero()


class TestPermutation:
    def test_empty_word(self):
        assert permutation(W(4)).is_identity()

    def test_half_twist_is_reversal(self):
        assert permutation(named_element("half_twist", 4)).images == (4, 3, 2, 1)
        for n in range(2, 9):
            p = permutation(named_element("half_twist", n))
            assert p.images == tuple(range(n, 0, -1))

    def test_bipolar_twist_n4(self):
        assert permutation(W(4, 1, -3)).images == (2, 1, 4, 3)

    def test_generator_is_transposition(self):
        assert permutation(W(4, 2)).images == (1, 3, 2, 4)

    def test_alpha0_is_n_cycle(self):
        for n in range(2, 9):
            assert permutation(named_element("alpha0", n)).order() == n

    def test_order_is_the_least_power_that_is_the_identity(self):
        # the lcm of the cycle lengths against the definition: multiply
        # until the identity comes back
        def order_by_powers(p):
            k, q = 1, p
            while not q.is_identity():
                q, k = q * p, k + 1
            return k

        rng = random.Random(27)
        for n in range(1, 41):
            perms = [Permutation.identity(n)]
            for _ in range(4):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                perms.append(Permutation(tuple(images)))
            for p in perms:
                assert p.order() == order_by_powers(p), p.images

    @given(words_any_n)
    @settings(max_examples=80)
    def test_mirror_conjugates_by_reversal(self, nw):
        n, letters = nw
        w = BraidWord(n, tuple(letters))
        rev = Permutation(tuple(range(n, 0, -1)))
        assert permutation(mirror(w)) == rev * permutation(w) * rev

    def test_permutation_validates(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestMirror:
    def test_single_letter(self):
        assert mirror(W(4, 1)).letters == (3,)

    def test_signed_word(self):
        assert mirror(W(4, 1, -3)).letters == (3, -1)

    def test_alpha0_n6(self):
        assert mirror(named_element("alpha0", 6)).letters == (5, 4, 3, 2, 1)

    def test_involution(self):
        w = W(5, 1, -2, 4, 4, -3)
        assert mirror(mirror(w)) == w


class TestNamedElements:
    def test_half_twist_expansion(self):
        assert named_element("half_twist", 4).letters == (1, 2, 3, 1, 2, 1)

    def test_half_twist_length(self):
        for n in range(2, 10):
            assert len(named_element("half_twist", n)) == n * (n - 1) // 2

    def test_full_twist(self):
        w = named_element("full_twist", 3)
        assert w.letters == (1, 2, 1, 2, 1, 2)
        for n in range(2, 10):
            assert len(named_element("full_twist", n)) == n * (n - 1)

    def test_bipolar_twist_m2(self):
        assert named_element("bipolar_twist", 4).letters == (1, -3)

    def test_bipolar_twist_m3(self):
        assert named_element("bipolar_twist", 6).letters == (1, 2, 1, -5, -4, -5)

    def test_bipolar_twist_balanced(self):
        for n in (4, 6, 8, 10):
            assert exponent_sum(named_element("bipolar_twist", n)) == 0

    def test_bipolar_twist_rejects_odd_and_two(self):
        with pytest.raises(ValueError):
            named_element("bipolar_twist", 5)
        with pytest.raises(ValueError):
            named_element("bipolar_twist", 2)

    def test_alpha_words(self):
        assert named_element("alpha0", 4).letters == (1, 2, 3)
        assert named_element("alpha1", 4).letters == (1, 2, 3, 3)
        assert named_element("alpha2", 4).letters == (1, 2, 2)
        assert named_element("alpha2", 3).letters == (1, 1)

    def test_alpha2_needs_three_strands(self):
        with pytest.raises(ValueError):
            named_element("alpha2", 2)

    def test_surface_relator(self):
        assert named_element("surface_relator", 3).letters == (1, 2, 2, 1)
        assert named_element("surface_relator", 2).letters == (1, 1)
        assert named_element("surface_relator", 5).letters == (1, 2, 3, 4, 4, 3, 2, 1)

    def test_relator_is_cycle_times_mirror(self):
        for n in range(2, 9):
            a = named_element("alpha0", n)
            assert (a * mirror(a)).letters == named_element("surface_relator", n).letters

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_element("delta", 4)


class TestResidue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Residue(6, 6)
        with pytest.raises(ValueError):
            Residue(0, 1)

    def test_order(self):
        assert Residue(0, 6).order() == 1
        assert Residue(3, 6).order() == 2
        assert Residue(4, 6).order() == 3


class TestProduct:
    def test_product_is_the_flat_word(self):
        x = named_element("half_twist", 6)
        factors = (x, W(6, 2), x.inverse())
        w = BraidWord.product(*factors)
        flat = x * W(6, 2) * x.inverse()
        assert w == flat and hash(w) == hash(flat) and repr(w) == repr(flat)
        assert w.factors == factors and flat.factors == ()

    def test_text_is_the_flat_text(self):
        x = named_element("half_twist", 5)
        for factors in (
            (x, W(5, 3), x.inverse()),
            (W(5), x, W(5), x),
            (W(5, 1, -2), W(5)),
            (W(5),),
        ):
            flat = BraidWord(5, sum((f.letters for f in factors), ()))
            assert BraidWord.product(*factors).to_text() == flat.to_text()

    def test_requires_same_strand_count(self):
        with pytest.raises(StrandCountMismatchError):
            BraidWord.product(W(3, 1), W(4, 1))

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match=r"^a product needs at least one factor$"):
            BraidWord.product()


class TestPeriod:
    """A power u^k built with ** declares |u| as its period; the engines read it."""

    def test_powers_keep_their_base_length(self):
        u = named_element("alpha1", 7)
        assert (u**5).period == (u**-5).period == len(u)
        assert (u**5).inverse().period == mirror(u**5).period == len(u)
        assert ((u**2) ** 3).period == ((u**2) ** -3).period == len(u)
        assert (u**-5).letters == u.inverse().letters * 5
        assert ((u**2) ** -3).letters == u.inverse().letters * 6
        assert named_element("full_twist", 7).period == 6
        # dicyclic's a^n = Delta^2 rests on this construction
        for n in range(3, 65):
            assert named_element("full_twist", n).letters == named_element("alpha0", n).letters * n, n

    def test_other_constructors_declare_none(self):
        u = named_element("alpha1", 7)
        w = u**5
        assert u.period == (w * u).period == (u * u).period == 0
        assert BraidWord.product(w, w).period == BraidWord.product(w).period == 0
        assert BraidWord.from_text(w.to_text(), 7).period == 0
        assert BraidWord(7, w.letters).period == 0
        assert w.inverse().inverse().period == len(u)

    def test_period_takes_no_part_in_equality(self):
        w = named_element("alpha2", 6) ** 4
        flat = BraidWord(6, w.letters)
        assert w == flat and hash(w) == hash(flat) and repr(w) == repr(flat)

import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from braid_strategies import braid_letters
from spherebraid.cli import main
from spherebraid.freegroup import (
    BudgetExceededError,
    EndoOnBasis,
    FreeWord,
    _artin_images,
    artin_disk_endo,
    eq_Bn,
)
from spherebraid.selftest import random_word, rewrite_equivalent, run_cross_oracle
from spherebraid.sphere import DEFAULT_MAX_IMAGE_LETTERS
from spherebraid.theorems import DEFAULT_MAX_COSETS, PLANS
from spherebraid.words import BraidWord, named_element, permutation


def FW(rank, *letters):
    return FreeWord(rank, tuple(letters))


class TestReduce:
    def test_inverse_pair(self, free_reduce):
        assert free_reduce([1, -1], 2).letters == ()

    def test_nested_cancellation(self, free_reduce):
        assert free_reduce([1, 2, -2, -1, 3], 3).letters == (3,)

    def test_already_reduced(self, free_reduce):
        assert free_reduce([1, 2, 1], 2).letters == (1, 2, 1)

    def test_out_of_range(self, free_reduce):
        with pytest.raises(ValueError, match=r"^letter 3 out of range for rank 2$"):
            free_reduce([3], 2)

    def test_freeword_rejects_unreduced(self):
        with pytest.raises(ValueError, match=r"^word \(1, -1\) is not freely reduced$"):
            FW(2, 1, -1)

    def test_freeword_reports_its_first_fault(self):
        with pytest.raises(ValueError, match=r"^word \(2, 1, -1, 3\) is not freely reduced$"):
            FW(2, 2, 1, -1, 3)
        with pytest.raises(ValueError, match=r"^letter -3 out of range for rank 2$"):
            FW(2, 2, -3, 1, -1)
        with pytest.raises(ValueError, match=r"^letter 0 out of range for rank 2$"):
            FW(2, 1, 0)

    def test_freeword_text_syntax_matches_braid_words(self):
        assert FW(3, 1, -2, 3).to_text() == "1 -2 3"
        assert FW(3).to_text() == ""


SWAP = EndoOnBasis(2, (FW(2, 1, 2, -1), FW(2, 1)))  # the sigma_1 action on rank 2


class TestArtinDiskEndo:
    def test_empty_word(self):
        assert artin_disk_endo(BraidWord(4)).is_identity()

    def test_single_generator_b2(self):
        e = artin_disk_endo(BraidWord(2, (1,)))
        assert e == SWAP

    def test_braid_relation_word_acts_trivially(self):
        w = BraidWord(3, (1, 2, 1, -2, -1, -2))
        assert artin_disk_endo(w).is_identity()

    def test_relations_exhaustive_small_n(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                lhs = BraidWord(n, (i, i + 1, i))
                rhs = BraidWord(n, (i + 1, i, i + 1))
                assert artin_disk_endo(lhs) == artin_disk_endo(rhs)
            for i in range(1, n):
                for j in range(i + 2, n):
                    lhs = BraidWord(n, (i, j))
                    rhs = BraidWord(n, (j, i))
                    assert artin_disk_endo(lhs) == artin_disk_endo(rhs)

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 25), braid_letters(n, 25))))
    @settings(max_examples=50, deadline=None)
    def test_action_is_multiplicative(self, compose_endos, data):
        n, lu, lv = data
        u, v = BraidWord(n, tuple(lu)), BraidWord(n, tuple(lv))
        assert artin_disk_endo(u * v) == compose_endos(artin_disk_endo(u), artin_disk_endo(v))

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 25))))
    @settings(max_examples=60, deadline=None)
    def test_images_are_conjugates_of_permuted_basis(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        e = artin_disk_endo(w)
        perm = permutation(w)
        for j, img in enumerate(e.images, start=1):
            core = list(img.letters)
            while len(core) >= 3 and core[0] == -core[-1]:
                core = core[1:-1]
            assert core == [perm.images[j - 1]]

    def test_budget_abort(self):
        w = named_element("half_twist", 6) ** 4
        with pytest.raises(BudgetExceededError):
            artin_disk_endo(w, max_image_letters=3)


def _reference_reduce_concat(parts, budget=None, lengths=None):
    """Letter-by-letter free reduction with a cancellation stack, checking
    the budget after each part; `lengths` records every checked length."""
    out = []
    for part in parts:
        for x in part:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        if lengths is not None:
            lengths.append(len(out))
        if budget is not None and len(out) > budget:
            raise BudgetExceededError(
                f"endomorphism image exceeded {budget} letters; raise the budget to continue"
            )
    return out


def _reference_inv(letters):
    return [-x for x in reversed(letters)]


def _reference_artin_images(strand_count, letters, budget=None, lengths=None):
    """The expanded images, each braid letter reducing a b a^-1 (or b^-1 a b) in full."""
    imgs = [[j] for j in range(1, strand_count + 1)]
    for k in reversed(letters):
        i = abs(k) - 1
        a, b = imgs[i], imgs[i + 1]
        if k > 0:
            imgs[i] = _reference_reduce_concat([a, b, _reference_inv(a)], budget, lengths)
            imgs[i + 1] = a
        else:
            imgs[i] = b
            imgs[i + 1] = _reference_reduce_concat([_reference_inv(b), a, b], budget, lengths)
    return imgs


def _random_words():
    # at n <= 4 a 60-letter word can have images of millions of letters,
    # which the reference takes seconds over, so those stop at 40 letters
    rng = random.Random(3031)
    return [random_word(n, 60 if n > 4 else 40, rng) for n in range(2, 9) for _ in range(300)]


def _delta_heavy_words(n):
    x = named_element("half_twist", n)
    words = [
        x * x,
        named_element("full_twist", n),  # the word alpha0^n
        named_element("alpha2", n) ** (n - 2),
        x * named_element("bipolar_twist", n) * x.inverse(),
    ]
    return words + [w.inverse() for w in words]


class TestMatchesLetterByLetterReduction:
    """The conjugator-form engine against the expanded, stack-reduced images."""

    def check(self, words):
        for w in words:
            n, letters = w.strand_count, w.letters
            lengths = []
            expected = _reference_artin_images(n, letters, None, lengths)
            imgs = _artin_images(n, letters)
            assert [W + [p] + W_inv for W, p, W_inv in imgs] == expected
            perm = permutation(w)
            assert [p for _, p, _ in imgs] == list(perm.images)
            if not lengths:
                continue
            # the reference raises exactly when a recorded length exceeds the
            # budget.  Its longest word is always a finished image, never the
            # product a b (or b^-1 a) on the way, which is why the engine
            # checks finished images only
            peak = max(lengths)
            assert max(lengths[2::3]) == peak
            for budget in {0, peak - 1, peak, peak + 1}:
                try:
                    _artin_images(n, letters, budget)
                except BudgetExceededError as exc:
                    assert budget < peak, (w, budget)
                    assert str(exc) == (
                        f"endomorphism image exceeded {budget} letters; raise the budget to continue"
                    )
                else:
                    assert budget >= peak, (w, budget)

    def test_matches_on_random_words(self):
        self.check(_random_words())

    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_on_delta_heavy_words(self, n):
        self.check(_delta_heavy_words(n))

    def test_reference_raises_at_its_peak(self):
        w = _delta_heavy_words(8)[0]
        lengths = []
        _reference_artin_images(8, w.letters, None, lengths)
        _reference_artin_images(8, w.letters, max(lengths))
        with pytest.raises(BudgetExceededError):
            _reference_artin_images(8, w.letters, max(lengths) - 1)

    def test_eq_bn_matches_reference_comparison(self):
        rng = random.Random(3037)
        for n in range(2, 9):
            for _ in range(150):
                w = random_word(n, 40, rng)
                v = rewrite_equivalent(w, rng) if rng.random() < 0.4 else random_word(n, 40, rng)
                expected = _reference_artin_images(n, w.letters) == _reference_artin_images(n, v.letters)
                assert eq_Bn(w, v) == expected


class TestEqBn:
    def test_reflexive(self):
        w = BraidWord(4, (1, -2, 3))
        assert eq_Bn(w, w)

    def test_half_twist_square_is_full_twist(self):
        x = named_element("half_twist", 4)
        assert eq_Bn(x * x, named_element("full_twist", 4))

    def test_sigma12_neq_sigma21(self):
        assert not eq_Bn(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))

    def test_strand_count_mismatch(self):
        from spherebraid.words import StrandCountMismatchError

        with pytest.raises(StrandCountMismatchError):
            eq_Bn(BraidWord(3, (1,)), BraidWord(4, (1,)))


class TestArtinMemo:
    def test_budget_is_part_of_the_key(self):
        w = named_element("full_twist", 8)
        _artin_images.cache_clear()
        imgs = _artin_images(8, w.letters, DEFAULT_MAX_IMAGE_LETTERS)
        assert _artin_images(8, w.letters, DEFAULT_MAX_IMAGE_LETTERS) is imgs
        longest = max(2 * len(W) + 1 for W, _, _ in imgs)
        for _ in range(2):  # a raise is not cached
            with pytest.raises(BudgetExceededError):
                _artin_images(8, w.letters, longest - 1)
        assert _artin_images(8, w.letters, DEFAULT_MAX_IMAGE_LETTERS) is imgs

    def test_no_caller_changes_a_shared_result(self, artin_body_calls):
        for plan in PLANS.values():
            for n in range(3, 9):
                if n % 2 or not plan.odd:
                    plan.run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
        runner = CliRunner()
        for n, word in ((3, "1 2 2 1"), (5, "1 2 -3 4 4 -1"), (6, named_element("alpha1", 6).to_text())):
            for target in ("disk", "sphere", "sphere", "disk"):
                args = ["act", "--n", str(n), "--word", word, "--target", target]
                assert runner.invoke(main, args).exit_code == 0
        # the relation loop sends each relator to acts_trivially, then to sphere_endo
        assert run_cross_oracle(ns=()).relations_ok
        computed = [(key, result) for key, result in artin_body_calls if result is not None]
        assert len(computed) > 100
        for key, result in computed:
            assert result == _artin_images.__wrapped__(*key), key

import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import spherebraid
from braid_strategies import braid_letters, seeded_products
from spherebraid.cli import main
from spherebraid.freegroup import (
    CHUNK_LETTERS_PER_STRAND,
    BudgetExceededError,
    EndoOnBasis,
    FreeWord,
    _artin_images,
    _chunk_form,
    _compose,
    _images,
    _letter_steps,
    _long_chunks,
    _plan,
    _runs,
    _split,
    _substitute,
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


def _reference_letter_step(imgs, k, budget=None, lengths=None):
    """One braid letter on the expanded images, reducing a b a^-1 (or b^-1 a b) in full."""
    i = abs(k) - 1
    a, b = imgs[i], imgs[i + 1]
    if k > 0:
        imgs[i] = _reference_reduce_concat([a, b, _reference_inv(a)], budget, lengths)
        imgs[i + 1] = a
    else:
        imgs[i] = b
        imgs[i + 1] = _reference_reduce_concat([_reference_inv(b), a, b], budget, lengths)


def _reference_artin_images(strand_count, letters, budget=None, lengths=None):
    """The expanded images, computed letter by letter."""
    imgs = [[j] for j in range(1, strand_count + 1)]
    for k in reversed(letters):
        _reference_letter_step(imgs, k, budget, lengths)
    return imgs


def _reference_is_permutation_braid(n, letters):
    """A word of one sign is a permutation braid iff no two strands cross
    twice, that is iff its length is the inversion count of its permutation."""
    if not (all(k > 0 for k in letters) or all(k < 0 for k in letters)):
        return False
    p = permutation(BraidWord(n, tuple(letters))).images
    return len(letters) == sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))


def _reference_chunks(n, letters):
    """(start, end) of the chunks the walk splits the letters into, right to left.

    A piece of a permutation braid is one, so the walk's chunk is the
    longest such suffix of the letters not yet split off, found by
    bisection."""
    chunks, end = [], len(letters)
    while end:
        lo, hi = 0, end - 1  # letters[hi:end] is one letter, a permutation braid
        while lo < hi:
            mid = (lo + hi) // 2
            if _reference_is_permutation_braid(n, letters[mid:end]):
                hi = mid
            else:
                lo = mid + 1
        chunks.append((lo, end))
        end = lo
    return chunks


def _reference_index_sets(n, letters):
    """The index set of each W_j in the action x_j -> W_j x_p(j) W_j^-1 of a permutation braid."""
    p = permutation(BraidWord(n, tuple(letters))).images
    if letters[0] > 0:
        return [{p[i] for i in range(j + 1, n) if p[i] < p[j]} for j in range(n)]
    return [{p[i] for i in range(j) if p[i] > p[j]} for j in range(n)]


def _reference_run(W):
    """(s, t) with W = R_s^-1 R_t for R_m = x_1..x_m: (a - 1, b) for an interval x_a..x_b,
    (b, a - 1) for its inverse; None for any other W."""
    a, b = min(map(abs, W)), max(map(abs, W))
    if W == list(range(a, b + 1)):
        return a - 1, b
    if W == list(range(-b, -a + 1)):
        return b, a - 1
    return None


def _reference_walk(n, runs):
    """The m of each R_m the substitution step builds, and the m its walk up starts from.

    The run ends are those of the runs of two or more letters.  The step
    takes the cheapest of the walk up from the least end to the largest
    and, for each gap between neighbouring ends, the walk up from R_0 = 1
    to the gap and down from R_n = D to its other end; a tie goes to the
    walk up from the least end, then to the lowest gap."""
    ends = sorted({e for s, t in runs if abs(s - t) > 1 for e in (s, t)})
    if not ends:
        return [], 0
    walks = [(list(range(ends[0] + 1, ends[-1] + 1)), ends[0])]
    walks += [(list(range(1, hi + 1)) + list(range(top, n)), 0) for hi, top in zip(ends, ends[1:])]
    return min(walks, key=lambda walk: len(walk[0]))


def _reference_checked_lengths(w):
    """Letter by letter: the expanded images of w and every length on the way.
    Also the lengths the engine holds to the budget, split into the images
    it stores and the R_m its substitution steps build, how many chunks
    take the step, and whether the word is composed as a power.

    A chunk of at least CHUNK_LETTERS_PER_STRAND * n letters whose index
    sets are intervals takes the step: it contributes each R_m the step
    walks (`_reference_walk`), reduced from the images before it, and the
    images after it.  The letters between two such chunks are one piece,
    freely reduced with a stack before it goes letter by letter, and each
    letter left contributes the image it finishes.
    At n >= 9, a word of at least 2n letters built as a power u^k, k >= 2
    (its declared period |u|), with |u| < CHUNK_LETTERS_PER_STRAND * n
    goes through u, reduced, letter by letter.  Then, if u's conjugators are
    intervals, their inverses or single letters and one step's walked R_m,
    junctions R_s^-1 R_t and conjugations number at most |u|, each later
    period contributes the R_m walked under the images before it and the
    images it conjugates after it; otherwise the rest of the word goes as
    any other.
    """
    n, letters, period = w.strand_count, w.letters, w.period
    imgs = [[j] for j in range(1, n + 1)]
    lengths, stored, walked, closed_forms = [], [], [], 0
    least = CHUNK_LETTERS_PER_STRAND * n
    # a permutation braid has at most n(n-1)/2 letters, so below that the
    # whole word goes letter by letter
    long_ones = n * (n - 1) // 2 >= least

    def walk(runs):
        ms, start = _reference_walk(n, runs)
        walked.extend(len(_reference_reduce_concat(imgs[start:m])) for m in ms)

    def letter_by_letter(piece):
        piece_lengths = []
        for k in reversed(_reference_reduce_concat([piece])):
            _reference_letter_step(imgs, k, None, piece_lengths)
        lengths.extend(piece_lengths)
        stored.extend(piece_lengths[2::3])

    if long_ones and len(letters) >= max(2 * n, 2 * period) and 0 < period < least:
        letter_by_letter(letters[:period])
        conjugated = [i for i, img in enumerate(imgs) if len(img) > 1]
        runs = [_reference_run(imgs[i][: len(imgs[i]) // 2]) for i in conjugated]
        if None not in runs:
            cost = len(_reference_walk(n, runs)[0]) + sum(1 + (abs(s - t) > 1) for s, t in runs)
        if None not in runs and cost <= period:
            for _ in range(len(letters) // period - 1):
                walk(runs)
                for k in reversed(_reference_reduce_concat([letters[:period]])):
                    _reference_letter_step(imgs, k, None, lengths)
                stored += [len(imgs[i]) for i in conjugated]
            return imgs, lengths, stored, walked, closed_forms, True
        letters = letters[: len(letters) - period]
    done = len(letters)  # letters[done:] are applied
    for start, end in _reference_chunks(n, letters) if long_ones else [(0, len(letters))]:
        piece = letters[start:end]
        sets = [S for S in _reference_index_sets(n, piece) if S] if long_ones and end - start >= least else None
        if sets is None or any(max(S) - min(S) + 1 != len(S) for S in sets):
            continue
        letter_by_letter(letters[end:done])
        closed_forms += 1
        walk([(min(S) - 1, max(S)) if piece[0] > 0 else (max(S), min(S) - 1) for S in sets])
        for k in reversed(piece):
            _reference_letter_step(imgs, k, None, lengths)
        # the images a chunk only permutes were checked when they were made
        stored += map(len, imgs)
        done = start
    letter_by_letter(letters[:done])
    return imgs, lengths, stored, walked, closed_forms, False


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
        closed_forms, powers, below_letter_peak, walk_decides = 0, 0, 0, 0
        for w in words:
            expected, lengths, stored, walked, chunks, composed = _reference_checked_lengths(w)
            imgs = _images(w, None)
            assert [W + [p] + W_inv for W, p, W_inv in imgs] == expected
            perm = permutation(w)
            assert [p for _, p, _ in imgs] == list(perm.images)
            if not lengths:
                continue
            # letter by letter, the longest word is always a finished image,
            # never the product a b (or b^-1 a) on the way
            assert max(lengths[2::3]) == max(lengths)
            # the engine raises exactly when a stored image or an R_m of a
            # substitution step exceeds the budget; it never builds the
            # images inside a chunk or a composed period
            peak = max(stored + walked)
            closed_forms += chunks
            powers += composed
            below_letter_peak += peak < max(lengths)
            walk_decides += peak > max(stored)
            for budget in {0, peak - 1, peak, peak + 1}:
                try:
                    _images(w, budget)
                except BudgetExceededError as exc:
                    assert budget < peak, (w, budget)
                    assert str(exc) == (
                        f"endomorphism image exceeded {budget} letters; raise the budget to continue"
                    )
                else:
                    assert budget >= peak, (w, budget)
        return closed_forms, powers, below_letter_peak, walk_decides

    def test_matches_on_random_words(self):
        # n <= 8: no permutation braid has 4n letters and no word is
        # composed as a power, so all go letter by letter
        assert self.check(_random_words()) == (0, 0, 0, 0)

    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_on_delta_heavy_words(self, n):
        closed_forms, powers, below_letter_peak, _ = self.check(_delta_heavy_words(n))
        assert closed_forms >= len(_delta_heavy_words(n))
        # alpha0^n, alpha0^-n and alpha2^(n-2); alpha2^-(n-2) costs more composed
        assert powers == 3
        # the budget no longer sees the peaks inside a chunk: for some word
        # the letter-by-letter peak is above every checked length
        assert below_letter_peak > 0

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


def _letter_path(n, letters):
    """The engine's images with every letter taken one at a time."""
    empty = []
    imgs = [(empty, j, empty) for j in range(1, n + 1)]
    _letter_steps(imgs, reversed(letters), None)
    return imgs


def _half_twist_on(lo, hi, sign):
    """The half twist on strands lo..hi, every letter of the given sign."""
    return [sign * (lo - 1 + i) for top in range(hi - lo, 0, -1) for i in range(1, top + 1)]


def _permutation_braid(perm, sign):
    """A word for the permutation braid of perm (images, word order): bubble
    sort, so each pair of strands crosses at most once."""
    n = len(perm)
    strands = list(range(1, n + 1))  # strands[q]: the strand at position q + 1
    letters, moved = [], True
    while moved:
        moved = False
        for q in range(n - 1):
            if perm[strands[q] - 1] > perm[strands[q + 1] - 1]:
                strands[q], strands[q + 1] = strands[q + 1], strands[q]
                letters.append(sign * (q + 1))
                moved = True
    return letters


class TestChunkPath:
    """Permutation-braid chunks through the substitution step against the letter path."""

    def test_matches_letter_path_on_seeded_words(self):
        rng = random.Random(4099)
        closed_forms = {True: 0, False: 0}
        walks = Counter()
        for _ in range(240):
            n = rng.randint(9, 40)
            letters = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.2:
                    letters += _half_twist_on(1, n, rng.choice((1, -1)))
                elif rng.random() < 0.5:
                    lo = rng.randint(1, n - 1)
                    letters += _half_twist_on(lo, rng.randint(lo + 1, n), rng.choice((1, -1)))
                else:
                    alphabet = [k for k in range(-(n - 1), n) if k]
                    letters += [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            letters = tuple(letters)
            assert _artin_images.__wrapped__(n, letters) == _letter_path(n, letters), (n, letters)
            for start, end, positive, form in _long_chunks(letters, n):
                assert _reference_is_permutation_braid(n, letters[start:end])
                if form is not None:
                    assert tuple(p for _, p, _ in form.images) == permutation(BraidWord(n, letters[start:end])).images
                    closed_forms[positive] += 1
                    _, lo, walk, _, _ = form.plan
                    down = any(step < 0 for _, step in walk)
                    walks["up from an end" if lo else "around a gap" if down else "up from R_0"] += 1
        # both signs went through the substitution step many times, with
        # each kind of walk
        assert min(closed_forms.values()) > 40, closed_forms
        assert len(walks) == 3 and min(walks.values()) > 10, walks

    def test_chunks_are_the_maximal_permutation_braids(self):
        rng = random.Random(4111)
        for _ in range(40):
            n = rng.randint(9, 14)
            letters = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.randint(1, n - 1)
                letters += _half_twist_on(lo, rng.randint(lo + 1, n), rng.choice((1, -1)))
                letters += [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 3))]
            letters = tuple(letters)
            least = CHUNK_LETTERS_PER_STRAND * n
            expected = [(a, b) for a, b in _reference_chunks(n, letters) if b - a >= least]
            assert [(a, b) for a, b, _, _ in _long_chunks(letters, n)] == expected

    def test_non_interval_chunk_falls_back(self):
        rng = random.Random(4127)
        n = 20
        seen = 0
        for sign in (1, -1):
            for _ in range(20):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                letters = tuple(_permutation_braid(perm, sign))
                if len(letters) < CHUNK_LETTERS_PER_STRAND * n:
                    continue
                assert permutation(BraidWord(n, letters)).images == tuple(perm)
                sets = [S for S in _reference_index_sets(n, letters) if S]
                if all(max(S) - min(S) + 1 == len(S) for S in sets):
                    continue
                # the whole word is one chunk, with no form, so it
                # goes letter by letter
                assert _long_chunks(letters, n) == ((0, len(letters), sign > 0, None),)
                before = _letter_path(n, letters[: len(letters) // 2])  # any action will do
                imgs = list(before)
                _compose(imgs, letters, _long_chunks(letters, n), None)
                assert imgs == _letter_path(n, letters + letters[: len(letters) // 2])
                assert _artin_images.__wrapped__(n, letters) == _letter_path(n, letters)
                seen += 1
        assert seen >= 10

    def test_budget_bounds_each_r_m(self):
        # the negative half twist on 4 strands sends x_j to W_j x_(5-j) W_j^-1
        # with W_j = (x_(6-j)..x_4)^-1: the step takes phi(x_4)^-1 as it
        # stands, walks up to R_1 and R_2, and reads R_4 = D as it is, so
        # phi(W_j) = D^-1 R_(5-j); under the action phi of sigma_2 sigma_1
        # sigma_3, R_2 = phi(x_1 x_2) is longer than every image before the
        # step and after it
        n, letters = 4, (2, 1, 3)
        form = _chunk_form((4, 3, 2, 1), False)
        assert form.plan[:3] == ([(1, 4, 3), (2, 4, 2), (3, 4, 1)], 0, [(0, 1), (1, 1)])
        half_twist = _half_twist_on(1, n, -1)
        r_2 = _reference_reduce_concat(_reference_artin_images(n, letters)[:2])
        images = _reference_artin_images(n, letters) + _reference_artin_images(n, half_twist + list(letters))
        assert len(r_2) > max(map(len, images))
        imgs = _letter_path(n, letters)
        with pytest.raises(BudgetExceededError):
            _substitute(imgs, form.images, form.plan, len(r_2) - 1)
        assert _substitute(imgs, form.images, form.plan, len(r_2)) == _letter_path(n, (*half_twist, *letters))

    def test_first_chunk_takes_the_memoized_images(self):
        # a word that is one long chunk takes its images from its memoized
        # form; they equal the substitution step on the identity images, and
        # the budget raises at the same limits
        rng = random.Random(4133)
        seen, q_decides = 0, 0
        for n in [*range(9, 21), 30, 40]:
            # the half twist on strands lo..n; half twists on the first and
            # last k strands, whose longest R_m (x_1..x_(n-1) on the identity)
            # outgrows every image; then random permutations
            perms = [[*range(1, lo), *range(n, lo - 1, -1)] for lo in (1, 2, 3)]
            k = n // 2 - 2
            perms.append([*range(k, 0, -1), *range(k + 1, n - k + 1), *range(n, n - k, -1)])
            for _ in range(30):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                perms.append(perm)
            for perm in perms:
                for sign in (1, -1):
                    letters = tuple(_permutation_braid(perm, sign))
                    form = _chunk_form(tuple(perm), sign > 0)
                    if form is None or len(letters) < CHUNK_LETTERS_PER_STRAND * n:
                        continue
                    q_decides += form.peak > max(2 * len(W) + 1 for W, _, _ in form.images)
                    identity = [([], j, []) for j in range(1, n + 1)]
                    imgs = _substitute(identity, form.images, form.plan, None)
                    assert imgs == form.images == _artin_images.__wrapped__(n, letters) == _letter_path(n, letters)
                    for budget in range(form.peak - 3, form.peak + 2):
                        try:
                            _substitute(identity, form.images, form.plan, budget)
                        except BudgetExceededError:
                            with pytest.raises(BudgetExceededError):
                                _artin_images.__wrapped__(n, letters, budget)
                            assert budget < form.peak
                        else:
                            assert _artin_images.__wrapped__(n, letters, budget) == form.images
                            assert budget >= form.peak
                    seen += 1
        assert seen >= 40 and q_decides >= 2, (seen, q_decides)

    def test_small_n_never_walks(self, monkeypatch):
        # below n = 9 no permutation braid has 4n letters, so the cross-oracle
        # words (n <= 7) never pay for the walk
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr("spherebraid.freegroup._walk", walk)
        _split.cache_clear()
        for n in range(2, 9):
            x = named_element("half_twist", n)
            for w in (x**4, x**-4, named_element("full_twist", n)):
                assert _artin_images.__wrapped__(n, w.letters) == _letter_path(n, w.letters)
        with pytest.raises(AssertionError, match="walked"):
            _artin_images.__wrapped__(9, named_element("half_twist", 9).letters)


def _power_bases(n, rng):
    """Bases for powers at n >= 9: alpha0, alpha1 and alpha2 (interval
    conjugators, D among them), an alpha0 on a random strand interval (an
    interval inside D) and a conjugate g alpha g^-1 by a short random g
    (other conjugators); each of either sign."""
    alphabet = [k for k in range(-(n - 1), n) if k]
    g = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
    a = rng.randint(1, n // 2)
    bases = [named_element(name, n) for name in ("alpha0", "alpha1", "alpha2")]
    bases += [
        BraidWord(n, tuple(range(a, rng.randint(a + n // 2, n)))),
        g * named_element(rng.choice(("alpha0", "alpha1", "alpha2")), n) * g.inverse(),
    ]
    return [w if rng.random() < 0.5 else w.inverse() for w in bases]


class TestPowerPath:
    """Powers u^k of a short u, composed one period at a time, against the letter path."""

    @pytest.fixture
    def actions(self, monkeypatch):
        """The action psi of each substitution step the engine takes."""
        from spherebraid import freegroup

        actions = []
        substitute = freegroup._substitute

        def record(imgs, action, runs, budget):
            actions.append(action)
            return substitute(imgs, action, runs, budget)

        monkeypatch.setattr(freegroup, "_substitute", record)
        return actions

    def test_matches_letter_path_on_seeded_powers(self, actions):
        rng = random.Random(5003)
        words, composed = 0, []
        for n in range(9, 41):
            for u in _power_bases(n, rng):
                w = u ** rng.randint(2, n)
                actions.clear()
                assert _images(w, None) == _letter_path(n, w.letters), (n, u.letters)
                # a step on u's own images composes a period: a chunk has 4n
                # letters or more, more than |u|, and no braid of u's
                # exponent sum
                base = _letter_path(n, u.letters)
                if base in actions:
                    assert actions == [base] * (len(w) // len(u) - 1)
                    composed.append(base)
                words += 1
        assert len(composed) > words // 2, (len(composed), words)
        # every way of taking a conjugator ran: a letter as it stands, an
        # interval and an interval's inverse, walked up from R_0 = 1 and down
        # from R_n = D (the walk up from the least end costs more than |u|
        # on these bases; chunks take it)
        kinds = Counter()
        for base in composed:
            runs, lo, walk, _, _ = _plan(_runs(base), len(base))
            kinds["letter"] += any(abs(s - t) == 1 for _, s, t in runs)
            kinds["interval"] += any(t > s + 1 for _, s, t in runs)
            kinds["inverse"] += any(s > t + 1 for _, s, t in runs)
            kinds["up from R_0"] += lo == 0 and any(step > 0 for _, step in walk)
            kinds["down from D"] += any(step < 0 for _, step in walk)
        assert len(kinds) == 5 and min(kinds.values()) > 5, kinds

    def test_budget_contract_on_seeded_powers(self):
        rng = random.Random(5009)
        words = [u ** rng.randint(4, 8) for n in range(9, 17) for u in _power_bases(n, rng)]
        # an R_m decides the budget on a power of sigma_9 (sigma_1..sigma_6)
        words.append(BraidWord(10, (9, 1, 2, 3, 4, 5, 6)) ** 5)
        closed_forms, powers, _, walk_decides = TestMatchesLetterByLetterReduction().check(words)
        assert closed_forms == 0
        # g alpha g^-1, alpha1^-1 and alpha2^-1 are not composed
        assert powers > len(words) // 3, (powers, len(words))
        assert walk_decides == 1

    def test_budget_bounds_each_walked_product(self):
        # u^5 at n = 10, u = sigma_9 (sigma_1..sigma_6): an R_m of a composed
        # period is two letters longer than every image the engine stores,
        # inside the first period or at a period boundary
        n, u = 10, (9, 1, 2, 3, 4, 5, 6)
        lengths = []
        _reference_artin_images(n, u, None, lengths)
        boundaries = [2 * len(W) + 1 for j in range(2, 6) for W, _, _ in _letter_path(n, u * j)]
        stored = max(lengths[2::3] + boundaries)
        w = BraidWord(n, u) ** 5
        with pytest.raises(BudgetExceededError):
            _images(w, stored + 1)
        assert _images(w, stored + 2) == _letter_path(n, w.letters)

    @pytest.fixture
    def never_composed(self, monkeypatch):
        """The engine raises when it is given a period, and the memo holds no action computed without one."""
        from spherebraid import freegroup

        artin_images = freegroup._artin_images

        def no_period(n, letters, budget, period):
            if period:
                raise AssertionError("composed")
            return artin_images(n, letters, budget, period)

        monkeypatch.setattr(freegroup, "_artin_images", no_period)
        artin_images.cache_clear()
        yield
        artin_images.cache_clear()

    def test_small_n_short_and_undeclared_powers_are_never_composed(self, never_composed):
        for n in range(2, 9):
            for w in (named_element("full_twist", n), named_element("alpha1", n) ** (n - 1)):
                assert _images(w, None) == _letter_path(n, w.letters)
        u = BraidWord(9, (1,))
        for w in (u**17, u**-17, BraidWord(9, (1,) * 20) ** 1):  # under 2n letters, or one period
            assert _images(w, None) == _letter_path(9, w.letters)
        # the flat text of a power declares no period, however its letters repeat
        for w in (named_element("full_twist", 9), named_element("alpha2", 16) ** 14):
            flat = BraidWord.from_text(w.to_text(), w.strand_count)
            assert _images(flat, None) == _letter_path(w.strand_count, w.letters)
            with pytest.raises(AssertionError, match="composed"):
                _images(w, None)
        with pytest.raises(AssertionError, match="composed"):
            _images(u**18, None)

    def test_long_periods_are_never_composed(self, never_composed):
        rng = random.Random(5011)
        for n in range(9, 14):
            alphabet = [k for k in range(-(n - 1), n) if k]
            x = named_element("half_twist", n)  # n(n-1)/2 >= 4n letters
            u = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(CHUNK_LETTERS_PER_STRAND * n)))
            for w in (x**2, x**-3, u**2):
                assert _images(w, None) == _letter_path(n, w.letters)
        with pytest.raises(AssertionError, match="composed"):
            _images(named_element("full_twist", 9), None)

    def test_other_conjugators_are_not_composed(self, actions):
        # alpha1^-1 and alpha2^-1 each have a conjugator
        # x_k^-1..x_1^-1 x_2..x_(k-1) (k = n, n - 1), and g alpha0 g^-1 one
        # that is no interval either: their powers go by letters
        n = 12
        g = BraidWord(n, (5, -7))
        for u in (named_element("alpha1", n).inverse(), named_element("alpha2", n).inverse(), g * named_element("alpha0", n) * g.inverse()):
            assert _runs(_letter_path(n, u.letters)) is None
            w = u ** 6
            assert _images(w, None) == _letter_path(n, w.letters)
            assert actions == []


def _plan_products(n):
    """The products the plans build: x sigma_i and sigma_(n-i) x (b4) for i in {1, n/2, n - 1},
    x x (s1, d1) and a x a x^-1 for a = alpha0 (d3) and the bipolar twist (s3, even n), for x the
    half twist, and the conjugations x sigma_i x^-1, which act with both x and x^-1."""
    x = named_element("half_twist", n)
    products = []
    for i in (1, n // 2, n - 1):
        s = BraidWord(n, (i,))
        products += [(x, s), (BraidWord(n, (n - i,)), x), (x, s, x.inverse())]
    a = named_element("alpha0", n)
    products += [(x, x), (a, x, a, x.inverse())]
    if n % 2 == 0:
        y = named_element("bipolar_twist", n)
        products.append((y, x, y, x.inverse()))
    return products


def _least_completing_budget(images_at, top):
    """The least budget at which images_at does not raise, by bisection; it must not raise at top."""
    lo, hi = 0, top  # raises at lo, completes at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            images_at(mid)
        except BudgetExceededError:
            lo = mid
        else:
            hi = mid
    return hi


class TestProductPath:
    """A product (`BraidWord.product`) acts factor by factor, as its flat word does."""

    def test_matches_the_flat_word(self):
        rng = random.Random(1911)
        for n in range(2, 13):
            for factors in seeded_products(n, rng, 60):
                flat = BraidWord(n, sum((f.letters for f in factors), ()))
                product = BraidWord.product(*factors)
                assert _images(product, DEFAULT_MAX_IMAGE_LETTERS) == _letter_path(n, flat.letters), (n, factors)
        for n in (9, 16, 23, 24):
            for factors in _plan_products(n):
                flat = BraidWord(n, sum((f.letters for f in factors), ()))
                assert artin_disk_endo(BraidWord.product(*factors)) == artin_disk_endo(flat), n

    def test_raises_at_the_flat_words_budgets(self):
        # raising is monotone in the budget, so the least completing budget
        # says at which budgets each raises
        for n in range(9, 41):
            for factors in _plan_products(n):
                flat = BraidWord(n, sum((f.letters for f in factors), ()))
                product = BraidWord.product(*factors)
                least = _least_completing_budget(lambda b: _artin_images.__wrapped__(n, flat.letters, b), n * n)
                with pytest.raises(BudgetExceededError):
                    _images(product, least - 1)
                assert _images(product, least) == _images(flat, least), n


class TestEngineIndependence:
    """The Artin engine and the Garside engine share no code."""

    @staticmethod
    def imported_modules(name):
        tree = ast.parse((Path(spherebraid.__file__).parent / f"{name}.py").read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[-1] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    found.add(node.module.split(".")[-1])
                found |= {alias.name for alias in node.names}
        return found

    def test_freegroup_imports_nothing_from_garside(self):
        assert "garside" not in self.imported_modules("freegroup")

    def test_garside_imports_nothing_from_freegroup(self):
        assert "freegroup" not in self.imported_modules("garside")


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

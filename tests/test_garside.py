import random

import pytest
from hypothesis import given, settings, strategies as st

from braid_strategies import braid_letters, seeded_products
from spherebraid import freegroup, garside
from spherebraid.garside import GarsideNormalForm, equal_Bn, normal_form
from spherebraid.selftest import random_word, rewrite_equivalent
from spherebraid.words import (
    BraidWord,
    StrandCountMismatchError,
    exponent_sum,
    mirror,
    named_element,
)


# Reference: the fixed-point sweep that normal_form ran before the
# left-greedy rewrite.  One factor per letter, every adjacent pair slid
# until nothing changes, descent masks rebuilt after every move, and an
# unbounded per-pair memo.

_REFERENCE_PAIRS: dict = {}


def _ref_descents(p):
    return sum(1 << i for i in range(len(p) - 1) if p[i] > p[i + 1])


def _ref_compose(p, q):
    return tuple(q[v - 1] for v in p)


def _ref_inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def inversion_count(p):
    """Word length of the permutation braid with permutation p."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def simple_word(p):
    """The canonical positive word of the simple p: strip the lowest starting descent."""
    letters = []
    while need := _ref_descents(p):
        i = (need & -need).bit_length()
        letters.append(i)
        # strip sigma_i from the left: p <- sigma_i * p
        lp = list(p)
        lp[i - 1], lp[i] = lp[i], lp[i - 1]
        p = tuple(lp)
    return BraidWord(len(p), tuple(letters))


def nf_exponent_sum(nf):
    n = nf.strand_count
    return nf.delta_power * (n * (n - 1) // 2) + sum(inversion_count(f) for f in nf.factors)


def nf_word(nf):
    """A braid word for the normal form: the Delta power, then each factor's word."""
    w = named_element("half_twist", nf.strand_count) ** nf.delta_power
    for f in nf.factors:
        w = w * simple_word(f)
    return w


def is_left_weighted(nf):
    """Each factor's starting set lies in the previous factor's finishing set."""
    return all(
        not _ref_descents(b) & ~_ref_descents(_ref_inverse(a))
        for a, b in zip(nf.factors, nf.factors[1:])
    )


def _ref_left_weight_pair(a, b):
    hit = _REFERENCE_PAIRS.get((a, b))
    if hit is not None:
        return hit
    la, lb = list(a), list(b)
    while True:
        need = _ref_descents(tuple(lb)) & ~_ref_descents(_ref_inverse(tuple(la)))
        if need == 0:
            break
        i = (need & -need).bit_length()
        pi, pj = la.index(i), la.index(i + 1)
        la[pi], la[pj] = la[pj], la[pi]
        lb[i - 1], lb[i] = lb[i], lb[i - 1]
    result = _REFERENCE_PAIRS[(a, b)] = (tuple(la), tuple(lb))
    return result


def _reference_normal_form(w):
    n = w.strand_count
    if n < 2:
        return GarsideNormalForm(n, 0, ())
    identity = tuple(range(1, n + 1))
    delta = tuple(range(n, 0, -1))
    sigma = {}
    for i in range(1, n):
        s = list(identity)
        s[i - 1], s[i] = s[i], s[i - 1]
        sigma[i] = tuple(s)
    tau = lambda p: tuple(n + 1 - p[n - j] for j in range(1, n + 1))
    raw = [(0, sigma[k]) if k > 0 else (-1, _ref_compose(delta, sigma[-k])) for k in w.letters]
    power, suffix, factors = 0, 0, []
    for d, f in reversed(raw):
        factors.append(tau(f) if suffix & 1 else f)
        suffix -= d
        power += d
    factors.reverse()
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a2, b2 = _ref_left_weight_pair(factors[i], factors[i + 1])
            if a2 != factors[i]:
                factors[i], factors[i + 1] = a2, b2
                changed = True
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == delta:
        lo += 1
    while lo < hi and factors[hi - 1] == identity:
        hi -= 1
    return GarsideNormalForm(n, power + lo, tuple(factors[lo:hi]))


class TestNormalForm:
    def test_empty_word(self):
        nf = normal_form(BraidWord(4))
        assert (nf.delta_power, nf.factors) == (0, ())

    def test_half_twist_b3_is_delta(self):
        nf = normal_form(BraidWord(3, (1, 2, 1)))
        assert (nf.delta_power, nf.factors) == (1, ())

    def test_half_twist_square_is_delta_squared(self):
        x = named_element("half_twist", 4)
        nf = normal_form(x * x)
        assert (nf.delta_power, nf.factors) == (2, ())

    def test_mixed_sign_word(self):
        # sigma_1 sigma_2^-1 in B_3: Delta^-1 followed by two nontrivial factors,
        # computed by hand via the inverse-of-simple rewriting and one slide.
        nf = normal_form(BraidWord(3, (1, -2)))
        assert nf.delta_power == -1
        assert nf.factors == ((1, 3, 2), (2, 3, 1))

    def test_full_and_half_twists(self):
        for n in range(2, 11):
            assert normal_form(named_element("full_twist", n)) == GarsideNormalForm(n, 2, ())
            assert normal_form(named_element("half_twist", n)) == GarsideNormalForm(n, 1, ())

    def test_factors_never_trivial_or_delta(self):
        with pytest.raises(ValueError):
            GarsideNormalForm(3, 0, ((1, 2, 3),))
        with pytest.raises(ValueError):
            GarsideNormalForm(3, 0, ((3, 2, 1),))

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 25))))
    @settings(max_examples=80, deadline=None)
    def test_normal_form_is_left_weighted(self, data):
        n, letters = data
        nf = normal_form(BraidWord(n, tuple(letters)))
        assert is_left_weighted(nf)

    def test_matches_fixed_point_sweep_on_random_words(self):
        rng = random.Random(2024)
        for n in range(3, 9):
            for _ in range(150):
                w = random_word(n, 60, rng)
                assert normal_form(w) == _reference_normal_form(w), w.to_text()
            # about 85 % of the letters of one sign: long same-sign runs
            # that fill chunks, close them and open the next
            for sign in (1, -1):
                for _ in range(75):
                    letters = tuple(
                        (sign if rng.random() < 0.85 else -sign) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 60))
                    )
                    w = BraidWord(n, letters)
                    assert normal_form(w) == _reference_normal_form(w), w.to_text()

    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_fixed_point_sweep_on_delta_heavy_words(self, n):
        x = named_element("half_twist", n)
        y = named_element("bipolar_twist", n)
        alpha0_n = named_element("full_twist", n)  # the word alpha0^n
        words = [
            x * x,
            alpha0_n,
            named_element("alpha2", n) ** (n - 2),
            x * y * x.inverse(),
            y,
            mirror(y),
            x.inverse(),
            (x * x).inverse(),
            y.inverse(),
            alpha0_n.inverse(),
        ]
        for w in words:
            assert normal_form(w) == _reference_normal_form(w)

    @pytest.mark.parametrize("n", [12, 16])
    def test_matches_fixed_point_sweep_on_half_twist_conjugates(self, n):
        x = named_element("half_twist", n)
        for i in range(1, n):
            w = x * BraidWord(n, (i,)) * x.inverse()
            assert normal_form(w) == _reference_normal_form(w)
            assert normal_form(w) == normal_form(BraidWord(n, (n - i,)))

    def test_matches_fixed_point_sweep_around_the_whole_run_length(self):
        # runs of one sign one letter short of Delta's crossing count, equal
        # to it, one past it and twice it, between short runs of the other
        # sign: negative long runs, then positive ones
        rng = random.Random(4242)
        for sign in (-1, 1):
            for n in range(3, 9):
                crossings = n * (n - 1) // 2
                for _ in range(110):
                    letters = []
                    for length in rng.sample([crossings - 1, crossings, crossings + 1, 2 * crossings], 3):
                        letters += [-sign * rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))]
                        letters += [sign * rng.randint(1, n - 1) for _ in range(length)]
                    w = BraidWord(n, tuple(letters))
                    assert normal_form(w) == _reference_normal_form(w), w.to_text()

    def test_inserted_free_pairs_leave_the_form(self):
        # k, -k pairs, some nested inside another, join the open chunk in
        # either order, and the form stays the word's
        rng = random.Random(2027)
        for n in range(2, 13):
            for _ in range(80):
                w = random_word(n, 40, rng)
                letters = list(w.letters)
                for _ in range(rng.randint(1, 4)):
                    k = rng.choice((1, -1)) * rng.randint(1, n - 1)
                    pos = rng.randint(0, len(letters))
                    letters[pos:pos] = [k, -k]
                    if rng.random() < 0.5:
                        j = rng.choice((1, -1)) * rng.randint(1, n - 1)
                        letters[pos + 1 : pos + 1] = [j, -j]
                v = BraidWord(n, tuple(letters))
                assert normal_form(v) == normal_form(w) == _reference_normal_form(w), v.to_text()

    def test_a_free_pair_enters_as_one_simple(self, monkeypatch):
        # sigma_k sigma_k^-1 and sigma_k^-1 sigma_k stay in one chunk, so
        # one simple reaches the slide instead of one of each sign
        entered = []
        normalize = garside._normalize_factors

        def record(n, simples):
            entered.append(list(simples))
            return normalize(n, simples)

        monkeypatch.setattr(garside, "_normalize_factors", record)
        for n in range(3, 9):
            for k in range(1, n):
                for letters in ((k, -k), (-k, k)):
                    entered.clear()
                    assert normal_form(BraidWord(n, letters)) == GarsideNormalForm(n, 0, ())
                    assert [len(simples) for simples in entered] == [1], (n, letters)

    def test_complement_identities_on_every_simple_of_b4(self):
        # a negative chunk Q^-1 is held as Delta Q^-1, which starts at
        # Delta; sigma_c^-1 joins it by stripping sigma_{n-c} from the
        # front, since Delta (Q sigma_c)^-1 = sigma_{n-c}^-1 Delta Q^-1, and
        # joins exactly when that crossing starts Delta Q^-1.  Under an odd
        # count of Delta^-1 to its right the chunk's letters are tau-flipped.
        from itertools import permutations

        n = 4
        delta = (4, 3, 2, 1)
        tau = lambda p: tuple(n + 1 - p[n - j] for j in range(1, n + 1))
        sigma = {}
        for c in range(1, n):
            s = list(range(1, n + 1))
            s[c - 1], s[c] = s[c], s[c - 1]
            sigma[c] = tuple(s)
        simples = list(permutations(range(1, n + 1)))
        assert len(simples) == 24
        for q in simples:
            letters = simple_word(q).letters
            for parity in (0, 1):
                chunk = list(delta)
                for c in letters:
                    k = c if parity else n - c
                    assert chunk[k - 1] > chunk[k]
                    chunk[k - 1], chunk[k] = chunk[k], chunk[k - 1]
                flipped = tau(q) if parity else q
                assert tuple(chunk) == _ref_compose(delta, _ref_inverse(flipped))
                # the join test is exact: sigma_c^-1 joins iff Q sigma_c is simple
                for c in range(1, n):
                    k = n - c
                    joins = chunk[k - 1] > chunk[k]
                    longer = _ref_compose(flipped, sigma[c])
                    assert joins == (inversion_count(longer) == inversion_count(flipped) + 1)

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 25), st.integers(0, 2**30))))
    @settings(max_examples=60, deadline=None)
    def test_invariance_under_rewrites(self, data):
        n, letters, seed = data
        w = BraidWord(n, tuple(letters))
        v = rewrite_equivalent(w, random.Random(seed))
        assert normal_form(w) == normal_form(v)

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 25))))
    @settings(max_examples=60, deadline=None)
    def test_exponent_sum_recoverable(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        assert nf_exponent_sum(normal_form(w)) == exponent_sum(w)

    @given(st.integers(3, 5).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 15))))
    @settings(max_examples=40, deadline=None)
    def test_to_word_represents_same_element(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        assert freegroup.eq_Bn(nf_word(normal_form(w)), w)


class TestProductForm:
    """A product (`BraidWord.product`) is normalized from its factors' normal forms."""

    def test_matches_the_flat_word(self):
        rng = random.Random(1909)
        for n in range(2, 13):
            for factors in seeded_products(n, rng, 60):
                flat = BraidWord(n, sum((f.letters for f in factors), ()))
                assert normal_form(BraidWord.product(*factors)) == normal_form(flat), (n, factors)

    def test_conjugation_by_the_half_twist_reads_no_letter_of_it_twice(self):
        # x sigma_i x^-1 is one tau-flipped simple, with x and x^-1 from the memo
        n = 12
        x = named_element("half_twist", n)
        garside._factor_form.cache_clear()
        for i in range(1, n):
            nf = normal_form(BraidWord.product(x, BraidWord(n, (i,)), x.inverse()))
            assert nf == normal_form(BraidWord(n, (n - i,)))
        assert garside._factor_form.cache_info()[:2] == (2 * (n - 2), 2)  # (hits, misses)


class TestEqualBn:
    def test_braid_relation(self):
        assert equal_Bn(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))

    def test_conjugated_bipolar_twist(self):
        x = named_element("half_twist", 4)
        y = named_element("bipolar_twist", 4)
        assert equal_Bn(x * y * x.inverse(), y.inverse())

    def test_bipolar_square_is_not_full_twist_in_b4(self):
        y = named_element("bipolar_twist", 4)
        delta2 = named_element("full_twist", 4)
        assert not equal_Bn(y * y, delta2)
        assert not freegroup.eq_Bn(y * y, delta2)

    def test_strand_count_mismatch(self):
        with pytest.raises(StrandCountMismatchError):
            equal_Bn(BraidWord(3, (1,)), BraidWord(4, (1,)))

    def test_cross_oracle_sample(self):
        rng = random.Random(7)
        for n in range(3, 8):
            for _ in range(60):
                w = random_word(n, 20, rng)
                v = rewrite_equivalent(w, rng) if rng.random() < 0.4 else random_word(n, 20, rng)
                assert equal_Bn(w, v) == freegroup.eq_Bn(w, v)


class TestConjugateByHalfTwist:
    """Conjugation by the half twist x flips indices: x w x^-1 = mirror(w)."""

    @staticmethod
    def conjugate_by_half_twist(w):
        x = named_element("half_twist", w.strand_count)
        return normal_form(x * w * x.inverse())

    def test_single_generator(self):
        assert self.conjugate_by_half_twist(BraidWord(4, (1,))) == normal_form(BraidWord(4, (3,)))

    def test_identity(self):
        nf = self.conjugate_by_half_twist(BraidWord(4))
        assert (nf.delta_power, nf.factors) == (0, ())

    def test_alpha0_n6(self):
        nf = self.conjugate_by_half_twist(named_element("alpha0", 6))
        assert nf == normal_form(BraidWord(6, (5, 4, 3, 2, 1)))

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 18))))
    @settings(max_examples=60, deadline=None)
    def test_matches_mirror(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        assert self.conjugate_by_half_twist(w) == normal_form(mirror(w))

    def test_matches_mirror_bulk(self):
        rng = random.Random(331)
        for n in range(3, 8):
            for _ in range(500):
                w = random_word(n, 20, rng)
                assert self.conjugate_by_half_twist(w) == normal_form(mirror(w))


class TestPermutationBraid:
    """The reference words of simple factors that the tests above build on."""

    def test_word_reconstruction(self):
        word = simple_word((4, 3, 2, 1))
        assert len(word) == inversion_count((4, 3, 2, 1)) == 6
        # the canonical word of the reversal is the half twist element
        assert equal_Bn(word, named_element("half_twist", 4))

    def test_identity_word_empty(self):
        assert simple_word((1, 2, 3, 4)).letters == ()

    def test_inversion_count(self):
        assert inversion_count((2, 3, 1)) == 2
        assert inversion_count((1, 2, 3)) == 0
        assert inversion_count((3, 2, 1)) == 3

    def test_normal_form_serialization(self):
        doc = normal_form(BraidWord(3, (1, -2))).as_dict()
        assert doc == {"delta_power": -1, "factors": [[1, 3, 2], [2, 3, 1]]}


class TestConcurrency:
    def test_parallel_normal_forms_agree_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(17)
        words = [random_word(n, 25, rng) for n in (3, 4, 5, 6) for _ in range(40)]
        serial = [normal_form(w) for w in words]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(normal_form, words))
        assert serial == parallel

    def test_evicting_slide_memo_under_threads(self, monkeypatch):
        import sys
        from concurrent.futures import ThreadPoolExecutor
        from functools import lru_cache

        rng = random.Random(23)
        words = [random_word(n, 40, rng) for n in (3, 5, 7, 9) for _ in range(30)]
        expected = [_reference_normal_form(w) for w in words]
        # a memo far smaller than the working set evicts on nearly every call
        monkeypatch.setattr(garside, "_slide", lru_cache(maxsize=8)(garside._slide.__wrapped__))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                parallel = list(pool.map(normal_form, words, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == expected

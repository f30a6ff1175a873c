import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from braid_strategies import braid_letters
from spherebraid.certificates import AXIOMS, Verdict
from spherebraid import sphere
from spherebraid.freegroup import (
    BudgetExceededError,
    EndoOnBasis,
    FreeWord,
    _artin_images,
    _conjugator_length,
    _extend,
    _images,
    _inv,
)
from spherebraid.presentations import presentation_library
from spherebraid.selftest import random_word
from spherebraid.sphere import (
    DEFAULT_MAX_IMAGE_LETTERS,
    acts_trivially,
    eq_mod_center,
    inner_conjugator,
    relator_trivializes,
    sphere_endo,
    square_rule,
    torsion_order,
)
from spherebraid.theorems import verify_background
from spherebraid.words import BraidWord, named_element, permutation


def _reference_inner_conjugator(e):
    """The conjugator found by re-conjugating every image, as a reference.

    The image of x_1 under a conjugation is a reduced word u x_1 u^-1,
    which pins the conjugator down to c = u x_1^k; the exponent k is read
    off the image of x_2 and the full candidate is then verified against
    every generator.
    """
    imgs = [list(img.letters) for img in e.images]
    w1 = imgs[0]
    if len(w1) % 2 != 1:
        return None
    half = len(w1) // 2
    if w1[half] != 1:
        return None
    u = w1[:half]
    if w1 != u + [1] + _inv(u):
        return None
    if len(imgs) == 1:
        return tuple(u)
    # psi_j = u^-1 e(x_j) u; conjugating by the empty word changes nothing
    psi = imgs
    if u:
        u_inv = _inv(u)
        psi = []
        for img in imgs:
            conj = u_inv[:]
            _extend(conj, img, _inv(img))
            _extend(conj, u, u_inv)
            psi.append(conj)
    if psi[0] != [1]:
        return None
    # psi_j must be x_1^k x_j x_1^-k for one k shared by all j >= 2
    p2 = psi[1]
    if len(p2) % 2 != 1:
        return None
    k = len(p2) // 2
    if k and p2[0] not in (1, -1):
        return None
    sign = 1 if not k or p2[0] == 1 else -1
    for j, pj in enumerate(psi[1:], start=2):
        expected = [sign] * k + [j] + [-sign] * k
        if pj != expected:
            return None
    _extend(u, [sign] * k, [-sign] * k)
    return tuple(u)


def _inner_test_words(n, rng):
    """Sphere relators, Delta^2, the surface relator, random and pure words, and conjugates."""
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    delta2 = named_element("full_twist", n)
    relator = named_element("surface_relator", n)
    words = [BraidWord(n, rel) for rel in presentation_library("sphere_braid", n).relators]
    words += [delta2, relator]
    for _ in range(200):
        g = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10))))
        squares = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
        pure = BraidWord(n, tuple(k for k in squares for _ in range(2)))
        words += [g, pure, g * relator * g.inverse(), g * delta2 * g.inverse(), g * pure * g.inverse()]
    return words


class TestAxiomCatalog:
    def test_five_axioms(self):
        assert sorted(AXIOMS) == ["A1", "A2", "A3", "A4", "A5"]
        for aid, ax in AXIOMS.items():
            assert ax.id == aid
            assert ax.statement and ax.source


class TestSphereEndo:
    def test_empty_word_is_identity(self):
        for n in (3, 5):
            assert sphere_endo(BraidWord(n)).is_identity()

    def test_needs_three_strands(self):
        with pytest.raises(ValueError):
            sphere_endo(BraidWord(2, (1,)))

    def test_relator_acts_by_conjugation(self):
        # hand computation: the relator of B_3(S^2) maps x1 -> x1 and
        # x2 -> x1 x2 x1^-1, i.e. conjugation by x1 -- trivial only as an
        # outer automorphism
        e = sphere_endo(named_element("surface_relator", 3))
        assert e.images == (FreeWord(2, (1,)), FreeWord(2, (1, 2, -1)))
        assert not e.is_identity()
        assert inner_conjugator(e) == (1,)

    def test_full_twist_acts_as_exact_identity(self):
        e = sphere_endo(named_element("full_twist", 4))
        assert e.is_identity()

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 18), braid_letters(n, 18))))
    @settings(max_examples=40, deadline=None)
    def test_action_is_multiplicative(self, compose_endos, data):
        n, lu, lv = data
        u, v = BraidWord(n, tuple(lu)), BraidWord(n, tuple(lv))
        assert sphere_endo(u * v) == compose_endos(sphere_endo(u), sphere_endo(v))


class TestInnerConjugator:
    def test_identity(self):
        e = sphere_endo(BraidWord(3))
        assert inner_conjugator(e) == ()

    def test_nontrivial_outer(self):
        # sigma_1^2 at n = 4 permutes no strand but acts nontrivially
        e = sphere_endo(BraidWord(4, (1, 1)))
        assert inner_conjugator(e) is None

    def test_rank_one(self):
        e = EndoOnBasis(1, (FreeWord(1, (1,)),))
        assert inner_conjugator(e) == _reference_inner_conjugator(e) == ()
        e = EndoOnBasis(1, (FreeWord(1, (1, 1)),))
        assert inner_conjugator(e) is _reference_inner_conjugator(e) is None

    def test_agrees_with_reference(self):
        rng = random.Random(20240806)
        tally = {"inner": 0, "outer, identity permutation": 0, "moves a strand": 0}
        for n in range(3, 9):
            for w in _inner_test_words(n, rng):
                e = sphere_endo(w)
                expected = _reference_inner_conjugator(e)
                assert inner_conjugator(e) == expected, (n, w.to_text())
                identity = permutation(w).is_identity()
                assert acts_trivially(w) is (identity and expected is not None)
                if expected is not None:
                    tally["inner"] += 1
                elif identity:
                    tally["outer, identity permutation"] += 1
                else:
                    tally["moves a strand"] += 1
        assert min(tally.values()) > 100, tally


def _reference_acts_trivially(w, budget):
    """acts_trivially by the whole path alone: the strand permutation of
    every strand, then the disk action of every image, then the sphere
    conjugators.  Returns the bool, or the message of the budget error."""
    n = w.strand_count
    try:
        if not permutation(w).is_identity():
            return False
        disk_images = _artin_images.__wrapped__(n, w.letters, budget)
        if not any(W for W, _, _ in disk_images):
            return True
        conjugators = [S[: _conjugator_length(S, p)] for S, p in sphere._sphere_conjugators(n, disk_images)]
        sphere._check_image(2 * max(map(len, conjugators)) + 1, budget)
        return sphere._common_conjugator(conjugators) is not None
    except BudgetExceededError as exc:
        return str(exc)


def _outcome(w, budget):
    try:
        return acts_trivially(w, budget)
    except BudgetExceededError as exc:
        return str(exc)


def _short_words(n, rng):
    """Seeded words shorter than 2n at n: relators conjugated by short words,
    commutators of letters far apart, pure braids and random words; most
    have a trivial strand permutation and leave out a generator."""
    relators = presentation_library("sphere_braid", n).relators
    words = []
    for _ in range(12):
        lo = rng.randint(1, n - 2)
        alphabet = [k for k in range(-(lo + 3), lo + 4) if k and abs(k) < n]
        g = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
        r = rng.choice(relators[:-1])
        i, j = rng.sample(range(1, n), 2)
        kind = rng.randrange(4)
        if kind == 0:
            letters = g + r + tuple(-k for k in reversed(g))
        elif kind == 1:
            letters = (i, j, -i, -j) + (i, i)
        elif kind == 2:
            letters = g + (i, i) * rng.randint(1, 3) + tuple(-k for k in reversed(g))
        else:
            letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2 * n - 1)))
        words.append(BraidWord(n, letters[: 2 * n - 1]))
    return words


class TestActsTrivially:
    def test_relators_match_the_whole_path(self):
        for n in range(3, 41):
            for rel in presentation_library("sphere_braid", n).relators:
                w = BraidWord(n, rel)
                assert _outcome(w, DEFAULT_MAX_IMAGE_LETTERS) == _reference_acts_trivially(w, DEFAULT_MAX_IMAGE_LETTERS) is True
                if n <= 12:
                    for budget in range(1, 2 * n + 2):
                        assert _outcome(w, budget) == _reference_acts_trivially(w, budget), (n, rel, budget)

    def test_short_words_match_the_whole_path(self):
        rng = random.Random(6007)
        outcomes = set()
        for n in range(9, 31):
            for w in _short_words(n, rng):
                for budget in range(1, 3 * n + 1):
                    expected = _reference_acts_trivially(w, budget)
                    assert _outcome(w, budget) == expected, (w.letters, budget)
                    outcomes.add(expected if isinstance(expected, bool) else "raised")
        # every outcome occurs: False, True, and a budget that runs out
        assert outcomes == {False, True, "raised"}

    def test_disk_identities_on_the_whole_path(self):
        # w w^-1 with w touching every generator takes the whole path, and
        # every disk image is x_j: the sphere conjugators are all empty, so
        # the comparison answers True once the budget lets the action through
        rng = random.Random(2411)
        for n in range(9, 17):
            for _ in range(3):
                letters = [rng.choice((k, -k)) for k in rng.sample(range(1, n), n - 1)]
                letters += [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 4))]
                w = BraidWord(n, tuple(letters))
                word = w * w.inverse()
                assert len(word) >= 2 * n and all(W == [] for W, _, _ in _images(word, None))
                budget, outcomes = 1, []
                while outcomes[-2:] != [True, True]:
                    expected = _reference_acts_trivially(word, budget)
                    assert _outcome(word, budget) == expected, (word.letters, budget)
                    outcomes.append(expected)
                    budget += 1
                # the budget runs out first, then the answer is True
                assert outcomes[0] is not True and outcomes[-2:] == [True, True], word.letters

    def test_only_the_surface_relator_takes_the_whole_path(self, monkeypatch):
        # from n = 4 on every other relator is a far commutator or a braid
        # relator, which b3 decides by its shape on the strands it touches,
        # so only the surface relator costs the n-strand permutation and the
        # n disk images (at n = 3 the surface relator is the only relator
        # besides the braid relation)
        whole = []
        monkeypatch.setattr(sphere, "permutation", lambda w: whole.append(w.letters) or permutation(w))
        monkeypatch.setattr(sphere, "_images", lambda w, budget: whole.append(w.letters) or _images(w, budget))
        for n in (3, 4, 5, 12, 22, 40):
            whole.clear()
            assert verify_background(n).verdict is Verdict.VERIFIED
            surface = named_element("surface_relator", n).letters
            assert whole == [surface, surface], n

    def test_full_twist_in_center_set(self):
        for n in range(3, 9):
            assert acts_trivially(named_element("full_twist", n)) is True

    def test_single_generator_not(self):
        assert acts_trivially(BraidWord(4, (1,))) is False

    def test_bipolar_square_in_center_set(self):
        y = named_element("bipolar_twist", 4)
        assert acts_trivially(y * y) is True

    def test_all_defining_relations_trivial(self):
        for n in range(3, 9):
            for rel in presentation_library("sphere_braid", n).relators:
                assert acts_trivially(BraidWord(n, rel)) is True

    # pure words whose disk images fit in P - 1 letters, P the longest
    # sphere image, so the sphere budget is the one that runs out; True
    # marks the inner ones.  In the outer ones the longest image is not
    # x_1's, and the conjugators already differ at x_1.
    BUDGET_WORDS = [
        (3, "1 1 -2 -1 -1 -2", True),
        (3, "1 1 1 1 -2 -1 -1 -2", True),
        (5, "-3 3 -4 -4", False),
        (6, "5 5 -4 4", False),
        (5, "-1 -1 -3 -3 -4 -4", False),
        (6, "5 1 1 3 5 -3", False),
    ]

    def test_budget_boundary(self):
        for n, text, inner in self.BUDGET_WORDS:
            w = BraidWord(n, tuple(int(k) for k in text.split()))
            longest = max(len(img) for img in sphere_endo(w).images)
            with pytest.raises(BudgetExceededError) as excinfo:
                acts_trivially(w, longest - 1)
            assert str(excinfo.value) == f"endomorphism image exceeded {longest - 1} letters; raise the budget to continue"
            assert acts_trivially(w, longest) is inner
            assert acts_trivially(w, longest + 1) is inner

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 18))))
    @settings(max_examples=60, deadline=None)
    def test_nontrivial_permutation_never_in_center_set(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        if not permutation(w).is_identity():
            assert acts_trivially(w) is False

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 10), braid_letters(n, 10))))
    @settings(max_examples=50, deadline=None)
    def test_normal_closure_of_relator_in_center_set(self, data):
        # products of conjugates of the relator are trivial in B_n(S^2),
        # so their sphere action must be detected as inner whatever the
        # conjugators are.  Some conjugators drive the disk action past any
        # fixed budget, and running out of budget is a correct outcome, so
        # such an example is rejected rather than failed
        n, lg, lh = data
        g = BraidWord(n, tuple(lg))
        h = BraidWord(n, tuple(lh))
        rel = named_element("surface_relator", n)
        w = g * rel * g.inverse() * h * rel.inverse() * h.inverse()
        try:
            trivial = acts_trivially(w, 10**4)
        except BudgetExceededError:
            reject()
        assert trivial is True

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 12))))
    @settings(max_examples=50, deadline=None)
    def test_conjugates_of_full_twist_in_center_set(self, data):
        n, lg = data
        g = BraidWord(n, tuple(lg))
        w = g * named_element("full_twist", n) * g.inverse()
        assert acts_trivially(w) is True


class TestEqModCenter:
    def test_reflexive(self):
        w = BraidWord(4, (1, -2, 3))
        assert eq_mod_center(w, w)

    def test_conjugation_inverts_cycle(self):
        x = named_element("half_twist", 4)
        a0 = named_element("alpha0", 4)
        assert eq_mod_center(x * a0 * x.inverse(), a0.inverse())

    def test_distinct_generators(self):
        assert not eq_mod_center(BraidWord(4, (1,)), BraidWord(4, (2,)))

    def test_delta_squared_equals_identity_mod_center(self):
        for n in (3, 4, 5):
            assert eq_mod_center(named_element("full_twist", n), BraidWord(n))

    def test_matches_product_definition(self):
        # the definition: w v^-1 acts trivially on the punctured sphere
        def by_product(w, v):
            return acts_trivially(w * v.inverse())

        rng = random.Random(13)
        for n in range(3, 9):
            alphabet = [k for k in range(-(n - 1), n) if k != 0]
            delta2 = named_element("full_twist", n)
            relator = named_element("surface_relator", n)
            for _ in range(6):
                g = random_word(n, 8, rng)
                squares = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
                pure = BraidWord(n, tuple(k for k in squares for _ in range(2)))
                central = (BraidWord(n), delta2, delta2.inverse(), g * delta2 * g.inverse(), relator)
                for v in (*central, pure, random_word(n, 10, rng)):
                    for w in (random_word(n, 10, rng), v * delta2, g * v * g.inverse()):
                        assert eq_mod_center(w, v) == by_product(w, v), (n, w.to_text(), v.to_text())

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(11)
        for n in (3, 4, 5):
            words = [random_word(n, 10, rng) for _ in range(6)]
            for u in words:
                assert eq_mod_center(u, u)
                for v in words:
                    assert eq_mod_center(u, v) == eq_mod_center(v, u)
            for u in words:
                for v in words:
                    if not eq_mod_center(u, v):
                        continue
                    for t in words:
                        if eq_mod_center(v, t):
                            assert eq_mod_center(u, t)


class TestRelatorTrivializes:
    def test_relator_itself(self):
        for n in range(2, 11):
            assert relator_trivializes(named_element("surface_relator", n)) is True

    def test_cycle_times_mirror(self):
        a = named_element("alpha0", 6)
        from spherebraid.words import mirror

        assert relator_trivializes(a * mirror(a)) is True

    def test_empty_word(self):
        assert relator_trivializes(BraidWord(5)) is True

    def test_full_twist_is_not_the_relator(self):
        assert relator_trivializes(named_element("full_twist", 4)) is False


class TestSquareRule:
    def test_bipolar_twist(self):
        step = square_rule(named_element("bipolar_twist", 4))
        assert step is not None
        assert set(step.axioms) == {"A1", "A2", "A3"}

    def test_half_twist_n6(self):
        assert square_rule(named_element("half_twist", 6)) is not None

    def test_fails_on_trivial_permutation(self):
        assert square_rule(named_element("full_twist", 4)) is None

    def test_fails_when_square_acts_nontrivially(self):
        assert square_rule(BraidWord(4, (1,))) is None

    @given(st.integers(3, 5).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 12))))
    @settings(max_examples=40, deadline=None)
    def test_soundness_on_random_words(self, data):
        n, letters = data
        v = BraidWord(n, tuple(letters))
        step = square_rule(v)
        if step is not None:
            assert not permutation(v).is_identity()
            assert acts_trivially(v * v) is True


class TestTorsionOrder:
    def test_alpha0_order_six_in_b3(self):
        # alpha0^3 is the full-twist word letter for letter: no engine runs
        cert = torsion_order(named_element("alpha0", 3), 6)
        assert cert.verdict is Verdict.VERIFIED
        (root,) = [s for s in cert.steps if s.id == "troot"]
        assert (root.method, root.axioms) == ("identical-words", ())
        assert not any(s.method == "exact-Bn" for s in cert.steps)
        assert not cert.flags["a5_backed"]

    def test_half_twist_order_four(self):
        cert = torsion_order(named_element("half_twist", 4), 4)
        assert cert.verdict is Verdict.VERIFIED

    def test_alpha1_in_b4_is_exact(self):
        # alpha1^3 equals the full twist already in B_4, so no axiom-backed
        # step is needed; the certificate stays exact.
        cert = torsion_order(named_element("alpha1", 4), 6)
        assert cert.verdict is Verdict.VERIFIED
        assert not cert.flags["a5_backed"]
        assert any(s.method == "exact-Bn" for s in cert.steps)

    def test_failed_mod_center_step_is_inconclusive(self):
        # sigma_1 at n = 4 has invariant orders 2 and 6, so the claim 6 passes
        # them, but sigma_1^3 is not in {1, Delta^2}: the certificate stops
        # at the failed mod-center step
        cert = torsion_order(BraidWord(4, (1,)), 6)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert [(s.id, s.ok) for s in cert.steps] == [("tinv", True), ("tmodc", False)]

    def test_candidate_not_dividing_the_half_power_is_inconclusive(self):
        # sigma_1^6 = Delta^2 in B_3(S^2), so the upper bound holds, but the
        # invariants leave the proper candidate 4, which does not divide 6
        cert = torsion_order(BraidWord(3, (1,)), 12)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert [(s.id, s.ok) for s in cert.steps] == [
            ("tinv", True),
            ("tmodc", True),
            ("troot", True),
            ("tupper", True),
        ]
        assert cert.steps[0].data["lower_multiple"] == 4

    def test_alpha2_odd_n_is_a5_backed(self):
        cert = torsion_order(named_element("alpha2", 5), 6)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["a5_backed"]
        axiom_steps = [s for s in cert.steps if s.method == "axiom"]
        assert axiom_steps and all("A5" in s.axioms for s in axiom_steps)
        assert all(
            s.data.get("flag") == "axiom-backed consistency" for s in axiom_steps
        )

    def test_a5_certifies_only_the_canonical_roots(self):
        # 1 and Delta^4 are 1 in B_n(S^2), so neither has order 2: each lies
        # in {1, Delta^2}, the square rule cannot say which, and A5 fixes the
        # value only for the canonical roots alpha_i^(n-i)
        for n in range(3, 7):
            for w in (BraidWord(n), named_element("full_twist", n) ** 2):
                cert = torsion_order(w, 2)
                assert cert.verdict is Verdict.INCONCLUSIVE, (n, w)
                root = cert.steps[-1]
                assert (root.id, root.ok, root.axioms) == ("troot", False, ()), (n, w)
                assert "A5" not in cert.cited_axiom_ids(), (n, w)

    def test_alpha2_n3_resolved_by_square_rule(self):
        # (w, claimed order, the square root of w^(claimed/2) the rule gets):
        # alpha2 at n = 3, then alpha2^2, whose w^k for odd k splits into
        # two equal literal halves alpha2^k
        cases = [(named_element("alpha2", 3), 2, BraidWord(3, (1,)))]
        for n, claimed in ((4, 2), (8, 6)):
            alpha2 = named_element("alpha2", n)
            cases.append((alpha2**2, claimed, alpha2 ** (claimed // 2)))
        for w, claimed, half in cases:
            cert = torsion_order(w, claimed)
            assert cert.verdict is Verdict.VERIFIED, w.strand_count
            assert not cert.flags["a5_backed"]
            (root,) = [s for s in cert.steps if s.id == "troot"]
            assert root.method == "square-rule"
            assert root.data["word"] == half.to_text()
            assert any(s.method == "mod-center" for s in cert.steps)

    def test_odd_claim_is_inconclusive(self):
        # alpha0^2 has order 3 in B_3(S^2); the invariants allow 3, but an
        # odd order has no root identity w^(k/2) = Delta^2 to pin it
        cert = torsion_order(named_element("alpha0", 3) ** 2, 3)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert [s.id for s in cert.steps] == ["tinv"]
        assert cert.cited_axiom_ids() == ()

    def test_wrong_claim_refuted(self):
        cert = torsion_order(named_element("alpha0", 4), 6)
        assert cert.verdict is Verdict.REFUTED

    def test_preconditions(self):
        with pytest.raises(ValueError):
            torsion_order(named_element("alpha0", 4), 0)

import random

import pytest
from hypothesis import given, settings, strategies as st

from spherebraid.certificates import Verdict
from spherebraid.freegroup import FreeWord
from spherebraid.presentations import presentation_library
from spherebraid.selftest import random_word
from spherebraid.sphere import (
    AXIOMS,
    CenterDecision,
    acts_trivially,
    eq_mod_center,
    inner_conjugator,
    relator_trivializes,
    sphere_endo,
    square_rule,
    torsion_order,
)
from spherebraid.words import BraidWord, named_element, permutation


def braid_letters(n, max_len=18):
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    return st.lists(st.sampled_from(alphabet), max_size=max_len)


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

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n), braid_letters(n))))
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


class TestActsTrivially:
    def test_full_twist_in_center_set(self):
        for n in range(3, 9):
            assert acts_trivially(named_element("full_twist", n)) is CenterDecision.InCenterSet

    def test_single_generator_not(self):
        assert acts_trivially(BraidWord(4, (1,))) is CenterDecision.NotInCenterSet

    def test_bipolar_square_in_center_set(self):
        y = named_element("bipolar_twist", 4)
        assert acts_trivially(y * y) is CenterDecision.InCenterSet

    def test_all_defining_relations_trivial(self):
        for n in range(3, 9):
            for rel in presentation_library("sphere_braid", n).relators:
                assert acts_trivially(BraidWord(n, rel)) is CenterDecision.InCenterSet

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n))))
    @settings(max_examples=60, deadline=None)
    def test_nontrivial_permutation_never_in_center_set(self, data):
        n, letters = data
        w = BraidWord(n, tuple(letters))
        if not permutation(w).is_identity():
            assert acts_trivially(w) is CenterDecision.NotInCenterSet

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 10), braid_letters(n, 10))))
    @settings(max_examples=50, deadline=None)
    def test_normal_closure_of_relator_in_center_set(self, data):
        # products of conjugates of the relator are trivial in B_n(S^2),
        # so their sphere action must be detected as inner whatever the
        # conjugators are
        n, lg, lh = data
        g = BraidWord(n, tuple(lg))
        h = BraidWord(n, tuple(lh))
        rel = named_element("surface_relator", n)
        w = g * rel * g.inverse() * h * rel.inverse() * h.inverse()
        assert acts_trivially(w) is CenterDecision.InCenterSet

    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), braid_letters(n, 12))))
    @settings(max_examples=50, deadline=None)
    def test_conjugates_of_full_twist_in_center_set(self, data):
        n, lg = data
        g = BraidWord(n, tuple(lg))
        w = g * named_element("full_twist", n) * g.inverse()
        assert acts_trivially(w) is CenterDecision.InCenterSet


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
            ok, step = relator_trivializes(named_element("surface_relator", n))
            assert ok and step.ok
            assert step.axioms == ()

    def test_cycle_times_mirror(self):
        a = named_element("alpha0", 6)
        from spherebraid.words import mirror

        ok, _ = relator_trivializes(a * mirror(a))
        assert ok

    def test_empty_word(self):
        ok, step = relator_trivializes(BraidWord(5))
        assert ok and step.data["matched"] == "identity"

    def test_full_twist_is_not_the_relator(self):
        ok, step = relator_trivializes(named_element("full_twist", 4))
        assert not ok and not step.ok


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
            assert acts_trivially(v * v) is CenterDecision.InCenterSet


class TestTorsionOrder:
    def test_alpha0_order_six_in_b3(self):
        cert = torsion_order(named_element("alpha0", 3), 6)
        assert cert.verdict is Verdict.VERIFIED
        assert any(s.method == "exact-Bn" for s in cert.steps)
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

    def test_alpha2_odd_n_is_a5_backed(self):
        cert = torsion_order(named_element("alpha2", 5), 6)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["a5_backed"]
        axiom_steps = [s for s in cert.steps if s.method == "axiom"]
        assert axiom_steps and all("A5" in s.axioms for s in axiom_steps)
        assert all(
            s.data.get("flag") == "axiom-backed consistency" for s in axiom_steps
        )

    def test_alpha2_n3_resolved_by_square_rule(self):
        cert = torsion_order(named_element("alpha2", 3), 2)
        assert cert.verdict is Verdict.VERIFIED
        assert not cert.flags["a5_backed"]
        assert any(s.method == "square-rule" for s in cert.steps)
        assert any(s.method == "mod-center" for s in cert.steps)

    def test_wrong_claim_refuted(self):
        cert = torsion_order(named_element("alpha0", 4), 6)
        assert cert.verdict is Verdict.REFUTED

    def test_preconditions(self):
        with pytest.raises(ValueError):
            torsion_order(named_element("alpha0", 4), 0)

import copy
import json
import sys

import pytest
from click.testing import CliRunner

from spherebraid import cli, freegroup, garside, sphere, theorems
from spherebraid.certificates import METHODS, ProofStep, Verdict, to_json
from spherebraid.freegroup import _artin_images, _chunk_form, _split
from spherebraid.garside import _factor_form
from spherebraid.presentations import presentation_library, todd_coxeter
from spherebraid.sphere import DEFAULT_MAX_IMAGE_LETTERS, EngineDisagreementError, acts_trivially, torsion_order
from spherebraid.theorems import (
    DEFAULT_MAX_COSETS,
    PLANS,
    replay_certificate,
    verify_background,
    verify_dicyclic,
    verify_odd_obstruction,
    verify_q8,
    verify_torsion_table,
)
from spherebraid.words import BraidWord, Residue, exponent_sum, named_element, permutation


class TestVerifyQ8:
    def test_n4_verified_in_commutator(self):
        cert = verify_q8(4)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["in_commutator"] is True
        assert any(s.id == "s7" for s in cert.steps)

    def test_n6_verified_not_in_commutator(self):
        cert = verify_q8(6)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["in_commutator"] is False
        assert not any(s.id == "s7" for s in cert.steps)
        (s8,) = [s for s in cert.steps if s.id == "s8"]
        assert s8.data["xi_x"] == [5, 10]

    def test_n5_refuted_realization(self):
        cert = verify_q8(5)
        assert cert.verdict is Verdict.REFUTED_REALIZATION
        assert [s.id for s in cert.steps] == ["o1", "o2", "o3", "o4"]

    def test_trichotomy_and_commutator_flag(self):
        for n in range(3, 13):
            cert = verify_q8(n)
            if n % 2 == 0:
                assert cert.verdict is Verdict.VERIFIED
            else:
                assert cert.verdict is Verdict.REFUTED_REALIZATION
            assert cert.flags["in_commutator"] == (n % 4 == 0)

    def test_even_certificates_never_cite_a5(self):
        for n in (4, 6, 8, 10, 12):
            assert "A5" not in verify_q8(n).cited_axiom_ids()

    def test_step_dag_and_ledger_invariants(self):
        cert = verify_q8(8)
        seen = set()
        for step in cert.steps:
            assert all(d in seen for d in step.depends_on)
            seen.add(step.id)
        assert set(cert.cited_axiom_ids()) <= {"A1", "A2", "A3", "A4", "A5"}

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_q8(2)

    def test_odd_n_without_the_obstruction_is_not_a_refuted_realization(self, monkeypatch):
        monkeypatch.setattr(theorems, "xi", lambda w: Residue(0, 2 * (w.strand_count - 1)))
        cert = verify_q8(5)
        assert cert.verdict is Verdict.REFUTED
        (o2,) = [s for s in cert.steps if s.id == "o2"]
        assert not o2.ok

    def test_failed_square_rule_is_a_refutation(self, monkeypatch):
        # y^2 = Delta^2 is the root step of y's order; without the square
        # rule it fails, A5 does not stand in for it, and the order and
        # hence the count s6 stay open
        monkeypatch.setattr(sphere, "square_rule", lambda v, max_image_letters=None: False)
        cert = verify_q8(4)
        assert cert.verdict is Verdict.REFUTED
        assert [s.id for s in cert.steps if not s.ok] == ["s2.root", "s6"]
        (root,) = [s for s in cert.steps if s.id == "s2.root"]
        assert root.method == "square-rule"
        assert root.axioms == ()
        assert root.data == {"n": 4, "power": 2}
        assert root.depends_on == ("s2.inv", "s2.modc")
        assert "A5" not in cert.cited_axiom_ids()


class TestVerifyOddObstruction:
    def test_residues_n5(self):
        cert = verify_odd_obstruction(5)
        assert cert.verdict is Verdict.VERIFIED
        (o2,) = [s for s in cert.steps if s.id == "o2"]
        assert o2.data["residues"] == [2, 6]
        assert o2.data["modulus"] == 8

    def test_residues_n3(self):
        cert = verify_odd_obstruction(3)
        (o2,) = [s for s in cert.steps if s.id == "o2"]
        assert o2.data["residues"] == [1, 3]
        assert o2.data["modulus"] == 4

    def test_residues_nonzero_all_odd_n(self):
        for n in range(3, 12, 2):
            (o2,) = [s for s in verify_odd_obstruction(n).steps if s.id == "o2"]
            assert 0 not in o2.data["residues"]
            expected = sorted(
                {
                    n * (n - 1) // 2 % (2 * (n - 1)),
                    -(n * (n - 1) // 2) % (2 * (n - 1)),
                }
            )
            assert o2.data["residues"] == expected

    def test_even_n_rejected(self):
        for n in (2, 4):
            with pytest.raises(ValueError):
                verify_odd_obstruction(n)

    def test_cites_only_a5(self):
        assert verify_odd_obstruction(7).cited_axiom_ids() == ("A5",)


class TestVerifyDicyclic:
    def test_n3_order_twelve_matches_b3_sphere(self):
        cert = verify_dicyclic(3)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["order"] == 12
        b3 = todd_coxeter(presentation_library("sphere_braid", 3), 10000)
        assert cert.flags["order"] == b3.order

    def test_n4_generalized_quaternion(self):
        cert = verify_dicyclic(4)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["generalized_quaternion"] is True
        assert cert.flags["order"] == 16
        assert any(s.id == "d7" for s in cert.steps)

    def test_n6_no_label(self):
        cert = verify_dicyclic(6)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.flags["generalized_quaternion"] is False
        assert cert.flags["order"] == 24
        assert not any(s.id == "d7" for s in cert.steps)

    def test_d3_cites_no_axioms(self):
        for n in range(3, 11):
            cert = verify_dicyclic(n)
            d3_steps = [s for s in cert.steps if s.id.startswith("d3")]
            assert d3_steps
            assert all(s.axioms == () for s in d3_steps)

    def test_relation_is_the_surface_relator_in_Bn(self):
        # a x a x^-1 has a's exponent sum twice, 2(n-1), the relator's, and
        # both engines find it equal to the relator: an exact step, no axiom
        for n in range(3, 11):
            (d3,) = [s for s in verify_dicyclic(n).steps if s.id == "d3"]
            a, x = named_element("alpha0", n), named_element("half_twist", n)
            relator = named_element("surface_relator", n)
            assert (d3.method, d3.ok, d3.axioms) == ("exact-Bn", True, ()), n
            assert d3.data["pairs"] == [[(a * x * a * x.inverse()).to_text(), relator.to_text()]], n

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_dicyclic(2)


class TestOrderByBound:
    """s6 and d6 certify the order by the a^i x^e bound; d4 compares the candidate powers."""

    def test_q8_and_dicyclic_enumerate_no_cosets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("coset enumeration in a q8 or dicyclic plan")

        monkeypatch.setattr(theorems, "todd_coxeter", refuse)
        runner = CliRunner()
        for claim in ("q8", "dicyclic"):
            for n in range(3, 25):
                args = ["verify", "--claim", claim, "--n", str(n), "--format", "machine"]
                default = runner.invoke(cli.main, args)
                capped = runner.invoke(cli.main, [*args, "--max-cosets", "1"])
                assert default.exit_code == capped.exit_code == 0, (claim, n)
                certificates = json.loads(default.output)["certificates"]
                assert json.loads(capped.output)["certificates"] == certificates, (claim, n)
                order = {s["id"]: s["data"].get("order") for s in certificates[0]["steps"]}
                if claim == "dicyclic":
                    assert order["d6"] == 4 * n, n
                elif n % 2 == 0:
                    assert order["s6"] == 8, n

    def test_d4_candidate_is_the_power_that_moves_1_where_the_reversal_does(self):
        # alpha0's permutation sends 1 to n, as the reversal does, so the one
        # candidate is a^1; the list of all n powers is the reference
        for n in range(3, 65):
            a = named_element("alpha0", n)
            (d4,) = [s for s in verify_dicyclic(n).steps if s.id == "d4"]
            powers = [list(permutation(a**k).images) for k in range(n)]
            (k, power), = d4.data["powers"]
            assert k == 1 and power == powers[1], n
            assert power[0] == d4.data["perm_x"][0], n
            assert d4.ok and d4.data["perm_x"] not in powers, n

    def test_q8_s4_has_no_candidate_power(self):
        # y's permutation reverses each half, so no power of it sends 1 to n
        for n in range(4, 25, 2):
            (s4,) = [s for s in verify_q8(n).steps if s.id == "s4"]
            assert s4.ok and s4.data["powers"] == [], n

    def test_a_power_with_the_permutation_of_x_fails_d4(self, monkeypatch):
        # give alpha0 the reversal as its permutation: its first power then
        # has x's permutation, d4 cannot separate them, and the plan fails
        alpha0 = named_element("alpha0", 6)
        honest = theorems.permutation
        reversal = honest(named_element("half_twist", 6))
        monkeypatch.setattr(theorems, "permutation", lambda w: reversal if w == alpha0 else honest(w))
        cert = verify_dicyclic(6)
        steps = {s.id: s for s in cert.steps}
        assert not steps["d4"].ok
        assert steps["d4"].data["powers"] == [[1, list(reversal.images)]]
        assert cert.verdict is Verdict.REFUTED


class TestDicyclicSteps:
    """The one certifier of <a, x> = Dic_4m, on the paper's witnesses and on wrong ones."""

    @staticmethod
    def certify(a, x, m):
        theorems._clear_memos()
        try:
            steps = theorems._dicyclic_steps("p", a, x, m, DEFAULT_MAX_IMAGE_LETTERS)
        finally:
            theorems._clear_memos()
        return theorems._verdict(steps), {s.id: s for s in steps}

    def test_cycle_word_and_half_twist(self):
        for n in range(3, 49):
            a, x = named_element("alpha0", n), named_element("half_twist", n)
            verdict, steps = self.certify(a, x, n)
            assert verdict is Verdict.VERIFIED, n
            assert steps["p6"].data["order"] == 4 * n, n

    def test_bipolar_twist_and_half_twist(self):
        for n in range(4, 25, 2):
            y, x = named_element("bipolar_twist", n), named_element("half_twist", n)
            verdict, steps = self.certify(y, x, 2)
            assert verdict is Verdict.VERIFIED, n
            assert steps["p6"].data["order"] == 8, n
            # y x y x^-1 has exponent sum 0, so it is compared with 1
            assert steps["p3"].data["pairs"][0][1] == "", n

    def test_wrong_witnesses_are_not_verified(self):
        for n in (3, 4, 5, 8):
            a, x = named_element("alpha0", n), named_element("half_twist", n)
            sigma1 = BraidWord(n, (1,))
            for a_, x_, m, failing in (
                (a, a, n, {"p1", "p3", "p4"}),  # x = a
                (a, sigma1, n, {"p1"}),  # x^2 is not Delta^2
                (a, x, n - 1, {"p2.refute", "p6"}),  # m is not half the order
            ):
                verdict, steps = self.certify(a_, x_, m)
                assert verdict is not Verdict.VERIFIED, (n, m)
                assert failing <= {i for i, s in steps.items() if not s.ok}, (n, m)

    def test_an_order_torsion_order_leaves_open_is_not_verified(self):
        # sigma_1^6 = Delta^2 in B_3(S^2), but the invariants leave the
        # candidate order 4: torsion_order is INCONCLUSIVE with every step
        # ok, and the count p6 reads that verdict
        a, x = BraidWord(3, (1,)), named_element("half_twist", 3)
        verdict, steps = self.certify(a, x, 6)
        assert verdict is not Verdict.VERIFIED
        assert torsion_order(a, 12).verdict is Verdict.INCONCLUSIVE
        assert all(s.ok for i, s in steps.items() if i.startswith("p2."))
        assert not steps["p6"].ok


class TestVerifyTorsionTable:
    def test_orders_reported(self):
        for n in (3, 4, 6):
            cert = verify_torsion_table(n)
            assert cert.verdict is Verdict.VERIFIED
            assert cert.flags["orders"] == {
                "alpha0": 2 * n,
                "alpha1": 2 * (n - 1),
                "alpha2": 2 * (n - 2),
            }

    def test_a5_flag_exactly_for_alpha2_odd_n(self):
        for n in range(3, 11):
            cert = verify_torsion_table(n)
            expected = ["alpha2"] if (n % 2 == 1 and n >= 5) else []
            assert cert.flags["a5_backed"] == expected

    def test_a5_steps_are_flagged(self):
        cert = verify_torsion_table(7)
        axiom_steps = [s for s in cert.steps if "A5" in s.axioms]
        assert axiom_steps
        for s in axiom_steps:
            assert s.data.get("flag") == "axiom-backed consistency"

    def test_n3_alpha2_square_rule(self):
        cert = verify_torsion_table(3)
        alpha2_steps = [s for s in cert.steps if s.id.startswith("alpha2.")]
        assert any(s.method == "square-rule" for s in alpha2_steps)
        assert any(s.method == "mod-center" for s in alpha2_steps)

    def test_failed_mod_center_is_inconclusive(self, monkeypatch):
        # alpha2's root at n = 5 is no square as a word, so only the
        # mod-center test can place alpha2^3 in {1, Delta^2}; without it
        # alpha2's steps stop at modc, before any A5 step
        monkeypatch.setattr(sphere, "eq_mod_center", lambda w, v, max_image_letters=None: False)
        cert = verify_torsion_table(5)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert [s.id for s in cert.steps if not s.ok] == ["alpha2.modc"]
        assert cert.steps[-1].id == "alpha2.modc"
        assert cert.flags == {"orders": {"alpha0": 10, "alpha1": 8, "alpha2": 6}, "a5_backed": []}


class TestSphereActionsPerRoot:
    """A root step decides its power's sphere action once.

    Where the square rule applies, its trivial action of w^k is also the
    mod-center claim, so q8 and torsion at even n and at n = 3 compute one
    sphere action per plan.  alpha2's root at odd n >= 5 is no square as a
    word, and the mod-center test acts on Delta^2 and on w^k.
    """

    @staticmethod
    def _run(monkeypatch, claim, n):
        """(sphere actions, mod-center tests) of one run of the plan."""
        actions, tests = [], []
        conjugators, mod_center = sphere._sphere_conjugators, sphere.eq_mod_center
        monkeypatch.setattr(sphere, "_sphere_conjugators", lambda *a: actions.append(a) or conjugators(*a))
        monkeypatch.setattr(sphere, "eq_mod_center", lambda *a: tests.append(a) or mod_center(*a))
        cert = PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
        assert cert.verdict is Verdict.VERIFIED, (claim, n)
        return len(actions), len(tests)

    def test_square_rule_roots_take_one_action(self, monkeypatch):
        cases = [("q8", n) for n in range(4, 25, 2)] + [("torsion", n) for n in (3, *range(4, 25, 2))]
        for claim, n in cases:
            assert self._run(monkeypatch, claim, n) == (1, 0), (claim, n)

    def test_alpha2_at_odd_n_takes_the_mod_center_test(self, monkeypatch):
        for n in range(5, 24, 2):
            assert self._run(monkeypatch, "torsion", n) == (2, 1), n


class TestVerifyBackground:
    def test_n2(self):
        cert = verify_background(2)
        assert cert.verdict is Verdict.VERIFIED
        (b1,) = cert.steps
        assert b1.data["order"] == 2

    def test_n3(self):
        cert = verify_background(3)
        assert cert.verdict is Verdict.VERIFIED
        (b2,) = [s for s in cert.steps if s.id == "b2"]
        assert b2.data["order"] == 12
        assert b2.data["involutions"] == 1
        assert b2.data["derived_order"] == 3
        assert b2.data["derived_cyclic"] is True
        assert b2.data["abelianization_order"] == 4

    def test_n5_conjugation_identities(self):
        cert = verify_background(5)
        assert cert.verdict is Verdict.VERIFIED
        (b4,) = [s for s in cert.steps if s.id == "b4"]
        assert len(b4.data["pairs"]) == 4

    def test_b4_pairs_are_the_flat_words_of_x_sigma_i_and_sigma_n_minus_i_x(self):
        for n in range(3, 41):
            (b4,) = [s for s in verify_background(n).steps if s.id == "b4"]
            x = named_element("half_twist", n)
            flat = [
                [(x * BraidWord(n, (i,))).to_text(), (BraidWord(n, (n - i,)) * x).to_text()]
                for i in range(1, n)
            ]
            assert (b4.method, b4.ok, b4.data["pairs"]) == ("exact-Bn", True, flat), n

    def test_flat_conjugation_by_the_half_twist_mirrors_sigma_i(self):
        # x sigma_i x^-1 = sigma_(n-i), the identity b4's x sigma_i =
        # sigma_(n-i) x stands for, on the flat words and on both engines
        for n in range(3, 25):
            x = named_element("half_twist", n)
            for i in range(1, n):
                conjugate = x * BraidWord(n, (i,)) * x.inverse()
                mirror = BraidWord(n, (n - i,))
                assert garside.equal_Bn(conjugate, mirror), (n, i)
                assert freegroup.eq_Bn(conjugate, mirror, DEFAULT_MAX_IMAGE_LETTERS), (n, i)
        theorems._clear_memos()

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_background(1)

    def test_budget_yields_inconclusive(self):
        cert = verify_background(3, max_cosets=5)
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_b3_matches_the_whole_path_at_every_budget(self, monkeypatch):
        # the reference sends every relator through acts_trivially at n: both
        # give the same certificate, VERIFIED or the one-step budget
        # certificate, and b3 stops at the same relator
        shape = theorems._relator_shape

        def run(n, budget, reference):
            tried = []
            with monkeypatch.context() as m:
                if reference:
                    m.setattr(theorems, "_relator_shape", lambda rel: None)
                    m.setattr(theorems, "acts_trivially", lambda w, b: tried.append(w.letters) or acts_trivially(w, b))
                else:
                    m.setattr(theorems, "_relator_shape", lambda rel: tried.append(rel) or shape(rel))
                cert = verify_background(n, max_image_letters=budget)
            return cert.as_dict(), tried

        verdicts = set()
        for n in range(4, 13):
            for budget in range(1, 2 * n + 3):
                outcome = run(n, budget, False)
                assert outcome == run(n, budget, True), (n, budget)
                verdicts.add(outcome[0]["verdict"])
        assert verdicts == {"VERIFIED", "INCONCLUSIVE"}


class TestCertificateHygiene:
    def test_deterministic_serialization(self):
        for build in (lambda: verify_q8(6), lambda: verify_dicyclic(4), lambda: verify_torsion_table(5)):
            assert to_json(build().as_dict()) == to_json(build().as_dict())

    def test_replay(self):
        for cert in (
            verify_q8(4),
            verify_q8(5),
            verify_dicyclic(6),
            verify_torsion_table(5),
            verify_background(3),
        ):
            assert replay_certificate(cert)

    def test_ledger_matches_step_axioms(self):
        for cert in (verify_q8(4), verify_dicyclic(8), verify_torsion_table(7)):
            cited = sorted({a for s in cert.steps for a in s.axioms})
            assert list(cert.cited_axiom_ids()) == cited

    def test_plans_emit_exactly_the_method_catalog(self):
        # budget 5 runs the plans that act on words out of budget, which
        # the budget step records
        emitted = set()
        for plan in PLANS.values():
            for n in range(plan.minimum, 13):
                if plan.odd and n % 2 == 0:
                    continue
                for budget in (DEFAULT_MAX_IMAGE_LETTERS, 5):
                    emitted |= {s.method for s in plan.run(n, DEFAULT_MAX_COSETS, budget).steps}
        assert emitted == set(METHODS)

    def test_step_rejects_unknown_axiom(self):
        with pytest.raises(ValueError, match="unknown axiom"):
            ProofStep("s", "a statement", "axiom", axioms=("A9",))


# one certificate per plan branch: q8 in and out of the commutator subgroup
# and odd, dicyclic with and without d7, torsion with and without A5,
# background with and without coset enumeration, and the odd obstruction
REPLAY_FIXTURES = [
    ("q8", 4),
    ("q8", 5),
    ("q8", 6),
    ("dicyclic", 6),
    ("dicyclic", 8),
    ("torsion", 5),
    ("torsion", 6),
    ("background", 3),
    ("background", 5),
    ("odd-obstruction", 7),
]


def _changed(value):
    """A different value of the same shape: the last entry of a list or dict is changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " 1"
    if isinstance(value, list):
        return value[:-1] + [_changed(value[-1])] if value else [0]
    if isinstance(value, dict):
        last = list(value)[-1]
        return {**value, last: _changed(value[last])}
    raise TypeError(f"no change defined for {value!r}")


def _forged(obj, **fields):
    """A copy of a frozen certificate or step with fields replaced, skipping its own checks."""
    forged = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(forged, name, value)
    return forged


def _single_changes(cert):
    """(label, changed certificate) for every change of one field of cert."""

    def with_step(i, step):
        return _forged(cert, steps=cert.steps[:i] + (step,) + cert.steps[i + 1 :])

    for i, step in enumerate(cert.steps):
        for key, value in step.data.items():
            changed = _forged(step, data={**step.data, key: _changed(value)})
            yield f"{step.id}.{key}", with_step(i, changed)
        yield f"{step.id}.ok", with_step(i, _forged(step, ok=not step.ok))
        yield f"{step.id}.statement", with_step(i, _forged(step, statement=step.statement + "."))
    for verdict in Verdict:
        if verdict is not cert.verdict:
            yield f"verdict {verdict.value}", _forged(cert, verdict=verdict)
    for key, value in cert.flags.items():
        yield f"flags.{key}", _forged(cert, flags={**cert.flags, key: _changed(value)})


class TestReplay:
    @pytest.mark.parametrize("claim,n", REPLAY_FIXTURES, ids=[f"{c}-{n}" for c, n in REPLAY_FIXTURES])
    def test_every_single_change_is_rejected(self, claim, n):
        cert = PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
        assert replay_certificate(cert)
        changes = list(_single_changes(cert))
        assert len(changes) > 3 * len(cert.steps)
        accepted = [label for label, changed in changes if replay_certificate(changed)]
        assert accepted == []

    def test_identical_words_step_is_replayed(self):
        # the root step of alpha0 names w^6 and the full twist alpha0^6 by
        # exponent, and w through alpha0.inv; naming the full twist as
        # another element or power, or w^6 as another power, is an edit
        # that replay rejects
        cert = verify_torsion_table(6)
        assert replay_certificate(cert)
        ((i, root),) = [(i, s) for i, s in enumerate(cert.steps) if s.method == "identical-words"]
        assert (root.id, root.axioms, root.depends_on) == ("alpha0.root", (), ("alpha0.inv",))
        assert root.data == {"n": 6, "power": 6, "full_twist": {"element": "alpha0", "power": 6}}
        edits = [
            {"full_twist": {"element": "alpha1", "power": 6}},
            {"full_twist": {"element": "alpha0", "power": 1}},
            {"power": 12},
        ]
        for edit in edits:
            forged = _forged(root, data={**root.data, **edit})
            assert not replay_certificate(_forged(cert, steps=cert.steps[:i] + (forged,) + cert.steps[i + 1 :]))

    def test_torsion_order_writes_its_word_once(self):
        # in each torsion_order sub-certificate of q8, dicyclic and torsion,
        # only the step {prefix}inv writes w's letters (exact-Bn pairs, which
        # write the words they compare, aside); every other step names w
        # through {prefix}inv, which its depends_on lists, and replay rejects
        # an edit to that one word
        for claim in ("q8", "dicyclic", "torsion"):
            for n in range(3, 41):
                cert = PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
                invs = [(i, s) for i, s in enumerate(cert.steps) if s.id.endswith(".inv")]
                assert len(invs) == (0 if claim == "q8" and n % 2 else 3 if claim == "torsion" else 1)
                for i, inv in invs:
                    prefix, word = inv.id[: -len("inv")], inv.data["word"]
                    writers = []
                    for step in cert.steps:
                        if not step.id.startswith(prefix):
                            continue
                        data = {k: v for k, v in step.data.items() if (step.method, k) != ("exact-Bn", "pairs")}
                        if word in json.dumps([step.statement, data]):
                            writers.append(step.id)
                        if step is not inv:
                            assert inv.id in step.depends_on, (claim, n, step.id)
                    assert writers == [inv.id], (claim, n, writers)
                    edited = _forged(inv, data={**inv.data, "word": word + " 1"})
                    steps = cert.steps[:i] + (edited,) + cert.steps[i + 1 :]
                    assert not replay_certificate(_forged(cert, steps=steps)), (claim, n, inv.id)

    def test_claim_without_a_plan_raises(self):
        cert = torsion_order(named_element("alpha0", 4), 8)
        with pytest.raises(ValueError, match="no verification plan"):
            replay_certificate(cert)

    def test_n_outside_the_plan_raises(self):
        # the plan's own check of n rejects an odd-obstruction certificate
        # at even n and a q8 certificate below n = 3
        for cert, n in ((verify_odd_obstruction(5), 4), (verify_q8(4), 2)):
            with pytest.raises(ValueError, match=f"needs .*n >= 3, got n = {n}"):
                replay_certificate(_forged(cert, n=n))

    def test_other_budgets_give_another_certificate(self):
        cert = verify_background(3)
        assert not replay_certificate(cert, max_cosets=DEFAULT_MAX_COSETS + 1)


# the least image budget at which each plan's run at n = 9..24 is not the
# one-step budget certificate; odd-n q8 is the obstruction plan, which
# computes no image, so it needs only the least budget the CLI accepts
LEAST_BUDGETS = {
    "q8": [1, 27, 1, 33, 1, 39, 1, 45, 1, 51, 1, 57, 1, 63, 1, 69],
    "dicyclic": [19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49],
    "torsion": [19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49],
    "background": [19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49],
}


@pytest.mark.parametrize("claim", LEAST_BUDGETS)
def test_least_sufficient_budgets(claim):
    def out_of_budget(n, budget):
        steps = PLANS[claim].run(n, DEFAULT_MAX_COSETS, budget).steps
        return [s.id for s in steps] == ["budget"]

    for n, least in enumerate(LEAST_BUDGETS[claim], start=9):
        assert not out_of_budget(n, least), (n, least)
        assert least == 1 or out_of_budget(n, least - 1), (n, least)


class TestPlanTable:
    def test_cli_claims_are_the_table(self):
        assert cli.CLAIMS == tuple(PLANS) == (
            "q8", "dicyclic", "odd-obstruction", "torsion", "background"
        )
        # the CLI reads each plan's domain, and the plan itself rejects n outside it
        domains = {claim: (plan.minimum, plan.odd) for claim, plan in PLANS.items()}
        assert domains == {
            "q8": (3, False),
            "dicyclic": (3, False),
            "odd-obstruction": (3, True),
            "torsion": (3, False),
            "background": (2, False),
        }
        for plan in PLANS.values():
            with pytest.raises(ValueError):
                plan.run(plan.minimum - 1, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)

    def test_entries_look_the_plan_up_when_called(self, monkeypatch):
        calls = []
        honest = theorems.verify_q8
        monkeypatch.setattr(theorems, "verify_q8", lambda *args: calls.append(args) or honest(*args))
        PLANS["q8"].run(4, 50, 1000)
        assert calls == [(4, 1000)]


class TestEngineDisagreement:
    @pytest.fixture
    def lying_garside(self, monkeypatch):
        honest = garside.equal_Bn
        monkeypatch.setattr(garside, "equal_Bn", lambda w, v: not honest(w, v))

    def test_exact_step_raises(self, lying_garside):
        with pytest.raises(EngineDisagreementError) as excinfo:
            verify_q8(4)
        assert any(entry.name == "_exact_step" for entry in excinfo.traceback)

    def test_root_identity_raises(self, lying_garside):
        # alpha0^4 is the full-twist word, which runs no engine; alpha1^3
        # takes the exact route
        with pytest.raises(EngineDisagreementError) as excinfo:
            torsion_order(named_element("alpha1", 4), 6)
        assert any(entry.name == "_root_identity_steps" for entry in excinfo.traceback)

    def test_disagreement_empties_the_artin_memo(self, lying_garside, artin_body_calls):
        with pytest.raises(EngineDisagreementError):
            verify_q8(4)
        assert artin_body_calls
        assert _artin_images.cache_info().currsize == 0


def _runs_at(plan, n):
    try:
        plan.check_n(n)
    except ValueError:
        return False
    return True


# every plan at small n, where each branch of each plan runs, and at the
# largest n of the benchmark's certify grid
MEMO_GRID = [
    (claim, n) for n in [*range(3, 13), 24] for claim, plan in PLANS.items() if _runs_at(plan, n)
]

# every memo a plan fills, which `_run_plan` empties before and after it
PLAN_MEMOS = (_artin_images, _split, _factor_form)


class TestArtinMemo:
    """The disk-action memo computes each action once per plan and lives only in it."""

    def test_no_plan_computes_an_action_twice(self, artin_body_calls):
        for claim, n in MEMO_GRID:
            artin_body_calls.clear()
            PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
            keys = [key for key, _ in artin_body_calls]
            assert len(keys) == len(set(keys)), (claim, n)
            for memo in PLAN_MEMOS:
                assert memo.cache_info().currsize == 0, (claim, n, memo)

    def test_a_plan_reuses_no_earlier_work(self, artin_body_calls):
        # the memo holds the plan's own first actions when its replay
        # starts, and the replay still computes every action
        for claim, n in (("q8", 6), ("dicyclic", 8), ("torsion", 7), ("background", 5)):
            artin_body_calls.clear()
            cert = PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
            first = [key for key, _ in artin_body_calls]
            for key in reversed(first[:3]):
                _artin_images(*key)
            artin_body_calls.clear()
            assert replay_certificate(cert)
            assert [key for key, _ in artin_body_calls] == first, (claim, n)

    def test_mod_center_computes_no_new_action(self, artin_body_calls):
        # alpha0's root step runs no engine, alpha1's exact step computes the
        # actions of alpha1^(n-1) and Delta^2, and alpha2's root, whose
        # exponent sum is not Delta^2's, goes straight to the sphere: its
        # mod-center step reads Delta^2's action from the memo and acts on
        # alpha2^(n-2), and the square rule reads that again, so no action
        # is longer than Delta^2
        for n in [*range(3, 13), 24]:
            artin_body_calls.clear()
            PLANS["torsion"].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
            lengths = [len(letters) for (_, letters, _), _ in artin_body_calls]
            assert len(lengths) == 3, n
            assert max(lengths) <= n * (n - 1), n

    def test_budget_abort_empties_the_memo(self, artin_body_calls):
        # a background run cannot show this: its first action, the surface
        # relator's, needs the largest budget of the plan
        cert = verify_q8(16, max_image_letters=40)
        assert cert.verdict is Verdict.INCONCLUSIVE
        (step,) = cert.steps
        assert (step.id, step.method, step.ok) == ("budget", "budget", False)
        # s1's x x aborts in the product path, after both engines filled the
        # memos of x and the action of its last factor fit the budget
        assert artin_body_calls and all(images is not None for _, images in artin_body_calls)
        for memo in PLAN_MEMOS:
            assert memo.cache_info().currsize == 0, memo

    def test_b4_computes_one_closed_form(self):
        # every pair x sigma_i, sigma_(n-i) x takes x's chunk form from the
        # chunk memo, which the plan leaves empty, and no word of the plan
        # has a chunk of x^-1
        for n in (9, 22, 40):
            forms = _calls_into(_chunk_form, ("perm", "positive"), lambda: verify_background(n))
            reversal = tuple(range(n, 0, -1))
            assert forms == [(reversal, True)], n
            assert _split.cache_info().currsize == 0

    def test_b3_decides_two_renumbered_words(self, monkeypatch):
        # every relator but the surface relator is a far commutator or a
        # braid relator, and b3 decides the two words they renumber to on
        # the strands they touch once per plan, by their disk identity,
        # leaving every plan memo empty (at n = 3 the only such relator is
        # the braid relation)
        words = []
        eq_Bn = freegroup.eq_Bn

        def spy(w, v, budget=None):
            if not v.letters:
                words.append((w.strand_count, w.letters))
            return eq_Bn(w, v, budget)

        monkeypatch.setattr(freegroup, "eq_Bn", spy)
        braid = (3, (1, 2, 1, -2, -1, -2))
        for n in (3, 4, 12, 22, 64):
            words.clear()
            assert verify_background(n).verdict is Verdict.VERIFIED
            assert words == ([braid] if n == 3 else [(4, (1, 3, -1, -3)), braid]), n
            for memo in PLAN_MEMOS:
                assert memo.cache_info().currsize == 0, (n, memo)

    def test_only_long_words_enter_the_chunk_memo(self):
        # a word shorter than 4n, or any word at n < 9, is never walked, so
        # b4's one-letter factors never evict x from the memo, and x, the
        # only long word of background, is walked once per plan
        for claim, n in [*MEMO_GRID, ("background", 22)]:
            walked = _calls_into(_split.__wrapped__, ("letters", "n"), lambda: PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS))
            assert all(n >= 9 and len(letters) >= 4 * n for letters, _ in walked), (claim, n)
        assert walked == [(named_element("half_twist", 22).letters, 22)]


def test_no_plan_runs_the_engines_on_letter_identical_words():
    # an exact-Bn pair whose two words have the same letters holds by
    # construction, so no plan step should spend both engines on one;
    # torsion's alpha0^n, which is the full-twist word letter for letter,
    # is an identical-words step
    identical = []
    for claim, plan in PLANS.items():
        for n in range(3, 25):
            if plan.odd and n % 2 == 0:
                continue
            for step in plan.run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS).steps:
                if step.method == "exact-Bn":
                    identical += [(claim, n, step.id) for lhs, rhs in step.data["pairs"] if lhs == rhs]
    assert identical == []


def test_no_plan_runs_the_engines_on_unequal_exponent_sums(monkeypatch):
    # the exponent sum is a homomorphism B_n -> Z, so two words whose sums
    # differ are unequal in B_n, and no plan should spend both engines to
    # find that out; alpha2^(n-2), of sum (n-1)(n-2), against the full
    # twist, of sum n(n-1), was one such pair
    unequal = []
    honest = sphere._both_engines_equal

    def checked(lhs, rhs, budget):
        if exponent_sum(lhs) != exponent_sum(rhs):
            unequal.append((lhs.strand_count, lhs.to_text(), rhs.to_text()))
        return honest(lhs, rhs, budget)

    monkeypatch.setattr(sphere, "_both_engines_equal", checked)
    for plan in PLANS.values():
        for n in range(3, 25):
            if not (plan.odd and n % 2 == 0):
                plan.run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
    assert unequal == []


def test_plan_powers_reach_the_power_path():
    # each power a plan builds with ** declares its period, so the engine
    # composes it a period at a time: the torsion roots alpha1^(n-1), then
    # the full twist alpha0^n it is compared with, and alpha2^(n-2) (alpha0's
    # root is the full-twist word and runs no engine), the full twist of
    # dicyclic's d2 and q8's s1, and q8's y y, which the square rule builds as y^2
    # while |y| < 4n; `_artin_images` sets `action` only when it composes.
    # At n = 10 one step on y costs 22 junctions and conjugations, more than
    # |y| = 20, so y^2 goes by letters
    def powers(claim, n):
        run = lambda: PLANS[claim].run(n, DEFAULT_MAX_COSETS, DEFAULT_MAX_IMAGE_LETTERS)
        calls = _calls_into(_artin_images.__wrapped__, ("period", "letters", "action"), run)
        return [(period, len(letters) // period) for period, letters, action in calls if action is not None]

    assert powers("torsion", 16) == [(16, 15), (15, 16), (15, 14)]
    assert powers("dicyclic", 16) == [(15, 16)]
    for n in range(10, 17, 2):
        half = n // 2
        assert powers("q8", n) == [(n - 1, n)] + [(half * (half - 1), 2)] * (n > 10), n


def _calls_into(function, names, run):
    """The values of the named locals in each call of function's body that returns while run() runs;
    None for a local the call did not set."""
    body = function.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is body:
            calls.append(tuple(frame.f_locals.get(name) for name in names))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls

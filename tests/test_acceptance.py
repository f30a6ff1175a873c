"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from click.testing import CliRunner

from spherebraid import freegroup, garside
from spherebraid.cli import main
from spherebraid.presentations import (
    derived_subgroup,
    is_cyclic_subgroup,
    presentation_library,
    todd_coxeter,
)
from spherebraid.selftest import run_cross_oracle
from spherebraid.theorems import verify_torsion_table
from spherebraid.certificates import Verdict
from spherebraid.words import BraidWord, named_element


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_q8_trichotomy():
    start = time.perf_counter()
    runner = CliRunner()
    result = runner.invoke(
        main, ["verify", "--claim", "q8", "--from", "3", "--to", "12", "--format", "machine"]
    )
    elapsed = time.perf_counter() - start
    ok = result.exit_code == 0
    import json

    certs = json.loads(result.output)["certificates"]
    for cert in certs:
        n = cert["n"]
        expected = "VERIFIED" if n % 2 == 0 else "REFUTED-realization"
        ok = ok and cert["verdict"] == expected
        ok = ok and cert["flags"]["in_commutator"] == (n % 4 == 0)
    ok = ok and elapsed < 60.0
    _report(
        1,
        f"q8 trichotomy over n=3..12 with in_commutator at 4,8,12 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_odd_obstruction_residues():
    from spherebraid.theorems import verify_odd_obstruction

    ok = True
    expected_examples = {5: [2, 6]}
    for n in range(3, 12, 2):
        cert = verify_odd_obstruction(n)
        (o2,) = [s for s in cert.steps if s.id == "o2"]
        residues = o2.data["residues"]
        modulus = o2.data["modulus"]
        half = n * (n - 1) // 2
        ok = ok and cert.verdict is Verdict.VERIFIED
        ok = ok and modulus == 2 * (n - 1)
        ok = ok and residues == sorted({half % modulus, -half % modulus})
        ok = ok and 0 not in residues
        if n in expected_examples:
            ok = ok and residues == expected_examples[n]
    _report(2, "odd-n obstruction residues +-n(n-1)/2 mod 2(n-1) all nonzero", ok)


def test_criterion_3_dicyclic_remark():
    start = time.perf_counter()
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["verify", "--claim", "dicyclic", "--from", "3", "--to", "10", "--format", "machine"],
    )
    elapsed = time.perf_counter() - start
    import json

    ok = result.exit_code == 0
    certs = json.loads(result.output)["certificates"]
    for cert in certs:
        n = cert["n"]
        ok = ok and cert["verdict"] == "VERIFIED"
        ok = ok and cert["flags"]["order"] == 4 * n
        ok = ok and cert["flags"]["generalized_quaternion"] == (n in (4, 8))
        d3 = [s for s in cert["steps"] if s["id"] == "d3"]
        ok = ok and d3 and all(s["axioms"] == [] for s in d3)
    ok = ok and elapsed < 60.0
    _report(
        3,
        f"dicyclic order 4n over n=3..10, labels at 4 and 8, d3 axiom-free ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_finite_groups():
    start = time.perf_counter()
    b2 = todd_coxeter(presentation_library("sphere_braid", 2), 100)
    b3 = todd_coxeter(presentation_library("sphere_braid", 3), 10000)
    q8 = todd_coxeter(presentation_library("q8"), 100)
    der = derived_subgroup(b3)
    ok = (
        b2.order == 2
        and b3.order == 12
        and b3.involution_count() == 1
        and len(der) == 3
        and is_cyclic_subgroup(b3, der)
        and b3.order // len(der) == 4
        and q8.order == 8
        and q8.involution_count() == 1
    )
    for n in range(2, 9):
        t = todd_coxeter(presentation_library("dicyclic", n), 16 * n)
        ok = ok and t.order == 4 * n
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(4, f"coset enumeration of B2(S2), B3(S2), Q8, Dic_2..8 ({elapsed:.1f}s)", ok)


def test_criterion_5_torsion_orders():
    ok = True
    for n in range(3, 11):
        cert = verify_torsion_table(n)
        ok = ok and cert.verdict is Verdict.VERIFIED
        ok = ok and cert.flags["orders"] == {
            "alpha0": 2 * n,
            "alpha1": 2 * (n - 1),
            "alpha2": 2 * (n - 2),
        }
        # every A5 citation is flagged, and non-A5 steps stay exact or
        # axiom-free of A5
        for step in cert.steps:
            if "A5" in step.axioms:
                ok = ok and step.data.get("flag") == "axiom-backed consistency"
                ok = ok and "alpha2" in cert.flags["a5_backed"]
    _report(5, "torsion orders 2n, 2(n-1), 2(n-2) for n=3..10 with flagged A5 steps", ok)


def test_criterion_6_exact_identities_both_engines():
    ok = True
    for n in range(2, 11):
        x = named_element("half_twist", n)
        delta2 = named_element("full_twist", n)
        cycle_pow = named_element("alpha0", n) ** n
        for lhs, rhs in [(x * x, delta2), (cycle_pow, delta2)] + [
            (x * BraidWord(n, (i,)) * x.inverse(), BraidWord(n, (n - i,)))
            for i in range(1, n)
        ]:
            ok = ok and garside.equal_Bn(lhs, rhs)
            ok = ok and freegroup.eq_Bn(lhs, rhs)
    _report(6, "x^2, cycle^n and half-twist conjugations exact in both engines, n=2..10", ok)


def test_criterion_7_cross_oracle_suite():
    start = time.perf_counter()
    report = run_cross_oracle(ns=range(3, 8), pairs=1000, max_len=40)
    elapsed = time.perf_counter() - start
    ok = report.ok
    ok = ok and all(report.pairs_per_n[n] >= 1000 for n in range(3, 8))
    ok = ok and all(report.relations_checked[n] > 0 for n in range(3, 9))
    ok = ok and not report.mismatches
    ok = ok and elapsed < 300.0
    _report(
        7,
        f"cross-oracle agreement on 5000 pairs + relations trivial n=3..8 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_determinism():
    runner = CliRunner()
    args = ["verify", "--claim", "q8", "--from", "3", "--to", "12", "--format", "machine"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    ok = out1 == out2 and len(out1) > 0
    _report(8, "two q8 runs produce byte-identical machine output", ok)

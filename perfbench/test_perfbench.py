"""Tests of the benchmark's own parts: pair generator, known-answer checker, spans, spec.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import answers
import pairs
import run
import spans
import worker

HERE = Path(__file__).resolve().parent


def test_same_seed_gives_identical_pairs():
    assert pairs.generate(5) == pairs.generate(5)
    assert pairs.generate(5) != pairs.generate(6)
    assert len(pairs.generate(5)) == len(pairs.NS) * pairs.PAIRS_PER_N


def test_pairs_respect_the_length_limit_and_mix_both_answers():
    generated = pairs.generate(7)
    assert all(len(p.w) <= pairs.MAX_LEN and len(p.v) <= pairs.MAX_LEN for p in generated)
    equal = sum(p.equal for p in generated)
    assert 0.4 < equal / len(generated) < 0.6


def test_unequal_pairs_differ_in_an_invariant_and_equal_pairs_do_not():
    for seed in (1, 2, 3):
        for p in pairs.generate(seed):
            assert pairs.invariants_differ(p) is not p.equal, p


def test_invariants_on_known_words():
    assert pairs.exponent_sum((1, -2, 2, 3)) == 2
    # sigma_1 sigma_2 moves strand 0 to the last position on 3 strands
    assert pairs.permutation(3, (1, 2)) == (1, 2, 0)
    assert pairs.permutation(4, (1, -1)) == tuple(range(4))


def _verify(claim: str, n: int) -> tuple[int, str]:
    from spherebraid import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "--claim", claim, "--n", str(n), "--format", "machine"])
    return code, out.getvalue()


def test_checker_accepts_the_known_answers():
    for claim, n in [("q8", 4), ("q8", 6), ("q8", 5), ("dicyclic", 4), ("dicyclic", 6),
                     ("torsion", 5), ("background", 3), ("background", 5)]:
        code, text = _verify(claim, n)
        assert answers.misses(claim, n, code, text) == [], (claim, n)


def test_planted_wrong_expectation_is_caught():
    code, text = _verify("dicyclic", 6)
    wrong = answers.expectation("dicyclic", 6)
    wrong["flags.generalized_quaternion"] = True  # 6 is not a power of two
    found = answers.misses("dicyclic", 6, code, text, wrong)
    assert found == ["flags.generalized_quaternion = False, expected True"]

    wrong = answers.expectation("q8", 6)
    wrong["flags.in_commutator"] = True  # 4 does not divide 6
    assert answers.misses("q8", 6, *_verify("q8", 6), wrong)


def test_altered_certificates_and_exit_codes_are_caught():
    code, text = _verify("background", 3)
    doc = json.loads(text)
    step = next(s for s in doc["certificates"][0]["steps"] if s["id"] == "b2")
    step["data"]["derived_order"] = 6
    assert answers.misses("background", 3, code, json.dumps(doc)) == [
        "step.b2.derived_order = 6, expected 3"
    ]
    assert answers.misses("background", 3, 3, text) == ["exit code 3, expected 0"]
    assert answers.misses("background", 3, code, "")[0].startswith("no machine document")

    code, text = _verify("torsion", 5)
    doc = json.loads(text)
    doc["certificates"][0]["flags"]["orders"]["alpha2"] = 2
    assert len(answers.misses("torsion", 5, code, json.dumps(doc))) == 1


def test_recorder_self_time_subtracts_direct_children():
    recorder = spans.Recorder()
    recorder.spans = [
        ["cli.run", -1, 0, 0.0, 10.0],
        ["theorems.verify_q8", 0, 0, 1.0, 9.0],
        ["garside.equal_Bn", 1, 0, 2.0, 6.0],
        ["garside.normal_form", 2, 0, 2.5, 5.5],
    ]
    assert recorder.self_times() == [2.0, 4.0, 1.0, 3.0]
    summary = recorder.summary()
    assert summary["layer_self_s"]["garside"] == 4.0
    assert summary["calls"]["sphere.torsion_order"] == 0


def test_request_times_are_scaled_by_the_speed_samples_around_them():
    p = {
        "samples": [0.001, 0.001, 0.003, 0.001, 0.001, 0.002, 0.002, 0.002],
        "requests": [{"seconds": 1.5, "samples": [2, 3]}, {"seconds": 1.0, "samples": [6, 6]}],
    }
    assert run.NEIGHBOURS == 2
    nominal = run.REF_NOMINAL_S
    # samples[0:5] around the first request, samples[4:8] around the second
    assert run.scaled_seconds(p) == pytest.approx([1.5 * nominal / 0.0014, 1.0 * nominal / 0.00175])
    figures = run.pass_figures({**p, "setup_s": 0.1, "peak_rss_mb": 50.0})
    assert figures["wall_s"] == pytest.approx(sum(run.scaled_seconds(p)))


def test_speed_samples_are_taken_during_requests_and_left_out_of_their_time():
    def busy(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
        return lambda: {"misses": []}

    records, samples = worker.serve([0.0, 0.3, 0.0], busy, None)
    (first, end), (long_first, long_end) = records[0]["samples"], records[1]["samples"]
    assert first == worker.SAMPLE_EDGE and end <= long_first
    assert long_end - long_first >= 3
    assert len(samples) >= long_end + worker.SAMPLE_EDGE
    taken = sum(samples[long_first:long_end])
    assert records[1]["seconds"] == pytest.approx(0.3 - taken, abs=0.002)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_a_pass_still_running_at_its_limit_is_stopped():
    assert run.run_pass("certify", json.dumps([["q8", 24]]), False, 0.05) is None


TRACE_PROBE = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import spherebraid
from spherebraid import cli
import spans
originals = {{id(getattr(sys.modules["spherebraid." + layer], fn))
             for layer, fns in spans.TRACED.items() for fn in fns}}
recorder = spans.Recorder()
recorder.install()
left = [f"{{m.__name__}}.{{a}}" for m in list(sys.modules.values())
        if m.__name__.startswith("spherebraid")
        for a, v in vars(m).items() if id(v) in originals]
for claim, n in (("q8", 4), ("torsion", 5), ("background", 3)):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "--claim", claim, "--n", str(n), "--format", "machine"]) == 0
print(json.dumps({{"left": left, "summary": recorder.summary()}}))
"""


def test_tracing_reaches_every_lookup_site():
    probe = TRACE_PROBE.format(perfbench=str(HERE), src=str(worker.SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["left"] == []
    calls = result["summary"]["calls"]
    # names theorems and cli pull in with from-imports
    for fn in ("presentations.todd_coxeter", "sphere.acts_trivially", "sphere.eq_mod_center",
               "sphere.square_rule", "sphere.torsion_order", "certificates.to_json"):
        assert calls[fn] > 0, fn
    assert calls["cli.run"] == 3
    assert calls["garside.normal_form"] >= 2 * calls["garside.equal_Bn"] > 0


def test_benchmark_json_lists_exactly_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["command"] == ["python3", "perfbench/run.py"]

"""spherebraid benchmark: time-to-verdict, memory and known answers on three workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout; spherebraid is imported from its src/.
The load is a closed loop with one client: a run makes passes back to
back, each pass one fresh worker process (perfbench/worker.py) that
sends every request of the workload in turn and checks each answer.
The runner makes each pass's inputs (pass k of a run with --seed S uses
seed S/k) and hands them to the worker on stdin.  After the first pass,
a new pass starts only while one more, as long as the last, still ends
within --seconds; a pass still running RUN_LIMIT_S after the run began
is stopped and left out (the run fails if it is the first).  With
--trace 1 every pass is followed by a traced pass on the same inputs,
which gives the per-layer metrics and the tracing overhead.

Request times are reported at reference speed: the worker times a fixed
pure-Python loop every 50 ms while it works, requests included, and each
request's time is scaled by how much slower or faster than nominal that
loop ran during and around it, so that the shared machine's slow and
fast spells cancel out (see scaled_seconds and perfbench/README.md).

Stdout: a report with every metric by name and unit, then, as the last
line, one JSON object {correct, attempted, failed, metrics}.  The end-
to-end metrics (--trace 0) or per-layer metrics (--trace 1) in it are
the ones BENCHMARK.json lists.  The full record of a run goes to
.perfbench_out/report-<workload>.json, the spans of its last traced
pass to .perfbench_out/spans-<workload>.jsonl.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pairs
import spans
from worker import OUT, ROOT, now

HERE = Path(__file__).resolve().parent
# a pass still running this long after the run began is stopped, so that
# a run ends within 180 s; the longest pass at the seed (background)
# takes about 9 s
RUN_LIMIT_S = 170.0
# request times are reported at the speed where one speed sample
# (worker.reference_loop) takes this long, judged from the samples taken
# during a request and NEIGHBOURS on each side of it; see scaled_seconds
REF_NOMINAL_S = 0.001
NEIGHBOURS = 2

# claim by claim, each over its n-grid; these grids are fixed, not seeded
GRIDS = {
    "certify": [(claim, n) for claim in ("q8", "dicyclic", "torsion") for n in (8, 11, 16, 19, 24)],
    "background": [("background", n) for n in (3, 12, 16, 20, 22)],
}
WORKLOADS = (*GRIDS, "cross-oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for fn in spans.function_names():
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        for size in spans.SIZES.get(fn, {}):
            units[f"{fn}.{size}"] = spans.SIZE_UNITS[size]
    for layer in spans.TRACED:
        units[f"{layer}.share"] = "fraction"
    units["tracing.overhead_s"] = "s"
    return units


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pass_inputs(workload: str, seed: str) -> str:
    """The requests of one pass, as the JSON list the worker reads on stdin."""
    if workload == "cross-oracle":
        return json.dumps(pairs.generate(seed))
    return json.dumps(GRIDS[workload])


def run_pass(workload: str, inputs: str, traced: bool, timeout: float) -> dict | None:
    """One fresh worker; returns its result plus setup_s (spawn to ready).

    Returns None when the worker is still running after `timeout` s; it
    is then killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--traced", str(int(traced))]
    spawned_at = now()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(inputs, timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    if proc.returncode != 0:
        raise BenchError(f"the {workload} worker exited with code {proc.returncode}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"the {workload} worker printed no result") from None
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Plain passes, and with trace a traced pass on the same inputs after each.

    The first pass always runs; a new pass starts only while one more,
    as long as the last, still ends within `seconds`.  A pass still
    running RUN_LIMIT_S after the run began is stopped and left out; if
    that is the first pass, the run fails.
    """
    OUT.mkdir(exist_ok=True)
    began_run = now()
    end, deadline = began_run + seconds, began_run + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        began = now()
        inputs = pass_inputs(workload, f"{seed}/{len(plain)}")
        done = run_pass(workload, inputs, False, deadline - now())
        traced_done = None
        if done is not None and trace:
            traced_done = run_pass(workload, inputs, True, deadline - now())
        if done is None or (trace and traced_done is None):
            if not plain:
                raise BenchError(f"the first {workload} pass overran the {RUN_LIMIT_S:.0f} s run limit")
            return plain, traced
        plain.append(done)
        if trace:
            traced.append(traced_done)
        took = now() - began
        if now() + took > end:
            return plain, traced


def scaled_seconds(p: dict) -> list[float]:
    """Each request's time at reference speed.

    A request's time is multiplied by REF_NOMINAL_S over the mean of the
    speed samples taken during it and the NEIGHBOURS samples on each
    side.  The mean, not the median: the machine flips between a fast
    and a slow state many times a second, and the mean weighs both as a
    request that spans the flips meets them.
    """
    samples = p["samples"]
    scaled = []
    for r in p["requests"]:
        first, end = r["samples"]
        around = samples[max(0, first - NEIGHBOURS) : end + NEIGHBOURS]
        scaled.append(r["seconds"] * REF_NOMINAL_S / statistics.fmean(around))
    return scaled


def on_clock(r: dict) -> float:
    """A request's wall time with the speed samples taken during it, as spans see it."""
    return r["seconds"] + r["sampled_s"]


def pass_figures(p: dict) -> dict[str, float]:
    """The end-to-end figures of one pass."""
    times = sorted(scaled_seconds(p))
    return {
        "setup_s": p["setup_s"],
        "wall_s": sum(times),
        "request_p50_ms": nearest_rank(times, 0.50) * 1e3,
        "request_p99_ms": nearest_rank(times, 0.99) * 1e3,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Each figure's median over the passes."""
    figures = [pass_figures(p) for p in plain]
    return {name: statistics.median(f[name] for f in figures) for name in END_TO_END_UNITS}


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    summaries = [p["trace"] for p in traced]
    metrics = {}
    for fn in spans.function_names():
        metrics[f"{fn}.calls"] = statistics.median(s["calls"][fn] for s in summaries)
        metrics[f"{fn}.self_s"] = statistics.median(s["self_s"][fn] for s in summaries)
        for size in spans.SIZES.get(fn, {}):
            key = f"{fn}.{size}"
            metrics[key] = statistics.median(s["sizes"].get(key, 0) for s in summaries)
    for layer in spans.TRACED:
        metrics[f"{layer}.share"] = statistics.median(
            p["trace"]["layer_self_s"][layer] / sum(on_clock(r) for r in p["requests"])
            for p in traced
        )
    metrics["tracing.overhead_s"] = statistics.median(
        sum(scaled_seconds(p)) for p in traced
    ) - statistics.median(sum(scaled_seconds(p)) for p in plain)
    return metrics


def loglog_slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def on_garside_path(claim: str, n: int) -> bool:
    """Requests whose time is the Garside slide; the others take another path."""
    if claim == "q8":
        return n % 2 == 0  # odd n is the counting obstruction, no braid arithmetic
    if claim == "background":
        return n != 3  # n = 3 is coset enumeration of B_3(S^2)
    return True


def details(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    """Report-only figures: per-claim time-to-verdict, pair percentiles, scaling, shares."""
    info: dict = {
        "passes": len(plain),
        "traced_passes": len(traced),
        # the clock as it ran, before scaling to reference speed
        "unscaled_wall_s": statistics.median(
            sum(r["seconds"] for r in p["requests"]) for p in plain
        ),
        "reference_sample_s": statistics.median(statistics.fmean(p["samples"]) for p in plain),
    }
    if workload == "cross-oracle":
        figures = end_to_end(plain)
        info["pair_samples"] = sum(len(p["requests"]) for p in plain)
        info["pair_p50_us"] = figures["request_p50_ms"] * 1e3
        info["pair_p99_us"] = figures["request_p99_ms"] * 1e3
        return info
    per_request: dict[tuple[str, int], list[float]] = defaultdict(list)
    per_claim: dict[str, list[float]] = defaultdict(list)
    for p in plain:
        totals: dict[str, float] = defaultdict(float)
        for r, seconds in zip(p["requests"], scaled_seconds(p)):
            per_request[r["claim"], r["n"]].append(seconds)
            totals[r["claim"]] += seconds
        for claim, total in totals.items():
            per_claim[claim].append(total)
    for claim, totals in per_claim.items():
        info[f"{claim}_s"] = statistics.median(totals)
    info["cert_bytes"] = statistics.median(sum(r["bytes"] for r in p["requests"]) for p in plain)
    info["time_to_verdict_s"] = {
        f"{claim}.n{n}": statistics.median(ts) for (claim, n), ts in per_request.items()
    }
    for claim in per_claim:
        points = [
            (n, statistics.median(ts))
            for (c, n), ts in per_request.items()
            if c == claim and on_garside_path(c, n)
        ]
        info[f"slope.{claim}"] = loglog_slope(points)
    if traced:
        shares: dict[str, list[float]] = defaultdict(list)
        for p in traced:
            by_request = p["trace"]["request_layer_self_s"]
            for index, r in enumerate(p["requests"]):
                garside_s = by_request.get(str(index), {}).get("garside", 0.0)
                shares[f"garside.share.{r['claim']}.n{r['n']}"].append(garside_s / on_clock(r))
        info["garside_share"] = {key: statistics.median(v) for key, v in shares.items()}
    return info


def print_report(workload, metrics, units, info, attempted, failed, misses) -> None:
    print(
        f"workload {workload}: {info['passes']} passes"
        + (f" + {info['traced_passes']} traced" if info["traced_passes"] else "")
        + ", closed loop, one client, one fresh worker process per pass"
    )
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ({failed} of {attempted} requests)")
    print(
        f"  {'unscaled wall (report only)':<44} {info['unscaled_wall_s']:>14.6g} s"
        f"  (mean speed sample {info['reference_sample_s'] * 1e3:.3f} ms, nominal {REF_NOMINAL_S * 1e3:g} ms)"
    )
    for miss in misses[:10]:
        print(f"    miss: {miss}")
    if workload == "cross-oracle":
        print(f"  {'pair_p50_us':<44} {info['pair_p50_us']:>14.6g} us")
        print(
            f"  {'pair_p99_us':<44} {info['pair_p99_us']:>14.6g} us"
            f"  ({info['pair_samples']} pairs)"
        )
        return
    for claim in ("q8", "dicyclic", "torsion", "background"):
        if f"{claim}_s" in info:
            print(f"  {claim + '_s':<44} {info[claim + '_s']:>14.6g} s")
    print(f"  {'cert_bytes':<44} {info['cert_bytes']:>14.6g} bytes")
    shares = info.get("garside_share", {})
    print("  scaling (report only; median time-to-verdict per request)")
    for key, seconds in info["time_to_verdict_s"].items():
        share = shares.get(f"garside.share.{key}")
        suffix = f"   garside share {share:.3f}" if share is not None else ""
        print(f"    {key:<20} {seconds:>10.4f} s{suffix}")
    for claim in ("q8", "dicyclic", "torsion", "background"):
        if f"slope.{claim}" in info:
            print(f"    log-log slope of {claim} time against n: {info[f'slope.{claim}']:.2f}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = measure(workload, seed, seconds, trace)
    requests = [r for p in plain + traced for r in p["requests"]]
    misses = [m for r in requests for m in r["misses"]]
    attempted = len(requests)
    failed = sum(1 for r in requests if r["misses"])
    info = details(workload, plain, traced)
    if trace:
        metrics, units = per_layer(plain, traced), per_layer_units()
    else:
        metrics, units = end_to_end(plain), END_TO_END_UNITS
    print_report(workload, metrics, units, info, attempted, failed, misses)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "metrics": metrics,
        "end_to_end": end_to_end(plain),
        "passes": [pass_figures(p) for p in plain],
        "request_seconds": [[[r["seconds"], *r["samples"]] for r in p["requests"]] for p in plain],
        "samples": [p["samples"] for p in plain],
        "details": info,
        "attempted": attempted,
        "failed": failed,
        "misses": misses[:100],
    }
    (OUT / f"report-{workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spherebraid" / "__init__.py").is_file():
        print(f"error: no spherebraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_one(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh process: set up, run every request back to back, check.

Run by perfbench/run.py, one worker at a time, never by hand:

    python3 perfbench/worker.py --workload certify --traced 0 < requests.json

The requests come on stdin as one JSON list, made by run.py: [claim, n]
for the grids, [n, w, v, equal] for cross-oracle.  A fresh process per
pass matters: garside keeps per-n caches for the life of the process,
every CLI invocation pays for filling them, and peak memory only means
something per process.  The worker prints one JSON line: when set-up
ended (CLOCK_MONOTONIC, comparable with the parent's clock), one record
per request (its time and the answer check), the speed samples, peak
RSS and, when traced, the per-layer summary; a traced pass also writes
its spans to .perfbench_out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import answers
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# the speed sampler: every SAMPLE_EVERY_S of wall time, and SAMPLE_EDGE
# times before and after the requests, one timing of REF_STEPS steps of
# the reference loop (about 1 ms)
REF_STEPS = 4_000
REF_TABLE = {k: (k * 37) % 64 for k in range(64)}
SAMPLE_EVERY_S = 0.05
SAMPLE_EDGE = 4


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    """Import spherebraid from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import spherebraid
    from spherebraid import cli, freegroup, garside

    if Path(spherebraid.__file__).resolve().parent != SRC / "spherebraid":
        raise ImportError(f"spherebraid was imported from {spherebraid.__file__}, not {SRC}")
    return cli, garside, freegroup


def reference_loop() -> None:
    """A fixed pure-Python loop that never calls the program.

    It does what spherebraid's inner loops do (index arithmetic, list
    swaps, small-int dict lookups), so a slow spell of the machine
    slows it about as much as it slows a request.  It allocates nothing
    that outlives a step, so the program's heap does not change its
    speed.
    """
    perm = list(range(8))
    acc = 0
    for i in range(REF_STEPS):
        j = i % 7
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
        acc = (acc + REF_TABLE[perm[j] ^ (i & 63)]) & 0xFFFF


class SpeedSampler:
    """Times reference_loop every SAMPLE_EVERY_S from a SIGALRM handler, requests or not.

    The handler runs in the main thread between two bytecodes of
    whatever is running, a request included; `spent` adds up the wall
    time it took, so that it can be taken out of the request's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        for _ in range(SAMPLE_EDGE):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(SAMPLE_EDGE):
            self.sample()


def raised(exc: Exception):
    return lambda: {"misses": [f"raised {exc!r}"]}


def serve(requests, handle, recorder) -> tuple[list[dict], list[float]]:
    """Send the requests back to back, timing each, with the speed sampler on.

    A request's time ("seconds") leaves out the samples taken during
    it; its record gives their time ("sampled_s") and names them as a
    slice of the sample list ("samples": first, end).  The answer is
    checked after the time is taken.
    """
    records: list[dict] = []
    with SpeedSampler() as sampler:
        for index, request in enumerate(requests):
            if recorder is not None:
                recorder.request = index
            start = time.perf_counter()
            spent, first = sampler.spent, len(sampler.samples)
            try:
                check = handle(request)
            except Exception as exc:  # a raising request is a failed request, not a failed run
                check = raised(exc)
            spent = sampler.spent - spent
            seconds = time.perf_counter() - start - spent
            record = check()
            record.update(seconds=seconds, sampled_s=spent, samples=[first, len(sampler.samples)])
            records.append(record)
    return records, sampler.samples


def grid_handler(cli):
    def handle(request):
        claim, n = request
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["verify", "--claim", claim, "--n", str(n), "--format", "machine"])
        text = out.getvalue()
        return lambda: {
            "claim": claim,
            "n": n,
            "bytes": len(text.encode()),
            "misses": answers.misses(claim, n, code, text),
        }

    return handle


def pair_handler(garside, freegroup):
    def handle(pair):
        w, v, equal = pair
        by_garside = garside.equal_Bn(w, v)
        by_artin = freegroup.eq_Bn(w, v)

        def check():
            if by_garside == equal and by_artin == equal:
                return {"misses": []}
            return {
                "misses": [
                    f"B_{w.strand_count} [{w.to_text()}] vs [{v.to_text()}]: known {equal}, "
                    f"garside {by_garside}, artin {by_artin}"
                ]
            }

        return check

    return handle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    cli, garside, freegroup = import_program()
    requests = json.load(sys.stdin)
    if args.workload == "cross-oracle":
        from spherebraid.words import BraidWord

        words = [(BraidWord(n, w), BraidWord(n, v), equal) for n, w, v, equal in requests]
    recorder = None
    if args.traced:
        recorder = spans.Recorder()
        recorder.install()
    ready_at = now()

    if args.workload == "cross-oracle":
        records, samples = serve(words, pair_handler(garside, freegroup), recorder)
    else:
        records, samples = serve(requests, grid_handler(cli), recorder)

    result = {
        "ready_at": ready_at,
        "requests": records,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.write(OUT / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

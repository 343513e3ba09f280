"""Benchmark of kineticlines' exact event pipeline on the paper's scene families.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; the library is imported from the `src` directory
beside this one, never from an installed copy. One process runs one
workload, single-threaded:

1. set-up: fresh interpreters each import kineticlines and build the
   workload's scenes; setup_s is the median of their times;
2. the scenes are built in this process and one warm-up pass is run and
   kept as the reference output;
3. passes over the same scenes repeat for S seconds, with gc.collect()
   run, untimed, before each, and each pass is timed in units of a fixed
   reference loop run just before and after it (with --trace 1, untraced
   and traced passes alternate);
4. the reference output is checked by the benchmark's own exact
   arithmetic, and every pass must have produced it again.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with --trace 0 and the per-layer ones with
--trace 1. The same object, and with --trace 1 the spans of one traced
pass, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from collections import Counter
from itertools import combinations
from pathlib import Path
from time import perf_counter

import checks
from tracing import GENERATE, SPAN_NAMES, Tracer
from workloads import WORKLOADS, digest

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
GENERATE_SAMPLES = 5
MIN_PASSES = 3
REFERENCE_ROUNDS = 6000
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    """Import kineticlines from the source tree next to the benchmark."""
    if not (SRC_DIR / "kineticlines" / "__init__.py").is_file():
        raise BenchError(f"no kineticlines sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import kineticlines

    if not Path(kineticlines.__file__).resolve().is_relative_to(SRC_DIR):
        raise BenchError(f"kineticlines imported from {kineticlines.__file__}, not {SRC_DIR}")
    return kineticlines


def setup_probe(args) -> None:
    """Child process: time the import and the scene build, print seconds."""
    start = perf_counter()
    kl = load_library()
    WORKLOADS[args.workload].build(kl, args.seed, args.tiny)
    print(repr(perf_counter() - start))


def setup_seconds(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed_pass(workload, kl, cases, tracer=None):
    """(seconds, output); output is None when the pass raised."""
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            out = workload.run_pass(kl, cases)
        else:
            with tracer.installed():
                out = tracer.call("pass", workload.run_pass, kl, cases)
    except Exception:  # one failed operation; the run goes on
        traceback.print_exc()
        out = None
    return perf_counter() - start, out


def reference_loop(rounds: int = REFERENCE_ROUNDS) -> int:
    """A fixed computation in the library's style (Fraction and integer
    arithmetic, tuples, a dict) that shares no code with it.

    Its time is the unit passes are measured in. The speed of a shared
    machine drifts by half over minutes, and this loop drifts with it: over
    20 s windows of one process, the median pass time of no-collinearity
    spread by 15% and its ratio to this loop by 2%.
    """
    x = 0x9E3779B97F4A7C15
    table: dict = {}
    acc = 0
    for _ in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        a = Fraction(x >> 24, (x & 0xFFFFFF) + 1)
        b = Fraction((x >> 7) & 0xFFFFFFFFFF, (x >> 45) + 1)
        c = a * b - a / (b + 1)
        key = (c.numerator % 4093, c.denominator % 4093)
        table[key] = table.get(key, 0) + 1
        acc += c.numerator.bit_length()
    return acc + len(table)


def timed_reference() -> float:
    gc.collect()
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def work_counts(kl, workload, cases, reference) -> dict[str, int]:
    """Work one pass does, from the scenes and the reference output."""
    counts = dict.fromkeys(
        ("triples", "roots", "distinct_times", "max_bucket", "events", "member_total"), 0
    )
    for case, out in zip(cases, reference):
        buckets = Counter(
            t
            for trio in combinations(case.scene.points, 3)
            for t in kl.classify_triple(*trio).times
        )
        events = workload.events_of(kl, case, out)
        counts["triples"] += math.comb(len(case.scene), 3)
        counts["roots"] += checks.SceneModel(case.scene).root_pairs()
        counts["distinct_times"] += len(buckets)
        counts["max_bucket"] = max(counts["max_bucket"], max(buckets.values(), default=0))
        counts["events"] += len(events)
        counts["member_total"] += sum(e.k for e in events)
    return counts


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Passes attempted, failed (raised), and finished with another output
    than the warm-up's."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.mismatched = 0

    def record(self, out) -> bool:
        self.attempted += 1
        if out is None:
            self.failed += 1
            return False
        self.mismatched += out != self.reference
        return True


def end_to_end(args, workload, kl, cases, tally):
    """Each pass is timed between two runs of the reference loop and taken
    in units of their mean."""
    relative = []
    unit = timed_reference()
    start = perf_counter()
    while tally.attempted < MIN_PASSES or perf_counter() - start < args.seconds:
        seconds, out = timed_pass(workload, kl, cases)
        previous, unit = unit, timed_reference()
        if tally.record(out):
            relative.append(seconds / ((previous + unit) / 2))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not relative:
        raise BenchError("every pass failed")
    triples = sum(math.comb(len(case.scene), 3) for case in cases)
    return {
        "op_ref.p50": metric(statistics.median(relative), "ref"),
        "triples_per_ref": metric(triples * len(relative) / sum(relative), "1/ref"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }


def per_layer(args, workload, kl, cases, tally):
    """Per-layer metrics, and the spans of the first traced pass."""
    counts = work_counts(kl, workload, cases, tally.reference)
    tracer = Tracer()
    generate_self = []
    with tracer.installed():
        for _ in range(GENERATE_SAMPLES):
            tracer.reset()
            tracer.call("setup", workload.build, kl, args.seed, args.tiny)
            generate_self.append(tracer.summary()[1][GENERATE])

    # overhead is taken pass by pass: a traced pass against the untraced
    # pass just before it, so the machine's drift cancels
    plain, overhead, reference, summaries, first_trace = [], [], [], [], None
    start = perf_counter()
    while tally.attempted < 2 * MIN_PASSES or perf_counter() - start < args.seconds:
        reference.append(timed_reference())
        untraced_s, out = timed_pass(workload, kl, cases)
        untraced_ok = tally.record(out)
        if untraced_ok:
            plain.append(untraced_s)
        tracer.reset()
        seconds, out = timed_pass(workload, kl, cases, tracer)
        if tally.record(out):
            summaries.append(tracer.summary() + (tracer.tallies.copy(),))
            first_trace = first_trace or tracer.to_json()
            if untraced_ok:
                overhead.append(seconds / untraced_s)
    if not summaries or not overhead:
        raise BenchError("every pass failed")

    calls, _, tallies = summaries[0]
    if any(s[0] != calls for s in summaries):
        print("warning: call counts differ between traced passes", file=sys.stderr)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        if name != GENERATE:
            metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
            metrics[f"{name}.self_s"] = metric(
                statistics.median(s[1].get(name, 0.0) for s in summaries), "s"
            )
    metrics[f"{GENERATE}.self_s"] = metric(statistics.median(generate_self), "s")
    classify = "kinematics.classify_triple"
    metrics[f"{classify}.root_ratio"] = metric(
        ratio(tallies[classify], calls.get(classify, 0)), "ratio"
    )
    metrics["kinematics.position_at.useful_ratio"] = metric(
        ratio(counts["member_total"], calls.get("kinematics.position_at", 0)), "ratio"
    )
    for name, value in counts.items():
        metrics[f"work.{name}"] = metric(value, "count")
    metrics["trace.overhead_ratio"] = metric(statistics.median(overhead), "ratio")
    metrics["op_s.p50"] = metric(statistics.median(plain), "s")
    metrics["ref_s.p50"] = metric(statistics.median(reference), "s")
    return metrics, first_trace


def run(args) -> dict:
    kl = load_library()
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args)
    cases = workload.build(kl, args.seed, args.tiny)
    tally = Tally(workload.run_pass(kl, cases))  # warm-up, untimed
    if args.trace:
        metrics, spans = per_layer(args, workload, kl, cases, tally)
    else:
        metrics, spans = end_to_end(args, workload, kl, cases, tally), None
        metrics["setup_s"] = metric(setup_s, "s")

    correct = tally.mismatched == 0
    if tally.mismatched:
        print(f"{tally.mismatched} passes differ from the warm-up output", file=sys.stderr)
    try:
        workload.check(kl, cases, tally.reference)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, digest=digest(kl, workload, cases, tally.reference))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small scenes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

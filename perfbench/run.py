"""polyaut benchmark: one seeded workload, timed, checked, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Workloads: plane-decompose,
relations-kernel, lnd-ladder, cli-mix (see workloads.py and layers.json).

Each run is one client in one process: the next case starts when the
previous one returns.  Set-up builds the corpus from the seed and runs one
warm-up case; it is repeated (see SETUP_MIN_REPS) and setup_s is the
median.  The corpus is then measured in whole passes, as many as fill
--seconds and at least MIN_PASSES.  Only the library calls of a case are
timed; each corpus entry is checked exactly on its first pass, outside the
timed region, and every later pass must reproduce its formatted output.
The formatted outputs of the first pass are hashed into a digest, which
must match digests.json at the default seed.

Machine speed.  On a shared machine the same code can run up to 2x slower
for seconds at a time (seen on a 2-vCPU x86_64 VM).  A short fixed
pure-Python calibration slice therefore runs every CAL_EVERY_S seconds
between cases, and every time is scaled by CAL_REF_S / (median of the
slices around it): times are reported at the reference speed at which one
slice takes CAL_REF_S.  The unscaled figures, the range of the measured
speed and a longer calibration timed before and after the run are printed
in the diagnostic rows, so slow phases stay visible.

--trace 0 prints the end-to-end metrics.  --trace 1 first measures one
untraced pass, then traces whole passes (at least one) for --seconds, and
prints the per-layer metrics: self and inclusive seconds per case of each
traced span, call counts and work counts per case of the first traced pass
(deterministic), and the tracing overhead.  Spans of the first traced pass
are written to perfbench/out/.

Every line before the last is a diagnostic JSON row (environment,
summary); the last line is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# Set-up runs at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPS), so that short set-ups get more samples.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_S = 1.0
MIN_PASSES = 2
MAX_SPANS = 100_000
CAL_EVERY_S = 0.15
CAL_REF_S = 0.004
# A before/after calibration drift beyond this share flags a slow phase.
DRIFT_LIMIT = 0.15


def _sparse_factor(rng):
    return {(i, j): Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 30))
            for i in range(6) for j in range(5)}


_CAL_RNG = random.Random(20260810)
CAL_FACTORS = (_sparse_factor(_CAL_RNG), _sparse_factor(_CAL_RNG))


def calibration_slice() -> float:
    """Seconds for a fixed product of two 30-term sparse polynomials over
    Fraction, written here so that no change to the library moves it: the
    kind of work the library's inner loops do, and slowed by the machine's
    slow phases in about the same proportion."""
    start = time.perf_counter()
    a, b = CAL_FACTORS
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = (ma[0] + mb[0], ma[1] + mb[1])
            out[mono] = out.get(mono, 0) + ca * cb
    return time.perf_counter() - start


def calibrate() -> float:
    """Median of 25 slices: the before/after row of the environment."""
    return statistics.median(calibration_slice() for _ in range(25))


def import_library():
    """Import polyaut from src/ of this checkout, or return None."""
    src = ROOT / "src"
    if not (src / "polyaut" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import polyaut

    if Path(polyaut.__file__).resolve().parent != (src / "polyaut").resolve():
        return None
    return polyaut


class Pass:
    """Runs the corpus once: times each case, scales the time to the
    reference speed, and checks the result."""

    def __init__(self, workload, corpus, first=None):
        self.workload = workload
        self.corpus = corpus
        # The first pass checks each entry; later passes compare with it.
        self.reference = first.reference if first else [None] * len(corpus)
        self.bad = first.bad if first else {}  # corpus index -> first error
        self.raw = []
        self.scaled = []
        self.speeds = []
        self.layer_s = []  # per case: {metric: seconds}, traced passes only
        self.failed = 0

    def run(self, tracer=None):
        wl = self.workload
        clock = time.perf_counter
        slices = [calibration_slice()]
        last = clock()
        epochs = []
        for idx, case in enumerate(self.corpus):
            if clock() - last >= CAL_EVERY_S:
                slices.append(calibration_slice())
                last = clock()
            epochs.append(len(slices) - 1)
            if tracer is not None:
                tracer.start_case(idx)
            start = clock()
            try:
                out = wl.run(case)
                error = None
            except Exception as exc:  # reported as a failed case
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            if tracer is not None:
                self.layer_s.append(tracer.end_case())
            self.raw.append(elapsed)
            if error is None:
                text = wl.render(case, out)
                if self.reference[idx] is None:
                    self.reference[idx] = text
                    error = wl.check(case, out)
                elif text != self.reference[idx]:
                    error = "output differs from the first pass"
            if error is not None and idx not in self.bad:
                self.bad[idx] = error
            if idx in self.bad:
                self.failed += 1
        slices.append(calibration_slice())
        for elapsed, e in zip(self.raw, epochs):
            # Slices e and e + 1 bracket the case; their neighbours damp the
            # noise of single slices.
            speed = CAL_REF_S / statistics.median(slices[max(0, e - 1):e + 3])
            self.speeds.append(speed)
            self.scaled.append(elapsed * speed)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.reference:
            h.update((text or "").encode())
            h.update(b"\0")
        return h.hexdigest()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_setup(wl, seed):
    """Build the corpus and run one warm-up case: (corpus, seconds,
    seconds at reference speed)."""
    before = calibration_slice()
    start = time.perf_counter()
    corpus = wl.build(random.Random(seed))
    wl.run(corpus[0])
    elapsed = time.perf_counter() - start
    after = calibration_slice()
    return corpus, elapsed, elapsed * CAL_REF_S / ((before + after) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_library() is None:
        print(f"error: no polyaut package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_ref_s": CAL_REF_S,
        "calibration_before_s": calibrate(),
    }

    setups = []
    while len(setups) < SETUP_MIN_REPS or (
            len(setups) < SETUP_MAX_REPS and sum(s[1] for s in setups) < SETUP_MIN_S):
        setups.append(timed_setup(wl, args.seed))
    corpus = setups[-1][0]
    gc.collect()

    first = Pass(wl, corpus)
    first.run()
    summary = {"workload": wl.name, "corpus": len(corpus)}
    if args.trace:
        metrics, passes, extra = traced(wl, first, args)
        summary.update(extra)
    else:
        passes = [first]
        wanted = max(MIN_PASSES, round(args.seconds / sum(first.raw)))
        while len(passes) < wanted:
            passes.append(Pass(wl, corpus, first))
            passes[-1].run()
        scaled = [x for p in passes for x in p.scaled]
        raw = [x for p in passes for x in p.raw]
        failed = sum(p.failed for p in passes)
        metrics = {
            "cases_per_s": (len(scaled) / sum(scaled), "1/s"),
            "case_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "case_p90_ms": (quantile(scaled, 90) * 1e3, "ms"),
            "verified_frac": ((len(scaled) - failed) / len(scaled), "fraction"),
            "setup_s": (statistics.median(s[2] for s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        summary["unscaled"] = {
            "cases_per_s": len(raw) / sum(raw),
            "case_p50_ms": statistics.median(raw) * 1e3,
            "case_p90_ms": quantile(raw, 90) * 1e3,
            "setup_s": statistics.median(s[1] for s in setups),
        }
    speeds = [x for p in passes for x in p.speeds]
    attempted = sum(len(p.raw) for p in passes)
    failed = sum(p.failed for p in passes)

    env["calibration_after_s"] = calibrate()
    drift = env["calibration_after_s"] / env["calibration_before_s"] - 1
    env["calibration_drift"] = drift
    env["slow_phase"] = abs(drift) > DRIFT_LIMIT or min(speeds) < 0.5 * max(speeds)
    print(json.dumps({"env": env}))

    digest = first.digest()
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text())["digests"].get(wl.name)
    digest_ok = expected is None or digest == expected
    summary.update({
        "passes": len(passes),
        "cases": attempted,
        "failed_frac": failed / attempted,
        "speed_min_median_max": [min(speeds), statistics.median(speeds), max(speeds)],
        "setup_runs_s": [s[2] for s in setups],
        "digest": digest,
        "digest_expected": expected,
        "errors": {str(k): v for k, v in sorted(first.bad.items())[:5]},
    })
    print(json.dumps({"summary": summary}))
    if not digest_ok:
        print(f"error: output digest {digest} differs from the stored {expected}",
              file=sys.stderr)
    for idx, error in sorted(first.bad.items())[:5]:
        print(f"error: case {idx}: {error}", file=sys.stderr)

    correct = failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced(wl, first, args):
    """Trace whole passes after the untraced first pass; per-layer metrics."""
    from tracing import COUNTS, LEAVES, SPANS, Tracer

    tracer = Tracer(MAX_SPANS)
    tracer.install()
    passes = []
    elapsed = 0.0
    while not passes or elapsed < args.seconds - sum(passes[-1].raw) / 2:
        tracer.recording = not passes
        passes.append(Pass(wl, first.corpus, first))
        passes[-1].run(tracer)
        elapsed += sum(passes[-1].raw)
        if len(passes) == 1:
            calls, work = dict(tracer.calls), dict(tracer.counts)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_spans(span_file)

    size = len(first.corpus)
    cases = size * len(passes)
    layer = {}
    for p in passes:
        for per_case, speed in zip(p.layer_s, p.speeds):
            for key, seconds in per_case.items():
                layer[key] = layer.get(key, 0.0) + seconds * speed
    metrics = {}
    for name in SPANS:
        metrics[f"{name}_s"] = (layer.get(f"{name}_s", 0.0) / cases, "s/case")
        if name not in LEAVES:
            metrics[f"{name}_incl_s"] = (layer.get(f"{name}_incl_s", 0.0) / cases, "s/case")
        metrics[f"{name}_calls"] = (calls.get(name, 0) / size, "count/case")
    for name in COUNTS:
        metrics[name] = (work.get(name, 0) / size, "count/case")
    traced_total = sum(sum(p.scaled) for p in passes)
    overhead = (traced_total / cases) / (sum(first.scaled) / size)
    metrics["trace.case_s"] = (traced_total / cases, "s/case")
    metrics["trace.overhead"] = (overhead, "ratio")
    ranked = sorted(SPANS, key=lambda n: -layer.get(f"{n}_s", 0.0))
    extra = {
        "trace_overhead": overhead,
        "top_self_share": [[n, layer.get(f"{n}_s", 0.0) / traced_total] for n in ranked[:5]],
        "span_file": str(span_file.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return metrics, [first] + passes, extra


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload, runs run.py traced twice at one seed and requires every
count metric (unit count/case: call counts and work counts such as
polycore.mul_terms_out, groebner.normal_form_calls, groebner.basis_size,
groebner.oracle_elements, derivation.delta_derivation_calls and
polycore.fraction_new) to be identical in both runs, so that those counts
can back a claim.  It also checks that the metric names run.py prints are
exactly the ones BENCHMARK.json declares and layers.json maps.  Runs are
sequential; exits 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reports incorrect output")
    return result["metrics"]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    problems = []
    per_layer = {m["name"] for m in declared["per_layer"]}
    if per_layer != set(layers["per_layer"]):
        problems.append("layers.json does not map exactly the per_layer metrics: "
                        f"{sorted(per_layer ^ set(layers['per_layer']))}")
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    printed = set(run("cli-mix", args.seed, 0))
    if printed != end_to_end:
        problems.append(f"end-to-end names differ: {sorted(printed ^ end_to_end)}")

    for workload in args.workload or names:
        first = run(workload, args.seed, 1)
        second = run(workload, args.seed, 1)
        if set(first) != per_layer:
            problems.append(f"{workload}: per-layer names differ: "
                            f"{sorted(set(first) ^ per_layer)}")
        counts = sorted(k for k, v in first.items() if v["unit"] == "count/case")
        moved = [k for k in counts if first[k]["value"] != second[k]["value"]]
        if moved:
            problems.append(f"{workload}: counts differ between two runs: {moved}")
        print(f"{workload}: {len(counts)} counts, {len(counts) - len(moved)} identical")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

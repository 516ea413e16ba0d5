"""Records the benchmark's baseline: every workload of BENCHMARK.json run
for run_seconds once per seed 1..RUNS, plus one traced run per workload, aggregated the way the acceptance check reads
them (median, and the quartile spread from statistics.quantiles(n=4) as a
share of the median).

Run from the root of a checkout:

    python3 perfbench/baseline.py > perfbench/BASELINE.json

It fails if any run exits non-zero, reports correct=false or a failed
operation, or if a seed's digest changes between its plain and traced runs.
"""

import json
import platform
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
SECONDS = BENCH["run_seconds"]
RUNS = 10


def run(workload, seed, seconds, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: {out}")
    return result, digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    record = {
        "machine": f"{platform.machine()}, {subprocess.run(['nproc'], capture_output=True, text=True).stdout.strip()} CPUs",
        "seconds": SECONDS,
        "runs": RUNS,
        "workloads": {},
    }
    for w in (w["name"] for w in BENCH["workloads"]):
        rows, digests = [], {}
        for seed in range(1, RUNS + 1):
            result, digests[seed] = run(w, seed, SECONDS, 0)
            rows.append(result)
            print(f"{w} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
        traced, digest = run(w, 1, SECONDS, 1)
        if digest != digests[1]:
            sys.exit(f"{w}: traced run digest {digest} != {digests[1]}")
        record["workloads"][w] = {
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in rows])
                           for m in BENCH["end_to_end"]},
            "attempted": [r["attempted"] for r in rows],
            "wall_s": [round(r["wall_s"], 1) for r in rows + [traced]],
            "digests": digests,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    json.dump(record, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

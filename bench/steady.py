"""Steadiness check: do two sets of runs of unchanged code agree within the bounds?

    python3 bench/steady.py [--first-seed N]

Run from the repository root. Each of two sets runs `bench/run.py` on ten
seeds per workload for BENCHMARK.json's `run_seconds`, every seed new, from
`--first-seed` on. For each end-to-end metric of each workload it reports,
per set, the median and the spread (distance between first and third
quartile over the median, as `statistics.quantiles(values, n=4)` gives
them), and how much the second set's median is worse than the first's. A
metric passes when both spreads are within its bound and the second median
is not worse than the first by more than the bound; the share of failed
operations must be the same in both sets. The exit code is 0 when all pass.
The table goes to standard output, the raw values to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for w in workloads:
            runs = []
            for _ in range(RUNS):
                r = run_once(w, seed, spec["run_seconds"])
                runs.append(r)
                print(f"set {s} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} wall={r['wall_s']:.1f}s", flush=True)
                seed += 1
            results[w].append(runs)

    ok = True
    print(f"\n{'workload':<11} {'metric':<14} {'bound':>5}  {'median0':>12} {'spread0':>8}  "
          f"{'median1':>12} {'spread1':>8}  {'worse':>7}  verdict")
    for w in workloads:
        first, second = results[w]
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in (first, second)]
        if len(shares[0] | shares[1]) > 1 or not all(r["correct"] for r in first + second):
            print(f"{w}: failed shares {shares} or a run not correct")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v0, v1 = ([r["metrics"][name]["value"] for r in runs] for runs in (first, second))
            m0, m1 = statistics.median(v0), statistics.median(v1)
            s0, s1 = spread(v0), spread(v1)
            worse = worse_by(m0, m1, m["better"])
            passed = worse <= bound and s0 <= bound and s1 <= bound
            ok &= passed
            print(f"{w:<11} {name:<14} {bound:>5}  {m0:>12.6g} {s0:>8.3f}  {m1:>12.6g} {s1:>8.3f}  "
                  f"{worse:>+7.3f}  {'ok' if passed else 'OUT OF BOUND'}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

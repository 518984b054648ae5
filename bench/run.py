"""Benchmark of the revhash pipeline, one workload per call.

    python3 bench/run.py --workload corpus|perm10|compress12 --seed N --seconds S --trace 0|1

Run from the repository root. It starts one fresh worker to fill the
bytecode cache, then SETUPS fresh workers that only set up, then one fresh
worker that sets up and measures, each after the last has ended. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; the traced run also writes its spans to
bench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Fresh workers that only set up; their median set-up time is setup_s.
SETUPS = 15
# A worker still running this long after the run started is killed and the
# run fails, so that a hung program still ends the run within 180 s.
DEADLINE_S = 170
# Fixed string hashing, so dict layout does not differ between workers.
WORKER_ENV = {"PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def run_worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker did not end within {DEADLINE_S} s of the start") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        end_to_end, per_layer = metric_specs()
        run_worker("setup", args, deadline)  # fills the bytecode cache
        setups = [run_worker("setup", args, deadline) for _ in range(SETUPS)]
        result = run_worker("measure", args, deadline)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup"])

    for problem in result["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {result['rounds']} round(s) of "
          f"{result['targets_per_round']} targets in {result['measured_s']:.1f} s; percentiles fall in "
          + ", ".join(f"{k} {v}" for k, v in result["falls_in"].items()), file=sys.stderr)
    probe = result["probe_ms"]
    print(f"bench: speed probe {probe['median']:.3f} ms median, {probe['min']:.3f} ms fastest, "
          f"{probe['count']} probes; set-up {statistics.median(s['setup_unscaled_s'] for s in setups):.4f} s "
          "median before scaling", file=sys.stderr)

    if args.trace:
        values = dict(result["layers"])
        values["corpus.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        specs = per_layer
        trace = result["trace"]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "rounds": result["rounds"],
                                    "end_to_end_traced": result["metrics"], **trace}))
        print(f"bench: {len(trace['spans'])} spans written to {path.relative_to(ROOT)}; "
              f"tracing cost {trace['span_cost_s'] * 1e6:.2f} us a span, "
              f"{trace['overhead_share']:.3%} of the traced time", file=sys.stderr)
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        specs = end_to_end

    missing = sorted(set(specs) - set(values))
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": specs[name]["unit"]} for name in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

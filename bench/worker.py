"""One fresh process of a benchmark run.

    python3 bench/worker.py setup|measure --workload W --seed S --seconds T --trace 0|1

`setup` imports revhash, generates the workload's `.pla` texts and reports
how long that took. `measure` does the same, then runs whole rounds of the
workload, one call in flight at a time, until the next round would end after
`--seconds`. Every output is checked against `oracle`. The last line of
standard output is one JSON object for `run.py`.

Set-up time runs from the first statement below, so modules that only the
measuring needs are imported inside the functions that use them.
"""

import sys
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from revhash import analyze, esop, invert, pla, sim, synth  # noqa: E402
import workloads  # noqa: E402

# Span name -> per-layer metric holding its time per round.
LAYER_TIMES = {
    "pla.parse_pla": "pla.parse_s",
    "esop.from_pla": "esop.from_pla_s",
    "esop.minimize": "esop.minimize_s",
    "synth.synthesize": "synth.synthesize_s",
    "synth.stats": "synth.stats_s",
    "synth.reverse": "synth.reverse_s",
    "sim.verify_identity": "sim.identity_s",
    "sim.verify_against_spec": "sim.spec_s",
    "analyze.avalanche_check": "analyze.avalanche_s",
    "analyze.collision_scan": "analyze.collision_s",
    "invert.preimages_deduce": "invert.deduce_s",
    "invert.preimage_one": "invert.first_s",
    "invert.preimages_bruteforce": "invert.brute_s",
}
# End-to-end stage metrics: each is the median time of the stage on each
# function, over every round of the run, summed over the workload. Every
# time is read at the reference speed of `speed.py`.
STAGES = ("compile", "verify", "analyze")
COUNTS = (
    "pla.rows", "esop.cubes_in", "esop.cubes_out", "esop.literals_out",
    "synth.gates_raw", "synth.gates_c0", "synth.gates_c1", "synth.gates_c2", "synth.gates_c3plus",
    "sim.states_checked", "invert.branches", "invert.propagations", "invert.preimages",
)
# Inputs per function on which the benchmark's own gate evaluator runs.
EVALUATOR_SAMPLE = 128
# A circuit wider than this (perm10's, 20 lines) gets the dropped-gate
# identity check on sampled states: a gate with c controls fires on 2^-c of
# them, perm10's gates have at most 10, so 2^15 samples all miss with odds
# below e^-32.
EXHAUSTIVE_WIDTH = 16
MUTANT_SAMPLES = 1 << 15


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def setup(args):
    """Generate the workload; the setup time runs from before `import revhash`.

    Set-up times are read at the reference speed of `speed.py`, from the
    probes timed right after set-up.
    """
    t0 = time.perf_counter()
    functions = workloads.generate(args.workload, args.seed)
    t1 = time.perf_counter()
    from speed import Speed

    with Speed() as speed:
        pass
    return functions, {"setup_s": speed.scaled(T_START, t1), "generate_s": speed.scaled(t0, t1),
                       "setup_unscaled_s": t1 - T_START}


class Round:
    """What one round measured: stage times, per-target samples and counts."""

    def __init__(self):
        # stage -> function name -> (start, end) of that stage on that function
        self.stages = {stage: {} for stage in STAGES}
        # (start, end, function name, target index) per inverted target
        self.deduce = []
        self.first = []
        self.brute = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.gates_total = 0
        self.circuits = {}
        self.attempted = 0
        self.failed = 0

    def add(self, stage, fn, t0, t1):
        self.stages[stage].setdefault(fn.name, []).append((t0, t1))
        self.attempted += 1


def run_function(fn, expected, tracer, rnd, problems, repeats, target_repeats):
    """Take one `.pla` text through the whole pipeline and check each output.

    The analysis runs `repeats` times: once after verification, and the other
    passes between targets, so that they sample the machine at different
    moments of the round. `preimage_one` and brute force run
    `target_repeats` times on each target.
    """
    clock = time.perf_counter
    c = rnd.counts
    t0 = clock()
    with tracer.span("compile"):
        f = tracer.call("pla.parse_pla", pla.parse_pla, fn.text)
        cover = tracer.call("esop.from_pla", esop.from_pla, f)
        # On a workload that skips minimization the stage passes the cover through.
        with tracer.span("esop.minimize"):
            final = esop.minimize(cover) if fn.minimize else cover
        circuit = tracer.call("synth.synthesize", synth.synthesize, final, fn.name)
        stats = tracer.call("synth.stats", synth.stats, circuit)
    rnd.add("compile", fn, t0, clock())
    rnd.circuits[fn.name] = (circuit, f)
    c["pla.rows"] += len(f.cubes)
    c["esop.cubes_in"] += len(cover.cubes)
    c["esop.cubes_out"] += len(final.cubes)
    c["esop.literals_out"] += esop.cost(final).literal_count
    c["synth.gates_raw"] += stats.raw_gates
    for k, v in stats.by_controls.items():
        c["synth.gates_c3plus" if k >= 3 else f"synth.gates_c{k}"] += v
    rnd.gates_total += stats.total

    t0 = clock()
    with tracer.span("verify"):
        rev = tracer.call("synth.reverse", synth.reverse, circuit)
        ident = tracer.call("sim.verify_identity", sim.verify_identity, circuit, rev)
        spec = tracer.call("sim.verify_against_spec", sim.verify_against_spec, circuit, f)
    rnd.add("verify", fn, t0, clock())
    c["sim.states_checked"] += ident.states_checked + spec.states_checked
    if not (ident.passed and spec.passed):
        problems.append(f"{fn.name}: verification failed ({ident}, {spec})")

    def analysis():
        t0 = clock()
        with tracer.span("analyze"):
            aval = tracer.call("analyze.avalanche_check", analyze.avalanche_check, f)
            coll = tracer.call("analyze.collision_scan", analyze.collision_scan, f)
        rnd.add("analyze", fn, t0, clock())
        if (len(aval.part1_violations), len(aval.part2_violations)) != (expected.part1, expected.part2):
            problems.append(f"{fn.name}: avalanche violations {len(aval.part1_violations)}/"
                            f"{len(aval.part2_violations)}, expected {expected.part1}/{expected.part2}")
        groups = {y: tuple(sorted(xs)) for y, xs in coll.colliding_groups}
        if groups != expected.collisions or coll.injective != (not expected.collisions):
            problems.append(f"{fn.name}: collision groups differ from the table's")

    def timed(samples, k, name, call, *args):
        t0 = clock()
        out = tracer.call(name, call, *args)
        samples.append((t0, clock(), fn.name, k))
        rnd.attempted += 1
        return out

    analysis()
    for k, y in enumerate(fn.targets):
        want = expected.preimages_of(y)
        full = k < fn.full_targets
        with tracer.span("target"):
            if full:
                res = timed(rnd.deduce, k, "invert.preimages_deduce", invert.preimages_deduce, circuit, y)
            ones = [timed(rnd.first, k, "invert.preimage_one", invert.preimage_one, circuit, y)
                    for _ in range(target_repeats)]
            brutes = [timed(rnd.brute, k, "invert.preimages_bruteforce", invert.preimages_bruteforce, f, y)
                      for _ in range(target_repeats if full else 0)]
        for one in ones:
            if one != (want[0] if want else None):
                problems.append(f"{fn.name}: first preimage of {y} is {one}, expected {want[:1]}")
        if full:
            c["invert.branches"] += res.branches
            c["invert.propagations"] += res.propagations
            c["invert.preimages"] += len(res.preimages)
            if res.preimages != want:
                problems.append(f"{fn.name}: deduction of {y} gave {len(res.preimages)} preimages, expected {len(want)}")
        for brute in brutes:
            if brute.preimages != want:
                problems.append(f"{fn.name}: brute force of {y} gave {len(brute.preimages)} preimages, expected {len(want)}")
        if k + 1 < repeats:
            analysis()
    for _ in range(repeats - 1 - len(fn.targets)):
        analysis()


def run_round(functions, expected, tracer, problems, repeats, target_repeats):
    import traceback

    rnd = Round()
    for fn in functions:
        planned = 2 + repeats + target_repeats * len(fn.targets) + (1 + target_repeats) * fn.full_targets
        before = rnd.attempted
        try:
            run_function(fn, expected[fn.name], tracer, rnd, problems, repeats, target_repeats)
        except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
            traceback.print_exc()
            rnd.failed += planned - (rnd.attempted - before)
            rnd.attempted = before + planned
    return rnd


def check_circuits(functions, first_round, seed, problems):
    """Gate-by-gate evaluation on sampled inputs, and one dropped gate per circuit."""
    import random

    from oracle import run_gates

    rng = random.Random(seed ^ 0x5EED)
    for fn in functions:
        if fn.name not in first_round.circuits:
            continue
        circuit, f = first_round.circuits[fn.name]
        size = 1 << fn.n
        xs = range(size) if size <= EVALUATOR_SAMPLE else rng.sample(range(size), EVALUATOR_SAMPLE)
        for x in xs:
            back, out = run_gates(circuit, fn.n, fn.m, x)
            if back != x or out != workloads.bits(fn.table[x], fn.m):
                problems.append(f"{fn.name}: gate evaluation of input {x} gives {out}")
                break
        k = rng.randrange(len(circuit.gates))
        mutant = circuit.with_gates(circuit.gates[:k] + circuit.gates[k + 1:])
        mode = sim.VerifyMode.EXHAUSTIVE if circuit.width <= EXHAUSTIVE_WIDTH else sim.VerifyMode.SAMPLED
        if sim.verify_identity(mutant, synth.reverse(circuit), mode, MUTANT_SAMPLES, seed).passed:
            problems.append(f"{fn.name}: identity check passes with gate {k} dropped")
        if sim.verify_against_spec(mutant, f).passed:
            problems.append(f"{fn.name}: spec check passes with gate {k} dropped")


def falls_in(samples, q):
    """The function whose (seconds, function name) sample sits at the q-th percentile rank."""
    ranked = sorted(samples)
    return ranked[round(q / 100 * (len(ranked) - 1))][1]


def percentile(samples, q):
    """The q-th percentile (0 < q < 100), interpolated between order statistics."""
    import statistics

    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(args, functions, setup_times):
    import gc
    import resource
    import statistics

    import oracle
    from spans import NoTrace, Tracer, span_cost
    from speed import Speed

    clock = time.perf_counter
    tracer = Tracer() if args.trace else NoTrace()
    repeats = workloads.ANALYZE_REPEATS.get(args.workload, 1)
    target_repeats = workloads.TARGET_REPEATS.get(args.workload, 1)
    problems = oracle.check_published(functions)
    expected = {fn.name: oracle.Expected(fn) for fn in functions}

    rounds = []
    # (first, end) indices of each round's spans
    round_marks = []
    with Speed() as speed:
        start = clock()
        while True:
            gc.collect()
            mark = len(tracer.spans) if args.trace else 0
            t0 = clock()
            rnd = run_round(functions, expected, tracer, problems, repeats, target_repeats)
            if rounds:
                for name, (circuit, _f) in rnd.circuits.items():
                    if circuit != rounds[0].circuits[name][0]:
                        problems.append(f"{name}: round {len(rounds)} synthesized a different circuit")
                rnd.circuits = {}
                if rnd.counts != rounds[0].counts:
                    problems.append(f"round {len(rounds)} counts differ from round 0")
            rounds.append(rnd)
            if len(rounds) == 1:
                # Later rounds repeat the same work; the first one's high-water
                # mark is the same whether or not another round fits.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                round_marks.append((mark, len(tracer.spans)))
            last = clock() - t0
            if clock() - start + last > args.seconds:
                break
        measured_s = clock() - start

    check_circuits(functions, rounds[0], args.seed, problems)

    def med(values):
        return statistics.median(values)

    def stage_s(stage):
        per_fn = [[speed.scaled(*t) for r in rounds for t in r.stages[stage].get(fn.name, ())]
                  for fn in functions]
        return sum(med(ts) for ts in per_fn if ts)

    def per_target(kind):
        """(seconds, function name) per target: the median of its times over the rounds and repeats."""
        times = {}
        for r in rounds:
            for t0, t1, name, k in getattr(r, kind):
                times.setdefault((name, k), []).append(speed.scaled(t0, t1))
        return [(med(ts), name) for (name, _k), ts in times.items()]

    samples = {kind: per_target(kind) for kind in ("deduce", "first", "brute")}
    deduce, first, brute = ([t * 1e3 for t, _name in samples[kind]] for kind in ("deduce", "first", "brute"))

    metrics = {
        "compile_s": stage_s("compile"),
        "gates_total": rounds[0].gates_total,
        "verify_s": stage_s("verify"),
        "analyze_s": stage_s("analyze"),
        "deduce_ms.p50": med(deduce),
        "deduce_ms.p90": percentile(deduce, 90),
        "first_ms.p50": med(first),
        "brute_ms.p50": med(brute),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "rounds": len(rounds),
        "targets_per_round": sum(len(fn.targets) for fn in functions),
        "measured_s": measured_s,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems[:20],
        "falls_in": {
            "deduce_ms.p50": falls_in(samples["deduce"], 50),
            "deduce_ms.p90": falls_in(samples["deduce"], 90),
            "first_ms.p50": falls_in(samples["first"], 50),
            "brute_ms.p50": falls_in(samples["brute"], 50),
        },
        "setup": setup_times,
        "probe_ms": {"min": min(speed.took) * 1e3, "median": med(speed.took) * 1e3, "count": len(speed.took)},
        "metrics": metrics,
    }
    if args.trace:
        layers = dict(rounds[0].counts)
        layers["invert.preimages_per_branch"] = layers["invert.preimages"] / max(1, layers["invert.branches"])
        round_spans = [tracer.totals(a, b, speed.scaled) for a, b in round_marks]
        for span_name, metric in LAYER_TIMES.items():
            per_pass = (repeats if span_name.startswith("analyze.")
                        else target_repeats if metric in ("invert.first_s", "invert.brute_s") else 1)
            layers[metric] = med([totals.get(span_name, 0.0) for totals in round_spans]) / per_pass
        cost = span_cost()
        spans_per_round = len(tracer.spans) / len(rounds)
        result["layers"] = layers
        result["trace"] = {
            "span_cost_s": cost,
            "spans_per_round": spans_per_round,
            "overhead_share": cost * spans_per_round / (measured_s / len(rounds)),
            "summary": tracer.summary(speed.scaled),
            "spans": tracer.spans,
        }
    return result


def main(argv=None):
    import json

    args = parse_args(sys.argv[1:] if argv is None else argv)
    functions, setup_times = setup(args)
    if args.mode == "setup":
        print(json.dumps(setup_times))
        return
    print(json.dumps(measure(args, functions, setup_times)))


if __name__ == "__main__":
    main()

"""Command-line frontend for the synthesis / reversal / inversion pipeline.

Exit codes: 0 success, 1 input or usage error, 2 resource limit,
3 verification failure. With --format json the machine-readable document
goes to stdout and human-readable text to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analyze, corpus, esop, invert, sim, synth
from .circuit import Circuit, read_circuit_json, write_circuit_json
from .errors import PlaParseError, ResourceLimitError
from .synth import read_real, write_real

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3

ENV_LIMIT = "REVHASH_EXHAUSTIVE_LIMIT"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PlaParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage line and reach main as ValueError, so they
    exit 1 as input errors do; argparse's exit 2 would read as a resource limit.

    The `--exhaustive-limit` default is read from the environment only once a
    subcommand that sweeps was chosen, so a bad value cannot fail `--help` or
    a subcommand that runs no sweep."""
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if getattr(namespace, "exhaustive_limit", 0) is None:
            namespace.exhaustive_limit = _limit(os.environ.get(ENV_LIMIT, sim.EXHAUSTIVE_LIMIT), ENV_LIMIT)
        return namespace, rest


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revhash",
        description="Synthesize reversible circuits from .pla tables, reverse them, "
                    "and recover hash preimages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit from a .pla file")
    p.add_argument("pla", type=Path)
    p.add_argument("-o", "--output", type=Path, help="write RevLib-style .real here")
    p.add_argument("--json-circuit", type=Path, help="write the JSON circuit document here")
    p.add_argument("--no-minimize", action="store_true", help="skip cube minimization")
    _format_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reverse", help="reverse the gate order of a circuit file")
    p.add_argument("circuit", type=Path, help=".real or circuit .json")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("simulate", help="run a circuit or .pla forward on one input")
    p.add_argument("path", type=Path)
    p.add_argument("--input", required=True, help="input bit vector, e.g. 0110")
    _format_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("invert", help="find preimages of a target output")
    p.add_argument("path", type=Path, help=".pla, .real, or circuit .json")
    p.add_argument("--target", required=True, help="output bit vector, e.g. 1001")
    p.add_argument("--brute", action="store_true", help="use brute force instead of deduction")
    p.add_argument("--first", action="store_true", help="stop at the first preimage")
    _limit_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="synthesize, reverse, and verify identity + equivalence")
    p.add_argument("pla", type=Path)
    p.add_argument("--mutate-drop-gate", type=int, metavar="K",
                   help="drop gate K from the forward circuit first (fault-injection check)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled verification")
    p.add_argument("--samples", type=int, default=10_000,
                   help="sample count when the width exceeds the exhaustive limit")
    _limit_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="avalanche and collision reports for a .pla")
    p.add_argument("pla", type=Path)
    _limit_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="benchmark every .pla in a directory")
    p.add_argument("corpus", type=Path)
    p.add_argument("--json-lines", type=Path, help="also write one JSON record per line here")
    _format_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("corpus", help="write the built-in benchmark .pla files")
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--include-demo", action="store_true",
                   help="also write the 4-bit demonstration hash")
    p.set_defaults(func=cmd_corpus)

    return parser


def _limit_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exhaustive-limit", action=_LimitFlag,
                   help=f"log2 of the most states an exhaustive sweep may cover (env {ENV_LIMIT})")


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _limit(raw: str | int, source: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return value


class _LimitFlag(argparse.Action):
    """Checks like _limit: ValueError passes argparse, so main exits 1, not 2."""
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, _limit(values, option_string))


def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(doc, indent=2))
        if text:
            print(text, file=sys.stderr)
    else:
        print(text)


def _load_circuit(path: Path) -> Circuit:
    if path.suffix == ".json":
        return read_circuit_json(path.read_text())
    if path.suffix == ".real":
        return read_real(path.read_text())
    raise ValueError(f"cannot read a circuit from {path} (want .real or .json)")


def _pipeline(path: Path, minimize: bool):
    f = esop.read_cover(path.read_text())
    cover = esop.from_pla(f)
    if minimize:
        cover = esop.minimize(cover)
    circuit = synth.synthesize(cover, name=path.stem)
    return f, cover, circuit


def cmd_synth(args) -> int:
    f, cover, circuit = _pipeline(args.pla, not args.no_minimize)
    st = synth.stats(circuit)
    cc = esop.cost(cover)
    if args.output:
        args.output.write_text(write_real(circuit))
    if args.json_circuit:
        args.json_circuit.write_text(write_circuit_json(circuit))
    doc = {
        "name": circuit.name,
        "inputs": f.n,
        "outputs": f.m,
        "minimized": not args.no_minimize,
        "cover": {"cubes": cc.cube_count, "literals": cc.literal_count, "output_ones": cc.output_ones},
        "gates": st.to_json_dict(),
    }
    text = (
        f"{circuit.name}: {f.n} inputs, {f.m} outputs\n"
        f"cover: {cc.cube_count} cubes, {cc.literal_count} literals\n"
        f"gates: {st.total} total after NOT expansion/cleanup "
        f"(by controls: {st.by_controls})"
    )
    _emit(args, doc, text)
    return EXIT_OK


def cmd_reverse(args) -> int:
    circuit = _load_circuit(args.circuit)
    reversed_circuit = synth.reverse(circuit)
    if args.output.suffix == ".json":
        args.output.write_text(write_circuit_json(reversed_circuit))
    else:
        args.output.write_text(write_real(reversed_circuit))
    print(f"wrote {args.output} ({len(reversed_circuit.gates)} gates)", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.path.suffix == ".pla":
        f, _, circuit = _pipeline(args.path, True)
    else:
        circuit = _load_circuit(args.path)
    x = args.input
    if len(x) != circuit.num_inputs:
        raise ValueError(f"input length {len(x)} != circuit inputs {circuit.num_inputs}")
    state = x + "0" * circuit.num_outputs
    final = sim.run(circuit, state)
    out = final[circuit.num_inputs:]
    doc = {"input": x, "output": out, "final_state": final}
    _emit(args, doc, f"{x} -> {out}")
    return EXIT_OK


def cmd_invert(args) -> int:
    y, limit = args.target, args.exhaustive_limit
    if args.brute:
        fn = esop.read_cover(args.path.read_text()) if args.path.suffix == ".pla" else _load_circuit(args.path)
        result = invert.preimages_bruteforce(fn, y, limit=limit)
    else:
        if args.path.suffix == ".pla":
            f, _, circuit = _pipeline(args.path, True)
        else:
            f = circuit = _load_circuit(args.path)
        if args.first:
            x = invert.preimage_one(circuit, y, limit=limit)
            doc = {"target": y, "preimage": x}
            _emit(args, doc, f"{y} <- {x if x is not None else '(none)'}")
            return EXIT_OK
        result = invert.preimages_deduce(circuit, y, limit=limit)
        if circuit.num_inputs <= limit:
            oracle = invert.preimages_bruteforce(f, y, limit=limit)
            if oracle.preimages != result.preimages:
                print("error: deduction disagrees with brute-force cross-check", file=sys.stderr)
                return EXIT_VERIFY

    doc = result.to_json_dict()
    lines = [f"{y} <- {len(result.preimages)} preimage(s)"]
    lines += [f"  {x}" for x in result.preimages]
    lines.append(f"method={result.method} branches={result.branches} "
                 f"propagations={result.propagations} elapsed={result.elapsed:.4f}s")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    f, cover, circuit = _pipeline(args.pla, True)
    reversed_circuit = synth.reverse(circuit)
    forward = circuit
    if args.mutate_drop_gate is not None:
        k = args.mutate_drop_gate
        if not (0 <= k < len(circuit.gates)):
            raise ValueError(f"gate index {k} out of range (0..{len(circuit.gates) - 1})")
        forward = circuit.with_gates(circuit.gates[:k] + circuit.gates[k + 1:])

    mode = sim.VerifyMode.EXHAUSTIVE if forward.width <= args.exhaustive_limit else sim.VerifyMode.SAMPLED
    identity = sim.verify_identity(forward, reversed_circuit, mode=mode, samples=args.samples,
                                   seed=args.seed, width_limit=args.exhaustive_limit)
    spec_check = sim.verify_against_spec(forward, f, limit=args.exhaustive_limit)

    doc = {"identity": identity.to_json_dict(), "equivalence": spec_check.to_json_dict()}
    text = (
        f"identity: {'pass' if identity.passed else 'FAIL'} "
        f"({identity.states_checked} states, {identity.mode.value})"
        + (f" counterexample={identity.counterexample}" if identity.counterexample else "")
        + "\n"
        f"equivalence: {'pass' if spec_check.passed else 'FAIL'} "
        f"({spec_check.states_checked} inputs)"
        + (f" counterexample={spec_check.counterexample}" if spec_check.counterexample else "")
    )
    _emit(args, doc, text)
    return EXIT_OK if identity.passed and spec_check.passed else EXIT_VERIFY


def cmd_analyze(args) -> int:
    f = esop.read_cover(args.pla.read_text())
    av = analyze.avalanche_check(f, limit=args.exhaustive_limit)
    col = analyze.collision_scan(f, limit=args.exhaustive_limit)
    doc = {
        "avalanche": {
            "applicable": av.applicable,
            "threshold": av.threshold,
            "part1_pass": av.part1_pass,
            "part1_violations": len(av.part1_violations),
            "part2_pass": av.part2_pass,
            "part2_violations": len(av.part2_violations),
        },
        "collisions": {
            "injective": col.injective,
            "colliding_groups": len(col.colliding_groups),
        },
    }
    text = (
        f"avalanche: threshold {av.threshold}; "
        f"part1 {'pass' if av.part1_pass else 'fail'}"
        f"{'' if av.applicable else ' (n != m, not applicable)'}"
        f" ({len(av.part1_violations)} violations); "
        f"part2 {'pass' if av.part2_pass else 'fail'}"
        f" ({len(av.part2_violations)} violations)\n"
        f"collisions: {'injective' if col.injective else f'{len(col.colliding_groups)} colliding group(s)'}"
    )
    _emit(args, doc, text)
    return EXIT_OK


def cmd_bench(args) -> int:
    paths = sorted(args.corpus.glob("*.pla"))
    records, table = analyze.bench_run(paths)
    if args.json_lines:
        args.json_lines.write_text(analyze.bench_json_lines(records))
    doc = {"records": [r.to_json_dict() for r in records]}
    _emit(args, doc, table)
    if records and all(r.error for r in records):
        return EXIT_INPUT
    return EXIT_OK


def cmd_corpus(args) -> int:
    paths = corpus.write_corpus(args.output, include_demo=args.include_demo)
    print(f"wrote {len(paths)} .pla files to {args.output}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

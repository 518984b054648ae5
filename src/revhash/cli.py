"""Command-line frontend for the synthesis / reversal / inversion pipeline.

Exit codes: 0 success, 1 input or usage error, 2 resource limit,
3 verification failure. With --format json the machine-readable document
goes to stdout and human-readable text to stderr. Each warning of the .pla
parser goes to stderr as `warning: <message>`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import analyze, corpus, esop, invert, sim, synth
from .circuit import Circuit, read_circuit_json, write_circuit_json
from .errors import EXHAUSTIVE_LIMIT, PlaParseError, ResourceLimitError
from .pla import PlaFunction
from .synth import read_real, write_real

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3


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
    exit 1 as input errors do; argparse's exit 2 would read as a resource limit."""
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


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
    method = p.add_mutually_exclusive_group()
    method.add_argument("--brute", action="store_true", help="use brute force instead of deduction")
    method.add_argument("--first", action="store_true", help="stop at the first preimage")
    _limit_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="synthesize, reverse, and verify identity + equivalence")
    p.add_argument("pla", type=Path)
    p.add_argument("--mutate-drop-gate", type=int, metavar="K",
                   help="drop gate K from the forward circuit first (fault-injection check)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled verification")
    p.add_argument("--samples", type=int, default=10_000,
                   help=f"sample count, at most 2^{EXHAUSTIVE_LIMIT}, when the width exceeds the exhaustive limit")
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
    p.add_argument("--exhaustive-limit", action=_LimitFlag, default=EXHAUSTIVE_LIMIT,
                   help=f"log2 of the most states an exhaustive sweep may cover (default {EXHAUSTIVE_LIMIT})")


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


class _LimitFlag(argparse.Action):
    """Stores a non-negative integer; any other value raises ValueError, which
    argparse lets through, so main exits 1, not 2."""
    def __call__(self, parser, namespace, values, option_string=None):
        try:
            value = int(values)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(f"{option_string} must be a non-negative integer, got {values!r}")
        setattr(namespace, self.dest, value)


def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(doc, indent=2))
        if text:
            print(text, file=sys.stderr)
    else:
        print(text)


def _read_cover(path: Path, prefix: str = "") -> esop.EsopCover | PlaFunction:
    """`esop.read_cover` of the file; each parse warning goes to stderr after `prefix`."""
    return esop.read_cover(path.read_text(),
                           lambda message: print(f"warning: {prefix}{message}", file=sys.stderr))


def _load_circuit(path: Path) -> Circuit:
    if path.suffix == ".json":
        return read_circuit_json(path.read_text())
    if path.suffix == ".real":
        return read_real(path.read_text())
    raise ValueError(f"cannot read a circuit from {path} (want .real or .json)")


class _Compiled(NamedTuple):
    cover: esop.EsopCover
    circuit: Circuit
    minimized: bool
    seconds: dict[str, float]


def _pipeline(f, name: str, minimize: bool) -> _Compiled:
    """The one compile path: the cover `esop.read_cover` returned, as an XOR
    cover, minimized when asked, then synthesized; minimize and synthesize are timed."""
    cover = esop.from_pla(f)
    t0 = time.perf_counter()
    if minimize:
        cover = esop.minimize(cover)
    t1 = time.perf_counter()
    circuit = synth.synthesize(cover, name=name)
    return _Compiled(cover, circuit, minimize,
                     {"minimize": t1 - t0, "synthesize": time.perf_counter() - t1})


def _report(run: _Compiled) -> dict:
    """The `synth --format json` document of one pipeline run."""
    cc = esop.cost(run.cover)
    return {
        "name": run.circuit.name,
        "inputs": run.cover.n,
        "outputs": run.cover.m,
        "minimized": run.minimized,
        "cover": {"cubes": cc.cube_count, "literals": cc.literal_count, "output_ones": cc.output_ones},
        "gates": synth.stats(run.circuit).to_json_dict(),
        "seconds": run.seconds,
    }


def cmd_synth(args) -> int:
    run = _pipeline(_read_cover(args.pla), args.pla.stem, not args.no_minimize)
    if args.output:
        args.output.write_text(write_real(run.circuit))
    if args.json_circuit:
        args.json_circuit.write_text(write_circuit_json(run.circuit))
    doc = _report(run)
    cover, gates = doc["cover"], doc["gates"]
    text = (
        f"{doc['name']}: {doc['inputs']} inputs, {doc['outputs']} outputs\n"
        f"cover: {cover['cubes']} cubes, {cover['literals']} literals\n"
        f"gates: {gates['total']} total after NOT expansion/cleanup "
        f"(by controls: {gates['by_controls']})"
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
    st = synth.stats(reversed_circuit)
    print(f"wrote {args.output} ({st.total} gates after NOT expansion/cleanup, {st.raw_gates} raw)",
          file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.path.suffix == ".pla":
        # Minimizing cannot change the outputs, so the simulated circuit skips it.
        circuit = _pipeline(_read_cover(args.path), args.path.stem, False).circuit
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
        fn = _read_cover(args.path) if args.path.suffix == ".pla" else _load_circuit(args.path)
        result = invert.preimages_bruteforce(fn, y, limit=limit)
    else:
        if args.path.suffix == ".pla":
            f = _read_cover(args.path)
            circuit = _pipeline(f, args.path.stem, True).circuit
        else:
            f = circuit = _load_circuit(args.path)
        if args.first:
            x = invert.preimage_one(circuit, y, limit=limit)
            found = (x,) if x is not None else ()
        else:
            result = invert.preimages_deduce(circuit, y, limit=limit)
            found = result.preimages
        if circuit.num_inputs <= limit:
            oracle = invert.preimages_bruteforce(f, y, limit=limit).preimages
            if found != (oracle[:1] if args.first else oracle):
                print("error: deduction disagrees with brute-force cross-check", file=sys.stderr)
                return EXIT_VERIFY
        if args.first:
            _emit(args, {"target": y, "preimage": x}, f"{y} <- {x if x is not None else '(none)'}")
            return EXIT_OK

    doc = result.to_json_dict()
    lines = [f"{y} <- {len(result.preimages)} preimage(s)"]
    lines += [f"  {x}" for x in result.preimages]
    lines.append(f"method={result.method} branches={result.branches} "
                 f"propagations={result.propagations} elapsed={result.elapsed:.4f}s")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    f = _read_cover(args.pla)
    circuit = _pipeline(f, args.pla.stem, True).circuit
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
    f = _read_cover(args.pla)
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
    if not args.corpus.is_dir():
        raise ValueError(f"{args.corpus} is not a directory")
    paths = sorted(args.corpus.glob("*.pla"))
    if not paths:
        raise ValueError(f"no .pla files in {args.corpus}")
    records = [_bench_record(path) for path in paths]
    if args.json_lines:
        args.json_lines.write_text("".join(json.dumps(r) + "\n" for r in records))
    _emit(args, {"records": records}, "\n".join(_bench_line(r) for r in records))
    return EXIT_INPUT if all("error" in r for r in records) else EXIT_OK


def _bench_record(path: Path) -> dict:
    """The `synth` documents of one .pla with and without minimization, or its error."""
    try:
        f = _read_cover(path, f"{path.name}: ")
        return {"name": path.stem,
                "minimized": _report(_pipeline(f, path.stem, True)),
                "unminimized": _report(_pipeline(f, path.stem, False))}
    except (OSError, ValueError, ResourceLimitError) as exc:
        return {"name": path.stem, "error": str(exc)}


def _bench_line(record: dict) -> str:
    if "error" in record:
        return f"{record['name']}: error: {record['error']}"
    done, raw = record["minimized"], record["unminimized"]
    return (
        f"{record['name']}: {done['inputs']} in, {done['outputs']} out; "
        f"cubes {raw['cover']['cubes']} -> {done['cover']['cubes']} "
        f"(minimize {done['seconds']['minimize']:.4f} s); "
        f"gates {done['gates']['total']} minimized, {raw['gates']['total']} not "
        f"(synthesize {done['seconds']['synthesize']:.4f} s, {raw['seconds']['synthesize']:.4f} s)"
    )


def cmd_corpus(args) -> int:
    paths = corpus.write_corpus(args.output, include_demo=args.include_demo)
    print(f"wrote {len(paths)} .pla files to {args.output}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

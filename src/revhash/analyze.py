"""Hash-quality checks (avalanche, collisions) and benchmark reporting."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import esop, synth
from .pla import PlaFunction, int_to_bits
from .sim import EXHAUSTIVE_LIMIT, _columns, forward_words


@dataclass(frozen=True)
class AvalancheReport:
    """Two-part avalanche check at threshold ceil(m/2).

    Part 1 (outputs differ from inputs) only makes sense when n == m;
    otherwise `applicable` is False and part 1 is vacuously clean.
    """

    applicable: bool
    part1_pass: bool
    part1_violations: tuple[str, ...]
    part2_pass: bool
    part2_violations: tuple[tuple[str, str], ...]
    threshold: int

    @property
    def passed(self) -> bool:
        return (self.part1_pass or not self.applicable) and self.part2_pass


def avalanche_check(f: PlaFunction, limit: int = EXHAUSTIVE_LIMIT) -> AvalancheReport:
    """Exhaustive two-part avalanche evaluation.

    Part 1: every input differs from its output by at least ceil(m/2) bit
    positions (requires n == m). Part 2: inputs at Hamming distance 1 map
    to outputs at distance at least ceil(m/2).
    """
    table = _columns(forward_words(f, limit), 1 << f.n)
    threshold = (f.m + 1) // 2
    applicable = f.n == f.m

    part1: list[str] = []
    if applicable:
        for x in range(1 << f.n):
            if (x ^ table[x]).bit_count() < threshold:
                part1.append(int_to_bits(x, f.n))

    part2: list[tuple[str, str]] = []
    for x in range(1 << f.n):
        for i in range(f.n):
            other = x | (1 << i)
            if other == x:
                continue
            if (table[x] ^ table[other]).bit_count() < threshold:
                part2.append((int_to_bits(x, f.n), int_to_bits(other, f.n)))

    return AvalancheReport(
        applicable=applicable,
        part1_pass=not part1,
        part1_violations=tuple(part1),
        part2_pass=not part2,
        part2_violations=tuple(part2),
        threshold=threshold,
    )


@dataclass(frozen=True)
class CollisionReport:
    injective: bool
    buckets: dict[str, tuple[str, ...]]  # every output seen -> its inputs

    @property
    def colliding_groups(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(out, xs) for out, xs in self.buckets.items() if len(xs) > 1]


def collision_scan(f: PlaFunction, limit: int = EXHAUSTIVE_LIMIT) -> CollisionReport:
    """Bucket every input by output value; group sizes always sum to 2^n."""
    table = _columns(forward_words(f, limit), 1 << f.n)
    buckets: dict[str, list[str]] = {}
    for x, out in enumerate(table):
        buckets.setdefault(int_to_bits(out, f.m), []).append(int_to_bits(x, f.n))
    frozen = {out: tuple(xs) for out, xs in sorted(buckets.items())}
    return CollisionReport(
        injective=all(len(xs) == 1 for xs in frozen.values()),
        buckets=frozen,
    )


@dataclass
class BenchRecord:
    name: str
    n: int = 0
    m: int = 0
    cube_count_before: int = 0
    cube_count_after: int = 0
    minimize_seconds: float = 0.0
    synth_seconds_minimized: float = 0.0
    synth_seconds_unminimized: float = 0.0
    gates_minimized: int = 0
    gates_unminimized: int = 0
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def bench_function(name: str, f: PlaFunction | esop.EsopCover) -> BenchRecord:
    """Run the pipeline with and without minimization and record the stats.

    Timed phases use a monotonic clock and cover only minimization and
    synthesis (through NOT cleanup); parsing and cover preparation are
    excluded so the numbers compare across differently-sized files.
    """
    cover = esop.from_pla(f)

    t0 = time.perf_counter()
    minimized = esop.minimize(cover)
    t_min = time.perf_counter() - t0

    t0 = time.perf_counter()
    circuit_min = synth.synthesize(minimized, name=name)
    stats_min = synth.stats(circuit_min)
    t_synth_min = time.perf_counter() - t0

    t0 = time.perf_counter()
    circuit_raw = synth.synthesize(cover, name=name)
    stats_raw = synth.stats(circuit_raw)
    t_synth_raw = time.perf_counter() - t0

    return BenchRecord(
        name=name,
        n=f.n,
        m=f.m,
        cube_count_before=len(cover.cubes),
        cube_count_after=len(minimized.cubes),
        minimize_seconds=t_min,
        synth_seconds_minimized=t_synth_min,
        synth_seconds_unminimized=t_synth_raw,
        gates_minimized=stats_min.total,
        gates_unminimized=stats_raw.total,
    )


def bench_run(paths) -> tuple[list[BenchRecord], str]:
    """Benchmark each .pla file, read by esop.read_cover; per-file failures go into the record."""
    records = []
    for path in paths:
        path = Path(path)
        name = path.stem
        try:
            records.append(bench_function(name, esop.read_cover(path.read_text())))
        except Exception as exc:  # noqa: BLE001 - batch keeps going
            records.append(BenchRecord(name=name, error=str(exc)))
    return records, render_bench_table(records)


_COLUMNS = [
    ("Function", lambda r: r.name),
    ("In", lambda r: str(r.n)),
    ("Out", lambda r: str(r.m)),
    ("Cubes", lambda r: f"{r.cube_count_before}->{r.cube_count_after}"),
    ("Min Time", lambda r: f"{r.minimize_seconds:.4f} s"),
    ("Synth (min)", lambda r: f"{r.synth_seconds_minimized:.4f} s"),
    ("Gates (min)", lambda r: str(r.gates_minimized)),
    ("Synth (no min)", lambda r: f"{r.synth_seconds_unminimized:.4f} s"),
    ("Gates (no min)", lambda r: str(r.gates_unminimized)),
]


def render_bench_table(records) -> str:
    rows = [[title for title, _ in _COLUMNS]]
    for r in records:
        if r.error:
            rows.append([r.name, "-", "-", f"error: {r.error}", "", "", "", "", ""])
        else:
            rows.append([fmt(r) for _, fmt in _COLUMNS])
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(_COLUMNS))))
    return "\n".join(lines) + "\n"


def bench_json_lines(records) -> str:
    return "\n".join(json.dumps(r.to_json_dict()) for r in records) + "\n"

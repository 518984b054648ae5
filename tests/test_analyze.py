import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash.analyze import AvalancheReport, CollisionReport, avalanche_check, collision_scan
from revhash.cli import main
from revhash.errors import ResourceLimitError
from revhash.esop import EsopCover
from revhash.pla import PlaFunction, bits_to_int, int_to_bits

from revhash import corpus
from conftest import covers, evaluate_esop, evaluate_pla, random_truth_table


def fn_to_pla(n, m, fn):
    return corpus.table_to_pla("t", n, m, fn)


def oracle_table(f):
    """Output value per input, one single-state evaluation each."""
    evaluate = evaluate_esop if isinstance(f, EsopCover) else evaluate_pla
    return [bits_to_int(evaluate(f, int_to_bits(x, f.n))) for x in range(1 << f.n)]


def oracle_avalanche(f):
    """The per-input loop the word-wise check replaces."""
    table = oracle_table(f)
    threshold = (f.m + 1) // 2
    applicable = f.n == f.m

    part1 = []
    if applicable:
        for x in range(1 << f.n):
            if (x ^ table[x]).bit_count() < threshold:
                part1.append(int_to_bits(x, f.n))

    part2 = []
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


def oracle_collisions(f):
    """The per-input bucketing the word-wise scan replaces."""
    buckets = {}
    for x, out in enumerate(oracle_table(f)):
        buckets.setdefault(int_to_bits(out, f.m), []).append(int_to_bits(x, f.n))
    frozen = {out: tuple(xs) for out, xs in sorted(buckets.items())}
    return CollisionReport(
        injective=all(len(xs) == 1 for xs in frozen.values()),
        buckets=frozen,
    )


@settings(max_examples=150, deadline=None)
@given(covers(max_m=8), st.sampled_from([PlaFunction, EsopCover]))
def test_analysis_matches_per_input_oracle(case, kind):
    n, m, cubes = case
    f = kind(n=n, m=m, cubes=tuple(cubes))
    assert avalanche_check(f) == oracle_avalanche(f)
    got, want = collision_scan(f), oracle_collisions(f)
    assert got == want
    assert list(got.buckets) == list(want.buckets)


def test_avalanche_identity_fails_part1():
    report = avalanche_check(fn_to_pla(1, 1, lambda x: x))
    assert report.applicable and report.threshold == 1
    assert not report.part1_pass
    assert set(report.part1_violations) == {"0", "1"}


def test_avalanche_inverter_passes():
    report = avalanche_check(fn_to_pla(1, 1, lambda x: x ^ 1))
    assert report.part1_pass and report.part2_pass and report.passed


def test_avalanche_not_applicable_when_arity_differs():
    report = avalanche_check(dict(corpus.corpus_functions())["des_sbox1"])
    assert not report.applicable
    assert report.part1_pass and not report.part1_violations
    assert report.threshold == 2


def test_avalanche_aes_sbox_matches_direct_computation():
    table = corpus.aes_sbox()
    report = avalanche_check(dict(corpus.corpus_functions())["aes_sbox"])
    assert report.threshold == 4

    # Independent recomputation straight from the table.
    part1 = {x for x in range(256) if bin(x ^ table[x]).count("1") < 4}
    part2 = set()
    for x in range(256):
        for i in range(8):
            other = x | (1 << i)
            if other != x and bin(table[x] ^ table[other]).count("1") < 4:
                part2.add((x, other))

    def packed(x):  # report strings use MSB-first text of the numeric input
        return format(x, "08b")

    assert {v for v in report.part1_violations} == {packed(x) for x in part1}
    assert report.part1_pass == (not part1)
    assert len(report.part2_violations) == len(part2)
    assert report.part2_pass == (not part2)
    # The AES S-box is not an avalanche-satisfying hash.
    assert not report.passed


def test_avalanche_hash8_passes():
    report = avalanche_check(dict(corpus.corpus_functions())["hash8_avalanche"])
    assert report.applicable and report.passed
    assert report.part1_pass and report.part2_pass


def test_avalanche_limit():
    f = PlaFunction(n=5, m=5, cubes=())
    with pytest.raises(ResourceLimitError):
        avalanche_check(f, limit=4)


def test_collision_aes_sbox_injective():
    report = collision_scan(dict(corpus.corpus_functions())["aes_sbox"])
    assert report.injective
    assert not report.colliding_groups


def test_collision_des_sbox_groups():
    report = collision_scan(dict(corpus.corpus_functions())["des_sbox1"])
    assert not report.injective
    # 64 inputs over 16 outputs; every output is hit (rows are permutations).
    assert len(report.buckets) == 16
    assert all(len(xs) == 4 for xs in report.buckets.values())


def test_collision_constant_function():
    report = collision_scan(fn_to_pla(3, 2, lambda x: 1))
    assert len(report.buckets) == 1
    (xs,) = report.buckets.values()
    assert len(xs) == 8


def test_collision_group_sizes_sum():
    rng = random.Random(41)
    for _ in range(100):
        f = random_truth_table(rng, rng.randint(1, 4), rng.randint(1, 3))
        report = collision_scan(f)
        assert sum(len(xs) for xs in report.buckets.values()) == 1 << f.n


def test_bench_run_batch_resilient(tmp_path, capsys):
    corpus.write_corpus(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    for name in ("aes4_sbox.pla", "present_sbox.pla"):
        (batch / name).write_text((tmp_path / name).read_text())
    (batch / "broken.pla").write_text(".i 2\nnot a pla\n")
    assert main(["bench", str(batch), "--format", "json"]) == 0
    captured = capsys.readouterr()
    records = json.loads(captured.out)["records"]
    assert len(records) == 3
    assert [r["name"] for r in records if "error" in r] == ["broken"]
    assert "broken: error: " in captured.err and "aes4_sbox: " in captured.err

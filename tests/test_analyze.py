import json
import random

import pytest

from revhash.analyze import avalanche_check, collision_scan
from revhash.cli import main
from revhash.errors import ResourceLimitError
from revhash.pla import PlaFunction

from revhash import corpus
from conftest import random_truth_table


def fn_to_pla(n, m, fn):
    return corpus.table_to_pla("t", n, m, fn)


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

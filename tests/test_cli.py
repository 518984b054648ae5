import json

import pytest

from revhash.circuit import CNOT, Circuit, write_circuit_json
from revhash.cli import main
from revhash.esop import EsopCover, evaluate_esop, write_esop
from revhash.pla import Cube, int_to_bits

from revhash import corpus, synth


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(path, include_demo=True)
    return path


def test_synth_writes_outputs(corpus_dir, tmp_path, capsys):
    real = tmp_path / "c.real"
    doc = tmp_path / "c.json"
    code = main(["synth", str(corpus_dir / "aes4_sbox.pla"),
                 "-o", str(real), "--json-circuit", str(doc), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inputs"] == 4 and payload["outputs"] == 4
    assert payload["gates"]["total"] > 0
    assert real.exists() and doc.exists()
    assert ".numvars 8" in real.read_text()


def test_synth_no_minimize_gate_counts(corpus_dir, capsys):
    assert main(["synth", str(corpus_dir / "aes4_sbox.pla"), "--format", "json"]) == 0
    minimized = json.loads(capsys.readouterr().out)
    assert main(["synth", str(corpus_dir / "aes4_sbox.pla"), "--no-minimize", "--format", "json"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["gates"]["total"] == 60
    assert minimized["gates"]["total"] < raw["gates"]["total"]


def test_synth_missing_file_exit_code():
    assert main(["synth", "nonexistent.pla"]) == 1


def test_synth_and_cover_single_gate(tmp_path, capsys):
    pla = tmp_path / "and.pla"
    pla.write_text(".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e\n")
    assert main(["synth", str(pla), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gates"]["total"] == 1
    assert payload["cover"]["cubes"] == 1


def test_simulate_demo(corpus_dir, capsys):
    code = main(["simulate", str(corpus_dir / "demo_hash4.pla"), "--input", "0110",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["output"] == "1001"


def test_simulate_negative_line_is_input_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"inputs": 2, "outputs": 1, "gates": [{"target": -1}]}))
    assert main(["simulate", str(doc), "--input", "01"]) == 1
    assert "negative line" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("no_gates.json", json.dumps({"inputs": 2, "outputs": 1})),
    ("str_target.json", json.dumps({"inputs": 2, "outputs": 1, "gates": [{"target": "1"}]})),
    ("list.json", json.dumps([{"target": 2}])),
    ("no_outputs.real", "# revhash inputs=2\n.version 1.0\n.numvars 3\n.variables x0 x1 y0\n"
                        ".begin\nt2 x0 y0\n.end\n"),
    ("empty_gate.real", "# revhash inputs=2 outputs=1\n.version 1.0\n.numvars 3\n"
                        ".variables x0 x1 y0\n.begin\nt0\n.end\n"),
], ids=["no-gates", "str-target", "top-level-list", "real-no-outputs", "real-empty-gate"])
def test_simulate_malformed_circuit_is_input_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["simulate", str(path), "--input", "01"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_invert_demo(corpus_dir, capsys):
    code = main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preimages"] == ["0110"]
    assert payload["method"] == "deduction"


def test_invert_and_function(tmp_path, capsys):
    pla = tmp_path / "and.pla"
    pla.write_text(".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e\n")
    assert main(["invert", str(pla), "--target", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preimages"] == ["00", "01", "10"]


def test_invert_empty_set_is_success(tmp_path, capsys):
    pla = tmp_path / "zero.pla"
    pla.write_text(".i 1\n.o 1\n0 0\n1 0\n.e\n")
    assert main(["invert", str(pla), "--target", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preimages"] == []


def test_invert_brute_flag(corpus_dir, capsys):
    assert main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--brute", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "bruteforce"
    assert payload["preimages"] == ["0110"]


def test_invert_first_flag(corpus_dir, capsys):
    assert main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--first", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["preimage"] == "0110"


def test_invert_arity_mismatch(corpus_dir):
    assert main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "10011"]) == 1


def test_invert_from_real_file(corpus_dir, tmp_path, capsys):
    real = tmp_path / "demo.real"
    assert main(["synth", str(corpus_dir / "demo_hash4.pla"), "-o", str(real)]) == 0
    capsys.readouterr()
    assert main(["invert", str(real), "--target", "1001", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["0110"]


def test_verify_pass(corpus_dir):
    assert main(["verify", str(corpus_dir / "demo_hash4.pla")]) == 0
    assert main(["verify", str(corpus_dir / "des_sbox1.pla")]) == 0


def test_verify_mutation_fails(corpus_dir):
    assert main(["verify", str(corpus_dir / "aes4_sbox.pla"), "--mutate-drop-gate", "0"]) == 3


def test_verify_mutation_bad_index(corpus_dir):
    assert main(["verify", str(corpus_dir / "aes4_sbox.pla"), "--mutate-drop-gate", "9999"]) == 1


def test_reverse_roundtrip(corpus_dir, tmp_path, capsys):
    real = tmp_path / "fwd.real"
    rev = tmp_path / "rev.real"
    assert main(["synth", str(corpus_dir / "demo_hash4.pla"), "-o", str(real)]) == 0
    assert main(["reverse", str(real), "-o", str(rev)]) == 0
    from revhash.synth import read_real
    fwd_gates = read_real(real.read_text()).gates
    rev_gates = read_real(rev.read_text()).gates
    assert rev_gates == tuple(reversed(fwd_gates))


def test_analyze_json(corpus_dir, capsys):
    assert main(["analyze", str(corpus_dir / "hash8_avalanche.pla"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avalanche"]["part1_pass"] and payload["avalanche"]["part2_pass"]
    assert payload["collisions"]["injective"]


def test_bench_directory(corpus_dir, tmp_path, capsys):
    small = tmp_path / "small"
    small.mkdir()
    for name in ("aes4_sbox.pla", "present_sbox.pla"):
        (small / name).write_text((corpus_dir / name).read_text())
    jl = tmp_path / "bench.jsonl"
    assert main(["bench", str(small), "--json-lines", str(jl), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 2
    assert len(jl.read_text().strip().splitlines()) == 2


def test_bench_tolerates_bad_file(corpus_dir, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "good.pla").write_text((corpus_dir / "aes4_sbox.pla").read_text())
    (mixed / "bad.pla").write_text("garbage\n")
    assert main(["bench", str(mixed), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    errors = [r for r in payload["records"] if r["error"]]
    assert len(errors) == 1


def test_bench_all_bad_is_input_error(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "a.pla").write_text("junk\n")
    assert main(["bench", str(bad)]) == 1


def test_corpus_command(tmp_path):
    out = tmp_path / "out"
    assert main(["corpus", "-o", str(out)]) == 0
    assert len(list(out.glob("*.pla"))) == 13


def test_invert_below_limit_skips_crosscheck(corpus_dir, capsys):
    code = main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--exhaustive-limit", "3", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["0110"]


def test_invert_brute_runs_no_synthesis(corpus_dir, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("--brute must not synthesize")

    monkeypatch.setattr(synth, "synthesize", refuse)
    assert main(["invert", str(corpus_dir / "aes_sbox.pla"), "--target", "01100011",
                 "--brute", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["00000000"]


def test_invert_deduction_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "cnot14.json"
    path.write_text(write_circuit_json(Circuit(num_inputs=14, num_outputs=1, gates=(CNOT(0, 14),))))
    assert main(["invert", str(path), "--target", "1", "--exhaustive-limit", "10"]) == 2
    assert capsys.readouterr().err.startswith("resource limit: deduction")


def test_resource_limit_exit_code(tmp_path):
    # A single full-don't-care row over 30 inputs blows the cover budget.
    pla = tmp_path / "wide.pla"
    pla.write_text(".i 30\n.o 1\n" + "-" * 30 + " 1\n.e\n")
    assert main(["synth", str(pla)]) == 2


def test_exhaustive_limit_env(monkeypatch, corpus_dir):
    monkeypatch.setenv("REVHASH_EXHAUSTIVE_LIMIT", "4")
    # Width 8 demo exceeds the forced limit of 4, so verification samples
    # rather than failing; exit stays 0.
    assert main(["verify", str(corpus_dir / "demo_hash4.pla"), "--samples", "64"]) == 0


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_exhaustive_limit_env_rejects_bad_value(monkeypatch, corpus_dir, capsys, value):
    monkeypatch.setenv("REVHASH_EXHAUSTIVE_LIMIT", value)
    assert main(["analyze", str(corpus_dir / "demo_hash4.pla")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "REVHASH_EXHAUSTIVE_LIMIT" in err


@pytest.mark.parametrize("argv", [["--help"], ["synth", "demo_hash4.pla"]])
def test_exhaustive_limit_env_ignored_without_sweep(monkeypatch, corpus_dir, capsys, argv):
    monkeypatch.setenv("REVHASH_EXHAUSTIVE_LIMIT", "abc")
    monkeypatch.chdir(corpus_dir)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code == 0
    assert "REVHASH_EXHAUSTIVE_LIMIT" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["invert", "--target", "1001"], ["verify", "--samples", "64"], ["analyze"],
])
def test_exhaustive_limit_flag_on_sweeping_commands(corpus_dir, argv):
    assert main([argv[0], str(corpus_dir / "demo_hash4.pla"), *argv[1:], "--exhaustive-limit", "4"]) == 0


@pytest.mark.parametrize("value", ["-3", "abc"])
def test_exhaustive_limit_flag_rejects_bad_value(corpus_dir, capsys, value):
    assert main(["analyze", str(corpus_dir / "demo_hash4.pla"), "--exhaustive-limit", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --exhaustive-limit must be a non-negative integer")


@pytest.mark.parametrize("rows", [
    [("--", "1"), ("11", "1")],  # NAND(x0, x1), where an OR reading gives 1 at 11
    [("1-0", "10"), ("-10", "11"), ("110", "01"), ("---", "01")],
])
def test_esop_file_round_trip(tmp_path, capsys, rows):
    cover = EsopCover(n=len(rows[0][0]), m=len(rows[0][1]), cubes=tuple(Cube(*r) for r in rows))
    path = tmp_path / "cover.pla"
    path.write_text(write_esop(cover))
    for s in range(1 << cover.n):
        x = int_to_bits(s, cover.n)
        assert main(["simulate", str(path), "--input", x, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == evaluate_esop(cover, x), x
    assert main(["verify", str(path)]) == 0


NAND_ESOP = EsopCover(n=2, m=1, cubes=(Cube("--", "1"), Cube("11", "1")))


def test_bench_reads_esop_marker(tmp_path, capsys):
    (tmp_path / "nand.pla").write_text(write_esop(NAND_ESOP))
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    [record] = json.loads(capsys.readouterr().out)["records"]
    assert (record["cube_count_before"], record["cube_count_after"]) == (2, 2)
    assert (record["gates_minimized"], record["gates_unminimized"]) == (2, 2)
    assert main(["synth", str(tmp_path / "nand.pla"), "--format", "json"]) == 0
    synth_doc = json.loads(capsys.readouterr().out)
    assert (synth_doc["cover"]["cubes"], synth_doc["gates"]["total"]) == (2, 2)


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["frobnicate"],
    ["synth", "x.pla", "--effort", "3"],
    ["invert", "x.pla", "--target", "1", "--no-crosscheck"],
    ["synth", "x.pla", "--exhaustive-limit", "3"],
    ["simulate", "x.pla", "--input", "01", "--exhaustive-limit", "3"],
    ["bench", "dir", "--exhaustive-limit", "3"],
    ["verify", "x.pla", "--samples", "many"],
    ["analyze", "x.pla", "--format", "xml"],
], ids=["missing-file", "unknown-command", "effort", "no-crosscheck", "synth-limit",
        "simulate-limit", "bench-limit", "bad-int", "bad-choice"])
def test_usage_error_exits_1_with_usage_line(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: revhash") and "\nerror: " in err


@pytest.mark.parametrize("argv", [["--help"], ["invert", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: revhash")

import json

import pytest

from revhash.circuit import Circuit, write_circuit_json
from revhash.cli import main
from revhash.esop import EsopCover, write_esop
from revhash.pla import Cube, PlaFunction, int_to_bits, write_pla

from revhash import corpus, esop, invert, synth

from conftest import CNOT, evaluate_esop


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


def test_simulate_runs_no_minimize(corpus_dir, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate must not minimize")

    monkeypatch.setattr(esop, "minimize", refuse)
    assert main(["simulate", str(corpus_dir / "demo_hash4.pla"), "--input", "0110",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == "1001"


def test_simulate_negative_line_is_input_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({"inputs": 2, "outputs": 1, "gates": [{"target": -1}]}))
    assert main(["simulate", str(doc), "--input", "01"]) == 1
    assert "negative line" in capsys.readouterr().err


def test_simulate_huge_line_is_input_error(tmp_path, capsys):
    # The width check compares line numbers, so it never builds a 2^target word.
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"inputs": 2, "outputs": 1, "gates": [{"target": 10**11}]}))
    assert main(["simulate", str(doc), "--input", "01"]) == 1
    assert f"gate on line {10**11} exceeds width 3" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("no_gates.json", json.dumps({"inputs": 2, "outputs": 1})),
    ("str_target.json", json.dumps({"inputs": 2, "outputs": 1, "gates": [{"target": "1"}]})),
    ("list.json", json.dumps([{"target": 2}])),
    ("no_outputs.real", "# revhash inputs=2\n.version 1.0\n.numvars 3\n.variables x0 x1 y0\n"
                        ".begin\nt2 x0 y0\n.end\n"),
    ("empty_gate.real", "# revhash inputs=2 outputs=1\n.version 1.0\n.numvars 3\n"
                        ".variables x0 x1 y0\n.begin\nt0\n.end\n"),
    ("dup_name.real", "# revhash inputs=2 outputs=1\n.version 1.0\n.numvars 3\n"
                      ".variables x0 x0 y0\n.begin\nt2 x0 y0\n.end\n"),
    ("numvars.real", "# revhash inputs=2 outputs=1\n.version 1.0\n.numvars 7\n"
                     ".variables x0 x1 y0\n.begin\nt2 x0 y0\n.end\n"),
    ("numvars_bare.real", "# revhash inputs=2 outputs=1\n.version 1.0\n.numvars\n"
                          ".variables x0 x1 y0\n.begin\nt2 x0 y0\n.end\n"),
    ("width.json", json.dumps({"width": 7, "inputs": 2, "outputs": 1, "gates": []})),
    ("name.json", json.dumps({"name": ["a"], "inputs": 2, "outputs": 1, "gates": []})),
], ids=["no-gates", "str-target", "top-level-list", "real-no-outputs", "real-empty-gate",
        "real-duplicate-name", "real-numvars-mismatch", "real-numvars-bare", "json-width", "json-name"])
def test_simulate_malformed_circuit_is_input_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["simulate", str(path), "--input", "01"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_json_without_width_or_name(tmp_path, capsys):
    path = tmp_path / "bare.json"
    bare = {"inputs": 2, "outputs": 1, "gates": [{"target": 2, "positive": [0, 1]}]}
    for doc in (bare, {"width": 3, "name": None, **bare}):
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--input", "11"]) == 0
        assert capsys.readouterr().out == "11 -> 1\n"


# Every warning parse_pla gives, in its order.
PLA_WARNED = ".i 2\n.o 1\n.type fr\n.phase 1\n11 -\n"
PLA_WARNINGS = ["line 3: .type fr treated as fd", "line 4: unsupported directive .phase skipped",
                "missing .e terminator", "1 output don't-care(s) normalized to 0"]


def test_pla_warnings_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "warned.pla"
    path.write_text(PLA_WARNED)
    p = str(path)
    for argv in (["synth", p], ["simulate", p, "--input", "11"], ["invert", p, "--target", "0"],
                 ["invert", p, "--target", "0", "--first"], ["invert", p, "--target", "0", "--brute"],
                 ["verify", p], ["analyze", p]):
        assert main(argv + ["--format", "json"]) == 0, argv
        out, err = capsys.readouterr()
        json.loads(out)  # stdout holds the document alone
        assert err.splitlines()[:4] == [f"warning: {w}" for w in PLA_WARNINGS], argv
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert "error" not in json.loads(out)["records"][0]
    assert err.splitlines()[:4] == [f"warning: warned.pla: {w}" for w in PLA_WARNINGS]


def test_clean_pla_gives_no_warning(corpus_dir, capsys):
    assert main(["synth", str(corpus_dir / "demo_hash4.pla")]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"inputs": True, "outputs": 1, "gates": []},
    {"inputs": 2, "outputs": True, "gates": []},
    {"inputs": 2, "outputs": 1, "gates": [{"target": True}]},
    {"inputs": 2, "outputs": 1, "gates": [{"target": 2, "positive": [True]}]},
    {"inputs": 2, "outputs": 1, "gates": [{"target": 2, "negative": [False]}]},
], ids=["inputs", "outputs", "target", "positive-control", "negative-control"])
def test_simulate_json_boolean_is_input_error(tmp_path, capsys, doc):
    # JSON true and false load as bools, which Python counts as ints 1 and 0.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--input", "01"]) == 1
    assert "is not a line number or count" in capsys.readouterr().err


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


def test_invert_brute_rejects_non_bit_target(corpus_dir, capsys):
    assert main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1x01", "--brute"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: not a bit vector: '1x01'\n"


def test_invert_from_real_file(corpus_dir, tmp_path, capsys):
    real = tmp_path / "demo.real"
    assert main(["synth", str(corpus_dir / "demo_hash4.pla"), "-o", str(real)]) == 0
    capsys.readouterr()
    assert main(["invert", str(real), "--target", "1001", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["0110"]


def test_verify_pass(corpus_dir):
    assert main(["verify", str(corpus_dir / "demo_hash4.pla")]) == 0
    assert main(["verify", str(corpus_dir / "des_sbox1.pla")]) == 0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_sampled_needs_a_sample(corpus_dir, capsys, samples):
    assert main(["verify", str(corpus_dir / "demo_hash4.pla"), "--samples", samples,
                 "--exhaustive-limit", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err


def test_verify_sample_count_over_limit_exit_code(corpus_dir, capsys):
    # The width 8 is over the exhaustive limit 4, so verify samples; 2^40 draws are refused.
    assert main(["verify", str(corpus_dir / "demo_hash4.pla"), "--samples", str(1 << 40),
                 "--exhaustive-limit", "4"]) == 2
    assert capsys.readouterr().err.startswith("resource limit: sampled states")


def test_verify_mutation_fails(corpus_dir):
    assert main(["verify", str(corpus_dir / "aes4_sbox.pla"), "--mutate-drop-gate", "0"]) == 3


def test_verify_mutation_bad_index(corpus_dir):
    assert main(["verify", str(corpus_dir / "aes4_sbox.pla"), "--mutate-drop-gate", "9999"]) == 1


def test_reverse_roundtrip(corpus_dir, tmp_path, capsys):
    real = tmp_path / "fwd.real"
    rev = tmp_path / "rev.real"
    assert main(["synth", str(corpus_dir / "aes4_sbox.pla"), "-o", str(real), "--format", "json"]) == 0
    gates = json.loads(capsys.readouterr().out)["gates"]
    assert main(["reverse", str(real), "-o", str(rev)]) == 0
    assert capsys.readouterr().err == (f"wrote {rev} ({gates['total']} gates after NOT "
                                       f"expansion/cleanup, {gates['raw_gates']} raw)\n")
    assert gates["total"] != gates["raw_gates"]
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


def test_bench_record_contents(corpus_dir, tmp_path, capsys):
    (tmp_path / "aes4_sbox.pla").write_text((corpus_dir / "aes4_sbox.pla").read_text())
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    [record] = json.loads(capsys.readouterr().out)["records"]
    done, raw = record["minimized"], record["unminimized"]
    assert record["name"] == "aes4_sbox" and "error" not in record
    assert (done["inputs"], done["outputs"], done["minimized"], raw["minimized"]) == (4, 4, True, False)
    assert done["cover"]["cubes"] <= raw["cover"]["cubes"]
    assert done["gates"]["total"] <= raw["gates"]["total"] == 60
    assert done["seconds"]["minimize"] >= 0 and raw["seconds"]["synthesize"] >= 0


def test_bench_tolerates_bad_file(corpus_dir, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "good.pla").write_text((corpus_dir / "aes4_sbox.pla").read_text())
    (mixed / "bad.pla").write_text("garbage\n")
    assert main(["bench", str(mixed), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    errors = [r for r in payload["records"] if "error" in r]
    assert len(errors) == 1


def test_bench_text_names_every_file(small_corpus, tmp_path, capsys):
    for name, f in small_corpus.items():
        (tmp_path / f"{name}.pla").write_text(write_pla(f))
    assert main(["bench", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(small_corpus)


def test_bench_records_match_synth_on_corpus(corpus_dir, capsys):
    def without_seconds(doc):
        return {k: v for k, v in doc.items() if k != "seconds"}

    assert main(["bench", str(corpus_dir), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == 14 and all("error" not in r for r in records)
    for record in records:
        path = str(corpus_dir / f"{record['name']}.pla")
        for key, flags in (("minimized", []), ("unminimized", ["--no-minimize"])):
            assert main(["synth", path, *flags, "--format", "json"]) == 0
            synth_doc = json.loads(capsys.readouterr().out)
            assert without_seconds(record[key]) == without_seconds(synth_doc), (record["name"], key)
        assert record["minimized"]["gates"]["total"] <= record["unminimized"]["gates"]["total"]
    by_name = {r["name"]: r["minimized"] for r in records}
    assert (by_name["des_sbox3"]["inputs"], by_name["des_sbox3"]["outputs"]) == (6, 4)


def test_bench_all_bad_is_input_error(tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "a.pla").write_text("junk\n")
    assert main(["bench", str(bad)]) == 1


@pytest.mark.parametrize("case", ["missing", "file", "no-pla"])
def test_bench_without_pla_directory_is_input_error(tmp_path, capsys, case):
    table = tmp_path / "one.pla"
    table.write_text(".i 1\n.o 1\n1 1\n.e\n")
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no tables here\n")
    path = {"missing": tmp_path / "missing", "file": table, "no-pla": empty}[case]
    assert main(["bench", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_corpus_command(tmp_path):
    out = tmp_path / "out"
    assert main(["corpus", "-o", str(out)]) == 0
    assert len(list(out.glob("*.pla"))) == 13


def test_invert_below_limit_skips_crosscheck(corpus_dir, capsys):
    code = main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--exhaustive-limit", "3", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["0110"]


def test_invert_huge_limit(corpus_dir, capsys):
    # The bound 2^limit is never built, so a limit far past memory still works.
    code = main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001",
                 "--exhaustive-limit", "1000000000000", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["preimages"] == ["0110"]


@pytest.mark.parametrize("deducer, wrong, flags", [
    ("preimages_deduce", lambda c, y, limit: invert.PreimageResult(y, ("0000",), "deduction", 0, 0, 0.0), []),
    ("preimage_one", lambda c, y, limit: "0000", ["--first"]),
])
def test_invert_crosscheck_catches_wrong_deduction(corpus_dir, monkeypatch, capsys, deducer, wrong, flags):
    monkeypatch.setattr(invert, deducer, wrong)
    assert main(["invert", str(corpus_dir / "demo_hash4.pla"), "--target", "1001", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deduction disagrees with brute-force cross-check\n"


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


HUGE = 99999999999999999999
HUGE_PLA = f".i {HUGE}\n.o 1\n.e\n"
HUGE_JSON = json.dumps({"inputs": HUGE, "outputs": 1, "gates": []})


@pytest.mark.parametrize("name, text, argv", [
    ("huge.pla", HUGE_PLA, ["synth"]),
    ("huge.pla", HUGE_PLA, ["invert", "--target", "1"]),
    ("huge.pla", HUGE_PLA, ["analyze"]),
    ("huge_out.pla", f".i 1\n.o {HUGE}\n.e\n", ["synth"]),
    ("huge.json", HUGE_JSON, ["invert", "--target", "1"]),
    ("huge.json", HUGE_JSON, ["invert", "--target", "1", "--brute"]),
], ids=["pla-synth", "pla-invert", "pla-analyze", "pla-outputs", "json-invert", "json-brute"])
def test_huge_arity_is_refused_before_any_shift(tmp_path, capsys, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: the ") and "lines of a" in err and "exceed limit 2^20" in err


def test_arity_bound_lets_wide_tables_through(tmp_path, capsys):
    # 30 inputs are far below the arity bound: the cover's own state bound refuses the row.
    pla = tmp_path / "wide.pla"
    pla.write_text(".i 30\n.o 1\n" + "-" * 30 + " 1\n.e\n")
    assert main(["synth", str(pla)]) == 2
    assert capsys.readouterr().err.startswith("resource limit: minterm expansion cubes exceed")


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


def test_analyze_esop_file_matches_its_full_table(tmp_path, capsys):
    rows = [("1-0", "101"), ("-10", "110"), ("110", "011"), ("---", "001"), ("0-1", "111")]
    cover = EsopCover(n=3, m=3, cubes=tuple(Cube(*r) for r in rows))
    table = [Cube(int_to_bits(s, 3), evaluate_esop(cover, int_to_bits(s, 3))) for s in range(8)]
    docs = {}
    texts = {"esop": write_esop(cover), "table": write_pla(PlaFunction(3, 3, tuple(table))),
             "or": write_pla(PlaFunction(3, 3, cover.cubes))}
    for name, text in texts.items():
        (tmp_path / f"{name}.pla").write_text(text)
        assert main(["analyze", str(tmp_path / f"{name}.pla"), "--format", "json"]) == 0
        docs[name] = json.loads(capsys.readouterr().out)
    assert docs["esop"] == docs["table"]
    assert docs["esop"] != docs["or"]  # the same rows read with OR give other counts


NAND_ESOP = EsopCover(n=2, m=1, cubes=(Cube("--", "1"), Cube("11", "1")))


def test_bench_reads_esop_marker(tmp_path, capsys):
    (tmp_path / "nand.pla").write_text(write_esop(NAND_ESOP))
    assert main(["bench", str(tmp_path), "--format", "json"]) == 0
    [record] = json.loads(capsys.readouterr().out)["records"]
    done, raw = record["minimized"], record["unminimized"]
    assert (raw["cover"]["cubes"], done["cover"]["cubes"]) == (2, 2)
    assert (done["gates"]["total"], raw["gates"]["total"]) == (2, 2)
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
    ["invert", "x.pla", "--target", "1", "--brute", "--first"],
], ids=["missing-file", "unknown-command", "effort", "no-crosscheck", "synth-limit",
        "simulate-limit", "bench-limit", "bad-int", "bad-choice", "brute-first"])
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

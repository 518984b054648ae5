import random

import pytest
from hypothesis import strategies as st

from revhash import corpus
from revhash.circuit import Circuit, Gate
from revhash.errors import check_limit
from revhash.esop import EsopCover, from_pla, minimize
from revhash.pla import Cube, PlaFunction, bits_to_int, int_to_bits
from revhash.sim import EXHAUSTIVE_LIMIT, _apply_gate_int, run
from revhash.synth import synthesize


# Single-state helpers that the tests use as oracles for the wordwise kernels.

def NOT(target: int) -> Gate:
    return Gate(target=target)


def CNOT(control: int, target: int) -> Gate:
    return Gate(target=target, positive_controls=frozenset({control}))


def apply_gate(state: str, gate: Gate) -> str:
    """Flip the target bit iff all positive controls are 1 and negatives 0."""
    return int_to_bits(_apply_gate_int(bits_to_int(state), gate), len(state))


def truth_table(c: Circuit, limit: int = EXHAUSTIVE_LIMIT) -> dict[str, str]:
    """Map every input vector to the circuit's output-line values.

    Input lines are driven with each x in turn, output lines start at 0.
    Each state runs through single-state `run`, not the word kernel, so the
    table is an oracle for the kernel; 2^n past 2^limit raises as a sweep does.
    """
    n, m = c.num_inputs, c.num_outputs
    check_limit(1 << n, limit, f"the 2^{n} states of a sweep")
    return {x: run(c, x + "0" * m)[n:] for x in (format(i, f"0{n}b") for i in range(1 << n))}


def _evaluate(f, x: str, combine) -> str:
    if len(x) != f.n:
        raise ValueError(f"input length {len(x)} != n={f.n}")
    xi, acc = bits_to_int(x), 0
    for c in f.cubes:
        if (xi & c.care_mask) == c.value_mask:
            acc = combine(acc, c.output_mask)
    return int_to_bits(acc, f.m)


def evaluate_pla(f: PlaFunction, x: str) -> str:
    """Evaluate the cover at input x: output bit j is the OR of output bit j
    over all cubes whose non-dash literals match x."""
    return _evaluate(f, x, int.__or__)


def evaluate_esop(c: EsopCover, x: str) -> str:
    """XOR-semantics evaluation at input x."""
    return _evaluate(c, x, int.__xor__)


def same_cover(f: PlaFunction, g: PlaFunction) -> bool:
    """Cube-for-cube equality of the function content (ignores metadata)."""
    return (f.n, f.m, f.cubes) == (g.n, g.m, g.cubes)


def oracle_leaf(search, alive: int, free: int, value: int) -> None:
    """`invert._Search._leaf` one variable at a time, one AND per node, down
    to each full assignment: the oracle for the walk that takes a leaf's
    last variables from the predicate table's block."""
    if not free:
        for line, want in search.checks:
            if (alive & line).bit_count() & 1 != want:
                return
        search._record(value)
        return
    bit = free & -free
    s0, s1 = search.t.survive[bit.bit_length() - 1]
    free ^= bit
    oracle_leaf(search, alive & s0, free, value)
    if not (search.first_only and search.solutions):
        oracle_leaf(search, alive & s1, free, value | bit)


@pytest.fixture(scope="session")
def corpus_funcs():
    return dict(corpus.corpus_functions())


@pytest.fixture(scope="session")
def small_corpus(corpus_funcs):
    """The 4-bit and 6-bit functions (cheap enough for per-test pipelines)."""
    return {name: f for name, f in corpus_funcs.items() if f.n <= 6}


def random_function(rng: random.Random, n=None, m=None, max_cubes=6, allow_dash=True) -> PlaFunction:
    n = n or rng.randint(1, 4)
    m = m or rng.randint(1, 3)
    alphabet = "01-" if allow_dash else "01"
    cubes = tuple(
        Cube(
            "".join(rng.choice(alphabet) for _ in range(n)),
            "".join(rng.choice("01") for _ in range(m)),
        )
        for _ in range(rng.randint(0, max_cubes))
    )
    return PlaFunction(n=n, m=m, cubes=cubes)


def benchmark_circuits() -> list[tuple[str, Circuit]]:
    """The benchmark's perm10 and compress12 tables, built from the same seeds
    and compiled as it compiles them: perm10 minimized, compress12 not."""
    perm = list(range(1 << 10))
    random.Random(1).shuffle(perm)
    perm10 = PlaFunction(n=10, m=10, cubes=tuple(
        Cube(format(x, "010b"), format(y, "010b")) for x, y in enumerate(perm)))
    rng = random.Random(1)
    compress12 = PlaFunction(n=12, m=4, cubes=tuple(
        Cube(format(x, "012b"), format(rng.randrange(16), "04b")) for x in range(1 << 12)))
    return [("perm10", synthesize(minimize(from_pla(perm10)), name="perm10")),
            ("compress12", synthesize(from_pla(compress12), name="compress12"))]


def random_truth_table(rng: random.Random, n: int, m: int) -> PlaFunction:
    cubes = tuple(
        Cube(format(x, f"0{n}b"), "".join(rng.choice("01") for _ in range(m)))
        for x in range(1 << n)
    )
    return PlaFunction(n=n, m=m, cubes=cubes)


@st.composite
def circuits(draw, max_width=9):
    """Any gates over n <= 6 inputs and m <= 3 outputs, at most max_width
    lines: targets on every line, negative controls, uncontrolled NOTs."""
    n = draw(st.integers(1, min(6, max_width - 1)))
    m = draw(st.integers(1, min(3, max_width - n)))
    gates = draw(st.lists(gates_on(n + m), max_size=10))
    return Circuit(num_inputs=n, num_outputs=m, gates=gates)


@st.composite
def gates_on(draw, width):
    """A gate on any line of `width` with up to 3 mixed controls."""
    target = draw(st.integers(0, width - 1))
    others = [line for line in range(width) if line != target]
    controls = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    split = draw(st.integers(0, len(controls)))
    return Gate(target=target, positive_controls=controls[:split],
                negative_controls=controls[split:])


@st.composite
def covers(draw, max_m=3):
    """A cover (n, m, cubes) on n <= 8 inputs and m <= max_m outputs, often
    m == n: up to 40 rows mixing dash rows, all-dash rows and minterm rows,
    repeated rows among them, on top of a full truth table or of nothing."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, max_m) | st.just(min(n, max_m)))
    outputs = st.text("01", min_size=m, max_size=m)
    rows = []
    if draw(st.booleans()):
        table = draw(st.lists(outputs, min_size=1 << n, max_size=1 << n))
        rows = [(int_to_bits(s, n), out) for s, out in enumerate(table)]
    minterm = st.tuples(st.integers(0, (1 << n) - 1).map(lambda s: int_to_bits(s, n)), outputs)
    row = st.tuples(st.text("01-", min_size=n, max_size=n), outputs) | minterm
    pool = draw(st.lists(row | st.tuples(st.just("-" * n), outputs), min_size=1, max_size=8))
    rows += draw(st.lists(row | st.sampled_from(pool), max_size=40))
    return n, m, [Cube(i, o) for i, o in rows]

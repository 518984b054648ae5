"""revhash: reversible-circuit synthesis from .pla tables and hash inversion.

Pipeline: parse a .pla cover, convert it to an XOR (ESOP) cover, minimize
the cube count, map cubes to NOT/CNOT/Toffoli gates with negative controls,
and reverse the gate order to obtain the inverse function's circuit.
Preimages then fall out of backward deduction over the reversed structure.
"""

from .analyze import AvalancheReport, avalanche_check, collision_scan
from .circuit import Circuit, Gate, read_circuit_json, write_circuit_json
from .errors import PlaLexicalError, PlaParseError, PlaStructureError, ResourceLimitError
from .esop import CoverCost, EsopCover, cost, from_pla, minimize
from .invert import PreimageResult, preimage_one, preimages_bruteforce, preimages_deduce
from .pla import Cube, PlaFunction, parse_pla, write_pla
from .sim import (
    VerificationReport,
    VerifyMode,
    run,
    verify_against_spec,
    verify_identity,
)
from .synth import (
    CircuitStats,
    read_real,
    reverse,
    stats,
    synthesize,
    write_real,
)

__version__ = "0.1.0"

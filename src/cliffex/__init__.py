"""Compiler for quantum-simulation circuits given as Pauli-rotation
lists: synthesizes each rotation with a guided CNOT tree, extracts the
trailing Clifford half of every block to the end of the circuit, and
absorbs the accumulated Clifford into measurement observables or
bitstring post-processing."""

from .absorb import (
    CountsHistogram,
    ProbabilityAbsorption,
    TransformedObservable,
    absorb_observables,
    absorb_probabilities,
    map_expectations,
    postprocess_counts,
)
from .circuit import (
    Circuit,
    Gate,
    cnot_count,
    cx,
    emit_qasm,
    entangling_depth,
    h,
    parse_qasm,
    peephole,
    rz,
    s,
    sdg,
)
from .extract import (
    ExtractionResult,
    basis_change_gates,
    extract,
    native_circuit,
)
from .pauli import PauliString, PauliTerm, parse_pauli
from .problems import LoadedProblem, gen_labs, gen_maxcut, load_terms

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CountsHistogram",
    "ExtractionResult",
    "Gate",
    "LoadedProblem",
    "PauliString",
    "PauliTerm",
    "ProbabilityAbsorption",
    "TransformedObservable",
    "absorb_observables",
    "absorb_probabilities",
    "basis_change_gates",
    "cnot_count",
    "cx",
    "emit_qasm",
    "entangling_depth",
    "extract",
    "gen_labs",
    "gen_maxcut",
    "h",
    "load_terms",
    "map_expectations",
    "native_circuit",
    "parse_pauli",
    "parse_qasm",
    "peephole",
    "postprocess_counts",
    "rz",
    "s",
    "sdg",
]

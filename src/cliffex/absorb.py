"""Absorbing an end-of-circuit Clifford into measurement post-processing.

Two modes are supported.  For expectation-value workloads every
observable O is rewritten to O' = conjugate(tableau, O) and measured in
the adjusted single-qubit basis; only the sign of O' enters the final
result.  For probability workloads the extracted Clifford (H and CNOT
gates only) is reduced, in one backward sweep, to one Hadamard layer,
appended to the executed circuit, plus a CNOT network on the measured
bits.  That form exists unless some CNOT is followed by an odd number
of Hadamards on exactly one of its two qubits; such a Clifford, or one
with S/SDG gates, is refused.  The network is a linear map over
GF(2): it is composed once into a bit matrix and then applied to each
measured bitstring by table lookup, at a cost that does not depend on
the network's length.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .circuit import Circuit, Gate
from .errors import BitstringLengthMismatch, LengthMismatch, NonHCnotGate, NotReducible, SchemaError
from .extract import basis_change_gates
from .pauli import PauliString
from .tableau import ConjugationTableau


@dataclass(frozen=True)
class TransformedObservable:
    """An observable rewritten through the extracted Clifford.

    ``basis_layer`` holds the single-qubit gates appended before
    measurement so that measuring Z-parities on the support of
    ``transformed`` estimates |transformed|; the sign is applied
    classically afterwards.
    """

    original: PauliString
    transformed: PauliString
    basis_layer: tuple[Gate, ...]


@dataclass(frozen=True)
class ProbabilityAbsorption:
    """One Hadamard layer plus a CNOT network equivalent to the extracted
    Clifford: executing [optimized circuit + H on h_mask] and pushing
    every measured bitstring through the network reproduces the original
    distribution."""

    n: int
    h_mask: frozenset[int]
    network: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CountsHistogram:
    n: int
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        total = 0
        for bits, c in self.counts.items():
            if len(bits) != self.n or set(bits) - {"0", "1"}:
                raise BitstringLengthMismatch(
                    f"bitstring {bits!r} is not {self.n} binary digits"
                )
            if not isinstance(c, int) or c < 0:
                raise SchemaError(f"count for {bits!r} must be a non-negative integer")
            total += c
        if total != self.shots:
            raise SchemaError(f"counts sum to {total}, expected {self.shots} shots")


def absorb_observables(
    tableau: ConjugationTableau, observables: list[PauliString]
) -> list[TransformedObservable]:
    """Rewrite each observable through the tableau; the mapping back to
    the originals is positional."""
    out = []
    for o in observables:
        if o.n != tableau.n:
            raise LengthMismatch(f"{o.n}-qubit observable vs {tableau.n}-qubit tableau")
        t = tableau.conjugate(o)
        out.append(TransformedObservable(o, t, tuple(basis_change_gates(t))))
    return out


def absorb_probabilities(extracted: Circuit) -> ProbabilityAbsorption:
    """Reduce an H+CNOT extracted Clifford to the measurement-side form:
    a Hadamard layer on ``h_mask``, appended to the executed circuit,
    then a CNOT network acting on the measured bits.

    One sweep over the gates in reverse keeps the qubits with an odd
    number of later Hadamards pending: H(q) toggles q, a CNOT with
    neither qubit pending joins the network as it is, and one with both
    pending joins it with control and target swapped (conjugating a
    CNOT by H on both qubits reverses it).  The set still pending at
    the start is the mask.  Raises NotReducible when a CNOT has exactly
    one qubit pending, as no such form exists then (switch to
    observable mode), and NonHCnotGate on other gates.
    """
    pending = 0
    network: list[tuple[int, int]] = []
    for g in reversed(extracted.gates):
        if g.kind == "h":
            pending ^= 1 << g.qubits[0]
        elif g.kind == "cx":
            c, t = g.qubits
            ci = pending >> c & 1
            if ci != pending >> t & 1:
                raise NotReducible(f"a later Hadamard straddles cx({c},{t})")
            network.append((t, c) if ci else (c, t))
        else:
            raise NonHCnotGate(f"gate kind {g.kind!r} is not H or CNOT")
    h_mask = frozenset(q for q in range(extracted.n) if pending >> q & 1)
    return ProbabilityAbsorption(extracted.n, h_mask, tuple(reversed(network)))


def _network_map(network, n: int) -> Callable[[int], int]:
    """The action of a CNOT network (bit[target] ^= bit[control], in time
    order) on an n-bit string read as an int, character q at bit n-1-q:
    ``int("0" + bits, 2)`` reads a string in and
    ``format(v | 1 << n, "b")[1:]`` writes one out, n = 0 included.

    The network is composed once into one GF(2) row per output bit,
    transposed into the output bits each input bit flips, and packed
    into one 256-entry XOR table per input byte, so a bitstring costs
    ceil(n/8) lookups however long the network is.
    """
    rows = [1 << (n - 1 - q) for q in range(n)]
    for c, t in network:
        rows[t] ^= rows[c]
    cols = [0] * n
    for q, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                cols[j] |= 1 << (n - 1 - q)
    tables = []
    for lo in range(0, n, 8):
        table = [0]
        for col in cols[lo : lo + 8]:
            table += [v ^ col for v in table]
        tables.append(table)

    def apply(v: int) -> int:
        out = 0
        for table in tables:
            out ^= table[v & 255]
            v >>= 8
        return out

    return apply


def postprocess_counts(pa: ProbabilityAbsorption, hist: CountsHistogram) -> CountsHistogram:
    """Map every measured bitstring through the network, composed once
    for the whole histogram; keys keep the input's order.  The map is a
    bijection, so the total shot count is preserved."""
    if hist.n != pa.n:
        raise BitstringLengthMismatch(f"{hist.n}-bit histogram vs {pa.n}-qubit absorption")
    mapped, top = _network_map(pa.network, pa.n), 1 << pa.n
    out: dict[str, int] = {}
    for bits, c in hist.counts.items():
        key = format(mapped(int("0" + bits, 2)) | top, "b")[1:]
        out[key] = out.get(key, 0) + c
    return CountsHistogram(hist.n, out, hist.shots)


def map_expectations(records: list[TransformedObservable], measured: list[float]) -> list[float]:
    """Apply the transformed observables' signs to measured expectation
    values, element-wise."""
    if len(records) != len(measured):
        raise LengthMismatch(f"{len(records)} records vs {len(measured)} values")
    return [r.transformed.sign * float(v) for r, v in zip(records, measured)]

"""Absorbing an end-of-circuit Clifford into measurement post-processing.

Two modes are supported.  For expectation-value workloads every
observable O is rewritten through the extracted Clifford E to
O' = E† O E and measured in the adjusted single-qubit basis; only the
sign of O' enters the final result.  For probability workloads E (H and
CNOT gates only) is reduced, in one backward sweep, to one Hadamard
layer, appended to the executed circuit, plus a CNOT network on the
measured bits.  That form exists unless some CNOT is followed by an odd
number of Hadamards on exactly one of its two qubits; such a Clifford,
or one with S/SDG gates, is refused.  The network is a linear map over
GF(2), applied bit-sliced: the measured bitstrings are held as one
column per qubit, an int with one bit per distinct bitstring, so each
CNOT is one XOR over every bitstring at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, inverse
from .errors import LengthMismatch, NotReducible, SchemaError
from .extract import basis_change_gates
from .pauli import PauliString
from .tableau import columns, conj_columns, strings


def _count(v) -> bool:
    return type(v) is int and v >= 0


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
    distribution.  Raises ValueError unless n is a non-negative int, every
    mask qubit and edge end is an int in [0, n) and each edge's two ends
    differ."""

    n: int
    h_mask: frozenset[int]
    network: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if not _count(n):
            raise ValueError(f"n = {n!r} is not a non-negative int")
        if not all(_count(q) and q < n for q in self.h_mask):
            raise ValueError(f"h_mask is not a list of qubits in [0, {n})")
        if not all(_count(c) and _count(t) and c < n and t < n and c != t for c, t in self.network):
            raise ValueError(f"network is not a list of pairs of distinct qubits in [0, {n})")


@dataclass(frozen=True)
class CountsHistogram:
    n: int
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if not (_count(self.n) and _count(self.shots)):
            raise SchemaError(f"n = {self.n!r} or shots = {self.shots!r} is not a non-negative integer")
        # bulk checks first; on any fault the per-item loop names the first
        counts, keys = self.counts.values(), self.counts.keys()
        if (
            set(map(type, keys)) <= {str}
            and not "".join(keys).encode("ascii", "replace").translate(None, b"01")
            and set(map(len, keys)) <= {self.n}
            and set(map(type, counts)) <= {int}
            and min(counts, default=0) >= 0
            and sum(counts) == self.shots
        ):
            return
        total = 0
        for bits, c in self.counts.items():
            if not isinstance(bits, str) or len(bits) != self.n or set(bits) - {"0", "1"}:
                raise SchemaError(f"bitstring {bits!r} is not {self.n} binary digits")
            if type(c) is not int or c < 0:
                raise SchemaError(f"count for {bits!r} must be a non-negative integer")
            total += c
        if total != self.shots:
            raise SchemaError(f"counts sum to {total}, expected {self.shots} shots")


def absorb_observables(
    extracted: Circuit, observables: list[PauliString]
) -> list[TransformedObservable]:
    """Rewrite each observable O through the extracted Clifford E to
    E† O E; the mapping back to the originals is positional.  E† O E is
    O conjugated by E's gates inverted, in reverse order.  Raises
    ValueError when E holds an RZ, which is not a Clifford gate."""
    n, observables = extracted.n, list(observables)
    if any(g.kind == "rz" for g in extracted.gates):
        raise ValueError("rz is not a Clifford gate")
    for o in observables:
        if o.n != n:
            raise LengthMismatch(f"{o.n}-qubit observable vs {n}-qubit Clifford")
    xs, zs, sign = columns(observables, n)
    sign ^= conj_columns(xs, zs, [inverse(g) for g in reversed(extracted.gates)])
    images = strings(xs, zs, sign, len(observables))
    return [TransformedObservable(o, t, tuple(basis_change_gates(t))) for o, t in zip(observables, images)]


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
    one qubit pending or a gate is not H or CNOT, as no such form exists
    then (switch to observable mode).
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
            raise NotReducible(f"gate kind {g.kind!r} is not H or CNOT")
    h_mask = frozenset(q for q in range(extracted.n) if pending >> q & 1)
    return ProbabilityAbsorption(extracted.n, h_mask, tuple(reversed(network)))


def _apply_network(network, n: int, keys) -> list[str]:
    """Each n-bit string of ``keys`` after the CNOT network
    (bit[target] ^= bit[control], in time order), in the same order.

    Bit-sliced: column q is an int holding character q of every string,
    so a CNOT is one XOR over all of them, whatever their number."""
    m = len(keys)
    if not (m and n):
        return list(keys)
    flat = "".join(keys)
    cols = [int(flat[q::n], 2) for q in range(n)]
    for c, t in network:
        cols[t] ^= cols[c]
    buf = bytearray(m * n)
    for q, col in enumerate(cols):
        buf[q::n] = format(col | 1 << m, "b")[1:].encode()
    flat = buf.decode()
    return [flat[i : i + n] for i in range(0, m * n, n)]


def postprocess_counts(pa: ProbabilityAbsorption, hist: CountsHistogram) -> CountsHistogram:
    """Map every measured bitstring through the network; keys keep the
    input's order.  The map is a bijection (a CNOT's two ends differ),
    so no two keys merge and the total shot count is preserved."""
    if hist.n != pa.n:
        raise LengthMismatch(f"{hist.n}-bit histogram vs {pa.n}-qubit absorption")
    keys = _apply_network(pa.network, pa.n, list(hist.counts))
    return CountsHistogram(hist.n, dict(zip(keys, hist.counts.values())), hist.shots)


def map_expectations(records: list[TransformedObservable], measured: list[float]) -> list[float]:
    """Apply the transformed observables' signs to measured expectation
    values, element-wise."""
    if len(records) != len(measured):
        raise LengthMismatch(f"{len(records)} records vs {len(measured)} values")
    return [r.transformed.sign * float(v) for r, v in zip(records, measured)]

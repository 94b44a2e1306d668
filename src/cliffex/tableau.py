"""Heisenberg-picture conjugation of Pauli strings through Clifford
circuits.

The tableau stores the images of every X_q and Z_q generator under
conjugation by the gates appended so far: appending gate g in time order
updates each row r to g r g†.  Conjugating an arbitrary signed Pauli
string is then a phase-tracked product of the rows selected by its bits.

A row is one packed int ``x | z << n`` plus a +/-1 sign.  The H/S/SDG/CX
rule (the row update of Aaronson & Gottesman, "Improved simulation of
stabilizer circuits", 2004) exists once, in ``_conj_gate``; ``conj_rows``
applies it to any list of packed rows, the tableau's own and the waiting
strings that extraction keeps.
"""

from __future__ import annotations

from .circuit import Circuit, Gate, inverse
from .errors import InvalidSize, LengthMismatch
from .pauli import PauliString, _product_phase


def _conj_gate(x: int, z: int, kind: str, qubits) -> tuple[int, int, int]:
    """Image of the raw masks (x, z) under conjugation by one H, S, SDG
    or CX gate, and 1 if the sign flips, else 0."""
    if kind == "cx":  # flips when x_c z_t (x_t XNOR z_c)
        c, t = qubits
        xc, zt = (x >> c) & 1, (z >> t) & 1
        return x ^ xc << t, z ^ zt << c, xc & zt & ~((x >> t) ^ (z >> c)) & 1
    q = qubits[0]
    xq, zq = (x >> q) & 1, (z >> q) & 1
    if kind == "h":  # X <-> Z, Y -> -Y
        d = (xq ^ zq) << q
        return x ^ d, z ^ d, xq & zq
    # S: X -> Y, Y -> -X; SDG: X -> -Y, Y -> X
    return x, z ^ xq << q, xq & zq if kind == "s" else xq & ~zq & 1


def conj_rows(rows: list[int], signs: list[int], lo: int, gates, n: int) -> None:
    """Conjugate ``rows[lo:]`` (strings packed as x | z << n) and their
    +/-1 ``signs`` in place by ``gates`` appended in time order.  The
    gates touch only their own qubits, so a row's pattern on those qubits
    is simulated once per distinct pattern and the rest of the row is
    kept."""
    mask = 0
    for g in gates:
        for q in g.qubits:
            mask |= 1 << q
    if not mask:
        return
    mask |= mask << n
    full = (1 << n) - 1
    memo: dict[int, tuple[int, int]] = {}  # pattern -> (pattern ^ image, flip)
    for k, v in enumerate(rows[lo:], lo):
        key = v & mask
        if key:
            hit = memo.get(key)
            if hit is None:
                x, z, flip = key & full, key >> n, 0
                for g in gates:
                    x, z, f = _conj_gate(x, z, g.kind, g.qubits)
                    flip ^= f
                hit = memo[key] = (key ^ x ^ z << n, flip)
            d, flip = hit
            rows[k] = v ^ d
            if flip:
                signs[k] = -signs[k]


class ConjugationTableau:
    """Map P -> D P D† for the Clifford D built from appended gates."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidSize(f"qubit count must be positive, got {n}")
        self.n = n
        # X_0..X_{n-1} then Z_0..Z_{n-1}: bit i of x | z << n selects row i
        self._rows = [1 << i for i in range(2 * n)]
        self._signs = [1] * (2 * n)
        self._log: list[Gate] = []

    @property
    def gate_log(self) -> tuple[Gate, ...]:
        return tuple(self._log)

    @property
    def rows(self) -> list[PauliString]:
        """Images of X_0..X_{n-1} then Z_0..Z_{n-1}."""
        n, full = self.n, (1 << self.n) - 1
        return [PauliString(n, r & full, r >> n, s) for r, s in zip(self._rows, self._signs)]

    def append_gate(self, gate: Gate) -> None:
        """Extend D by one gate (conjugates every row by it)."""
        if gate.kind == "rz":
            raise ValueError("rz is not a Clifford gate")
        if any(q >= self.n for q in gate.qubits):
            raise ValueError(f"gate {gate} out of range for {self.n} qubits")
        conj_rows(self._rows, self._signs, 0, (gate,), self.n)
        self._log.append(gate)

    def conj_raw(self, px: int, pz: int, sign: int) -> tuple[int, int, int]:
        """Conjugate raw bit masks; returns (x, z, sign)."""
        rows, signs, n = self._rows, self._signs, self.n
        full = (1 << n) - 1
        k = (px & pz).bit_count()  # each Y letter is i*X*Z
        if sign < 0:
            k += 2
        ax = az = 0
        b = px | pz << n  # every X factor, then every Z factor
        while b:
            i = (b & -b).bit_length() - 1
            b &= b - 1
            if signs[i] < 0:
                k += 2
            r = rows[i]
            rx, rz = r & full, r >> n
            k += _product_phase(ax, az, rx, rz)
            ax ^= rx
            az ^= rz
        k &= 3
        if k & 1:
            raise AssertionError("odd phase exponent in Clifford conjugation")
        return ax, az, 1 if k == 0 else -1

    def conjugate(self, p: PauliString) -> PauliString:
        """Image of ``p`` under the accumulated Clifford map."""
        if p.n != self.n:
            raise LengthMismatch(f"{p.n}-qubit string vs {self.n}-qubit tableau")
        x, z, sign = self.conj_raw(p.x, p.z, p.sign)
        return PauliString(self.n, x, z, sign)

    def extracted_circuit(self) -> Circuit:
        """The inverse of the accumulated map as a circuit: the gate log
        reversed with each gate inverted."""
        return Circuit(self.n, tuple(inverse(g) for g in reversed(self._log)))

"""Heisenberg-picture conjugation of Pauli strings through Clifford
circuits.

The tableau stores the images of every X_q and Z_q generator under
conjugation by the gates appended so far: appending gate g in time order
updates each row r to g r g†.  Conjugating an arbitrary signed Pauli
string is then a phase-tracked product of the rows selected by its bits.
"""

from __future__ import annotations

from .circuit import Circuit, Gate, inverse
from .errors import InvalidSize, LengthMismatch
from .pauli import PauliString, _product_phase


class ConjugationTableau:
    """Map P -> D P D† for the Clifford D built from appended gates."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidSize(f"qubit count must be positive, got {n}")
        self.n = n
        self._xs = [1 << q for q in range(n)] + [0] * n
        self._zs = [0] * n + [1 << q for q in range(n)]
        self._ss = [1] * (2 * n)
        self._log: list[Gate] = []

    @property
    def gate_log(self) -> tuple[Gate, ...]:
        return tuple(self._log)

    @property
    def rows(self) -> list[PauliString]:
        """Images of X_0..X_{n-1} then Z_0..Z_{n-1}."""
        return [
            PauliString(self.n, self._xs[i], self._zs[i], self._ss[i])
            for i in range(2 * self.n)
        ]

    def append_gate(self, gate: Gate) -> None:
        """Extend D by one gate (conjugates every row by it)."""
        if gate.kind == "rz":
            raise ValueError("rz is not a Clifford gate")
        if any(q >= self.n for q in gate.qubits):
            raise ValueError(f"gate {gate} out of range for {self.n} qubits")
        xs, zs, ss = self._xs, self._zs, self._ss
        if gate.kind == "h":
            bit = 1 << gate.qubits[0]
            for i in range(2 * self.n):
                xq, zq = xs[i] & bit, zs[i] & bit
                if xq and zq:
                    ss[i] = -ss[i]
                elif xq or zq:
                    xs[i] ^= bit
                    zs[i] ^= bit
        elif gate.kind == "s":
            bit = 1 << gate.qubits[0]
            for i in range(2 * self.n):
                if xs[i] & bit:
                    if zs[i] & bit:
                        ss[i] = -ss[i]
                    zs[i] ^= bit
        elif gate.kind == "sdg":
            bit = 1 << gate.qubits[0]
            for i in range(2 * self.n):
                if xs[i] & bit:
                    if not zs[i] & bit:
                        ss[i] = -ss[i]
                    zs[i] ^= bit
        else:  # cx
            c, t = gate.qubits
            cb, tb = 1 << c, 1 << t
            for i in range(2 * self.n):
                xc, zt = xs[i] & cb, zs[i] & tb
                if xc and zt and bool(xs[i] & tb) == bool(zs[i] & cb):
                    ss[i] = -ss[i]
                if xc:
                    xs[i] ^= tb
                if zt:
                    zs[i] ^= cb
        self._log.append(gate)

    def conj_raw(self, px: int, pz: int, sign: int) -> tuple[int, int, int]:
        """Conjugate raw bit masks; returns (x, z, sign)."""
        xs, zs, ss = self._xs, self._zs, self._ss
        n = self.n
        k = (px & pz).bit_count()  # each Y letter is i*X*Z
        if sign < 0:
            k += 2
        ax = az = 0
        b = px
        while b:
            q = (b & -b).bit_length() - 1
            b &= b - 1
            if ss[q] < 0:
                k += 2
            k += _product_phase(ax, az, xs[q], zs[q])
            ax ^= xs[q]
            az ^= zs[q]
        b = pz
        while b:
            q = (b & -b).bit_length() - 1
            b &= b - 1
            i = n + q
            if ss[i] < 0:
                k += 2
            k += _product_phase(ax, az, xs[i], zs[i])
            ax ^= xs[i]
            az ^= zs[i]
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

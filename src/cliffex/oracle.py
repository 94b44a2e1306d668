"""Dense-matrix reference implementation for small qubit counts.

Everything here is deliberately independent of the extraction machinery
so it can falsify it: rotation unitaries come straight from the matrix
exponential identity exp(i*P*t) = cos(t)*I + i*sin(t)*P, and circuits
are evaluated gate by gate on dense states.

Basis convention: the index bit of qubit 0 is the most significant, so
basis state |b0 b1 ... b_{n-1}> has index int("b0b1...", 2), matching
the bitstring convention used everywhere else.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .errors import DimMismatch, LengthMismatch, TooLarge
from .pauli import PauliString

DEFAULT_CAP = 10

_SQ2 = 1.0 / np.sqrt(2.0)
_MATS_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise TooLarge(f"{n} qubits exceeds the dense-simulation cap of {cap}")


def dense_pauli(p: PauliString, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 0 outermost)."""
    _check_cap(p.n, cap)
    m = np.array([[1.0 + 0j]])
    for q in range(p.n):
        m = np.kron(m, _PAULI_1Q[p.letter(q)])
    return p.sign * m


def rotation_unitary(p: PauliString, t: float, cap: int = DEFAULT_CAP) -> np.ndarray:
    """exp(i*P*t) via cos(t)*I + i*sin(t)*P (P squares to the identity)."""
    mat = dense_pauli(p, cap)
    dim = mat.shape[0]
    return np.cos(t) * np.eye(dim, dtype=complex) + 1j * np.sin(t) * mat


def _apply_gate(state: np.ndarray, n: int, g) -> np.ndarray:
    """Apply one gate to ``state`` of shape (2**n, batch)."""
    batch = state.shape[1]
    if g.kind == "cx":
        c, t = g.qubits
        a = np.moveaxis(state.reshape([2] * n + [batch]), (c, t), (0, 1)).copy()
        tmp = a[1, 0].copy()
        a[1, 0] = a[1, 1]
        a[1, 1] = tmp
        return np.moveaxis(a, (0, 1), (c, t)).reshape(2**n, batch)
    if g.kind == "rz":
        mat = np.array(
            [[np.exp(-0.5j * g.theta), 0], [0, np.exp(0.5j * g.theta)]], dtype=complex
        )
    else:
        mat = _MATS_1Q[g.kind]
    q = g.qubits[0]
    a = np.moveaxis(state.reshape([2] * n + [batch]), q, 0)
    a = np.tensordot(mat, a, axes=(1, 0))
    return np.moveaxis(a, 0, q).reshape(2**n, batch)


def statevector(c: Circuit, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Evolve |0...0> through the circuit."""
    _check_cap(c.n, cap)
    psi = np.zeros((2**c.n, 1), dtype=complex)
    psi[0, 0] = 1.0
    for g in c.gates:
        psi = _apply_gate(psi, c.n, g)
    return psi[:, 0]


def circuit_unitary(c: Circuit, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Time-ordered product of the circuit's gates (first gate applied first)."""
    _check_cap(c.n, cap)
    u = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        u = _apply_gate(u, c.n, g)
    return u


def probabilities(c: Circuit, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Computational-basis distribution from |0...0>; index i corresponds
    to the bitstring format(i, "0nb")."""
    amp = statevector(c, cap)
    return np.abs(amp) ** 2


def expectation(c: Circuit, o: PauliString, cap: int = DEFAULT_CAP) -> float:
    """<0| U† O U |0> for the given circuit and observable."""
    if o.n != c.n:
        raise LengthMismatch(f"{o.n}-qubit observable vs {c.n}-qubit circuit")
    psi = statevector(c, cap)
    val = np.vdot(psi, dense_pauli(o, cap) @ psi)
    return float(val.real)


def equivalent_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff max-entry |u - e^{i phi} v| <= tol, with phi fixed from
    the largest-magnitude entry of v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimMismatch(f"shape {u.shape} vs {v.shape}")
    idx = int(np.argmax(np.abs(v)))
    pivot = v.flat[idx]
    if abs(pivot) == 0.0:
        return bool(np.max(np.abs(u)) <= tol)
    phase = u.flat[idx] / pivot
    mag = abs(phase)
    phase = phase / mag if mag > 0 else 1.0
    return bool(np.max(np.abs(u - phase * v)) <= tol)

"""Dense-matrix reference implementation for small qubit counts, which
the tests cross-check the package against.

Everything here but ``_chain_tree`` is deliberately independent of the
extraction machinery so it can falsify it: rotation unitaries come
straight from the matrix exponential identity
exp(i*P*t) = cos(t)*I + i*sin(t)*P, and circuits are evaluated gate by
gate on dense states.  ``_chain_tree`` is the non-recursive tree that the
candidate scorer's closed form counts the letters of; it groups and
joins roots with the compiler's own rules.

Every function that builds a dense state or matrix raises ``ValueError``
above ``DEFAULT_CAP`` (10) qubits; the cap is fixed.

Basis convention: the index bit of qubit 0 is the most significant, so
basis state |b0 b1 ... b_{n-1}> has index int("b0b1...", 2), matching
the bitstring convention used everywhere else.
"""

from __future__ import annotations

import numpy as np

from cliffex.circuit import Circuit
from cliffex.errors import LengthMismatch
from cliffex.extract import _GROUP_ORDER, _connect_roots, _split_groups
from cliffex.pauli import PauliString

DEFAULT_CAP = 10

_SQ2 = 1.0 / np.sqrt(2.0)
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _chain_tree(idxs, gx: int, gz: int) -> list[tuple[int, int]]:
    """Non-recursive tree over ``idxs`` guided by the one string (gx, gz):
    each letter group is chained from the highest index down (group root
    = lowest index), then the group roots are joined.  Returns the
    (control, target) pairs in time order."""
    groups = _split_groups(idxs, gx, gz)
    out: list[tuple[int, int]] = []
    roots: list[tuple[str | None, int]] = []
    for cls in _GROUP_ORDER:
        grp = groups[cls]
        if grp:
            for k in range(len(grp) - 1, 0, -1):
                out.append((grp[k], grp[k - 1]))
            roots.append((cls, grp[0]))
    _connect_roots(roots, out)
    return out


def _check_cap(n: int) -> None:
    if n > DEFAULT_CAP:
        raise ValueError(f"{n} qubits exceeds the dense-simulation cap of {DEFAULT_CAP}")


def dense_pauli(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 0 outermost)."""
    _check_cap(p.n)
    m = np.array([[1.0 + 0j]])
    for q in range(p.n):
        m = np.kron(m, _PAULI_1Q[p.letter(q)])
    return p.sign * m


def rotation_unitary(p: PauliString, t: float) -> np.ndarray:
    """exp(i*P*t) via cos(t)*I + i*sin(t)*P (P squares to the identity)."""
    mat = dense_pauli(p)
    dim = mat.shape[0]
    return np.cos(t) * np.eye(dim, dtype=complex) + 1j * np.sin(t) * mat


def _apply_gate(state: np.ndarray, n: int, g) -> None:
    """Apply one gate in place to the C-contiguous ``state`` of shape
    (2**n, batch), through views that split out the gate's qubit axes (no
    full-size temporary)."""
    a = state.reshape([2] * n + [-1])
    if g.kind == "cx":  # flip the target axis where the control is 1
        c, t = g.qubits
        on = [slice(None)] * n
        on[c] = 1
        b = a[tuple(on)]
        b[...] = np.flip(b, t - (t > c))  # numpy buffers the overlapping copy
        return
    q = g.qubits[0]
    a0, a1 = a[(slice(None),) * q + (0,)], a[(slice(None),) * q + (1,)]
    if g.kind == "h":  # (a0, a1) -> (a0 + a1, a0 - a1) / sqrt(2)
        a0 += a1
        a1 *= -2.0
        a1 += a0
        a *= _SQ2
    elif g.kind == "rz":  # diag(e^{-i theta/2}, e^{i theta/2})
        a0 *= np.exp(-0.5j * g.theta)
        a1 *= np.exp(0.5j * g.theta)
    else:  # s = diag(1, i), sdg = diag(1, -i)
        a1 *= 1j if g.kind == "s" else -1j


def statevector(c: Circuit) -> np.ndarray:
    """Evolve |0...0> through the circuit."""
    _check_cap(c.n)
    psi = np.zeros((2**c.n, 1), dtype=complex)
    psi[0, 0] = 1.0
    for g in c.gates:
        _apply_gate(psi, c.n, g)
    return psi[:, 0]


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Time-ordered product of the circuit's gates (first gate applied first)."""
    _check_cap(c.n)
    u = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        _apply_gate(u, c.n, g)
    return u


def probabilities(c: Circuit) -> np.ndarray:
    """Computational-basis distribution from |0...0>; index i corresponds
    to the bitstring format(i, "0nb")."""
    amp = statevector(c)
    return np.abs(amp) ** 2


def expectation(c: Circuit, o: PauliString) -> float:
    """<0| U† O U |0> for the given circuit and observable."""
    if o.n != c.n:
        raise LengthMismatch(f"{o.n}-qubit observable vs {c.n}-qubit circuit")
    psi = statevector(c)
    val = np.vdot(psi, dense_pauli(o) @ psi)
    return float(val.real)


def equivalent_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff max-entry |u - e^{i phi} v| <= tol, with phi fixed from
    the largest-magnitude entry of v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape {u.shape} vs {v.shape}")
    idx = int(np.argmax(np.abs(v)))
    pivot = v.flat[idx]
    if abs(pivot) == 0.0:
        return bool(np.max(np.abs(u)) <= tol)
    phase = u.flat[idx] / pivot
    mag = abs(phase)
    phase = phase / mag if mag > 0 else 1.0
    return bool(np.max(np.abs(u - phase * v)) <= tol)

import numpy as np
import pytest

from cliffex import Circuit, cx, h, native_circuit, parse_pauli, rz, s, sdg
from cliffex.errors import LengthMismatch
from cliffex.pauli import PauliTerm

from oracle import (
    circuit_unitary,
    dense_pauli,
    equivalent_up_to_phase,
    expectation,
    probabilities,
    rotation_unitary,
    statevector,
)


def test_rotation_unitary_z():
    t = 0.37
    u = rotation_unitary(parse_pauli("Z"), t)
    assert np.allclose(u, np.diag([np.exp(1j * t), np.exp(-1j * t)]), atol=1e-12)


def test_rotation_unitary_identity_string():
    t = 0.5
    u = rotation_unitary(parse_pauli("II"), t)
    assert np.allclose(u, np.exp(1j * t) * np.eye(4), atol=1e-12)


def test_rotation_unitary_x_quarter():
    u = rotation_unitary(parse_pauli("X"), np.pi / 2)
    assert np.allclose(u, 1j * dense_pauli(parse_pauli("X")), atol=1e-12)


def test_rotation_sign_folds_in():
    t = 0.4
    assert np.allclose(
        rotation_unitary(parse_pauli("-Z"), t),
        rotation_unitary(parse_pauli("Z"), -t),
        atol=1e-12,
    )


def test_circuit_unitary_hadamard():
    u = circuit_unitary(Circuit(1, (h(0),)))
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_zz_block_matches_rotation():
    t = 0.23
    c = Circuit(2, (cx(0, 1), rz(1, -2 * t), cx(0, 1)))
    assert np.allclose(circuit_unitary(c), rotation_unitary(parse_pauli("ZZ"), t), atol=1e-12)


def test_y_basis_block_matches_rotation():
    t = -0.61
    c = Circuit(1, (sdg(0), h(0), rz(0, -2 * t), h(0), s(0)))
    assert np.allclose(circuit_unitary(c), rotation_unitary(parse_pauli("Y"), t), atol=1e-12)


def test_native_block_equals_rotation_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if set(word) == {"I"}:
            word = "X" + word[1:]
        t = float(rng.uniform(-np.pi, np.pi))
        term = PauliTerm(parse_pauli(word), t)
        u = circuit_unitary(native_circuit([term]))
        assert equivalent_up_to_phase(u, rotation_unitary(term.pauli, t), 1e-10)


def test_equivalence_examples():
    u = circuit_unitary(Circuit(2, (h(0), cx(0, 1))))
    assert equivalent_up_to_phase(u, np.exp(0.7j) * u, 1e-12)
    eye = np.eye(2, dtype=complex)
    x = dense_pauli(parse_pauli("X"))
    assert not equivalent_up_to_phase(eye, x, 1e-9)
    assert not equivalent_up_to_phase(u, u + 1e-6, 1e-9)
    with pytest.raises(ValueError):
        equivalent_up_to_phase(eye, np.eye(4), 1e-9)


def test_probabilities():
    p = probabilities(Circuit(1, (h(0),)))
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        gates = tuple(h(int(rng.integers(n))) for _ in range(4))
        assert abs(probabilities(Circuit(n, gates)).sum() - 1.0) <= 1e-12


def test_bit_order_is_qubit0_msb():
    # flip qubit 0 of three: H,H makes identity; X via h-z-h too heavy, use cx trick
    c = Circuit(3, (h(0), h(1)))
    psi = statevector(c)
    # amplitude pattern spans indices {000,010,100,110} -> q2 stays 0
    assert abs(psi[0b000]) > 0 and abs(psi[0b100]) > 0
    assert np.allclose(psi[0b001], 0.0)


def test_expectation_examples():
    assert expectation(Circuit(3), parse_pauli("ZZZ")) == pytest.approx(1.0)
    assert expectation(Circuit(1, (h(0),)), parse_pauli("X")) == pytest.approx(1.0)
    with pytest.raises(LengthMismatch):
        expectation(Circuit(2), parse_pauli("Z"))


_GATE_MATS = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
}


def _kron_gate(n, g):
    """Dense matrix of one gate as a Kronecker product (qubit 0 outermost)."""

    def on(ops):
        m = np.eye(1)
        for q in range(n):
            m = np.kron(m, ops.get(q, np.eye(2)))
        return m

    if g.kind == "cx":
        c, t = g.qubits
        return on({c: np.diag([1, 0])}) + on({c: np.diag([0, 1]), t: np.array([[0, 1], [1, 0]])})
    if g.kind == "rz":
        return on({g.qubits[0]: np.diag([np.exp(-0.5j * g.theta), np.exp(0.5j * g.theta)])})
    return on({g.qubits[0]: _GATE_MATS[g.kind]})


def test_circuit_unitary_matches_kron_reference():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(0, 15))):
            kind = str(rng.choice(["h", "s", "sdg", "rz", "cx"] if n > 1 else ["h", "s", "sdg", "rz"]))
            if kind == "cx":
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(c), int(t)))
            elif kind == "rz":
                gates.append(rz(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                gates.append({"h": h, "s": s, "sdg": sdg}[kind](int(rng.integers(n))))
        ref = np.eye(2**n, dtype=complex)
        for g in gates:
            ref = _kron_gate(n, g) @ ref
        c = Circuit(n, tuple(gates))
        assert np.allclose(circuit_unitary(c), ref, atol=1e-12)
        assert np.allclose(statevector(c), ref[:, 0], atol=1e-12)


def test_too_large():
    with pytest.raises(ValueError):
        statevector(Circuit(11))
    with pytest.raises(ValueError):
        rotation_unitary(parse_pauli("Z" * 12), 0.1)

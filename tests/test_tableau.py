import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import (
    Circuit,
    Gate,
    absorb_observables,
    absorb_probabilities,
    cx,
    extract,
    h,
    parse_pauli,
    rz,
    s,
    sdg,
)
from cliffex.errors import LengthMismatch
from cliffex.pauli import PauliString, PauliTerm
from cliffex.tableau import conj_rows, replay

from oracle import circuit_unitary, dense_pauli, equivalent_up_to_phase, rotation_unitary


def _random_clifford_log(rng, n, length):
    gates = []
    for _ in range(length):
        r = rng.random()
        if r < 0.3 or n < 2:
            gates.append(h(int(rng.integers(n))))
        elif r < 0.5:
            gates.append(s(int(rng.integers(n))))
        elif r < 0.65:
            gates.append(sdg(int(rng.integers(n))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(cx(int(c), int(t)))
    return gates


def _random_pauli(rng, n):
    word = "".join(rng.choice(list("IXYZ"), size=n))
    return parse_pauli(("-" if rng.random() < 0.4 else "") + word)


def _conjugate(gates, p):
    """D p D† for the Clifford D of ``gates`` (time order), through ``conj_rows``."""
    n, full = p.n, (1 << p.n) - 1
    rows = [p.x | p.z << n | (p.sign < 0) << 2 * n]
    conj_rows(rows, 0, gates, n)
    return PauliString(n, rows[0] & full, rows[0] >> n & full, -1 if rows[0] >> 2 * n else 1)


def test_cnot_conjugation_examples():
    gates = [cx(0, 1)]
    assert _conjugate(gates, parse_pauli("XX")).label() == "XI"
    assert _conjugate(gates, parse_pauli("ZY")).label() == "IY"
    assert _conjugate(gates, parse_pauli("YX")).label() == "YI"


def test_s_conjugation_sign():
    assert _conjugate([s(0)], parse_pauli("Y")).label() == "-X"
    assert _conjugate([s(0)], parse_pauli("X")).label() == "Y"


def test_conjugate_identity_log():
    p = parse_pauli("-XYZ")
    assert _conjugate([], p) == p


def test_conjugate_hadamard():
    assert _conjugate([h(0)], parse_pauli("XII")).label() == "ZII"


def test_conjugate_length_mismatch():
    # the observable must match the extracted Clifford's register, also
    # when E has gates to conjugate through
    e = Circuit(2, (h(0), cx(0, 1)))
    with pytest.raises(LengthMismatch):
        absorb_observables(e, [parse_pauli("X")])
    with pytest.raises(LengthMismatch):
        absorb_observables(e, [parse_pauli("XX"), parse_pauli("XYZ")])


def test_conjugation_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        log = _random_clifford_log(rng, n, int(rng.integers(0, 31)))
        d = circuit_unitary(Circuit(n, tuple(log)))
        for _ in range(3):
            p = _random_pauli(rng, n)
            got = dense_pauli(_conjugate(log, p))
            want = d @ dense_pauli(p) @ d.conj().T
            assert np.allclose(got, want, atol=1e-12)


def test_conjugation_preserves_commutation():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        log = _random_clifford_log(rng, n, 20)
        p, q = _random_pauli(rng, n), _random_pauli(rng, n)
        assert p.commutes(q) == _conjugate(log, p).commutes(_conjugate(log, q))
        # against the dense commutator too, independently of commutes()
        dp, dq = dense_pauli(_conjugate(log, p)), dense_pauli(_conjugate(log, q))
        assert p.commutes(q) == np.allclose(dp @ dq, dq @ dp, atol=1e-12)


@st.composite
def _circuits(draw, max_qubits):
    """(n, gates): a random H/S/SDG/CX/RZ circuit on n <= max_qubits qubits."""
    n = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, n - 1)
    gate = st.builds(lambda kind, q: Gate(kind, (q,)), st.sampled_from(["h", "s", "sdg"]), qubit)
    gate |= st.builds(rz, qubit, st.floats(-4.0, 4.0))
    if n > 1:  # the target is the control shifted by 1..n-1
        gate |= st.builds(lambda c, d: cx(c, (c + d) % n), qubit, st.integers(1, n - 1))
    return n, draw(st.lists(gate, max_size=40))


@settings(max_examples=200, deadline=None)
@given(_circuits(70))
def test_replay_matches_conj_rows(circuit):
    # 70 qubits and up to 180 rows cross the 64-bit boundary of both the
    # packed rows and the columns
    n, gates = circuit
    clifford = [g for g in gates if g.kind != "rz"]
    images, rotations = replay(gates, n)
    starts = [PauliString(n, 1 << q) for q in range(n)] + [PauliString(n, 0, 1 << q) for q in range(n)]
    assert images == [_conjugate(clifford, p) for p in starts]
    assert rotations == [
        (_conjugate([g for g in gates[k + 1 :] if g.kind != "rz"], PauliString(n, 0, 1 << r.qubits[0])),
         r.theta)
        for k, r in enumerate(gates) if r.kind == "rz"
    ]


@settings(max_examples=60, deadline=None)
@given(_circuits(4))
def test_replay_factors_the_dense_unitary(circuit):
    # the circuit is its Clifford gates followed by exp(-i t/2 P) for
    # every rotation (P, t) in time order
    n, gates = circuit
    _, rotations = replay(gates, n)
    u = circuit_unitary(Circuit(n, tuple(g for g in gates if g.kind != "rz")))
    for p, t in rotations:
        u = rotation_unitary(p, -t / 2) @ u
    assert equivalent_up_to_phase(circuit_unitary(Circuit(n, tuple(gates))), u, 1e-9)


def _extract(words):
    return extract([PauliTerm(parse_pauli(w), 0.3) for w in words])


def test_extracted_circuit_examples():
    # H then CX emitted on the way to one rotation come back as CX then H
    assert _extract(["XZ"]).extracted.gates == (cx(1, 0), h(0))
    # SDG then H diagonalise Y; the inverse swaps SDG for S
    assert _extract(["Y"]).extracted.gates == (h(0), s(0))
    # a lone Z rotation needs no Clifford
    assert _extract(["Z"]).extracted.gates == ()
    assert _extract(["XX", "ZZ"]).extracted.gates == (h(1), cx(1, 0), h(1), h(0))


def test_extracted_circuit_inverts_log():
    # extracted times the Clifford gates of opt_circuit is the identity
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        words = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(int(rng.integers(1, 8)))]
        words = [w for w in words if set(w) != {"I"}] or ["Z" * n]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = _extract(words)
        log = [g for g in res.opt_circuit.gates if g.kind != "rz"]
        u = circuit_unitary(res.extracted) @ circuit_unitary(Circuit(n, tuple(log)))
        assert np.allclose(u, np.eye(2**n), atol=1e-12)


def _measurement_side_form(n, mask, network):
    # dense(network) @ dense(H on mask): the H layer runs first
    layer = circuit_unitary(Circuit(n, tuple(h(q) for q in sorted(mask))))
    net = circuit_unitary(Circuit(n, tuple(cx(c, t) for c, t in network)))
    return net @ layer


def test_decompose_normal_form_is_dense_exact():
    # drawn back to front, so each CNOT has both or neither of its
    # qubits under an odd number of later Hadamards: always reducible
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        pending = set()
        gates = []
        for _ in range(int(rng.integers(1, 25))):
            if rng.random() < 0.4:
                q = int(rng.integers(n))
                gates.append(h(q))
                pending ^= {q}
            else:
                side = [q for q in range(n) if q in pending]
                if rng.random() < 0.5 or len(side) < 2:
                    side = [q for q in range(n) if q not in pending]
                if len(side) < 2:
                    continue
                c, t = rng.choice(side, size=2, replace=False)
                gates.append(cx(int(c), int(t)))
        circ = Circuit(n, tuple(reversed(gates)))
        pa = absorb_probabilities(circ)
        got = _measurement_side_form(n, pa.h_mask, pa.network)
        assert equivalent_up_to_phase(got, circuit_unitary(circ), 1e-12)


def test_single_hadamard_before_cnot_has_no_form():
    # exhaustive n=2 search: no Hadamard layer followed by a CNOT network
    # matches cx(0,1) then h(0) (as a matrix, H_0 before CX), so refusing
    # it is necessary
    target = circuit_unitary(Circuit(2, (cx(0, 1), h(0))))
    networks = [()]
    frontier = [()]
    for _ in range(4):
        new = []
        for net in frontier:
            for gate in ((0, 1), (1, 0)):
                new.append(net + (gate,))
        networks += new
        frontier = new
    for mask in ((), (0,), (1,), (0, 1)):
        for net in networks:
            assert not equivalent_up_to_phase(_measurement_side_form(2, mask, net), target, 1e-9)

import numpy as np
import pytest

from cliffex import Circuit, absorb_probabilities, cx, h, parse_pauli, rz, s, sdg
from cliffex.errors import InvalidSize, LengthMismatch
from cliffex.oracle import circuit_unitary, dense_pauli, equivalent_up_to_phase
from cliffex.tableau import ConjugationTableau


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


def test_identity_rows():
    tab = ConjugationTableau(1)
    assert [r.label() for r in tab.rows] == ["X", "Z"]
    tab = ConjugationTableau(2)
    assert [r.label() for r in tab.rows] == ["XI", "IX", "ZI", "IZ"]


def test_identity_rejects_zero():
    with pytest.raises(InvalidSize):
        ConjugationTableau(0)


def test_append_rejects_rz_and_range():
    tab = ConjugationTableau(2)
    with pytest.raises(ValueError):
        tab.append_gate(rz(0, 0.3))
    with pytest.raises(ValueError):
        tab.append_gate(h(2))


def test_cnot_conjugation_examples():
    tab = ConjugationTableau(2)
    tab.append_gate(cx(0, 1))
    assert tab.conjugate(parse_pauli("XX")).label() == "XI"
    assert tab.conjugate(parse_pauli("ZY")).label() == "IY"
    assert tab.conjugate(parse_pauli("YX")).label() == "YI"


def test_s_conjugation_sign():
    tab = ConjugationTableau(1)
    tab.append_gate(s(0))
    assert tab.conjugate(parse_pauli("Y")).label() == "-X"
    assert tab.conjugate(parse_pauli("X")).label() == "Y"


def test_conjugate_identity_log():
    tab = ConjugationTableau(3)
    p = parse_pauli("-XYZ")
    assert tab.conjugate(p) == p


def test_conjugate_hadamard():
    tab = ConjugationTableau(3)
    tab.append_gate(h(0))
    assert tab.conjugate(parse_pauli("XII")).label() == "ZII"


def test_conjugate_length_mismatch():
    with pytest.raises(LengthMismatch):
        ConjugationTableau(2).conjugate(parse_pauli("X"))


def test_conjugation_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        log = _random_clifford_log(rng, n, int(rng.integers(0, 31)))
        tab = ConjugationTableau(n)
        for g in log:
            tab.append_gate(g)
        d = circuit_unitary(Circuit(n, tuple(log)))
        for _ in range(3):
            p = _random_pauli(rng, n)
            got = dense_pauli(tab.conjugate(p))
            want = d @ dense_pauli(p) @ d.conj().T
            assert np.allclose(got, want, atol=1e-12)


def test_conjugation_preserves_commutation():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        tab = ConjugationTableau(n)
        for g in _random_clifford_log(rng, n, 20):
            tab.append_gate(g)
        p, q = _random_pauli(rng, n), _random_pauli(rng, n)
        assert p.commutes(q) == tab.conjugate(p).commutes(tab.conjugate(q))


def test_rows_stay_consistent():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        tab = ConjugationTableau(n)
        for g in _random_clifford_log(rng, n, 25):
            tab.append_gate(g)
        rows = tab.rows
        for q in range(n):
            assert not rows[q].commutes(rows[n + q])
            for r in range(n):
                if r != q:
                    assert rows[q].commutes(rows[n + r])
                    assert rows[q].commutes(rows[r])
        assert all(r.sign in (1, -1) for r in rows)


def test_gate_log_replay_reproduces_rows():
    rng = np.random.default_rng(29)
    tab = ConjugationTableau(4)
    for g in _random_clifford_log(rng, 4, 30):
        tab.append_gate(g)
    replay = ConjugationTableau(4)
    for g in tab.gate_log:
        replay.append_gate(g)
    assert [r.label() for r in replay.rows] == [r.label() for r in tab.rows]


def test_extracted_circuit_examples():
    tab = ConjugationTableau(2)
    tab.append_gate(h(0))
    tab.append_gate(cx(0, 1))
    assert tab.extracted_circuit().gates == (cx(0, 1), h(0))
    tab = ConjugationTableau(1)
    tab.append_gate(s(0))
    assert tab.extracted_circuit().gates == (sdg(0),)
    assert ConjugationTableau(2).extracted_circuit().gates == ()


def test_extracted_circuit_inverts_log():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        log = _random_clifford_log(rng, n, int(rng.integers(0, 25)))
        tab = ConjugationTableau(n)
        for g in log:
            tab.append_gate(g)
        u = circuit_unitary(tab.extracted_circuit()) @ circuit_unitary(Circuit(n, tuple(log)))
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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import Circuit, cnot_count, cx, emit_qasm, entangling_depth, h, parse_qasm, peephole, rz, s, sdg
from cliffex.circuit import Gate, inverse
from cliffex.errors import CliffexError, InvalidSize, SchemaError
from cliffex.oracle import circuit_unitary, equivalent_up_to_phase


def _random_circuit(rng, n, length):
    gates = []
    for _ in range(length):
        r = rng.random()
        if r < 0.2 or n < 2:
            gates.append(h(int(rng.integers(n))))
        elif r < 0.35:
            gates.append(s(int(rng.integers(n))))
        elif r < 0.5:
            gates.append(sdg(int(rng.integers(n))))
        elif r < 0.75:
            gates.append(rz(int(rng.integers(n)), float(rng.uniform(-3, 3))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(cx(int(c), int(t)))
    return Circuit(n, tuple(gates))


def test_gate_validation():
    with pytest.raises(ValueError):
        cx(1, 1)
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        Gate("h", (0,), theta=0.1)
    with pytest.raises(ValueError):
        Circuit(2, (h(2),))


def test_circuit_rejects_zero_qubits():
    # so no Clifford, and no absorption through one, acts on zero qubits
    with pytest.raises(InvalidSize):
        Circuit(0)


def test_cnot_count():
    c = Circuit(2, (h(0), cx(0, 1), rz(1, 0.3), cx(0, 1), h(0)))
    assert cnot_count(c) == 2
    assert cnot_count(Circuit(1)) == 0


def test_entangling_depth():
    assert entangling_depth(Circuit(4, (cx(0, 1), cx(2, 3), cx(1, 2)))) == 2
    assert entangling_depth(Circuit(2, (cx(0, 1), h(1), cx(0, 1)))) == 2
    assert entangling_depth(Circuit(3, (h(0), rz(1, 0.2)))) == 0


def test_depth_bounded_by_count():
    rng = np.random.default_rng(2)
    for _ in range(40):
        c = _random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(0, 25)))
        assert entangling_depth(c) <= cnot_count(c)


def test_peephole_cancellations():
    assert peephole(Circuit(1, (h(0), h(0)))).gates == ()
    assert peephole(Circuit(2, (cx(0, 1), cx(0, 1)))).gates == ()
    assert peephole(Circuit(1, (s(0), sdg(0)))).gates == ()
    assert peephole(Circuit(1, (sdg(0), s(0)))).gates == ()
    # reversed cx does not cancel
    c = Circuit(2, (cx(0, 1), cx(1, 0)))
    assert peephole(c).gates == c.gates


def test_peephole_rz_merge():
    out = peephole(Circuit(1, (rz(0, 0.25), rz(0, 0.5))))
    assert len(out.gates) == 1 and out.gates[0].theta == pytest.approx(0.75)
    assert peephole(Circuit(1, (rz(0, 0.25), rz(0, -0.25)))).gates == ()
    assert peephole(Circuit(1, (rz(0, 1e-15),))).gates == ()


def test_peephole_is_wire_local():
    # the rz sits on the control wire between the two cx: no cancellation
    c = Circuit(2, (cx(0, 1), rz(0, 0.4), cx(0, 1)))
    assert peephole(c).gates == c.gates
    # gates on other wires do not block
    assert peephole(Circuit(2, (h(0), h(1), h(0)))).gates == (h(1),)


def test_peephole_fixed_point():
    assert peephole(Circuit(2, (h(0), cx(0, 1), cx(0, 1), h(0)))).gates == ()


def test_peephole_preserves_unitary():
    rng = np.random.default_rng(4)
    for _ in range(30):
        c = _random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(0, 30)))
        out = peephole(c)
        assert equivalent_up_to_phase(circuit_unitary(out), circuit_unitary(c), 1e-12)


def test_emit_qasm_examples():
    assert emit_qasm(Circuit(1, (h(0),))) == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'
    )
    assert "cx q[0],q[1];" in emit_qasm(Circuit(2, (cx(0, 1),)))
    line = emit_qasm(Circuit(3, (rz(2, -0.6),))).splitlines()[-1]
    assert line.startswith("rz(") and line.endswith(" q[2];")
    assert float(line[3 : line.index(")")]) == -0.6  # 17 digits round-trip


def test_qasm_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(25):
        c = _random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(0, 20)))
        assert parse_qasm(emit_qasm(c)) == c


def test_parse_qasm_rejects_unknown():
    with pytest.raises(SchemaError):
        parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nt q[0];\n')
    with pytest.raises(SchemaError):
        parse_qasm("h q[0];\n")


_QASM_CHARS = "hsdgcxrzqe[](),;.-+0123456789 /"


@st.composite
def _mutated_qasm(draw):
    """Emitted QASM text with one line changed: a number swapped (a qubit
    index, the register size or an angle), characters inserted or
    deleted, or the whole line replaced."""
    n = draw(st.integers(2, 4))
    qubit = st.integers(0, n - 1)
    gate = st.one_of(
        st.builds(h, qubit),
        st.builds(s, qubit),
        st.builds(sdg, qubit),
        st.builds(rz, qubit, st.floats(-3, 3)),
        st.permutations(range(n)).map(lambda p: cx(p[0], p[1])),
    )
    lines = emit_qasm(Circuit(n, tuple(draw(st.lists(gate, max_size=6))))).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    how = draw(st.sampled_from(["number", "insert", "delete", "replace"]))
    if how == "number":
        spans = [m.span() for m in re.finditer(r"[-+0-9.eE]+", line)]
        if spans:
            a, b = draw(st.sampled_from(spans))
            new = draw(st.sampled_from(["0", "1", "2", "3", "4", "7", "12", "-1", "0.5", "1e999"]))
            line = line[:a] + new + line[b:]
    elif how == "insert":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.text(_QASM_CHARS, min_size=1, max_size=4)) + line[i:]
    elif how == "delete":
        i = draw(st.integers(0, len(line) - 1))
        line = line[:i] + line[draw(st.integers(i + 1, len(line))):]
    else:
        line = draw(st.text(_QASM_CHARS, max_size=24))
    lines[k] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_mutated_qasm())
def test_parse_qasm_mutation_parses_or_raises_cliffex_error(text):
    try:
        circ = parse_qasm(text)
    except CliffexError:
        return
    assert all(max(g.qubits) < circ.n for g in circ.gates)


def test_inverse():
    assert inverse(s(0)) == sdg(0)
    assert inverse(sdg(1)) == s(1)
    assert inverse(h(0)) == h(0)
    assert inverse(rz(0, 0.5)) == rz(0, -0.5)

import dataclasses
import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import (Circuit, PauliTerm, cnot_count, cx, emit_qasm, entangling_depth, extract, h, parse_pauli,
                     parse_qasm, peephole, rz, s, sdg)
from cliffex.circuit import Gate, inverse
from cliffex.errors import CliffexError, InvalidSize, SchemaError

from oracle import circuit_unitary, equivalent_up_to_phase, reference_peephole


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


def test_peephole_keys_wires_by_qubit_value():
    # 1.0 and 1 are one wire, as in a dict; a NaN qubit is its own wire
    assert peephole(Circuit(2, (h(1.0), h(1)))).gates == ()
    odd = h(float("nan"))
    out = peephole(Circuit(2, (h(0), odd, h(1), h(1)))).gates
    assert len(out) == 2 and out[0] is h(0) and out[1] is odd


def _wires(c):
    """Each wire's gates in order, as (kind, qubits) and as rz angles."""
    on = {q: [g for g in c.gates if q in g.qubits] for q in range(c.n)}
    return ({q: [(g.kind, g.qubits) for g in gs] for q, gs in on.items()},
            {q: [g.theta for g in gs if g.kind == "rz"] for q, gs in on.items()})


@st.composite
def _cancelling_circuits(draw):
    """Circuits of all five gate kinds on 1-3 qubits, often followed by
    the inverse of a suffix in reverse, so that cancellations nest; rz
    angles include zero, tiny and opposite values."""
    n = draw(st.integers(1, 3))
    qubit = st.integers(0, n - 1)
    angle = st.sampled_from([0.0, -0.0, 1e-13, -5e-324, 0.25, -0.25, 0.5, -0.75, 0.1, -0.3, 0.2])
    kinds = [st.builds(h, qubit), st.builds(s, qubit), st.builds(sdg, qubit), st.builds(rz, qubit, angle)]
    if n > 1:
        kinds.append(st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda p: cx(*p)))
    gates = draw(st.lists(st.one_of(kinds), max_size=40))
    k = draw(st.integers(0, len(gates)))
    gates += draw(st.lists(st.one_of(kinds), max_size=3))
    if draw(st.booleans()):
        gates += [inverse(g) for g in reversed(gates[k:])]
    return Circuit(n, tuple(gates))


@settings(max_examples=400, deadline=None)
@given(_cancelling_circuits())
def test_peephole_matches_repeated_passes_wire_by_wire(c):
    # gates on different wires may interleave differently; each wire's
    # sequence may not, and a merged angle may differ only in rounding
    out, ref = peephole(c), reference_peephole(c)
    assert len(out.gates) == len(ref.gates)
    assert cnot_count(out) == cnot_count(ref)
    assert entangling_depth(out) == entangling_depth(ref)
    (kinds, angles), (ref_kinds, ref_angles) = _wires(out), _wires(ref)
    assert kinds == ref_kinds
    for q in angles:
        assert angles[q] == pytest.approx(ref_angles[q], rel=1e-12, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_peephole_of_extract_output_matches_repeated_passes(data):
    n = data.draw(st.integers(1, 6))
    words = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=25))
    coeffs = st.one_of(st.just(0.0), st.just(0.0), st.floats(-2, 2))
    terms = [PauliTerm(parse_pauli(w), data.draw(coeffs)) for w in words if w.strip("I")]
    if terms:
        opt = extract(terms).opt_circuit
        assert emit_qasm(peephole(opt)) == emit_qasm(reference_peephole(opt))


def test_peephole_is_one_pass(monkeypatch):
    # structural, no timing: nested cancellations no longer cost a pass
    # each, so each input gate meets at most one partner
    mod = importlib.import_module("cliffex.circuit")
    cancels, calls = mod._cancels, []

    def counted(a, b):
        calls.append(1)
        return cancels(a, b)

    monkeypatch.setattr(mod, "_cancels", counted)
    c = Circuit(1, tuple([h(0), s(0)] * 500 + [sdg(0), h(0)] * 500))
    assert peephole(c).gates == ()
    assert 0 < len(calls) <= len(c.gates) == 2000


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


@st.composite
def _circuits(draw):
    """Circuits of all five gate kinds on up to 100 qubits; rz angles
    include negative, tiny and subnormal values."""
    n = draw(st.integers(1, 100))
    qubit = st.integers(0, n - 1)
    angle = st.one_of(
        st.floats(-10, 10, allow_nan=False),
        st.sampled_from([-1e-300, 5e-324, -5e-324, 1e-13, -2.5e-9, -0.0, math.pi]),
    )
    kinds = [st.builds(h, qubit), st.builds(s, qubit), st.builds(sdg, qubit), st.builds(rz, qubit, angle)]
    if n > 1:
        kinds.append(st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda p: cx(*p)))
    return Circuit(n, tuple(draw(st.lists(st.one_of(kinds), max_size=40))))


@settings(max_examples=200, deadline=None)
@given(_circuits())
def test_qasm_roundtrip_property(c):
    back = parse_qasm(emit_qasm(c))
    assert back == c
    assert [g.theta for g in back.gates] == [g.theta for g in c.gates]


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


@pytest.mark.parametrize("text, message", [
    (_HEADER + "t q[0];\n", "bad qasm statement 't q[0]': unsupported statement"),
    (_HEADER + "cx q[1],q[1];\n", "bad qasm statement 'cx q[1],q[1]': cx control and target must differ"),
    (_HEADER + "rz(nan) q[0];\n", "bad qasm statement 'rz(nan) q[0]': unsupported statement"),
    (_HEADER + "rz(1e999) q[0];\n", "bad qasm statement 'rz(1e999) q[0]': rz needs a finite angle"),
    (_HEADER + "h q[3];\n", "bad qasm statement 'h q[3]': qubit 3 outside the 2-qubit register"),
    (_HEADER + "h q[0]\n", "missing ';' in qasm line: 'h q[0]'"),
    (_HEADER + "qreg q[3];\n", "bad qasm statement 'qreg q[3]': unsupported statement"),
    ("OPENQASM 2.0;\nh q[0];\nqreg q[2];\n", "bad qasm statement 'h q[0]': gate before qreg declaration"),
    ("qreg q[0];\n", "bad qasm statement 'qreg q[0]': qubit count must be positive, got 0"),
])
def test_parse_qasm_error_messages(text, message):
    with pytest.raises(SchemaError) as info:
        parse_qasm(text)
    assert str(info.value) == message


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


def test_clifford_gates_are_shared():
    assert cx(0, 1) is cx(0, 1)
    assert h(3) is h(3) and s(3) is s(3) and sdg(3) is sdg(3)
    assert inverse(s(2)) is sdg(2) and inverse(sdg(2)) is s(2)
    assert parse_qasm(emit_qasm(Circuit(2, (cx(1, 0), sdg(1))))).gates[0] is cx(1, 0)
    with pytest.raises(ValueError):
        cx(4, 4)  # a rejected gate is not kept either
    with pytest.raises(ValueError):
        cx(4, 4)
    with pytest.raises(ValueError):
        h(-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h(0).qubits = (1,)


def test_clifford_gates_on_non_int_qubits_are_built_as_given():
    # 1.0 and True hash like 1: they must not pick up, or replace, h(1)
    one = h(1)
    for q in (1.0, True):
        g = h(q)
        assert g is not one and type(g.qubits[0]) is type(q)
        assert g == one  # dataclass equality, as before
    assert type(cx(0, 1.0).qubits[1]) is float
    assert h(1) is one and type(h(1).qubits[0]) is int
    assert type(cx(0, 1).qubits[1]) is int


def test_circuit_names_the_first_gate_out_of_range():
    with pytest.raises(ValueError) as info:
        Circuit(2, (h(0), cx(0, 2), h(5)))
    assert str(info.value) == "gate Gate(kind='cx', qubits=(0, 2), theta=None) out of range for 2 qubits"
    with pytest.raises(ValueError, match=r"qubits=\(3,\)"):
        Circuit(3, (h(float("nan")), h(3)))
    Circuit(3, (h(float("nan")), h(2)))  # NaN is not >= n, as before


def test_second_parse_builds_no_clifford_gate(monkeypatch):
    # structural, no timing: parsed Clifford gates come from the shared
    # table, so parsing the same text again validates only its rz gates
    built = []
    post_init = Gate.__post_init__

    def counted(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Gate, "__post_init__", counted)
    rng = np.random.default_rng(11)
    text = emit_qasm(_random_circuit(rng, 60, 300))
    first = parse_qasm(text)
    built.clear()
    assert parse_qasm(text) == first
    assert sorted(set(built)) == ["rz"]
    assert len(built) == sum(g.kind == "rz" for g in first.gates)

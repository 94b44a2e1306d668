import json

import pytest

from cliffex import absorb_probabilities, cnot_count, extract, gen_labs, gen_maxcut, load_terms, native_circuit
from cliffex.errors import CliffexError, InfeasibleDegree, LengthMismatch, SchemaError
from cliffex.problems import ProblemSpec, maxcut_edges, to_input_dict


def test_triangle_terms():
    spec = ProblemSpec(3, degree=2, seed=0)
    terms = gen_maxcut(spec)
    assert [t.pauli.label() for t in terms] == ["ZZI", "ZIZ", "IZZ", "XII", "IXI", "IIX"]
    assert len(terms) == 6


def test_regular_counts():
    t = gen_maxcut(ProblemSpec(20, degree=8, seed=7))
    assert len(t) == 100
    assert cnot_count(native_circuit(t)) == 160
    t = gen_maxcut(ProblemSpec(15, degree=4, seed=7))
    assert len(t) == 45
    assert cnot_count(native_circuit(t)) == 60
    t = gen_maxcut(ProblemSpec(20, degree=12, seed=1))
    assert len(t) == 140
    assert cnot_count(native_circuit(t)) == 240
    t = gen_maxcut(ProblemSpec(20, degree=4, seed=1))
    assert len(t) == 60
    assert cnot_count(native_circuit(t)) == 80


def test_random_graph_counts():
    t = gen_maxcut(ProblemSpec(10, edges=12, seed=3))
    assert len(t) == 22
    t = gen_maxcut(ProblemSpec(20, edges=117, seed=3))
    assert len(t) == 137
    assert cnot_count(native_circuit(t)) == 234


def test_regular_graph_is_simple_and_regular():
    for seed in range(4):
        edges = maxcut_edges(ProblemSpec(12, degree=5, seed=seed))
        assert len(edges) == len(set(edges)) == 30
        deg = [0] * 12
        for u, v in edges:
            assert u < v
            deg[u] += 1
            deg[v] += 1
        assert all(d == 5 for d in deg)


def test_seeded_reproducibility():
    a = gen_maxcut(ProblemSpec(14, degree=3, seed=9))
    b = gen_maxcut(ProblemSpec(14, degree=3, seed=9))
    assert [(t.pauli.label(), t.coeff) for t in a] == [(t.pauli.label(), t.coeff) for t in b]
    c = gen_maxcut(ProblemSpec(14, degree=3, seed=10))
    assert [t.pauli.label() for t in a] != [t.pauli.label() for t in c]


def test_infeasible_degree():
    with pytest.raises(InfeasibleDegree):
        ProblemSpec(3, degree=3)
    with pytest.raises(InfeasibleDegree):
        ProblemSpec(5, degree=3)
    with pytest.raises(InfeasibleDegree):
        ProblemSpec(4, degree=4)


def test_spec_needs_exactly_one_of_degree_or_edges():
    for kwargs in ({}, {"degree": 3, "edges": 12}):
        with pytest.raises(CliffexError, match="exactly one of degree or edges"):
            ProblemSpec(10, **kwargs)


def test_labs_counts():
    t = gen_labs(10)
    assert len(t) == 80
    assert cnot_count(native_circuit(t)) == 340
    weights = [x.pauli.weight() for x in t]
    assert weights.count(2) == 20
    assert weights.count(4) == 50
    assert weights.count(1) == 10  # mixer


def test_labs_problem_terms_are_z_only():
    for t in gen_labs(8)[:-8]:
        assert set(t.pauli.letters()) <= {"I", "Z"}
        assert t.pauli.x == 0


def test_labs_layering():
    one = gen_labs(6, 1)
    three = gen_labs(6, 3)
    assert len(three) == 3 * len(one)


def test_generated_instances_always_absorb():
    specs = [
        ProblemSpec(6, degree=3, seed=2, layers=2),
        ProblemSpec(7, edges=9, seed=5, layers=3),
        ProblemSpec(3, degree=2, seed=0, layers=1),
    ]
    instances = [gen_maxcut(s) for s in specs] + [gen_labs(6, 2), gen_labs(5, 3)]
    for terms in instances:
        res = extract(terms)
        pa = absorb_probabilities(res.extracted)  # must not raise
        assert pa.h_mask == frozenset(range(res.extracted.n))


def test_load_terms_roundtrip(tmp_path):
    spec = ProblemSpec(3, degree=2, seed=0, gammas=(0.3,), betas=(0.5,))
    terms = gen_maxcut(spec)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(to_input_dict(3, terms)))
    prob = load_terms(path)
    assert prob.n == 3
    assert prob.mode == "probabilities"
    assert [(t.pauli.label(), t.coeff) for t in prob.terms] == [
        (t.pauli.label(), t.coeff) for t in terms
    ]


def test_load_terms_mode_defaults(tmp_path):
    base = {"num_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 0.1}]}
    p = tmp_path / "a.json"
    p.write_text(json.dumps(base))
    assert load_terms(p).mode == "probabilities"
    base["observables"] = ["XX"]
    p.write_text(json.dumps(base))
    assert load_terms(p).mode == "observables"


def test_load_terms_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"terms": [{"pauli": "Z", "coeff": 1.0}]}))
    with pytest.raises(SchemaError, match="num_qubits"):
        load_terms(p)
    p.write_text(json.dumps({"num_qubits": 2, "terms": []}))
    with pytest.raises(SchemaError):
        load_terms(p)
    p.write_text(json.dumps({"num_qubits": 2, "terms": [{"pauli": "ZZZ", "coeff": 1.0}]}))
    with pytest.raises(LengthMismatch, match=r"terms\[0\]"):
        load_terms(p)
    p.write_text("not json")
    with pytest.raises(SchemaError):
        load_terms(p)
    p.write_bytes(b'{"num_qubits": 1, "terms": [{"pauli": "Z", "coeff": 1.0}]}\xff')
    with pytest.raises(SchemaError, match="cannot read input"):
        load_terms(p)
    p.write_text(json.dumps({"num_qubits": 1, "terms": [{"pauli": 5, "coeff": 1.0}]}))
    with pytest.raises(SchemaError, match=r"terms\[0\]: \"pauli\" must be a string"):
        load_terms(p)
    p.write_text(json.dumps({"num_qubits": True, "terms": [{"pauli": "Z", "coeff": 1.0}]}))
    with pytest.raises(SchemaError, match="num_qubits"):
        load_terms(p)
    p.write_text(json.dumps({"num_qubits": 1, "terms": [{"pauli": "Z", "coeff": True}]}))
    with pytest.raises(SchemaError, match="coeff"):
        load_terms(p)

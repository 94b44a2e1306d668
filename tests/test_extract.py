import warnings

import numpy as np
import pytest

from cliffex import (
    cnot_count,
    convert_commute_sets,
    cx,
    extract,
    native_circuit,
    parse_pauli,
    rz,
    tree_synthesis,
)
from cliffex.errors import EmptyTree, MixedQubitCounts
from cliffex.extract import basis_change_gates
from cliffex.oracle import circuit_unitary, equivalent_up_to_phase, rotation_unitary
from cliffex.pauli import PauliTerm
from cliffex.tableau import ConjugationTableau


def term(text, coeff=0.5):
    return PauliTerm(parse_pauli(text), coeff)


def _random_terms(rng, n, m, allow_identity=False):
    out = []
    for _ in range(m):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if not allow_identity and set(word) == {"I"}:
            word = word[:-1] + "Z"
        sign = "-" if rng.random() < 0.3 else ""
        out.append(term(sign + word, float(rng.uniform(-np.pi, np.pi))))
    return out


def _rotation_product(terms, n):
    u = np.eye(2**n, dtype=complex)
    for t in terms:
        u = rotation_unitary(t.pauli, t.coeff) @ u
    return u


def _roundtrip_ok(terms, result, tol=1e-9):
    u = circuit_unitary(result.extracted) @ circuit_unitary(result.opt_circuit)
    return equivalent_up_to_phase(u, _rotation_product(terms, result.opt_circuit.n), tol)


# ---------------------------------------------------------------- blocks


def test_commute_blocks_pairs():
    blocks = convert_commute_sets([term("ZZZZ"), term("YYXX")])
    assert [len(b) for b in blocks] == [2]
    blocks = convert_commute_sets([term("Z"), term("X")])
    assert [len(b) for b in blocks] == [1, 1]


def test_commute_blocks_triangle():
    seq = [term(w) for w in ("ZZI", "IZZ", "ZIZ", "XII", "IXI", "IIX")]
    blocks = convert_commute_sets(seq)
    assert [len(b) for b in blocks] == [3, 3]
    assert [t.pauli.label() for t in blocks[0]] == ["ZZI", "IZZ", "ZIZ"]


def test_commute_blocks_mixed_counts():
    with pytest.raises(MixedQubitCounts):
        convert_commute_sets([term("ZZ"), term("Z")])


# ---------------------------------------------------------- tree fixtures


@pytest.fixture()
def seven_qubit_setup():
    p1 = parse_pauli("YZXXYZZ")
    p2 = parse_pauli("YZXIZYX")
    p3 = parse_pauli("XZYZIYX")
    tab = ConjugationTableau(7)
    for g in basis_change_gates(p1):
        tab.append_gate(g)
    return p1, p2, p3, tab


def test_basis_extraction_strings(seven_qubit_setup):
    p1, p2, p3, tab = seven_qubit_setup
    assert tab.conjugate(p1).letters() == "ZZZZZZZ"
    p2p, p3p = tab.conjugate(p2), tab.conjugate(p3)
    assert p2p.letters() == "ZZZIXYX" and p2p.sign == 1
    assert p3p.letters() == "YZYXIYX" and p3p.sign == -1


def test_nonrecursive_tree(seven_qubit_setup):
    p1, p2, p3, tab = seven_qubit_setup
    gates, root = tree_synthesis([p1, p2], 0, range(7), tab, recursive=False)
    assert len(gates) == 6
    assert root == 4
    after = ConjugationTableau(7)
    for g in list(tab.gate_log) + gates:
        after.append_gate(g)
    assert after.conjugate(p2).letters() == "IIIIXYX"
    cur = after.conjugate(p1)
    assert cur.letters().count("Z") == 1 and cur.letter(root) == "Z"


def test_recursive_tree(seven_qubit_setup):
    p1, p2, p3, tab = seven_qubit_setup
    gates, root = tree_synthesis([p1, p2, p3], 0, range(7), tab, recursive=True)
    assert len(gates) == 6
    after = ConjugationTableau(7)
    for g in list(tab.gate_log) + gates:
        after.append_gate(g)
    assert after.conjugate(p2).letters() == "IIIIXYX"
    assert after.conjugate(p3).letters() == "IIXXIYX"
    cur = after.conjugate(p1)
    assert cur.letters().count("Z") == 1 and cur.letter(root) == "Z"


def test_tree_is_spanning(seven_qubit_setup):
    p1, p2, p3, tab = seven_qubit_setup
    for recursive in (False, True):
        gates, root = tree_synthesis([p1, p2, p3], 0, range(7), tab, recursive=recursive)
        assert len(gates) == 6
        # every qubit appears as a control exactly once except the root,
        # and its target-directed path reaches the root
        parents = {}
        for g in gates:
            c, t = g.qubits
            assert c not in parents
            parents[c] = t
        assert set(parents) == set(range(7)) - {root}
        for q in range(7):
            node, steps = q, 0
            while node != root:
                node = parents[node]
                steps += 1
                assert steps <= 7



def test_tree_singleton():
    tab = ConjugationTableau(6)
    gates, root = tree_synthesis([parse_pauli("IIIIIZ")], 0, [5], tab)
    assert gates == [] and root == 5


def test_tree_empty_raises():
    with pytest.raises(EmptyTree):
        tree_synthesis([parse_pauli("Z")], 0, [], ConjugationTableau(1))


# ------------------------------------------------------- candidate choice


def _schedule(words):
    stats = extract([term(w) for w in words]).stats
    return stats["emitted_order"], stats["reorders"]


def test_find_next_sole_candidate():
    assert _schedule(["ZZZZ", "YYXX"]) == ((0, 1), 0)


def test_find_next_no_candidates():
    # anticommuting neighbours: every block is a singleton
    assert _schedule(["ZI", "XI"]) == ((0, 1), 0)


def test_find_next_ties_break_low():
    # ZI and IZ both end at weight 1 behind the ZZ tree
    assert _schedule(["ZZ", "ZI", "IZ"]) == ((0, 1, 2), 0)


def test_find_next_prefers_lighter_result():
    # conjugating the duplicate edge through its own chain leaves weight 1
    assert _schedule(["ZZII", "IIZZ", "ZZII"]) == ((0, 2, 1), 1)


# ----------------------------------------------------------- extraction


def test_extract_single_zz():
    res = extract([term("ZZ", 0.4)])
    assert res.opt_circuit.gates == (cx(1, 0), rz(0, -0.8))
    assert res.extracted.gates == (cx(1, 0),)
    assert _roundtrip_ok([term("ZZ", 0.4)], res)


def test_extract_negative_sign_flips_angle():
    res = extract([term("-ZZ", 0.4)])
    assert res.opt_circuit.gates == (cx(1, 0), rz(0, 0.8))
    assert _roundtrip_ok([term("-ZZ", 0.4)], res)


def test_extract_two_rotation_budget():
    terms = [term("ZZZZ", 0.31), term("YYXX", -0.7)]
    res = extract(terms)
    assert cnot_count(res.opt_circuit) == 4  # 3 for the first tree + 1 residual
    assert _roundtrip_ok(terms, res)


def test_extract_skips_identity_with_warning():
    terms = [term("II", 0.2), term("ZZ", 0.4)]
    with pytest.warns(UserWarning):
        res = extract(terms)
    assert res.stats["skipped_identity_terms"] == 1
    assert res.stats["rotations"] == 1
    assert _roundtrip_ok(terms, res)


def test_extract_empty_raises():
    with pytest.raises(ValueError):
        extract([])


def test_extract_cnot_budget_matches_weights():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 10))
        terms = _random_terms(rng, n, m)
        res = extract(terms)
        assert cnot_count(res.opt_circuit) == sum(w - 1 for w in res.stats["weights"])


def test_extract_roundtrip_random():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        terms = _random_terms(rng, n, m, allow_identity=True)
        if all(t.pauli.weight() == 0 for t in terms):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = extract(terms)
        assert _roundtrip_ok(terms, res)


def test_extract_schedule_is_block_permutation():
    rng = np.random.default_rng(47)
    for _ in range(15):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        terms = _random_terms(rng, n, m)
        res = extract(terms)
        blocks = convert_commute_sets(terms)
        order = list(res.stats["emitted_order"])
        start = 0
        for b in blocks:
            chunk = order[start : start + len(b)]
            assert sorted(chunk) == list(range(start, start + len(b)))
            start += len(b)


def test_extract_deterministic():
    rng = np.random.default_rng(53)
    terms = _random_terms(rng, 5, 8)
    a, b = extract(terms), extract(terms)
    assert a.opt_circuit == b.opt_circuit
    assert a.extracted == b.extracted


def test_native_circuit_cost_and_unitary():
    terms = [term("ZYX", 0.3), term("-XXI", -0.2)]
    nat = native_circuit(terms)
    assert cnot_count(nat) == 2 * (3 - 1) + 2 * (2 - 1)
    assert equivalent_up_to_phase(circuit_unitary(nat), _rotation_product(terms, 3), 1e-10)

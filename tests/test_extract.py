import functools
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliffex import (
    Circuit,
    Gate,
    cnot_count,
    convert_commute_sets,
    cx,
    extract,
    h,
    native_circuit,
    parse_pauli,
    rz,
    s,
    sdg,
)
from cliffex.errors import InvalidSize, LengthMismatch
from cliffex.extract import _chain_tree, _score_candidates, basis_change_gates, tree_synthesis
from cliffex.pauli import PauliString, PauliTerm, _support
from cliffex.tableau import conj_rows

from oracle import circuit_unitary, dense_pauli, equivalent_up_to_phase, rotation_unitary


def term(text, coeff=0.5):
    return PauliTerm(parse_pauli(text), coeff)


def _random_terms(rng, n, m):
    out = []
    for _ in range(m):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if set(word) == {"I"}:
            word = word[:-1] + "Z"
        sign = "-" if rng.random() < 0.3 else ""
        out.append(term(sign + word, float(rng.uniform(-np.pi, np.pi))))
    return out


def _rotation_product(terms, n):
    u = np.eye(2**n, dtype=complex)
    for t in terms:
        u = rotation_unitary(t.pauli, t.coeff) @ u
    return u


def _conjugate(gates, p):
    """D p D† for the Clifford D of ``gates`` (time order), through ``conj_rows``."""
    n, full = p.n, (1 << p.n) - 1
    rows = [_packed(p.x, p.z, p.sign, n)]
    conj_rows(rows, 0, gates, n)
    return PauliString(n, rows[0] & full, rows[0] >> n & full, -1 if rows[0] >> 2 * n else 1)


def _packed(x, z, sign, n):
    """The row ``conj_rows`` reads: x | z << n, bit 2n set for sign -1."""
    return x | z << n | (sign < 0) << 2 * n


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
    with pytest.raises(LengthMismatch):
        convert_commute_sets([term("ZZ"), term("Z")])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=24)
    )
)
def test_commute_blocks_match_pairwise_definition(words):
    expected: list[list[str]] = []
    for w in words:
        p = parse_pauli(w)
        if expected and all(p.commutes(parse_pauli(v)) for v in expected[-1]):
            expected[-1].append(w)
        else:
            expected.append([w])
    blocks = convert_commute_sets([term(w) for w in words])
    assert [[t.pauli.letters() for t in b] for b in blocks] == expected


# ---------------------------------------------------------- tree fixtures


@pytest.fixture()
def seven_qubit_setup():
    p1 = parse_pauli("YZXXYZZ")
    p2 = parse_pauli("YZXIZYX")
    p3 = parse_pauli("XZYZIYX")
    return p1, p2, p3, basis_change_gates(p1)


def test_basis_extraction_strings(seven_qubit_setup):
    p1, p2, p3, layer = seven_qubit_setup
    assert _conjugate(layer, p1).letters() == "ZZZZZZZ"
    p2p, p3p = _conjugate(layer, p2), _conjugate(layer, p3)
    assert p2p.letters() == "ZZZIXYX" and p2p.sign == 1
    assert p3p.letters() == "YZYXIYX" and p3p.sign == -1


def _rows(gates, *paulis):
    """``paulis`` conjugated through ``gates``, packed as x | z << n: the
    rows ``tree_synthesis`` reads its guidance from."""
    images = [_conjugate(gates, p) for p in paulis]
    return [p.x | p.z << p.n for p in images]


def _chain_gates(idxs, guide, gates):
    """The non-recursive tree over ``idxs`` guided by ``guide`` (conjugated
    through ``gates``), as CNOT gates plus the one qubit that is never a
    control: the root."""
    g = _conjugate(gates, guide)
    pairs = _chain_tree(list(idxs), g.x, g.z)
    (root,) = set(idxs) - {c for c, _ in pairs}
    return [cx(c, t) for c, t in pairs], root


def test_nonrecursive_tree(seven_qubit_setup):
    p1, p2, p3, layer = seven_qubit_setup
    gates, root = _chain_gates(range(7), p2, layer)
    assert len(gates) == 6
    assert root == 4
    assert _conjugate(layer + gates, p2).letters() == "IIIIXYX"
    cur = _conjugate(layer + gates, p1)
    assert cur.letters().count("Z") == 1 and cur.letter(root) == "Z"


def test_recursive_tree(seven_qubit_setup):
    p1, p2, p3, layer = seven_qubit_setup
    gates, root = tree_synthesis(_rows(layer, p2, p3), 0, 7, range(7))
    assert len(gates) == 6
    assert _conjugate(layer + gates, p2).letters() == "IIIIXYX"
    assert _conjugate(layer + gates, p3).letters() == "IIXXIYX"
    cur = _conjugate(layer + gates, p1)
    assert cur.letters().count("Z") == 1 and cur.letter(root) == "Z"


def test_tree_is_spanning(seven_qubit_setup):
    p1, p2, p3, layer = seven_qubit_setup
    for gates, root in (
        _chain_gates(range(7), p2, layer),
        tree_synthesis(_rows(layer, p1, p2, p3), 1, 7, range(7)),
    ):
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
    gates, root = tree_synthesis(_rows([], parse_pauli("IIIIIZ")), 1, 6, [5])
    assert gates == [] and root == 5


def test_tree_empty_raises():
    with pytest.raises(InvalidSize):
        tree_synthesis(_rows([], parse_pauli("Z")), 1, 1, [])


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


# ------------------------------------------- incrementally conjugated rows


@st.composite
def _scoring_case(draw):
    """n <= 6 qubits, a random H/S/SDG/CX prefix, a random non-identity
    current string (already conjugated) and a random list of strings."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    one_q = st.builds(lambda k, q: k(q), st.sampled_from([h, s, sdg]), st.integers(0, n - 1))
    gate = one_q
    if n > 1:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        gate = st.one_of(one_q, pair.map(lambda ct: cx(*ct)))
    prefix = draw(st.lists(gate, max_size=12))
    strings = draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=8))
    px, pz = draw(st.tuples(masks, masks).filter(lambda xz: xz != (0, 0)))
    return n, prefix, strings, px, pz


def _reference_choice(n, prefix, strings, px, pz):
    """The scorer as first written: re-conjugate every candidate through
    the prefix, the current string's basis layer and the chain tree keyed
    on that candidate, one string at a time; keep the first of the
    lightest."""
    basis = basis_change_gates(PauliString(n, px, pz))
    supp = _support(px | pz)
    best_w = best_j = None
    for j, (x, z) in enumerate(strings):
        g = _conjugate(prefix + basis, PauliString(n, x, z))
        tree = [cx(c, t) for c, t in _chain_tree(supp, g.x, g.z)]
        w = _conjugate(tree, g).weight()
        if best_w is None or w < best_w:
            best_w, best_j = w, j
    return best_j


@functools.cache
def _dense_images(kind):
    """Every Pauli pattern on a gate's k qubits (x | z << k, the gate's
    own qubit order) mapped to its image under g P g† and the sign,
    read off the gate's dense k-qubit matrix: no conjugation rule of
    cliffex is involved."""
    k = 2 if kind == "cx" else 1
    u = circuit_unitary(Circuit(k, (Gate(kind, tuple(range(k))),)))
    dense = {v: dense_pauli(PauliString(k, v & ((1 << k) - 1), v >> k)) for v in range(4**k)}
    images = {}
    for v, m in dense.items():
        img = u @ m @ u.conj().T
        for w, mw in dense.items():
            for sign in (1, -1):
                if np.allclose(img, sign * mw, atol=1e-12):
                    images[v] = (w, sign)
    assert len(images) == 4**k
    return images


def _conj_raw(x, z, sign, gates):
    """Conjugate the raw masks (x, z) and ``sign`` by ``gates`` in time
    order, letter by letter on each gate's qubits."""
    for g in gates:
        k = len(g.qubits)
        v = 0
        for i, q in enumerate(g.qubits):
            v |= (x >> q & 1) << i | (z >> q & 1) << (i + k)
        w, flip = _dense_images(g.kind)[v]
        for i, q in enumerate(g.qubits):
            x = x & ~(1 << q) | (w >> i & 1) << q
            z = z & ~(1 << q) | (w >> (i + k) & 1) << q
        sign *= flip
    return x, z, sign


@settings(max_examples=200, deadline=None)
@given(_scoring_case(), st.integers(0, 3), st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8))
def test_rows_follow_the_reference_gate_by_gate(case, lo, drawn_signs):
    n, prefix, strings, _, _ = case
    start_signs = drawn_signs[: len(strings)]
    rows = [_packed(x, z, sign, n) for (x, z), sign in zip(strings, start_signs)]
    batch = list(rows)
    for m, g in enumerate(prefix, 1):
        conj_rows(rows, lo, [g], n)
        for k, ((x, z), sign) in enumerate(zip(strings, start_signs)):
            if k >= lo:
                assert rows[k] == _packed(*_conj_raw(x, z, sign, prefix[:m]), n)
            else:
                assert rows[k] == _packed(x, z, sign, n)
    # one call with the whole gate list is the same as gate by gate
    conj_rows(batch, lo, prefix, n)
    assert batch == rows


@pytest.mark.parametrize("n", [63, 64, 65, 100])
def test_conj_rows_match_conj_raw_on_wide_registers(n):
    # packed rows are 2n bits wide, so these sizes cross 64 and 128 bits
    rng = random.Random(n)
    gates = []
    for _ in range(300):
        make = rng.choice((h, s, sdg, cx))
        gates.append(make(*rng.sample(range(n), 2)) if make is cx else make(rng.randrange(n)))
    strings = [(rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))) for _ in range(20)]
    # X, Z and Y on the top qubit alone: the highest bit of each half
    strings += [(1 << (n - 1), 0, 1), (0, 1 << (n - 1), -1), (1 << (n - 1), 1 << (n - 1), 1)]
    rows = [_packed(x, z, sign, n) for x, z, sign in strings]
    for k in range(0, len(gates), 7):
        chunk = gates[k : k + 7]
        conj_rows(rows, 0, chunk, n)
        for m, (x, z, sign) in enumerate(strings):
            x, z, sign = _conj_raw(x, z, sign, chunk)
            strings[m] = x, z, sign
            assert rows[m] == _packed(x, z, sign, n)


@settings(max_examples=200, deadline=None)
@given(_scoring_case(), st.integers(0, 2), st.integers(0, 2))
def test_score_candidates_matches_reference(case, lo, tail):
    n, prefix, strings, px, pz = case
    # identity rows below lo or from hi on would win if they were scanned
    rows = [0] * lo + [x | z << n for x, z in strings]
    hi = len(rows)
    # the scorer reads the rows after the current string's basis layer
    layer = basis_change_gates(PauliString(n, px, pz))
    conj_rows(rows, lo, prefix + layer, n)
    rows += [0] * tail
    expected = lo + _reference_choice(n, prefix, strings, px, pz)
    assert _score_candidates(rows, lo, hi, px | pz, n) == expected


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


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.text("IXYZ", min_size=n, max_size=n),
                st.sampled_from(["", "-"]),
                st.floats(-np.pi, np.pi),
            ),
            min_size=1,
            max_size=12,
        )
    )
)
def test_extract_roundtrip_random(drawn):
    # random X/Y/Z lists of this length usually split into several
    # blocks, so trees are guided across block boundaries
    assume(any(set(word) != {"I"} for word, _, _ in drawn))
    terms = [term(sign + word, coeff) for word, sign, coeff in drawn]
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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.sampled_from(["", "-"])),
            min_size=1,
            max_size=10,
        )
    )
)
def test_extracted_inverts_the_emitted_cliffords(drawn):
    # the extracted circuit is the inverse, in reverse order, of the
    # Clifford gates of opt_circuit: cx(a,b) is its own inverse and
    # S and SDG swap
    assume(any(set(word) != {"I"} for word, _ in drawn))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = extract([term(sign + word) for word, sign in drawn])
    cliff = [g for g in res.opt_circuit.gates if g.kind != "rz"]
    flip = {"h": "h", "cx": "cx", "s": "sdg", "sdg": "s"}
    assert res.extracted.n == res.opt_circuit.n
    assert res.extracted.gates == tuple(Gate(flip[g.kind], g.qubits) for g in reversed(cliff))


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

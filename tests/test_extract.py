import functools
import importlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cliffex
from cliffex import (
    Circuit,
    Gate,
    cnot_count,
    cx,
    entangling_depth,
    extract,
    h,
    native_circuit,
    parse_pauli,
    rz,
    s,
    sdg,
)
from cliffex.cli import _same_rotations
from cliffex.errors import InvalidSize, LengthMismatch
from cliffex.extract import (
    _add,
    _chain_weight,
    _score_candidates,
    _sub,
    basis_change_gates,
    native_cost,
    tree_synthesis,
)
from cliffex.pauli import PauliString, PauliTerm, _support
from cliffex.tableau import columns, conj_columns, replay, strings as column_strings

from oracle import (
    _chain_tree,
    circuit_unitary,
    commute_blocks,
    dense_pauli,
    equivalent_up_to_phase,
    reference_extract,
    reference_tree,
    rotation_unitary,
)


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
    """D p D† for the Clifford D of ``gates`` (time order), through ``conj_columns``."""
    xs, zs, sign = columns([p], p.n)
    sign ^= conj_columns(xs, zs, gates)
    return column_strings(xs, zs, sign, 1)[0]


def _roundtrip_ok(terms, result, tol=1e-9):
    u = circuit_unitary(result.extracted) @ circuit_unitary(result.opt_circuit)
    return equivalent_up_to_phase(u, _rotation_product(terms, result.opt_circuit.n), tol)


# ---------------------------------------------------------------- blocks


def test_commute_blocks_pairs():
    assert extract([term("ZZZZ"), term("YYXX")]).stats["block_sizes"] == (2,)
    assert extract([term("Z"), term("X")]).stats["block_sizes"] == (1, 1)


def test_commute_blocks_triangle():
    seq = [term(w) for w in ("ZZI", "IZZ", "ZIZ", "XII", "IXI", "IIX")]
    stats = extract(seq).stats
    assert stats["block_sizes"] == (3, 3)
    assert sorted(stats["emitted_order"][:3]) == [0, 1, 2]


def test_commute_blocks_mixed_counts():
    with pytest.raises(LengthMismatch):
        extract([term("ZZ"), term("Z")])


@st.composite
def _partition_words(draw):
    """Dense words on 1-4 qubits, or up to 150 sparse words on 63, 64, 65
    or 100 qubits, whose lane masks and qubit masks cross word
    boundaries; a narrow letter set keeps some blocks long."""
    n = draw(st.sampled_from([1, 2, 3, 4, 63, 64, 65, 100]))
    if n <= 4:
        return draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=24))
    letters = draw(st.sampled_from(["IZ", "XZ", "IXZ", "IXYZ"]))
    spots = st.dictionaries(st.integers(0, n - 1), st.sampled_from(letters), max_size=3)
    m = draw(st.integers(1, 150))
    return ["".join(d.get(q, "I") for q in range(n)) for d in draw(st.lists(spots, min_size=m, max_size=m))]


@settings(max_examples=200, deadline=None)
@given(_partition_words())
def test_commute_blocks_match_pairwise_definition(words):
    terms = [term(w) for w in words]
    # extract skips identity words, so the runs are those of the others
    expected = commute_blocks(t for t in terms if t.pauli.weight())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = extract(terms).stats
    assert stats["block_sizes"] == tuple(map(len, expected))


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


def _cols(gates, *paulis):
    """The columns ``tree_synthesis`` reads its guidance from: lane k
    holds paulis[k] conjugated through ``gates``."""
    xs, zs, _ = columns(paulis, paulis[0].n)
    conj_columns(xs, zs, gates)
    return xs, zs


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
    gates, root = tree_synthesis(*_cols(layer, p2, p3), range(7), 0, 0b10)
    assert len(gates) == 6
    assert _conjugate(layer + gates, p2).letters() == "IIIIXYX"
    assert _conjugate(layer + gates, p3).letters() == "IIXXIYX"
    cur = _conjugate(layer + gates, p1)
    assert cur.letters().count("Z") == 1 and cur.letter(root) == "Z"


def test_tree_is_spanning(seven_qubit_setup):
    p1, p2, p3, layer = seven_qubit_setup
    for gates, root in (
        _chain_gates(range(7), p2, layer),
        tree_synthesis(*_cols(layer, p1, p2, p3), range(7), 1, 0b100),
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
    gates, root = tree_synthesis(*_cols([], parse_pauli("IIIIIZ")), [5], None, 0)
    assert gates == [] and root == 5


def test_tree_empty_raises():
    with pytest.raises(InvalidSize):
        tree_synthesis(*_cols([], parse_pauli("Z")), [], None, 0)


def test_tree_reads_its_qubits_as_a_set(seven_qubit_setup):
    # an unsorted list with repeats gives the tree of the sorted set, and
    # no list is changed: extract reuses the support after the tree
    p1, p2, p3, layer = seven_qubit_setup
    cols = _cols(layer, p2, p3)
    for first, rest in ((0, 0b10), (None, 0b10), (None, 0)):
        shuffled, ordered = [5, 2, 6, 0, 2, 4, 1, 3, 5, 6], list(range(7))
        tree = tree_synthesis(*cols, ordered, first, rest)
        assert tree_synthesis(*cols, shuffled, first, rest) == tree
        assert shuffled == [5, 2, 6, 0, 2, 4, 1, 3, 5, 6] and ordered == list(range(7))


@st.composite
def _tree_case(draw):
    """Columns of up to 200 strings on up to 100 qubits, a tree support S
    and guide lanes (``first``, ``rest``): ``first`` absent, above every
    lane of ``rest``, with one letter on all of S, or anywhere, and few
    or sparse lanes, so that guidance runs out.  Narrow letter sets and
    lanes uniform on S leave many strings that split nothing."""
    n = draw(st.sampled_from([1, 2, 3, 7, 63, 64, 65, 100]))
    m = draw(st.sampled_from([0, 1, 2, 5, 30, 64, 65, 140, 200]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    supp = sorted(rng.sample(range(n), draw(st.integers(1, n))))
    letters = draw(st.sampled_from(["IZ", "XZ", "IY", "IXYZ"]))
    uniform = draw(st.sampled_from([0.0, 0.5, 0.9]))
    words = []
    for _ in range(m):
        word = [rng.choice("IXYZ") for _ in range(n)]
        one = rng.choice(letters)
        for q in supp:
            word[q] = one if rng.random() < uniform else rng.choice(letters)
        words.append(word)
    mode = draw(st.sampled_from(["none", "above", "uniform", "any"])) if m else "none"
    first = None if mode == "none" else m - 1 if mode == "above" else rng.randrange(m)
    if mode == "uniform":
        for q in supp:
            words[first][q] = words[first][supp[0]]
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rest = sum(1 << k for k in range(m) if k != first and rng.random() < density)
    paulis = [parse_pauli("".join(w)) for w in words] or [PauliString(n)]
    return paulis, supp, first, rest


@settings(max_examples=200, deadline=None)
@given(_tree_case())
def test_tree_matches_the_guide_row_reference(case):
    paulis, supp, first, rest = case
    xs, zs, _ = columns(paulis, paulis[0].n)
    lanes = ([] if first is None else [first]) + _support(rest)
    guides = [(paulis[k].x, paulis[k].z) for k in lanes]
    assert tree_synthesis(xs, zs, supp, first, rest) == reference_tree(supp, guides)


def _peeling(n):
    """Z on every qubit, then Z on each qubit alone: every guide peels one
    qubit off the first string's tree, which is n - 1 levels deep."""
    return [term("Z" * n, 0.1)] + [term("I" * q + "Z" + "I" * (n - q - 1), 0.2 + q / n)
                                   for q in range(n)]


def test_tree_deeper_than_the_recursion_limit():
    # 1100 levels are past Python's recursion limit: extract still
    # returns a circuit that replays to the input's rotations
    n = 1100
    terms = _peeling(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = extract(terms)
    images, rotations = replay(res.opt_circuit.gates + res.extracted.gates, n)
    assert images == replay((), n)[0] and _same_rotations(terms, rotations, n)
    # below the limit, the recursive reference emits the same CNOTs in
    # the same order
    n = 600
    paulis = [t.pauli for t in _peeling(n)[1:]]
    xs, zs, _ = columns(paulis, n)
    supp = list(range(n))
    tree = tree_synthesis(xs, zs, supp, None, (1 << n) - 1)
    assert len(tree[0]) == n - 1 and tree == reference_tree(supp, [(p.x, p.z) for p in paulis])

def test_extract_reads_one_row_per_rotation(monkeypatch):
    # the current string is the only row read; trees split on lanes
    module = importlib.import_module("cliffex.extract")
    calls = {"reads": 0}
    read = module._read

    def counted(*args):
        calls["reads"] += 1
        return read(*args)

    monkeypatch.setattr(module, "_read", counted)
    rng = np.random.default_rng(7)
    terms = _random_terms(rng, 6, 40) + [term(w) for w in ("ZZZZZI", "IZZZZZ", "ZIZIZI", "XXIIII")]
    stats = module.extract(terms).stats
    assert calls["reads"] == stats["rotations"] == len(terms)


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


def _packed(x, z, sign, n):
    """Row (x, z, sign) as one int: x | z << n, bit 2n set for sign -1."""
    return x | z << n | (sign < 0) << 2 * n


def _lanes_packed(xs, zs, sign, count, n):
    """Rows 0..count-1 of the columns, each packed by ``_packed``."""
    return [_packed(p.x, p.z, p.sign, n) for p in column_strings(xs, zs, sign, count)]


@settings(max_examples=200, deadline=None)
@given(_scoring_case(), st.integers(0, 3), st.lists(st.sampled_from([1, -1]), min_size=8, max_size=8))
def test_rows_follow_the_reference_gate_by_gate(case, lo, drawn_signs):
    # the strings sit in lanes lo and up; the identity lanes below them
    # must stay identity with sign +1
    n, prefix, strings, _, _ = case
    start_signs = drawn_signs[: len(strings)]
    paulis = [PauliString(n)] * lo + [PauliString(n, x, z, sign) for (x, z), sign in zip(strings, start_signs)]
    xs, zs, sign = columns(paulis, n)
    batch = list(xs), list(zs), sign
    for m, g in enumerate(prefix, 1):
        sign ^= conj_columns(xs, zs, [g])
        rows = _lanes_packed(xs, zs, sign, len(paulis), n)
        assert rows[:lo] == [0] * lo
        for k, ((x, z), s0) in enumerate(zip(strings, start_signs)):
            assert rows[lo + k] == _packed(*_conj_raw(x, z, s0, prefix[:m]), n)
    # one call with the whole gate list is the same as gate by gate
    bx, bz, bsign = batch
    bsign ^= conj_columns(bx, bz, prefix)
    assert (bx, bz, bsign) == (xs, zs, sign)


@pytest.mark.parametrize("n", [63, 64, 65, 100])
def test_conj_rows_match_conj_raw_on_wide_registers(n):
    # the columns of these registers are as many ints as qubits, and the
    # rows' masks cross 64 bits; here through conj_columns
    rng = random.Random(n)
    gates = []
    for _ in range(300):
        make = rng.choice((h, s, sdg, cx))
        gates.append(make(*rng.sample(range(n), 2)) if make is cx else make(rng.randrange(n)))
    strings = [(rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))) for _ in range(20)]
    # X, Z and Y on the top qubit alone: the highest bit of each mask
    strings += [(1 << (n - 1), 0, 1), (0, 1 << (n - 1), -1), (1 << (n - 1), 1 << (n - 1), 1)]
    xs, zs, sign = columns([PauliString(n, x, z, sg) for x, z, sg in strings], n)
    for k in range(0, len(gates), 7):
        chunk = gates[k : k + 7]
        sign ^= conj_columns(xs, zs, chunk)
        rows = _lanes_packed(xs, zs, sign, len(strings), n)
        for m, (x, z, sg) in enumerate(strings):
            x, z, sg = _conj_raw(x, z, sg, chunk)
            strings[m] = x, z, sg
            assert rows[m] == _packed(x, z, sg, n)


def _off_support(xs, zs, smask, lanes):
    """Each lane's letters off ``smask``, counted lane by lane from
    scratch and bit-sliced like the scorer's counters (least significant
    digit first, bit k of each digit belonging to lane k)."""
    counts = [sum((xs[q] | zs[q]) >> k & 1 for q in range(len(xs)) if not smask >> q & 1) for k in range(lanes)]
    return [sum((c >> d & 1) << k for k, c in enumerate(counts)) for d in range(max(counts).bit_length())]


def _scored(n, prefix, strings, px, pz, lo=0, tail=0):
    """The lane ``_score_candidates`` picks among ``strings``, placed in
    lanes lo and up of columns whose other lanes hold identities, after
    the prefix and the basis layer of (px, pz)."""
    paulis = [PauliString(n)] * lo + [PauliString(n, x, z) for x, z in strings] + [PauliString(n)] * tail
    xs, zs, _ = columns(paulis, n)
    # the scorer reads the rows after the current string's basis layer
    conj_columns(xs, zs, prefix + basis_change_gates(PauliString(n, px, pz)))
    off = _off_support(xs, zs, px | pz, len(paulis))
    return _score_candidates(xs, zs, (1 << len(strings)) - 1 << lo, px | pz, off)


@settings(max_examples=200, deadline=None)
@given(_scoring_case(), st.integers(0, 2), st.integers(0, 2))
def test_score_candidates_matches_reference(case, lo, tail):
    # identity lanes below lo or above the candidates would win if they
    # were scored
    n, prefix, strings, px, pz = case
    expected = lo + _reference_choice(n, prefix, strings, px, pz)
    assert _scored(n, prefix, strings, px, pz, lo, tail) == expected
    # every candidate twice: each minimum is tied, and the first copy wins
    assert _scored(n, prefix, strings + strings, px, pz, lo, tail) == expected


def test_score_candidates_ties_go_to_the_lowest_lane():
    # behind the tree of ZZI, ZZZ keeps two letters and ZII, IZI one each
    for strings in ([(0, 0b111), (0, 0b001), (0, 0b010)], [(0, 0b111), (0, 0b010), (0, 0b001)]):
        assert _scored(3, [], strings, 0, 0b011) == 1 == _reference_choice(3, [], strings, 0, 0b011)
    # identical candidates: the first one
    assert _scored(3, [], [(0b101, 0b011)] * 3, 0b111, 0) == 0


@pytest.mark.parametrize("seed", range(6))
def test_score_candidates_over_more_than_64_lanes(seed):
    # 140-200 candidates on up to 12 qubits: the counters' ints and the
    # minimum's tie-break cross machine words
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    px, pz = rng.getrandbits(n) | 1, rng.getrandbits(n)
    strings = [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(rng.randint(140, 200))]
    # the lightest result recurs past lane 64: only its first copy counts
    best = strings[_reference_choice(n, [], strings, px, pz)]
    strings[70] = strings[130] = best
    expected = _reference_choice(n, [], strings, px, pz)
    assert expected <= 70
    assert _scored(n, [], strings, px, pz, lo=seed) == seed + expected


def _chain_tree_weight(x, z, smask):
    """Letters left on ``smask`` by conjugating (x, z) there through the
    reference chain tree keyed on it, gate by gate."""
    x, z = x & smask, z & smask
    pairs = _chain_tree(_support(smask), x, z)
    x, z, _ = _conj_raw(x, z, 1, [cx(c, t) for c, t in pairs])
    return (x | z).bit_count()


def _one_row_weight(x, z, smask, n):
    """``_chain_weight`` of the single string (x, z): one-row lanes."""
    xs = [x >> q & 1 for q in range(n)]
    zs = [z >> q & 1 for q in range(n)]
    return sum(d << k for k, d in enumerate(_chain_weight(xs, zs, 1, smask)))


@pytest.mark.parametrize("k", range(1, 8))
def test_chain_weight_matches_chain_tree_on_every_pattern(k):
    # every X/Y/Z/I pattern on a k-qubit support, spread over 2k qubits
    # with letters off it that must not count
    smask = int("01" * k, 2)
    spread = _support(smask)
    off = ~smask & ((1 << 2 * k) - 1)
    for v in range(4**k):
        x = z = 0
        for i, q in enumerate(spread):
            x |= (v >> 2 * i & 1) << q
            z |= (v >> 2 * i + 1 & 1) << q
        want = _chain_tree_weight(x, z, smask)
        assert _one_row_weight(x | off, z | off & v, smask, 2 * k) == want, (k, v)


@pytest.mark.parametrize("n", [9, 17, 33, 63, 64])
def test_chain_weight_matches_chain_tree_on_sparse_supports(n):
    rng = random.Random(n)
    for _ in range(400):
        smask = 0
        while not smask:
            smask = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        x, z = rng.getrandbits(n), rng.getrandbits(n)
        # thin out the letters too, so that some patterns lack X, Y or Z
        for _ in range(rng.randrange(3)):
            x &= rng.getrandbits(n) | rng.getrandbits(n)
            z &= rng.getrandbits(n) | rng.getrandbits(n)
        assert _one_row_weight(x, z, smask, n) == _chain_tree_weight(x, z, smask), (n, x, z, smask)


def _lane_values(counter, width):
    return [sum((d >> j & 1) << k for k, d in enumerate(counter)) for j in range(width)]


@settings(max_examples=200, deadline=None)
@given(st.integers(65, 300), st.integers(0, 4), st.data())
def test_add_and_sub_round_trip_per_lane(width, k, data):
    values = data.draw(st.lists(st.integers(0, 40), min_size=width, max_size=width))
    lanes = data.draw(st.integers(0, 2**width - 1))
    counter = []
    for j, v in enumerate(values):
        for b in range(v.bit_length()):
            if v >> b & 1:
                _add(counter, 1 << j, b)
    assert _lane_values(counter, width) == values
    on = [lanes >> j & 1 for j in range(width)]
    _add(counter, lanes, k)
    assert _lane_values(counter, width) == [v + (b << k) for v, b in zip(values, on)]
    _sub(counter, lanes, k)
    assert _lane_values(counter, width) == values
    # and the other way round, where no lane goes below zero
    big = sum(1 << j for j, v in enumerate(values) if v >= 1 << k) & lanes
    _sub(counter, big, k)
    assert _lane_values(counter, width) == [v - ((big >> j & 1) << k) for j, v in enumerate(values)]


def test_extract_module_is_patched_through_importlib(monkeypatch):
    # the package attribute is the function; the module of that name is
    # reached through importlib, and patching it changes what the public
    # function does
    import cliffex.extract as shadowed

    module = importlib.import_module("cliffex.extract")
    assert shadowed is cliffex.extract and module.extract is cliffex.extract
    terms = [term("ZZI", 0.3), term("IZZ", 0.2), term("ZIZ", 0.1), term("XXX", 0.4)]
    assert cliffex.extract(terms).stats["emitted_order"] == (0, 1, 3, 2)
    monkeypatch.setattr(module, "_score_candidates", lambda xs, zs, cand, smask, off: cand.bit_length() - 1)
    assert cliffex.extract(terms).stats["emitted_order"] == (0, 3, 2, 1)


def test_counter_steps_per_rotation_do_not_grow_with_the_register(monkeypatch):
    # the same 300 weight-2 strings on 20 qubits and spread over 200:
    # scoring reads the weight off S from a kept counter, so the number
    # of counter additions and subtractions must not depend on n
    module = importlib.import_module("cliffex.extract")
    calls = {"steps": 0}

    def counted(fn):
        def step(*args):
            calls["steps"] += 1
            return fn(*args)
        return step

    monkeypatch.setattr(module, "_add", counted(module._add))
    monkeypatch.setattr(module, "_sub", counted(module._sub))
    rng = random.Random(20)
    pairs = [(rng.sample(range(20), 2), rng.choice(["ZZ", "XX", "ZX", "XZ"])) for _ in range(300)]
    steps, stats = {}, {}
    for n, spread in ((20, 1), (200, 10)):
        terms = []
        for (a, b), letters in pairs:
            word = ["I"] * n
            word[a * spread], word[b * spread] = letters
            terms.append(term("".join(word)))
        calls["steps"] = 0
        stats[n] = module.extract(terms).stats
        steps[n] = calls["steps"]
    assert stats[20] == stats[200]
    assert steps[20] > 0
    assert steps[200] == steps[20], (steps[20] / 300, steps[200] / 300)


# ------------------------------------------------ reference extraction


@st.composite
def _block_lists(draw):
    """Signed term lists of up to three stretches, each either random
    X/Y/Z words (which split into small blocks) or one commuting block of
    sparse words with a fixed letter per qubit, of up to 100 terms, on
    small registers or on 63, 64, 65 and 100 qubits."""
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([63, 64, 65, 100])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.one_of(st.integers(1, 12), st.integers(65, 100)))
        if draw(st.booleans()):
            words = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(size)]
        else:
            letter = [rng.choice("XYZ") for _ in range(n)]
            width = min(n, rng.randint(1, 6))
            words = []
            for _ in range(size):
                on = set(rng.sample(range(n), rng.randint(1, width)))
                words.append("".join(letter[q] if q in on else "I" for q in range(n)))
        terms += [term(rng.choice(["", "-"]) + w, rng.uniform(-3, 3)) for w in words]
    return terms


@settings(max_examples=50, deadline=None)
@given(_block_lists())
def test_extract_matches_the_row_reference(terms):
    # the columns, the all-at-once scorer and the lazy guidance reads give
    # exactly what extraction one packed row at a time gives
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = extract(terms)
        ref = reference_extract(terms)
    assert (res.opt_circuit, res.extracted, res.stats) == ref


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
        blocks = commute_blocks(terms)
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


@st.composite
def _native_cases(draw):
    """Signed term lists on 1-9 qubits with identity, weight-1 and
    repeated strings among them."""
    n = draw(st.integers(1, 9))
    word = st.text("IXYZ", min_size=n, max_size=n)
    single = st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")).map(
        lambda qa: "I" * qa[0] + qa[1] + "I" * (n - 1 - qa[0]))
    words = draw(st.lists(st.one_of(word, single, st.just("I" * n)), min_size=1, max_size=12))
    words += draw(st.lists(st.sampled_from(words), max_size=4))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(words), max_size=len(words)))
    coeff = st.floats(-2, 2, allow_nan=False)
    return [PauliTerm(parse_pauli(sg + w), draw(coeff)) for sg, w in zip(signs, words)]


@settings(max_examples=300, deadline=None)
@given(_native_cases())
def test_native_cost_counts_native_circuit(terms):
    c = native_circuit(terms)
    assert native_cost(terms) == (cnot_count(c), entangling_depth(c))


def test_native_circuit_cost_and_unitary():
    terms = [term("ZYX", 0.3), term("-XXI", -0.2)]
    nat = native_circuit(terms)
    assert cnot_count(nat) == 2 * (3 - 1) + 2 * (2 - 1)
    assert equivalent_up_to_phase(circuit_unitary(nat), _rotation_product(terms, 3), 1e-10)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffex import (
    Circuit,
    CountsHistogram,
    absorb_observables,
    absorb_probabilities,
    cx,
    extract,
    h,
    map_expectations,
    native_circuit,
    parse_pauli,
    postprocess_counts,
    rz,
    s,
    sdg,
)
from cliffex.absorb import ProbabilityAbsorption
from cliffex.errors import LengthMismatch, NotReducible, SchemaError
from cliffex.pauli import PauliString, PauliTerm
from cliffex.tableau import columns, conj_columns, strings

from oracle import (
    circuit_unitary,
    dense_pauli,
    equivalent_up_to_phase,
    expectation,
    probabilities,
)


def term(text, coeff):
    return PauliTerm(parse_pauli(text), coeff)


def _random_terms(rng, n, m):
    out = []
    for _ in range(m):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        if set(word) == {"I"}:
            word = "Z" + word[1:]
        out.append(term(word, float(rng.uniform(-np.pi, np.pi))))
    return out


# ------------------------------------------------------------ observables


def test_identity_observable_untouched():
    rec = absorb_observables(Circuit(3, (cx(0, 1),)), [parse_pauli("III")])[0]
    assert rec.transformed.label() == "III"
    assert rec.basis_layer == ()


def test_hadamard_all_flips_z_to_x():
    rec = absorb_observables(Circuit(3, (h(0), h(1), h(2))), [parse_pauli("ZZZ")])[0]
    assert rec.transformed.label() == "XXX"


def test_observable_length_mismatch():
    with pytest.raises(LengthMismatch):
        absorb_observables(Circuit(2), [parse_pauli("Z")])


def test_absorb_observables_rejects_rz():
    # the conjugation rule has no RZ case; a non-Clifford E must not be
    # read as some Clifford
    with pytest.raises(ValueError, match="rz"):
        absorb_observables(Circuit(2, (cx(0, 1), rz(1, 0.3))), [parse_pauli("XZ")])


def test_absorb_observables_reads_an_iterable_once():
    # a generator is read once, not emptied by the length check first
    e = Circuit(2, (h(0), cx(0, 1)))
    words = [parse_pauli(w) for w in ("XX", "-ZI", "YZ")]
    assert absorb_observables(e, (p for p in words)) == absorb_observables(e, words)
    assert len(absorb_observables(e, words)) == 3


def test_absorb_observables_is_e_dagger_o_e():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(int(rng.integers(0, 15))):
            kind = rng.choice(["h", "s", "sdg", "cx"])
            if kind == "cx":
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(cx(int(c), int(t)))
            else:
                gates.append({"h": h, "s": s, "sdg": sdg}[kind](int(rng.integers(n))))
        e = Circuit(n, tuple(gates))
        obs = [
            parse_pauli(("-" if rng.random() < 0.5 else "") + "".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(3)
        ]
        u = circuit_unitary(e)
        for rec, o in zip(absorb_observables(e, obs), obs):
            assert rec.original == o
            want = u.conj().T @ dense_pauli(o) @ u
            assert np.allclose(dense_pauli(rec.transformed), want, atol=1e-12)


def test_basis_layer_rotates_transformed_to_z():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        word = "".join(rng.choice(list("IXYZ"), size=n))
        rec = absorb_observables(Circuit(n), [parse_pauli(word)])[0]
        t = rec.transformed
        xs, zs, sign = columns([PauliString(n, t.x, t.z)], n)
        sign ^= conj_columns(xs, zs, rec.basis_layer)
        # +Z on the support, nothing else
        assert strings(xs, zs, sign, 1)[0] == PauliString(n, 0, t.x | t.z)


def test_two_rotation_pipeline_observable():
    terms = [term("ZZZZ", 0.31), term("YYXX", -0.7)]
    res = extract(terms)
    rec = absorb_observables(res.extracted, [parse_pauli("XXZZ")])[0]
    # regression: this pipeline's trees give this particular image
    assert rec.transformed.label() == "-ZIZX"
    lhs = expectation(native_circuit(terms), parse_pauli("XXZZ"))
    rhs = rec.transformed.sign * expectation(res.opt_circuit, parse_pauli(rec.transformed.letters()))
    assert abs(lhs - rhs) <= 1e-9


def test_observable_equality_random():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        terms = _random_terms(rng, n, int(rng.integers(1, 8)))
        res = extract(terms)
        native = native_circuit(terms)
        obs = [
            parse_pauli("".join(rng.choice(list("IXYZ"), size=n)))
            for _ in range(3)
        ]
        for rec, o in zip(absorb_observables(res.extracted, obs), obs):
            lhs = expectation(native, o)
            rhs = rec.transformed.sign * expectation(
                res.opt_circuit, parse_pauli(rec.transformed.letters())
            )
            assert abs(lhs - rhs) <= 1e-9


def test_transformed_commutation_preserved():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        res = extract(_random_terms(rng, n, 5))
        a = parse_pauli("".join(rng.choice(list("IXYZ"), size=n)))
        b = parse_pauli("".join(rng.choice(list("IXYZ"), size=n)))
        ra, rb = absorb_observables(res.extracted, [a, b])
        assert a.commutes(b) == ra.transformed.commutes(rb.transformed)


# ---------------------------------------------------------- probabilities


def test_absorb_triangle_full_mask():
    terms = [term(w, 0.3) for w in ("ZZI", "IZZ", "ZIZ")] + [
        term(w, 0.7) for w in ("XII", "IXI", "IIX")
    ]
    res = extract(terms)
    pa = absorb_probabilities(res.extracted)
    assert pa.h_mask == frozenset({0, 1, 2})
    assert len(pa.network) >= 1


def test_absorb_empty_circuit():
    pa = absorb_probabilities(Circuit(3))
    assert pa.h_mask == frozenset() and pa.network == ()


def test_absorb_rejects_uncombinable():
    with pytest.raises(NotReducible):
        absorb_probabilities(Circuit(2, (cx(0, 1), h(0))))
    with pytest.raises(NotReducible, match="not H or CNOT"):
        absorb_probabilities(Circuit(2, (s(0),)))
    with pytest.raises(NotReducible, match="not H or CNOT"):
        absorb_probabilities(Circuit(2, (s(0), cx(0, 1))))


def test_absorb_probabilities_examples():
    def form(*gates):
        pa = absorb_probabilities(Circuit(2, gates))
        return pa.h_mask, pa.network

    assert form(h(0), h(1), cx(0, 1)) == (frozenset({0, 1}), ((0, 1),))
    assert form(cx(0, 1)) == (frozenset(), ((0, 1),))
    assert form(h(0), cx(0, 1)) == (frozenset({0}), ((0, 1),))
    # both qubits see a later Hadamard: the CNOT reverses
    assert form(cx(0, 1), h(0), h(1)) == (frozenset({0, 1}), ((1, 0),))
    assert form() == (frozenset(), ())


def _measurement_side(pa):
    # executed-side semantics: H layer first, then the network
    layer = circuit_unitary(Circuit(pa.n, tuple(h(q) for q in sorted(pa.h_mask))))
    net = circuit_unitary(Circuit(pa.n, tuple(cx(c, t) for c, t in pa.network)))
    return net @ layer


def test_measurement_side_network_matches_dense():
    # executed-side semantics: dense(circ) == dense(network') @ dense(H layer)
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        mask = [q for q in range(n) if rng.random() < 0.5]
        inside = [q for q in mask]
        outside = [q for q in range(n) if q not in mask]
        gates = [h(q) for q in mask]
        for _ in range(int(rng.integers(0, 12))):
            side = inside if (rng.random() < 0.5 and len(inside) > 1) else outside
            if len(side) < 2:
                side = inside if len(inside) > 1 else outside
            if len(side) < 2:
                break
            c, t = rng.choice(side, size=2, replace=False)
            gates.append(cx(int(c), int(t)))
        circ = Circuit(n, tuple(gates))
        pa = absorb_probabilities(circ)
        assert equivalent_up_to_phase(_measurement_side(pa), circuit_unitary(circ), 1e-12)


@st.composite
def _h_cx_circuits(draw):
    n = draw(st.integers(2, 5))
    qubit = st.integers(0, n - 1)
    pair = st.tuples(qubit, qubit).filter(lambda ct: ct[0] != ct[1]).map(lambda ct: cx(*ct))
    return Circuit(n, tuple(draw(st.lists(st.one_of(qubit.map(h), pair), max_size=12))))


@settings(max_examples=150, deadline=None)
@given(_h_cx_circuits())
def test_absorb_probabilities_refuses_or_is_exact(circ):
    # only NotReducible may escape; a result must run as H layer, then network
    try:
        pa = absorb_probabilities(circ)
    except NotReducible:
        return
    assert equivalent_up_to_phase(_measurement_side(pa), circuit_unitary(circ), 1e-12)


def _two_pass_reference(circ):
    """The former absorption, None where it refused: collapse the
    Hadamards into a layer behind the network (swapping each CNOT seen
    with both qubits pending), then commute the network through the
    layer to the measurement side (swapping it again when both qubits
    are in the mask)."""
    pending, behind = set(), []
    for g in circ.gates:
        if g.kind == "h":
            pending ^= {g.qubits[0]}
            continue
        c, t = g.qubits
        if (c in pending) != (t in pending):
            return None
        behind.append((t, c) if c in pending else (c, t))
    measured = []
    for c, t in behind:
        if (c in pending) != (t in pending):
            return None
        measured.append((t, c) if c in pending else (c, t))
    return frozenset(pending), tuple(measured)


@settings(max_examples=300, deadline=None)
@given(_h_cx_circuits())
def test_sweep_matches_two_pass_reference(circ):
    # the sweep accepts whatever the two passes accepted, with the same
    # mask and network (and, by the property above, it is dense-exact
    # wherever it accepts)
    expected = _two_pass_reference(circ)
    if expected is not None:
        pa = absorb_probabilities(circ)
        assert (pa.h_mask, pa.network) == expected


def test_postprocess_examples():
    pa = ProbabilityAbsorption(2, frozenset(), ((0, 1),))
    out = postprocess_counts(pa, CountsHistogram(2, {"10": 5}, 5))
    assert out.counts == {"11": 5}
    out = postprocess_counts(pa, CountsHistogram(2, {"00": 7}, 7))
    assert out.counts == {"00": 7}
    pa_empty = ProbabilityAbsorption(2, frozenset(), ())
    hist = CountsHistogram(2, {"01": 2, "11": 3}, 5)
    assert postprocess_counts(pa_empty, hist).counts == hist.counts


def test_postprocess_preserves_shots_and_is_injective():
    rng = np.random.default_rng(79)
    n = 4
    network = tuple(
        tuple(int(v) for v in rng.choice(n, size=2, replace=False)) for _ in range(6)
    )
    pa = ProbabilityAbsorption(n, frozenset(), network)
    counts = {format(i, "04b"): int(rng.integers(1, 10)) for i in range(16)}
    hist = CountsHistogram(n, counts, sum(counts.values()))
    out = postprocess_counts(pa, hist)
    assert out.shots == hist.shots
    assert len(out.counts) == 16  # bijection: no collisions


def test_postprocess_length_mismatch():
    pa = ProbabilityAbsorption(3, frozenset(), ())
    with pytest.raises(LengthMismatch):
        postprocess_counts(pa, CountsHistogram(2, {"00": 1}, 1))


def _replay_network(network, bits):
    # the gate-by-gate reference for the composed map
    b = [int(ch) for ch in bits]
    for c, t in network:
        b[t] ^= b[c]
    return "".join("1" if v else "0" for v in b)


@st.composite
def _networks_and_histograms(draw):
    n = draw(st.one_of(st.sampled_from([0, 1, 7, 8, 9, 33, 60]), st.integers(0, 60)))
    network = ()
    if n >= 2:
        qubit = st.integers(0, n - 1)
        edge = st.tuples(qubit, qubit).filter(lambda ct: ct[0] != ct[1])
        network = tuple(draw(st.lists(edge, max_size=200)))
    keys = draw(st.lists(st.integers(0, 2**n - 1), unique=True, max_size=40))
    counts = {format(k | 1 << n, "b")[1:]: draw(st.integers(0, 1000)) for k in keys}
    return ProbabilityAbsorption(n, frozenset(), network), CountsHistogram(
        n, counts, sum(counts.values())
    )


def _postprocessed_indices(pa):
    """mapped[i]: the index ``postprocess_counts`` sends bitstring i to,
    read off the full 2^n histogram in which bitstring i has count i + 1."""
    n = pa.n
    counts = {format(i | 1 << n, "b")[1:]: i + 1 for i in range(2**n)}
    out = postprocess_counts(pa, CountsHistogram(n, counts, sum(counts.values())))
    mapped = [0] * 2**n
    for key, c in out.counts.items():
        mapped[c - 1] = int("0" + key, 2)
    return mapped


def _check_against_replay(pa, hist):
    expected: dict[str, int] = {}
    for bits, c in hist.counts.items():
        key = _replay_network(pa.network, bits)
        expected[key] = expected.get(key, 0) + c
    out = postprocess_counts(pa, hist)
    assert list(out.counts.items()) == list(expected.items())
    assert out.shots == hist.shots
    assert len(out.counts) == len(hist.counts)


@settings(max_examples=200, deadline=None)
@given(_networks_and_histograms())
def test_composed_network_matches_gate_by_gate_replay(case):
    _check_against_replay(*case)


def test_network_on_columns_longer_than_a_word():
    # 2,000 distinct 60-bit strings: every column spans many machine words
    rng = np.random.default_rng(61)
    n = 60
    network = tuple(tuple(int(q) for q in rng.choice(n, size=2, replace=False)) for _ in range(300))
    keys = dict.fromkeys(format(int(k), "060b") for k in rng.integers(0, 2**60, size=2100))
    counts = {k: int(c) for k, c in zip(list(keys)[:2000], rng.integers(0, 50, size=2000))}
    assert len(counts) == 2000
    _check_against_replay(ProbabilityAbsorption(n, frozenset(), network),
                          CountsHistogram(n, counts, sum(counts.values())))


def test_histogram_validation():
    with pytest.raises(ValueError):
        CountsHistogram(2, {"00": 1}, 2)
    with pytest.raises(SchemaError):
        CountsHistogram(2, {"000": 1}, 1)
    with pytest.raises(SchemaError, match="^bitstring 1 is not 2 binary digits$"):
        CountsHistogram(2, {1: 1}, 1)


def _reference_validation(n, counts, shots):
    # the per-item rules CountsHistogram is specified by, first fault first
    if not all(type(v) is int and v >= 0 for v in (n, shots)):
        raise SchemaError(f"n = {n!r} or shots = {shots!r} is not a non-negative integer")
    total = 0
    for bits, c in counts.items():
        if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
            raise SchemaError(f"bitstring {bits!r} is not {n} binary digits")
        if type(c) is not int or c < 0:
            raise SchemaError(f"count for {bits!r} must be a non-negative integer")
        total += c
    if total != shots:
        raise SchemaError(f"counts sum to {total}, expected {shots} shots")


def _outcome(make, *args):
    try:
        make(*args)
    except Exception as exc:  # any type: the two sides must raise the same
        return type(exc), str(exc)
    return None


@st.composite
def _histogram_args(draw):
    """(n, counts, shots), valid or with faults anywhere in the dict: a
    key of the wrong length or with an odd character (underscore, space,
    newline, plus, a fullwidth or Arabic-Indic digit, a letter), a key
    that is not a string (an int, bytes, None), a negative, boolean or
    float count, a wrong shot total."""
    n = draw(st.integers(0, 4))
    bit, odd = st.sampled_from("01"), st.sampled_from("_ \n+\uff11\u0661\u00e9")
    key = st.one_of(
        st.text(bit, min_size=n, max_size=n),
        st.lists(st.one_of(bit, bit, odd), min_size=n, max_size=n).map("".join),
        st.text(st.one_of(bit, odd), max_size=5),
        st.one_of(st.integers(0, 11), st.binary(max_size=4), st.none()),
    )
    count = st.one_of(st.integers(0, 10), st.integers(0, 10), st.integers(-3, -1),
                      st.booleans(), st.floats(-2, 10, allow_nan=False))
    counts = draw(st.dictionaries(key, count, max_size=6))
    own_sum = sum(c for c in counts.values() if isinstance(c, int))
    return n, counts, draw(st.one_of(st.just(own_sum), st.integers(-2, 40)))


@settings(max_examples=500, deadline=None)
@given(_histogram_args())
def test_histogram_validation_matches_per_item_rules(args):
    expected = _outcome(_reference_validation, *args)
    assert _outcome(CountsHistogram, *args) == expected


def test_probability_distribution_equality_qaoa_form():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            zmask = int(rng.integers(1, 2**n))
            terms.append(PauliTerm(PauliString(n, 0, zmask), float(rng.uniform(-2, 2))))
        for q in range(n):
            terms.append(PauliTerm(PauliString(n, 1 << q, 0), float(rng.uniform(-2, 2))))
        res = extract(terms)
        pa = absorb_probabilities(res.extracted)
        executed = Circuit(n, res.opt_circuit.gates + tuple(h(q) for q in sorted(pa.h_mask)))
        p_full = probabilities(native_circuit(terms))
        p_exec = probabilities(executed)
        mapped = _postprocessed_indices(pa)
        for idx in range(2**n):
            assert abs(p_full[mapped[idx]] - p_exec[idx]) <= 1e-9


# ------------------------------------------------------------ expectations


def test_map_expectations():
    # E = SDG maps Y to S Y S† = -X
    recs = absorb_observables(Circuit(1, (sdg(0),)), [parse_pauli("Y"), parse_pauli("Z")])
    assert recs[0].transformed.sign == -1
    assert map_expectations(recs, [0.5, 0.0]) == [-0.5, 0.0]
    with pytest.raises(LengthMismatch):
        map_expectations(recs, [0.5])

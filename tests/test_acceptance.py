"""Acceptance suite: every pipeline-level requirement with its tolerance,
one pass/fail line per check (run with ``pytest -s`` to see them)."""

import time
import warnings

import numpy as np
from cliffex import (
    Circuit,
    CountsHistogram,
    absorb_observables,
    absorb_probabilities,
    cnot_count,
    cx,
    extract,
    gen_labs,
    gen_maxcut,
    h,
    native_circuit,
    parse_pauli,
    peephole,
    postprocess_counts,
)
from cliffex.extract import basis_change_gates, tree_synthesis
from cliffex.pauli import PauliTerm
from cliffex.tableau import columns, conj_columns, strings

from oracle import (
    _chain_tree,
    circuit_unitary,
    dense_pauli,
    equivalent_up_to_phase,
    expectation,
    probabilities,
    rotation_unitary,
)

TRIANGLE_WORDS = ("ZZI", "IZZ", "ZIZ", "XII", "IXI", "IIX")


def postprocessed_indices(pa):
    """mapped[i]: the index ``postprocess_counts`` sends bitstring i to,
    read off the full 2^n histogram in which bitstring i has count i + 1."""
    n = pa.n
    counts = {format(i | 1 << n, "b")[1:]: i + 1 for i in range(2**n)}
    out = postprocess_counts(pa, CountsHistogram(n, counts, sum(counts.values())))
    mapped = [0] * 2**n
    for key, c in out.counts.items():
        mapped[c - 1] = int("0" + key, 2)
    return mapped


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"{name}{tail}"


def terms_of(words, coeffs):
    return [PauliTerm(parse_pauli(w), c) for w, c in zip(words, coeffs)]


def conjugate(gates, p):
    """D p D† for the Clifford D of ``gates`` (time order)."""
    xs, zs, sign = columns([p], p.n)
    sign ^= conj_columns(xs, zs, gates)
    return strings(xs, zs, sign, 1)[0]


def test_two_rotation_pipeline_with_observable():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    obs = parse_pauli("XXZZ")
    worst = 0.0
    cnots = None
    for _ in range(20):
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        terms = terms_of(("ZZZZ", "YYXX"), (t1, t2))
        res = extract(terms)
        opt = peephole(res.opt_circuit)
        rec = absorb_observables(res.extracted, [obs])[0]
        executed = Circuit(4, opt.gates + rec.basis_layer)
        cnots = cnot_count(executed)
        lhs = expectation(native_circuit(terms), obs)
        rhs = rec.transformed.sign * expectation(opt, parse_pauli(rec.transformed.letters()))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    report(
        "two-rotation pipeline: <=4 CNOTs and observable equality",
        cnots <= 4 and worst <= 1e-9 and elapsed < 1.0,
        f"cnots={cnots}, worst err={worst:.2e}, {elapsed:.2f}s",
    )


def test_guided_tree_fixture_strings():
    p1 = parse_pauli("YZXXYZZ")
    p2 = parse_pauli("YZXIZYX")
    p3 = parse_pauli("XZYZIYX")
    layer = basis_change_gates(p1)
    p2p, p3p = conjugate(layer, p2), conjugate(layer, p3)
    ok = p2p.letters() == "ZZZIXYX" and p3p.letters() == "YZYXIYX"
    signs = f"signs: {p2p.sign:+d}, {p3p.sign:+d}"

    gates_nr = [cx(c, t) for c, t in _chain_tree(list(range(7)), p2p.x, p2p.z)]
    ok = ok and conjugate(layer + gates_nr, p2).letters() == "IIIIXYX"

    xs, zs, _ = columns([p2p, p3p], 7)
    gates_r, _ = tree_synthesis(xs, zs, range(7), 0, 0b10)
    ok = ok and conjugate(layer + gates_r, p3).letters() == "IIXXIYX"
    report("guided-tree fixture strings (exact)", ok, signs)


def test_cnot_conjugation_table():
    start = time.perf_counter()
    expected = {
        "II": "II", "IX": "IX", "IY": "ZY", "IZ": "ZZ",
        "XI": "XX", "XX": "XI", "XY": "YZ", "XZ": "YY",
        "YI": "YX", "YX": "YI", "YY": "XZ", "YZ": "XY",
        "ZI": "ZI", "ZX": "ZX", "ZY": "IY", "ZZ": "IZ",
    }
    d = circuit_unitary(Circuit(2, (cx(0, 1),)))
    ok = True
    for word, image in expected.items():
        got = conjugate([cx(0, 1)], parse_pauli(word))
        ok = ok and got.letters() == image  # unsigned table entry
        dense = d @ dense_pauli(parse_pauli(word)) @ d.conj().T
        ok = ok and bool(np.allclose(dense_pauli(got), dense, atol=1e-12))  # signed
    elapsed = time.perf_counter() - start
    report("all 16 CNOT conjugation entries (signed vs dense)", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_triangle_qaoa_pipeline():
    rng = np.random.default_rng(103)
    ok = True
    cnots = mask_size = None
    for _ in range(10):
        gamma, beta = rng.uniform(-np.pi, np.pi, size=2)
        terms = terms_of(TRIANGLE_WORDS, (gamma, gamma, gamma, beta, beta, beta))
        res = extract(terms)
        opt = peephole(res.opt_circuit)
        pa = absorb_probabilities(res.extracted)
        cnots = cnot_count(opt)
        mask_size = len(pa.h_mask)
        executed = Circuit(3, opt.gates + tuple(h(q) for q in sorted(pa.h_mask)))
        p_full = probabilities(native_circuit(terms))
        p_exec = probabilities(executed)
        mapped = postprocessed_indices(pa)
        for idx in range(8):
            ok = ok and abs(p_full[mapped[idx]] - p_exec[idx]) <= 1e-9
    report(
        "triangle alternating-layer pipeline",
        ok and cnots == 5 and mask_size == 3,
        f"cnots={cnots}, h_mask size={mask_size}",
    )


def test_extraction_roundtrip_random():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_fail = None
    for trial in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 13))
        terms = []
        for _ in range(m):
            word = "".join(rng.choice(list("IXYZ"), size=n))
            sign = "-" if rng.random() < 0.25 else ""
            terms.append(PauliTerm(parse_pauli(sign + word), float(rng.uniform(-np.pi, np.pi))))
        if all(t.pauli.weight() == 0 for t in terms):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = extract(terms)
        u = circuit_unitary(res.extracted) @ circuit_unitary(res.opt_circuit)
        w = np.eye(2**n, dtype=complex)
        for t in terms:
            w = rotation_unitary(t.pauli, t.coeff) @ w
        if not equivalent_up_to_phase(u, w, 1e-9):
            worst_fail = [t.pauli.label() for t in terms]
            break
    elapsed = time.perf_counter() - start
    report(
        "200 random round-trips (extracted @ optimized == rotation product)",
        worst_fail is None and elapsed < 120.0,
        f"{elapsed:.1f}s" + (f", first failure {worst_fail}" if worst_fail else ""),
    )


def test_generator_counts():
    t = gen_maxcut(20, degree=8, seed=7)
    ok = len(t) == 100 and cnot_count(native_circuit(t)) == 160
    t = gen_maxcut(15, degree=4, seed=7)
    ok = ok and len(t) == 45 and cnot_count(native_circuit(t)) == 60
    t = gen_labs(10)
    ok = ok and len(t) == 80 and cnot_count(native_circuit(t)) == 340
    report("generator term/native-CNOT counts", ok)


def test_benchmark_cnot_budgets():
    details = []
    ok = True
    for seed in (0, 1, 2):
        terms = gen_maxcut(20, degree=8, seed=seed)
        after = cnot_count(peephole(extract(terms).opt_circuit))
        details.append(f"mc-n20r8 seed{seed}: {after}")
        ok = ok and after <= 140
    after = cnot_count(peephole(extract(gen_labs(10)).opt_circuit))
    details.append(f"labs-n10: {after}")
    ok = ok and after <= 117
    report("optimized CNOT budgets (<=140 / <=117)", ok, ", ".join(details))


def test_counts_postprocessing_random():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        # circuit body
        body = []
        for _ in range(int(rng.integers(0, 14))):
            r = rng.random()
            if r < 0.45:
                body.append(h(int(rng.integers(n))))
            elif r < 0.7:
                from cliffex import rz as rzg

                body.append(rzg(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                c, t = rng.choice(n, size=2, replace=False)
                body.append(cx(int(c), int(t)))
        # reducible tail: H layer split around mask-respecting CNOTs
        mask = sorted(q for q in range(n) if rng.random() < 0.6)
        inside, outside = list(mask), [q for q in range(n) if q not in mask]
        tail = [h(q) for q in mask]
        for _ in range(int(rng.integers(0, 10))):
            side = inside if (rng.random() < 0.6 and len(inside) > 1) else outside
            if len(side) < 2:
                side = inside if len(inside) > 1 else outside
            if len(side) < 2:
                break
            c, t = rng.choice(side, size=2, replace=False)
            tail.append(cx(int(c), int(t)))
        tail_circ = Circuit(n, tuple(tail))
        pa = absorb_probabilities(tail_circ)
        full = Circuit(n, tuple(body) + tail_circ.gates)
        truncated = Circuit(n, tuple(body) + tuple(h(q) for q in sorted(pa.h_mask)))
        p_full = probabilities(full)
        p_trunc = probabilities(truncated)
        mapped = postprocessed_indices(pa)
        for idx in range(2**n):
            ok = ok and abs(p_full[mapped[idx]] - p_trunc[idx]) <= 1e-9
    report("100 random reducible tails: bitstring rewrite matches", ok)


def test_scaling_smoke():
    times = {}
    for n in (10, 15, 20):
        start = time.perf_counter()
        extract(gen_labs(n))
        times[n] = time.perf_counter() - start
    # m grows with n; admit cubic-in-n times quadratic-in-m growth with slack
    m10, m20 = len(gen_labs(10)), len(gen_labs(20))
    bound = max(times[10], 0.05) * ((20 / 10) ** 3) * ((m20 / m10) ** 2) * 5.0
    ok = times[20] < 60.0 and times[20] <= bound
    report(
        "scaling smoke (n=10/15/20)",
        ok,
        ", ".join(f"n{k}: {v:.2f}s" for k, v in times.items()) + f", bound {bound:.0f}s",
    )

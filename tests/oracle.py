"""Dense-matrix reference implementation for small qubit counts, which
the tests cross-check the package against.

Everything here but the tree references and ``reference_extract`` is
deliberately independent of the extraction machinery so it can falsify
it: rotation unitaries come straight from the matrix exponential
identity exp(i*P*t) = cos(t)*I + i*sin(t)*P, and circuits are evaluated
gate by gate on dense states.  ``reference_tree`` is the guided tree
read one guide row at a time, level by level, which ``tree_synthesis``
must reproduce on the columns' lanes; ``_chain_tree`` is the
non-recursive tree that the candidate scorer's closed form counts the
letters of, grouped and joined by the same rules.  ``reference_extract``
is extraction written one packed row at a time, which ``extract``'s
bit-sliced columns must reproduce exactly.  ``same_rotations`` is
``verify``'s rotation comparison as a walk over a list, which the CLI's
column form must decide alike.  ``outputs_by_name`` is the CLI's
output-path check as it compared resolved path names, which the
stat-based check must decide alike on every path but a hard link.
``reference_peephole`` is the peephole cleaner as whole passes repeated
until one changes nothing, which the one-pass cleaner must match wire by
wire.  ``reference_random_graph`` is ``gen_maxcut``'s random-graph
sampler as it listed every pair before sampling, whose graphs the index
sampler must reproduce.

Every function that builds a dense state or matrix raises ``ValueError``
above ``DEFAULT_CAP`` (10) qubits; the cap is fixed.

Basis convention: the index bit of qubit 0 is the most significant, so
basis state |b0 b1 ... b_{n-1}> has index int("b0b1...", 2), matching
the bitstring convention used everywhere else.
"""

from __future__ import annotations

import random

import numpy as np

from itertools import chain
from pathlib import Path

from cliffex.circuit import RZ_EPS, Circuit, Gate, _cancels, cx, inverse, rz
from cliffex.errors import InvalidSize, LengthMismatch
from cliffex.extract import basis_change_gates
from cliffex.pauli import PauliString, _letter_at, _support
from cliffex.tableau import _conj_lanes

DEFAULT_CAP = 10

_SQ2 = 1.0 / np.sqrt(2.0)
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


_ROOT_ORDER = ("X", "Y", "I", "Z", None)
_PAIRINGS = (("Z", "Y"), ("I", "X"), ("Y", "X"))
_GROUP_ORDER = ("X", "Y", "Z", "I")


def _connect_roots(roots: list[tuple[str | None, int]], out: list[tuple[int, int]]) -> int:
    """Join open subtree roots into one root; returns the final root.

    Priority pairings fire first (source root consumed, target keeps its
    parity-carrying role), then every leftover chains into the final
    root, which is the highest-priority class present (X > Y > I > Z).
    """
    if len(roots) == 1:
        return roots[0][1]
    by: dict[str | None, list[int]] = {"X": [], "Y": [], "Z": [], "I": [], None: []}
    for cls, q in roots:
        by[cls].append(q)
    for src, dst in _PAIRINGS:
        a, b = by[src], by[dst]
        k = min(len(a), len(b))
        if k:
            a.sort()
            b.sort()
            out += zip(a[:k], b)
            by[src] = a[k:]
    root = min(next(by[cls] for cls in _ROOT_ORDER if by[cls]))
    out += [(q, root) for q in sorted(chain.from_iterable(by.values())) if q != root]
    return root


def _split_groups(idxs: list[int], gx: int, gz: int) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {"X": [], "Y": [], "Z": [], "I": []}
    for q in idxs:
        groups[_letter_at(gx, gz, q)].append(q)
    return groups


def _synth_recursive(idxs, level, guidance, out) -> list[tuple[str | None, int]]:
    """Returns the open roots of a (sub)tree; emits CNOTs into ``out``."""
    while True:
        if len(idxs) == 1:
            return [(None, idxs[0])]
        g = guidance(level)
        if g is None:
            # guidance exhausted: leave every qubit open for the caller's
            # connection phase instead of fixing an arbitrary chain
            return [(None, q) for q in idxs]
        groups = _split_groups(idxs, *g)
        present = [c for c in _GROUP_ORDER if groups[c]]
        if len(present) > 1:
            break
        level += 1  # single group: the split can only come from deeper guidance
    roots: list[tuple[str | None, int]] = []
    for cls in _GROUP_ORDER:
        grp = groups[cls]
        if not grp:
            continue
        if len(grp) == 1:
            roots.append((cls, grp[0]))
        else:
            roots.extend((cls, q) for _, q in _synth_recursive(grp, level + 1, guidance, out))
    root = _connect_roots(roots, out)
    return [(None, root)]


def reference_tree(tree_idxs, guides) -> tuple[list[Gate], int]:
    """Synthesize a CNOT parity tree over the qubits ``tree_idxs``, guided
    by the successor strings ``guides``: (x, z) masks in successor order,
    already conjugated through every gate before the tree and read only
    on the tree qubits, drawn lazily as deeper levels need them.  Returns
    the CNOT gates and the tree root.

    The gates form a spanning tree of exactly ``len(tree_idxs) - 1``
    CNOTs whose target-directed paths accumulate the parity of every
    tree qubit into the root.
    """
    idxs = sorted(set(tree_idxs))
    if not idxs:
        raise InvalidSize("tree synthesis needs at least one qubit")
    pending, seen = iter(guides), []

    def guidance(level: int):
        while len(seen) < level:
            g = next(pending, None)
            if g is None:
                return None
            seen.append(g)
        return seen[level - 1]

    out: list[tuple[int, int]] = []
    root = _connect_roots(_synth_recursive(idxs, 1, guidance, out), out)
    return [cx(a, b) for a, b in out], root


def _chain_tree(idxs, gx: int, gz: int) -> list[tuple[int, int]]:
    """Non-recursive tree over ``idxs`` guided by the one string (gx, gz):
    each letter group is chained from the highest index down (group root
    = lowest index), then the group roots are joined.  Returns the
    (control, target) pairs in time order."""
    groups = _split_groups(idxs, gx, gz)
    out: list[tuple[int, int]] = []
    roots: list[tuple[str | None, int]] = []
    for cls in _GROUP_ORDER:
        grp = groups[cls]
        if grp:
            for k in range(len(grp) - 1, 0, -1):
                out.append((grp[k], grp[k - 1]))
            roots.append((cls, grp[0]))
    _connect_roots(roots, out)
    return out


def _conj_rows(rows: list[int], lo: int, gates, n: int) -> None:
    """Conjugate ``rows[lo:]`` (signed strings packed as x | z << n, with
    bit 2n set when the sign is -1) in place by ``gates`` appended in time
    order, one row at a time.  A row's pattern on the gates' qubits is
    simulated once per distinct pattern and the rest of the row is kept."""
    mask = 0
    for g in gates:
        for q in g.qubits:
            mask |= 1 << q
    mask |= mask << n
    full = (1 << n) - 1
    memo: dict[int, int] = {}  # pattern -> pattern ^ image ^ flip << 2n
    for k, v in enumerate(rows[lo:], lo):
        key = v & mask
        d = memo.get(key)
        if d is None:
            x, z, flip = key & full, key >> n, 0
            for g in gates:
                a, b = g.qubits[0], g.qubits[-1]
                xa, za, xb, zb = x >> a & 1, z >> a & 1, x >> b & 1, z >> b & 1
                ya, wa, yb, wb, f = _conj_lanes(g.kind, xa, za, xb, zb)
                x ^= (xa ^ ya) << a ^ (xb ^ yb) << b
                z ^= (za ^ wa) << a ^ (zb ^ wb) << b
                flip ^= f
            d = memo[key] = key ^ x ^ z << n ^ flip << 2 * n
        rows[k] = v ^ d


def _chain_tree_weight(x: int, z: int, smask: int, n: int) -> int:
    """Letters left on ``smask`` by conjugating (x, z) there through the
    chain tree keyed on it, gate by gate."""
    rows = [x & smask | (z & smask) << n]
    _conj_rows(rows, 0, [cx(c, t) for c, t in _chain_tree(_support(smask), x, z)], n)
    r = rows[0]
    return ((r | r >> n) & ((1 << n) - 1)).bit_count()


def _reference_choice(rows: list[int], lo: int, hi: int, smask: int, n: int) -> int:
    """Index of the row in ``rows[lo:hi]`` with the fewest letters left
    after the chain tree keyed on it (letters off ``smask`` count as they
    are); ties go to the lowest index."""
    full = (1 << n) - 1
    mask, off = smask | smask << n, full & ~smask
    memo: dict[int, int] = {}
    best_w, best_j = n + 1, -1
    for j, v in enumerate(rows[lo:hi], lo):
        key = v & mask
        w = memo.get(key)
        if w is None:
            w = memo[key] = _chain_tree_weight(key & full, key >> n, smask, n)
        w += ((v | v >> n) & off).bit_count()
        if w < best_w:
            best_w, best_j = w, j
    return best_j


def commute_blocks(terms) -> list[list]:
    """Maximal consecutive runs of mutually commuting terms, by the
    pairwise definition: a term joins the current run iff it commutes
    with every member, otherwise it starts a new run."""
    blocks: list[list] = []
    for t in terms:
        if blocks and all(t.pauli.commutes(u.pauli) for u in blocks[-1]):
            blocks[-1].append(t)
        else:
            blocks.append([t])
    return blocks


def reference_extract(terms) -> tuple[Circuit, Circuit, dict]:
    """``extract``'s (opt_circuit, extracted, stats), computed over one
    list of packed rows (x | z << n | (sign < 0) << 2n) kept in emission
    order: the chosen candidate is moved next to the current string, and
    every emitted gate is applied to each waiting row in turn."""
    terms = list(terms)
    n = terms[0].pauli.n
    order = [(k, t) for k, t in enumerate(terms) if t.pauli.x | t.pauli.z]
    gates, weights, reorders = [], [], 0
    blocks = commute_blocks(t for _, t in order)
    rows = [t.pauli.x | t.pauli.z << n | (t.pauli.sign < 0) << 2 * n for _, t in order]
    full = (1 << n) - 1
    hi = 0
    for block in blocks:
        hi += len(block)
        for i in range(hi - len(block), hi):
            px, pz = rows[i] & full, rows[i] >> n & full
            layer = basis_change_gates(PauliString(n, px, pz))
            _conj_rows(rows, i + 1, layer, n)
            if i + 1 < hi:
                j = _reference_choice(rows, i + 1, hi, px | pz, n)
                if j != i + 1:
                    for lst in (order, rows):
                        lst.insert(i + 1, lst.pop(j))
                    reorders += 1
            supp = _support(px | pz)
            tree, root = reference_tree(supp, [(r & full, r >> n & full) for r in rows[i + 1 :]])
            _conj_rows(rows, i + 1, tree, n)
            gates += layer + tree
            gates.append(rz(root, -2.0 * order[i][1].coeff * (-1 if rows[i] >> 2 * n else 1)))
            weights.append(len(supp))
    stats = {
        "rotations": len(order),
        "blocks": len(blocks),
        "block_sizes": tuple(len(b) for b in blocks),
        "reorders": reorders,
        "skipped_identity_terms": len(terms) - len(order),
        "emitted_order": tuple(k for k, _ in order),
        "weights": tuple(weights),
    }
    extracted = tuple(inverse(g) for g in reversed(gates) if g.kind != "rz")
    return Circuit(n, tuple(gates)), Circuit(n, extracted), stats


def same_rotations(terms, rotations, n: int) -> bool:
    """True iff the rotations of ``replay`` ((P, t) for exp(-i t/2 P), in
    time order) multiply to the input's rotations exp(i c P), in input
    order.  Each input term in turn starts at the front of the remaining
    rotations and passes those it commutes with: on its own string it
    takes its angle off that rotation, and on one it does not commute
    with, or at the end, it stays there with its angle negated.  A
    rotation whose coefficient is within 1e-9 max(1, |c|) of zero is
    dropped; the products are equal when no rotation is left.
    """
    # [packed string, the string with x and z swapped, coefficient]; a
    # string anticommutes with v iff v & its swap has odd weight
    rest = [[p.x | p.z << n, p.z | p.x << n, -0.5 * t * p.sign] for p, t in rotations]
    for term in terms:
        p = term.pauli
        v = p.x | p.z << n
        if not v:  # the identity only adds a global phase
            continue
        c = term.coeff * p.sign
        tol = 1e-9 * max(1.0, abs(c))
        k = 0
        while k < len(rest) and rest[k][0] != v and not (v & rest[k][1]).bit_count() & 1:
            k += 1
        if k < len(rest) and rest[k][0] == v:
            rest[k][2] -= c
            if abs(rest[k][2]) <= tol:
                del rest[k]
        elif abs(c) > tol:
            rest.insert(k, [v, p.z | p.x << n, -c])
    return not rest


def outputs_by_name(inputs: dict[str, str], outputs) -> str | None:
    """The error the output-path check gives, or None: every output must
    be a path in an existing directory, and no two of them, nor an output
    and an input (path -> how to name it), may resolve to one name."""
    seen = {Path(path).resolve(): what for path, what in inputs.items()}
    for path in outputs:
        if not Path(path).parent.is_dir() or Path(path).is_dir():
            return f"cannot write {path}: no such directory, or the path is one"
        target = Path(path).resolve()
        if target in seen:
            return f"cannot write {path}: it is the same file as {seen[target]}"
        seen[target] = path
    return None


def _peephole_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    alive: list[Gate | None] = []
    last: dict[int, int] = {}  # wire -> index of last surviving gate on it
    changed = False
    for g in gates:
        if g.kind == "rz" and abs(g.theta) < RZ_EPS:
            changed = True
            continue
        prev = {last.get(q) for q in g.qubits}
        j = prev.pop() if len(prev) == 1 else None
        partner = alive[j] if j is not None else None
        if partner is not None and _cancels(partner, g):
            alive[j] = None
            for q in g.qubits:
                del last[q]
            changed = True
            continue
        if (
            partner is not None
            and partner.kind == "rz"
            and g.kind == "rz"
            and partner.qubits == g.qubits
        ):
            theta = partner.theta + g.theta
            alive[j] = None if abs(theta) < RZ_EPS else rz(g.qubits[0], theta)
            if alive[j] is None:
                del last[g.qubits[0]]
            changed = True
            continue
        alive.append(g)
        for q in g.qubits:
            last[q] = len(alive) - 1
    return [g for g in alive if g is not None], changed


def reference_peephole(c: Circuit) -> Circuit:
    """Fixed-point local cleanup: cancel wire-adjacent self-inverse pairs
    (H.H, CX.CX on the same control/target, S.SDG), merge wire-adjacent
    RZ on the same qubit, drop RZ angles below 1e-12.  The unitary is
    preserved; no commutation reasoning is attempted."""
    gates = list(c.gates)
    while True:
        gates, changed = _peephole_pass(gates)
        if not changed:
            return Circuit(c.n, tuple(gates))


def reference_random_graph(n: int, edges: int, seed: int) -> list[tuple[int, int]]:
    """``edges`` pairs sampled from the list of all n(n-1)/2 pairs."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, edges))


def _check_cap(n: int) -> None:
    if n > DEFAULT_CAP:
        raise ValueError(f"{n} qubits exceeds the dense-simulation cap of {DEFAULT_CAP}")


def dense_pauli(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 0 outermost)."""
    _check_cap(p.n)
    m = np.array([[1.0 + 0j]])
    for q in range(p.n):
        m = np.kron(m, _PAULI_1Q[p.letter(q)])
    return p.sign * m


def rotation_unitary(p: PauliString, t: float) -> np.ndarray:
    """exp(i*P*t) via cos(t)*I + i*sin(t)*P (P squares to the identity)."""
    mat = dense_pauli(p)
    dim = mat.shape[0]
    return np.cos(t) * np.eye(dim, dtype=complex) + 1j * np.sin(t) * mat


def _apply_gate(state: np.ndarray, n: int, g) -> None:
    """Apply one gate in place to the C-contiguous ``state`` of shape
    (2**n, batch), through views that split out the gate's qubit axes (no
    full-size temporary)."""
    a = state.reshape([2] * n + [-1])
    if g.kind == "cx":  # flip the target axis where the control is 1
        c, t = g.qubits
        on = [slice(None)] * n
        on[c] = 1
        b = a[tuple(on)]
        b[...] = np.flip(b, t - (t > c))  # numpy buffers the overlapping copy
        return
    q = g.qubits[0]
    a0, a1 = a[(slice(None),) * q + (0,)], a[(slice(None),) * q + (1,)]
    if g.kind == "h":  # (a0, a1) -> (a0 + a1, a0 - a1) / sqrt(2)
        a0 += a1
        a1 *= -2.0
        a1 += a0
        a *= _SQ2
    elif g.kind == "rz":  # diag(e^{-i theta/2}, e^{i theta/2})
        a0 *= np.exp(-0.5j * g.theta)
        a1 *= np.exp(0.5j * g.theta)
    else:  # s = diag(1, i), sdg = diag(1, -i)
        a1 *= 1j if g.kind == "s" else -1j


def statevector(c: Circuit) -> np.ndarray:
    """Evolve |0...0> through the circuit."""
    _check_cap(c.n)
    psi = np.zeros((2**c.n, 1), dtype=complex)
    psi[0, 0] = 1.0
    for g in c.gates:
        _apply_gate(psi, c.n, g)
    return psi[:, 0]


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Time-ordered product of the circuit's gates (first gate applied first)."""
    _check_cap(c.n)
    u = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        _apply_gate(u, c.n, g)
    return u


def probabilities(c: Circuit) -> np.ndarray:
    """Computational-basis distribution from |0...0>; index i corresponds
    to the bitstring format(i, "0nb")."""
    amp = statevector(c)
    return np.abs(amp) ** 2


def expectation(c: Circuit, o: PauliString) -> float:
    """<0| U† O U |0> for the given circuit and observable."""
    if o.n != c.n:
        raise LengthMismatch(f"{o.n}-qubit observable vs {c.n}-qubit circuit")
    psi = statevector(c)
    val = np.vdot(psi, dense_pauli(o) @ psi)
    return float(val.real)


def equivalent_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff max-entry |u - e^{i phi} v| <= tol, with phi fixed from
    the largest-magnitude entry of v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape {u.shape} vs {v.shape}")
    idx = int(np.argmax(np.abs(v)))
    pivot = v.flat[idx]
    if abs(pivot) == 0.0:
        return bool(np.max(np.abs(u)) <= tol)
    phase = u.flat[idx] / pivot
    mag = abs(phase)
    phase = phase / mag if mag > 0 else 1.0
    return bool(np.max(np.abs(u - phase * v)) <= tol)

"""Clifford extraction for ordered lists of Pauli rotations.

Each rotation exp(i*P*t) is synthesized as a single-qubit basis-change
layer, a CNOT parity tree and one RZ on the tree root.  Only that left
half is emitted into the executable circuit.  The mirrored right halves
are never built: the Clifford gates emitted so far are the Clifford D
that the rotations still to come are conjugated through, and the
extracted circuit, D inverted, is read off them once, at the very end.

The kept strings wait in bit-sliced columns (``tableau.columns``): bit k
of one X int and one Z int per qubit, and of one sign int, belongs to
the k-th string in input order, so every emitted gate is one
``tableau.conj_columns`` step over all waiting strings at once.  No row
is ever moved: an ``alive`` mask holds the current block's unemitted
strings.  Only the current string and its sign are read from its lane,
the one O(n) row read per rotation; all candidates for the next
position are scored at once with bit-sliced counters, and the tree
splits on the columns' lanes directly.  One more counter keeps every
lane's weight: a rotation's gates act on its support S alone, so its
letters on S are taken out to score the weight off S and put back after
the tree, O(|S| log n) counter steps per rotation.  Blocks are cut from
columns too.

Tree shapes are chosen so that rewritten successor strings lose as many
non-identity letters as possible, in two phases.  Splitting, top down:
the tree qubits are grouped by the letters of the chosen successor, and
each multi-qubit group is split again against later strings, in input
order.  A group's guiding lane is the lowest lane, past its parent's, on
which its letters differ: the OR over the group of each qubit's columns
XORed with its first qubit's, so a split costs O(|group|) big-int
operations however many waiting strings split nothing.  A group no lane
splits stays open.  Joining, bottom up: a split group's open roots are
joined control->target in the order (Z->Y), (I->X), (Y->X) -- the letter
pairs a CNOT conjugation can erase -- before the rest are chained into
its one root.  Both phases walk explicit lists, so a tree of any depth
fits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .circuit import Circuit, Gate, cx, h, inverse, rz, sdg
from .errors import InvalidSize, LengthMismatch
from .pauli import PauliString, PauliTerm, _support
from .tableau import anticommuting, columns, conj_columns


@dataclass(frozen=True)
class ExtractionResult:
    opt_circuit: Circuit
    extracted: Circuit
    stats: dict


def _term_list(terms, verb: str) -> tuple[list[PauliTerm], int]:
    """``terms`` as a list, non-empty and on one qubit count, and that count."""
    terms = list(terms)
    if not terms:
        raise ValueError(f"cannot {verb} an empty term list")
    n = terms[0].pauli.n
    for k, t in enumerate(terms):
        if t.pauli.n != n:
            raise LengthMismatch(f"term {k} acts on {t.pauli.n} qubits, expected {n}")
    return terms, n


def _block_cuts(paulis: list[PauliString], xs: list[int], zs: list[int]) -> list[int]:
    """The first index of each block of the non-empty ``paulis``, whose
    columns are ``xs``/``zs``, then their count.  A block is a maximal run
    of mutually commuting strings, cut greedily: a string joins it iff it
    commutes with every member.  Strings may move inside a block, never
    across a cut.  The lanes anticommuting with string k are one parity,
    ``tableau.anticommuting``: O(weight) big-int XORs per string."""
    starts = [0]
    for k, p in enumerate(paulis):
        if anticommuting(xs, zs, p) & (1 << k) - (1 << starts[-1]):
            starts.append(k)
    return starts + [len(paulis)]


def basis_change_gates(p: PauliString) -> list[Gate]:
    """Single-qubit layer rotating every X/Y letter of ``p`` to Z
    (X: [H]; Y: [SDG, H] in time order)."""
    out: list[Gate] = []
    for q in _support(p.x):
        if p.z >> q & 1:
            out.append(sdg(q))
        out.append(h(q))
    return out


# bucket of a letter in X, Y, Z, I order, indexed by x_bit + 2*z_bit
_BUCKET = (3, 0, 2, 1)


def tree_synthesis(xs: list[int], zs: list[int], tree_idxs, first: int | None, rest: int
                   ) -> tuple[list[Gate], int]:
    """Synthesize a CNOT parity tree over the qubits ``tree_idxs``, guided
    by the successor strings in the lanes of the columns ``xs``/``zs``
    (already conjugated through every gate before the tree): lane
    ``first`` (None for none), then the lanes of the mask ``rest``
    upward.  Each group of qubits splits by the letters of the first of
    these lanes that differ on it, and its parts search only the lanes
    after that one.  Returns the CNOT gates and the tree root.

    The gates form a spanning tree of exactly ``len(tree_idxs) - 1``
    CNOTs whose target-directed paths accumulate the parity of every
    tree qubit into the root.
    """
    idxs = sorted(set(tree_idxs))
    if not idxs:
        raise InvalidSize("tree synthesis needs at least one qubit")
    # split: each sorted group that a lane splits is recorded with its
    # letter buckets on that lane, parents before children; buckets are
    # pushed X, Y, Z, I, so the join below meets X's subtree first
    todo, nodes = [(idxs, first, rest)], []
    while todo:
        grp, lane, rest = todo.pop()
        x0, z0, diff = xs[grp[0]], zs[grp[0]], 0
        for q in grp[1:]:
            diff |= xs[q] ^ x0 | zs[q] ^ z0
        # a part of grp differs only on lanes where grp does, so never on
        # this split's lane or on ``first``, nor on a lane of rest before it
        rest &= diff
        if lane is None or not diff >> lane & 1:
            if not rest:
                continue  # no lane splits grp: it stays open
            lane = (rest & -rest).bit_length() - 1
        buckets = ([], [], [], [])
        for q in grp:
            buckets[_BUCKET[(xs[q] >> lane & 1) + 2 * (zs[q] >> lane & 1)]].append(q)
        nodes.append((grp, buckets))
        todo += [(b, None, rest) for b in buckets if len(b) > 1]
    # join, every child before its parent: the priority pairings fire
    # (source consumed, target keeps its parity-carrying role), then the
    # rest chain into the lowest qubit of the first class present in
    # X, Y, I, Z order; that root replaces the group in its parent's bucket
    out: list[tuple[int, int]] = []
    for grp, (x, y, z, i) in reversed(nodes):
        out += zip(z, y)
        z = z[len(y):]
        out += zip(i, x)
        i = i[len(x):]
        out += zip(y, x)
        y = y[len(x):]
        root = (x or y or i or z)[0]
        out += [(q, root) for q in sorted(x + y + z + i) if q != root]
        grp[:] = [root]
    # open top-level roots chain into the lowest of them
    out += [(q, idxs[0]) for q in idxs[1:]]
    return [cx(a, b) for a, b in out], idxs[0]


def _add(counter: list[int], lanes: int, k: int = 0) -> None:
    """Add 2**k in every lane of ``lanes`` to the bit-sliced ``counter``
    (one int per binary digit, least significant first, bit j of each
    belonging to lane j)."""
    while lanes:
        if k >= len(counter):
            counter += [0] * (k + 1 - len(counter))
        counter[k], lanes = counter[k] ^ lanes, counter[k] & lanes
        k += 1


def _sub(counter: list[int], lanes: int, k: int = 0) -> None:
    """``_add``'s borrow-chain twin: subtract 2**k in every lane of ``lanes``."""
    while lanes:
        counter[k] ^= lanes
        lanes &= counter[k]  # borrow where the digit was 0: ~old & lanes
        k += 1


def _chain_weight(xs: list[int], zs: list[int], cand: int, smask: int) -> list[int]:
    """Bit-sliced count, in each lane of ``cand`` of the columns
    ``xs``/``zs``, of the letters left on the support S = ``smask`` by the
    non-recursive tree over S keyed on that lane's string: each letter
    group chained from the highest index down, then the group roots
    joined.  The chains erase the pairs (control, target) XX -> XI,
    ZZ -> IZ, and YY -> XZ then ZY -> IY, keeping every second X, one Z,
    and #Y // 2 X plus the Y root.  Among the roots a Z is erased into
    the Y root (ZY -> IY, ZZ -> IZ), a Y toggles the X root (YX -> YI,
    YI -> YX), and an I joined into a lone Y root takes a Z (IY -> ZY,
    IZ -> ZZ).  So with a X and b Y letters on S the weight is
    (a + b + 1) // 2 plus: 1 - [a, b both odd] when a, b > 0, [any Z]
    when b = 0, and 1 + [any I] - [b odd] when a = 0 < b."""
    xy: list[int] = []  # a + b
    has_x = has_y = odd_y = has_z = has_i = 0
    for q in _support(smask):
        x, z = xs[q] & cand, zs[q] & cand
        y = x & z
        has_x, has_y, odd_y = has_x | x ^ y, has_y | y, odd_y ^ y
        has_z, has_i = has_z | z ^ y, has_i | cand & ~(x | z)
        _add(xy, x)
    odd = xy[0] if xy else 0  # lanes where a + b is odd
    _add(xy, cand)
    w = xy[1:]
    y_only = has_y & ~has_x
    _add(w, has_x & has_y & ~(odd_y & ~odd) | y_only & ~(odd_y ^ has_i) | has_z & ~has_y)
    _add(w, y_only & has_i & ~odd_y, 1)
    return w


def _score_candidates(xs: list[int], zs: list[int], cand: int, smask: int, off: list[int]) -> int:
    """Lane of the candidate in ``cand`` (a row of the columns, conjugated
    through every gate emitted so far, the current string's basis layer
    included) with the fewest letters left after the tree of
    ``_chain_weight`` keyed on it; ties go to the lowest lane.  Letters
    off S = ``smask`` count as they are: ``off`` is the bit-sliced count
    of each lane's letters there.  All candidates are scored at once, and
    the minimum is found top digit first."""
    w = _chain_weight(xs, zs, cand, smask)
    for k, digit in enumerate(off):
        _add(w, digit & cand, k)
    for digit in reversed(w):
        low = cand & ~digit
        if low:
            cand = low
    return (cand & -cand).bit_length() - 1


def _read(xs: list[int], zs: list[int], k: int) -> tuple[int, int]:
    """Row k's (x, z) masks of the columns ``xs``/``zs``."""
    bit, x, z = 1 << k, 0, 0
    for q in range(len(xs)):
        if xs[q] & bit:
            x |= 1 << q
        if zs[q] & bit:
            z |= 1 << q
    return x, z


def extract(terms) -> ExtractionResult:
    """Compile a list of Pauli rotations into an optimized circuit plus
    the Clifford circuit extracted to its end.

    Identity terms contribute only a global phase; they are skipped with
    a warning.  The result satisfies extracted * opt_circuit == the
    product of the input rotations, up to global phase.
    """
    terms, n = _term_list(terms, "extract from")
    # (input index, term) of every non-identity term, in input order
    order: list[tuple[int, PauliTerm]] = []
    for k, t in enumerate(terms):
        if t.pauli.x | t.pauli.z:
            order.append((k, t))
        else:
            warnings.warn(
                f"term {k} is the identity; it only adds a global phase and was skipped",
                stacklevel=2,
            )

    gates: list[Gate] = []
    weights: list[int] = []
    emitted: list[int] = []
    reorders = 0

    # lane k of the columns is order[base + k]'s signed string conjugated
    # through every gate emitted so far; a finished block's lanes are
    # shifted out, so the current block starts at lane 0
    paulis = [t.pauli for _, t in order]
    xs, zs, sign = columns(paulis, n)
    cuts = _block_cuts(paulis, xs, zs) if order else []
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    wt: list[int] = []  # every lane's weight, bit-sliced; idle qubits add nothing
    for occupied in filter(None, map(int.__or__, xs, zs)):
        _add(wt, occupied)
    base = 0
    for size in sizes:
        later = (1 << len(order) - base) - (1 << size)
        alive, cur = (1 << size) - 1, 0
        while alive:
            alive ^= 1 << cur
            (px, pz), neg = _read(xs, zs, cur), sign >> cur & 1
            supp = _support(px | pz)
            layer = basis_change_gates(PauliString(n, px, pz))
            sign ^= conj_columns(xs, zs, layer)
            # S's letters leave the weights until the tree is done
            for q in supp:
                _sub(wt, xs[q] | zs[q])
            nxt, rest = None, later
            if alive:
                nxt = _score_candidates(xs, zs, alive, px | pz, wt)
                reorders += alive & -alive != 1 << nxt
                rest |= alive ^ 1 << nxt
            tree, root = tree_synthesis(xs, zs, supp, nxt, rest)
            sign ^= conj_columns(xs, zs, tree)
            for q in supp:
                _add(wt, xs[q] | zs[q])
            gates += layer
            gates += tree
            k, t = order[base + cur]
            gates.append(rz(root, -2.0 * t.coeff * (-1 if neg else 1)))
            weights.append(len(supp))
            emitted.append(k)
            cur = nxt
        xs, zs, sign = [c >> size for c in xs], [c >> size for c in zs], sign >> size
        wt = [d >> size for d in wt]
        base += size

    stats = {
        "rotations": len(order),
        "blocks": len(sizes),
        "block_sizes": tuple(sizes),
        "reorders": reorders,
        "skipped_identity_terms": len(terms) - len(order),
        "emitted_order": tuple(emitted),
        "weights": tuple(weights),
    }
    extracted = tuple(inverse(g) for g in reversed(gates) if g.kind != "rz")
    return ExtractionResult(Circuit(n, tuple(gates)), Circuit(n, extracted), stats)


def native_circuit(terms) -> Circuit:
    """Reference synthesis without extraction: every rotation becomes a
    mirrored basis-layer/chain/RZ/inverse-chain/inverse-layer block, so a
    weight-w term costs 2(w-1) CNOTs.  Identity terms are skipped."""
    terms, n = _term_list(terms, "synthesize")
    gates: list[Gate] = []
    for t in terms:
        p = t.pauli
        supp = _support(p.x | p.z)
        if not supp:
            continue
        body = basis_change_gates(p)
        body += [cx(supp[k2], supp[k2 + 1]) for k2 in range(len(supp) - 1)]
        gates += body
        gates.append(rz(supp[-1], -2.0 * t.coeff * p.sign))
        gates += [inverse(g) for g in reversed(body)]
    return Circuit(n, tuple(gates))


def native_cost(terms) -> tuple[int, int]:
    """``native_circuit``'s CNOT count and entangling depth, from the
    supports alone.  A term of weight w >= 2 adds 2(w-1) CNOTs.  Its chain
    over the sorted support s_0 < ... < s_{w-1} ends in layer top, where
    top starts at s_0's depth and each later qubit q sets it to
    1 + max(top, depth of q); the mirrored chain then leaves s_j at depth
    top + w - max(j, 1), the deepest at top + w - 1."""
    terms, n = _term_list(terms, "synthesize")
    depth = [0] * n
    cnots = deepest = 0
    for t in terms:
        supp = _support(t.pauli.x | t.pauli.z)
        w = len(supp)
        if w < 2:
            continue
        top = depth[supp[0]]
        for q in supp[1:]:
            top = 1 + max(top, depth[q])
        for j, q in enumerate(supp):
            depth[q] = top + w - (j or 1)
        deepest = max(deepest, top + w - 1)
        cnots += 2 * (w - 1)
    return cnots, deepest

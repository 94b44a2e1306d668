"""Clifford extraction for ordered lists of Pauli rotations.

Each rotation exp(i*P*t) is synthesized as a single-qubit basis-change
layer, a CNOT parity tree and one RZ on the tree root.  Only that left
half is emitted into the executable circuit.  The mirrored right halves
are never built: the Clifford gates emitted so far are the Clifford D
that the rotations still to come are conjugated through, and the
extracted circuit, D inverted, is read off them once, at the very end.
Every kept string is one signed row in a single list kept in emission
order: the rows start as the raw strings, and every gate emitted
afterwards is applied to the rows still waiting (``tableau.conj_rows``).
The current string and its sign are read from its row, scoring the
candidates for the next position reads the rest of the block's rows,
and a tree reads its guiding successors, in this block or later ones,
from the rows after it.

Tree shapes are chosen so that rewritten successor strings lose as many
non-identity letters as possible: the tree qubits are grouped by the
successor's letters, multi-qubit groups are refined recursively against
later strings, and open group roots are joined control->target in the
order (Z->Y), (I->X), (Y->X) -- the letter pairs a CNOT conjugation can
erase.  Within a group whose deeper structure does not matter, qubits
are chained from the highest index down, leaving the lowest index as
the group root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .circuit import Circuit, Gate, cx, h, inverse, rz, sdg
from .errors import InvalidSize, LengthMismatch
from .pauli import PauliString, PauliTerm, _letter_at, _support
from .tableau import _conj_gate, conj_rows

_ROOT_PRIORITY = {"X": 0, "Y": 1, "I": 2, "Z": 3, None: 4}
_PAIRINGS = (("Z", "Y"), ("I", "X"), ("Y", "X"))
_GROUP_ORDER = ("X", "Y", "Z", "I")


@dataclass(frozen=True)
class ExtractionResult:
    opt_circuit: Circuit
    extracted: Circuit
    stats: dict


def convert_commute_sets(terms: list[PauliTerm]) -> list[list[PauliTerm]]:
    """Greedy left-to-right partition into maximal consecutive runs of
    mutually commuting terms: a term joins the current block iff it
    commutes with every member, otherwise it starts a new block.  Terms
    may be reordered inside a block; block boundaries never move."""
    terms = list(terms)
    if not terms:
        raise ValueError("cannot partition an empty term list")
    n = terms[0].pauli.n
    blocks: list[list[PauliTerm]] = []
    cur: list[PauliTerm] = []
    # a basis of the span of cur's (x, z) vectors, keyed by its top bit:
    # the symplectic product is bilinear, so commuting with the basis
    # means commuting with every member
    span: dict[int, PauliString] = {}
    for k, t in enumerate(terms):
        p = t.pauli
        if p.n != n:
            raise LengthMismatch(f"term {k} acts on {p.n} qubits, expected {n}")
        if not all(p.commutes(b) for b in span.values()):
            blocks.append(cur)
            cur, span = [], {}
        cur.append(t)
        x, z = p.x, p.z
        while x | z:
            top = (x | z << n).bit_length() - 1
            b = span.get(top)
            if b is None:
                span[top] = PauliString(n, x, z)
                break
            x, z = x ^ b.x, z ^ b.z
    blocks.append(cur)
    return blocks


def basis_change_gates(p: PauliString) -> list[Gate]:
    """Single-qubit layer rotating every X/Y letter of ``p`` to Z
    (X: [H]; Y: [SDG, H] in time order)."""
    out: list[Gate] = []
    for q in _support(p.x | p.z):
        letter = _letter_at(p.x, p.z, q)
        if letter == "X":
            out.append(h(q))
        elif letter == "Y":
            out.append(sdg(q))
            out.append(h(q))
    return out


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
    for lst in by.values():
        lst.sort()
    for src, dst in _PAIRINGS:
        a, b = by[src], by[dst]
        k = min(len(a), len(b))
        for i in range(k):
            out.append((a[i], b[i]))
        by[src] = a[k:]
    left = [(cls, q) for cls in ("X", "Y", "I", "Z", None) for q in by[cls]]
    _, root = min(left, key=lambda cq: (_ROOT_PRIORITY[cq[0]], cq[1]))
    for _, q in sorted(left, key=lambda cq: cq[1]):
        if q != root:
            out.append((q, root))
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


def tree_synthesis(rows: list[int], lo: int, n: int, tree_idxs) -> tuple[list[Gate], int]:
    """Synthesize a CNOT parity tree over the qubits ``tree_idxs``, guided
    by the successor strings ``rows[lo:]`` (packed as x | z << n and
    already conjugated through every gate before the tree).  Returns the
    CNOT gates and the tree root.

    The gates form a spanning tree of exactly ``len(tree_idxs) - 1``
    CNOTs whose target-directed paths accumulate the parity of every
    tree qubit into the root.
    """
    idxs = sorted(set(tree_idxs))
    if not idxs:
        raise InvalidSize("tree synthesis needs at least one qubit")
    full = (1 << n) - 1

    def guidance(level: int):
        j = lo + level - 1
        return (rows[j] & full, rows[j] >> n & full) if j < len(rows) else None

    out: list[tuple[int, int]] = []
    root = _connect_roots(_synth_recursive(idxs, 1, guidance, out), out)
    return [cx(a, b) for a, b in out], root


def _score_candidates(rows: list[int], lo: int, hi: int, smask: int, n: int) -> int:
    """Index of the candidate row in ``rows[lo:hi]`` (conjugated through
    every gate emitted so far, the current string's basis layer included,
    and packed as x | z << n) with the fewest non-identity letters after
    simulating a non-recursive tree over the current support ``smask``
    keyed on that candidate; ties go to the lowest index.  The tree acts
    only on the support S, so the letters off S count as they are and the
    weight left on S is simulated once per distinct pattern."""
    supp = _support(smask)
    full = (1 << n) - 1
    mask, off = smask | smask << n, full & ~smask
    memo: dict[int, int] = {}
    best_w, best_j = n + 1, -1
    for j, v in enumerate(rows[lo:hi], lo):
        key = v & mask
        if key:
            w = memo.get(key)
            if w is None:
                bx, bz = key & full, key >> n
                for ct in _chain_tree(supp, bx, bz):
                    bx, bz, _ = _conj_gate(bx, bz, "cx", ct)
                w = memo[key] = (bx | bz).bit_count()
            w += ((v | v >> n) & off).bit_count()
        else:
            w = ((v | v >> n) & full).bit_count()
        if w < best_w:
            best_w, best_j = w, j
    return best_j


def extract(terms) -> ExtractionResult:
    """Compile a list of Pauli rotations into an optimized circuit plus
    the Clifford circuit extracted to its end.

    Identity terms contribute only a global phase; they are skipped with
    a warning.  The result satisfies extracted * opt_circuit == the
    product of the input rotations, up to global phase.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("cannot extract from an empty term list")
    n = terms[0].pauli.n
    # (input index, term) of every non-identity term, in emission order
    # once the loop below has reached it
    order: list[tuple[int, PauliTerm]] = []
    for k, t in enumerate(terms):
        if t.pauli.n != n:
            raise LengthMismatch(f"term {k} acts on {t.pauli.n} qubits, expected {n}")
        if t.pauli.x | t.pauli.z:
            order.append((k, t))
        else:
            warnings.warn(
                f"term {k} is the identity; it only adds a global phase and was skipped",
                stacklevel=2,
            )

    gates: list[Gate] = []
    weights: list[int] = []
    reorders = 0
    blocks = convert_commute_sets([t for _, t in order]) if order else []

    # rows[k] is order[k]'s signed string conjugated through every gate
    # emitted so far, packed as x | z << n | (sign < 0) << 2n; rows[:i + 1]
    # are no longer updated
    rows = [t.pauli.x | t.pauli.z << n | (t.pauli.sign < 0) << 2 * n for _, t in order]
    full = (1 << n) - 1
    hi = 0
    for block in blocks:
        hi += len(block)
        for i in range(hi - len(block), hi):
            px, pz = rows[i] & full, rows[i] >> n & full
            layer = basis_change_gates(PauliString(n, px, pz))
            conj_rows(rows, i + 1, layer, n)
            if i + 1 < hi:
                j = _score_candidates(rows, i + 1, hi, px | pz, n)
                if j != i + 1:
                    for lst in (order, rows):
                        lst.insert(i + 1, lst.pop(j))
                    reorders += 1
            supp = _support(px | pz)
            tree, root = tree_synthesis(rows, i + 1, n, supp)
            conj_rows(rows, i + 1, tree, n)
            gates += layer
            gates += tree
            sign = -1 if rows[i] >> 2 * n else 1
            gates.append(rz(root, -2.0 * order[i][1].coeff * sign))
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
    return ExtractionResult(Circuit(n, tuple(gates)), Circuit(n, extracted), stats)


def native_circuit(terms) -> Circuit:
    """Reference synthesis without extraction: every rotation becomes a
    mirrored basis-layer/chain/RZ/inverse-chain/inverse-layer block, so a
    weight-w term costs 2(w-1) CNOTs.  Identity terms are skipped."""
    terms = list(terms)
    if not terms:
        raise ValueError("cannot synthesize an empty term list")
    n = terms[0].pauli.n
    gates: list[Gate] = []
    for k, t in enumerate(terms):
        p = t.pauli
        if p.n != n:
            raise LengthMismatch(f"term {k} acts on {p.n} qubits, expected {n}")
        supp = _support(p.x | p.z)
        if not supp:
            continue
        body = basis_change_gates(p)
        body += [cx(supp[k2], supp[k2 + 1]) for k2 in range(len(supp) - 1)]
        gates += body
        gates.append(rz(supp[-1], -2.0 * t.coeff * p.sign))
        gates += [inverse(g) for g in reversed(body)]
    return Circuit(n, tuple(gates))

"""Heisenberg-picture conjugation of Pauli strings through Clifford
circuits.

Conjugating a string P by a gate g in time order maps P to g P g†.  The
H/S/SDG/CX rule (the row update of Aaronson & Gottesman, "Improved
simulation of stabilizer circuits", 2004) exists once, in
``_conj_lanes``, written over lanes: ints whose bit k is row k's X or Z
bit on one qubit, so one call updates every row at once (the column
layout of Gidney, "Stim", 2021).  ``_conj_gate`` applies it to one
string packed as ``x | z << n``; ``conj_rows`` applies that to a list of
signed packed rows (the waiting strings that extraction keeps, and the
observables that absorption rewrites); ``replay`` runs a whole circuit,
RZ gates included, over one X and one Z column per qubit.
"""

from __future__ import annotations

from .pauli import PauliString


def _conj_lanes(kind: str, xa: int, za: int, xb: int, zb: int) -> tuple[int, int, int, int, int]:
    """Image of the lanes (xa, za) on the gate's first qubit and (xb, zb)
    on its second (passed through by one-qubit gates) under conjugation
    by one H, S, SDG or CX gate, and the lane of rows whose sign flips."""
    if kind == "cx":  # flips when x_c z_t (x_t XNOR z_c)
        return xa, za ^ zb, xb ^ xa, zb, xa & zb & ~(xb ^ za)
    if kind == "h":  # X <-> Z, Y -> -Y
        return za, xa, xb, zb, xa & za
    # S: X -> Y, Y -> -X; SDG: X -> -Y, Y -> X
    return xa, za ^ xa, xb, zb, xa & za if kind == "s" else xa & ~za


def _conj_gate(x: int, z: int, kind: str, qubits) -> tuple[int, int, int]:
    """Image of the raw masks (x, z) under conjugation by one H, S, SDG
    or CX gate, and 1 if the sign flips, else 0."""
    a, b = qubits[0], qubits[-1]
    xa, za, xb, zb = x >> a & 1, z >> a & 1, x >> b & 1, z >> b & 1
    ya, wa, yb, wb, flip = _conj_lanes(kind, xa, za, xb, zb)
    return x ^ (xa ^ ya) << a ^ (xb ^ yb) << b, z ^ (za ^ wa) << a ^ (zb ^ wb) << b, flip


def conj_rows(rows: list[int], lo: int, gates, n: int) -> None:
    """Conjugate ``rows[lo:]`` (signed strings packed as x | z << n, with
    bit 2n set when the sign is -1, as in a stabilizer tableau) in place
    by ``gates`` appended in time order.  The gates touch only their own
    qubits, so a row's pattern on those qubits is simulated once per
    distinct pattern and the rest of the row is kept."""
    mask = 0
    for g in gates:
        for q in g.qubits:
            mask |= 1 << q
    if not mask:
        return
    mask |= mask << n
    full = (1 << n) - 1
    memo: dict[int, int] = {}  # pattern -> pattern ^ image ^ flip << 2n
    for k, v in enumerate(rows[lo:], lo):
        key = v & mask
        if key:
            d = memo.get(key)
            if d is None:
                x, z, flip = key & full, key >> n, 0
                for g in gates:
                    x, z, f = _conj_gate(x, z, g.kind, g.qubits)
                    flip ^= f
                d = memo[key] = key ^ x ^ z << n ^ flip << 2 * n
            rows[k] = v ^ d


def replay(gates, n: int) -> tuple[list[PauliString], list[tuple[PauliString, float]]]:
    """Run ``gates`` (H, S, SDG, CX and RZ, in time order) over bit-sliced
    columns: one X int and one Z int per qubit and one sign int, whose
    bit k belongs to row k.  Rows 0..2n-1 start as X_0..X_{n-1},
    Z_0..Z_{n-1}; every RZ on q adds a row Z_q, so every gate after it
    conjugates it too, and each Clifford gate is one ``_conj_lanes``
    call.

    Returns the images D X_q D† and D Z_q D† of the circuit's Clifford
    gates D, in that order, and every RZ as its row's signed string P
    with its angle t, in time order: the circuit equals D followed by
    exp(-i t/2 P) for each rotation in turn.
    """
    xs = [1 << q for q in range(n)]
    zs = [1 << n + q for q in range(n)]
    sign = 0
    angles: list[float] = []
    for g in gates:
        a = g.qubits[0]
        if g.kind == "rz":
            zs[a] |= 1 << 2 * n + len(angles)
            angles.append(g.theta)
            continue
        if g.kind == "cx":
            b = g.qubits[1]
            xs[a], zs[a], xs[b], zs[b], flip = _conj_lanes("cx", xs[a], zs[a], xs[b], zs[b])
        else:
            xs[a], zs[a], _, _, flip = _conj_lanes(g.kind, xs[a], zs[a], 0, 0)
        sign ^= flip
    # transpose: row k's x (z) mask collects bit k of every X (Z) column
    count = 2 * n + len(angles)
    xrows, zrows = [0] * count, [0] * count
    for q in range(n):
        for col, out in ((xs[q], xrows), (zs[q], zrows)):
            bits = format(col, "b")[::-1]
            k = bits.find("1")
            while k >= 0:
                out[k] |= 1 << q
                k = bits.find("1", k + 1)
    rows = [PauliString(n, x, z, -1 if sign >> k & 1 else 1) for k, (x, z) in enumerate(zip(xrows, zrows))]
    return rows[: 2 * n], list(zip(rows[2 * n :], angles))

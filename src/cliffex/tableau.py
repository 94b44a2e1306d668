"""Heisenberg-picture conjugation of Pauli strings through Clifford
circuits, over bit-sliced columns.

Conjugating a string P by a gate g in time order maps P to g P g†.  A
list of signed strings is held as columns (Gidney, "Stim", 2021): one X
int and one Z int per qubit and one sign int, whose bit k belongs to
row k (``columns`` and ``strings`` convert).  The H/S/SDG/CX rule (the
row update of Aaronson & Gottesman, "Improved simulation of stabilizer
circuits", 2004) exists once, in ``_conj_lanes``; ``conj_columns``, the
one driver, makes each gate one call over every row.  Extraction's
waiting rows, absorbed observables and ``replay``'s circuits all go
through it.  ``anticommuting`` finds the rows that anticommute with a
string as one parity over the columns, for block cuts and ``verify``.
"""

from __future__ import annotations

from .pauli import PauliString, _support


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


def conj_columns(xs: list[int], zs: list[int], gates) -> int:
    """Conjugate the rows held in the columns ``xs``/``zs`` in place by
    ``gates`` (H, S, SDG and CX) appended in time order; returns the lane
    of rows whose sign flips."""
    flips = 0
    for g in gates:
        a, b = g.qubits[0], g.qubits[-1]
        xs[a], zs[a], xb, zb, flip = _conj_lanes(g.kind, xs[a], zs[a], xs[b], zs[b])
        if b != a:
            xs[b], zs[b] = xb, zb
        flips ^= flip
    return flips


def columns(paulis, n: int) -> tuple[list[int], list[int], int]:
    """The columns and the sign int of ``paulis``, row k holding paulis[k]."""
    xs, zs, sign = [0] * n, [0] * n, 0
    for k, p in enumerate(paulis):
        for q in _support(p.x):
            xs[q] |= 1 << k
        for q in _support(p.z):
            zs[q] |= 1 << k
        sign |= (p.sign < 0) << k
    return xs, zs, sign


def anticommuting(xs: list[int], zs: list[int], p: PauliString) -> int:
    """Lanes of the columns ``xs``/``zs`` whose rows anticommute with
    ``p``: the XOR of ``zs[q]`` over its X bits and of ``xs[q]`` over its
    Z bits (a Y cancels itself), O(weight) big-int XORs."""
    anti = 0
    for q in _support(p.x):
        anti ^= zs[q]
    for q in _support(p.z):
        anti ^= xs[q]
    return anti


def strings(xs: list[int], zs: list[int], sign: int, count: int) -> list[PauliString]:
    """Rows 0..count-1 of the columns as signed strings."""
    n = len(xs)
    # transpose: row k's x (z) mask collects bit k of every X (Z) column
    xrows, zrows = [0] * count, [0] * count
    for q in range(n):
        for col, out in ((xs[q], xrows), (zs[q], zrows)):
            bits = format(col, "b")[::-1]
            k = bits.find("1")
            while k >= 0:
                out[k] |= 1 << q
                k = bits.find("1", k + 1)
    return [PauliString(n, x, z, -1 if sign >> k & 1 else 1) for k, (x, z) in enumerate(zip(xrows, zrows))]


def replay(gates, n: int) -> tuple[list[PauliString], list[tuple[PauliString, float]]]:
    """Run ``gates`` (H, S, SDG, CX and RZ, in time order) over columns.
    Rows 0..2n-1 start as X_0..X_{n-1}, Z_0..Z_{n-1}; every RZ on q adds
    a row Z_q, so every gate after it conjugates it too.

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
        if g.kind == "rz":
            zs[g.qubits[0]] |= 1 << 2 * n + len(angles)
            angles.append(g.theta)
        else:
            sign ^= conj_columns(xs, zs, (g,))
    rows = strings(xs, zs, sign, 2 * n + len(angles))
    return rows[: 2 * n], list(zip(rows[2 * n :], angles))

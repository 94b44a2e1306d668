"""Heisenberg-picture conjugation of Pauli strings through Clifford
circuits.

A string is one packed int ``x | z << n`` plus a +/-1 sign.  Conjugating
it by a gate g in time order maps P to g P g†.  The H/S/SDG/CX rule
(the row update of Aaronson & Gottesman, "Improved simulation of
stabilizer circuits", 2004) exists once, in ``_conj_gate``; ``conj_rows``
applies it to any list of packed rows: the waiting strings that
extraction keeps, and the observables that absorption rewrites.
"""

from __future__ import annotations


def _conj_gate(x: int, z: int, kind: str, qubits) -> tuple[int, int, int]:
    """Image of the raw masks (x, z) under conjugation by one H, S, SDG
    or CX gate, and 1 if the sign flips, else 0."""
    if kind == "cx":  # flips when x_c z_t (x_t XNOR z_c)
        c, t = qubits
        xc, zt = (x >> c) & 1, (z >> t) & 1
        return x ^ xc << t, z ^ zt << c, xc & zt & ~((x >> t) ^ (z >> c)) & 1
    q = qubits[0]
    xq, zq = (x >> q) & 1, (z >> q) & 1
    if kind == "h":  # X <-> Z, Y -> -Y
        d = (xq ^ zq) << q
        return x ^ d, z ^ d, xq & zq
    # S: X -> Y, Y -> -X; SDG: X -> -Y, Y -> X
    return x, z ^ xq << q, xq & zq if kind == "s" else xq & ~zq & 1


def conj_rows(rows: list[int], signs: list[int], lo: int, gates, n: int) -> None:
    """Conjugate ``rows[lo:]`` (strings packed as x | z << n) and their
    +/-1 ``signs`` in place by ``gates`` appended in time order.  The
    gates touch only their own qubits, so a row's pattern on those qubits
    is simulated once per distinct pattern and the rest of the row is
    kept."""
    mask = 0
    for g in gates:
        for q in g.qubits:
            mask |= 1 << q
    if not mask:
        return
    mask |= mask << n
    full = (1 << n) - 1
    memo: dict[int, tuple[int, int]] = {}  # pattern -> (pattern ^ image, flip)
    for k, v in enumerate(rows[lo:], lo):
        key = v & mask
        if key:
            hit = memo.get(key)
            if hit is None:
                x, z, flip = key & full, key >> n, 0
                for g in gates:
                    x, z, f = _conj_gate(x, z, g.kind, g.qubits)
                    flip ^= f
                hit = memo[key] = (key ^ x ^ z << n, flip)
            d, flip = hit
            rows[k] = v ^ d
            if flip:
                signs[k] = -signs[k]

"""Gate-level circuit representation, metrics, a conservative peephole
cleaner, and OpenQASM 2.0 emission/parsing for the {H, S, SDG, CNOT, RZ}
gate set.

``h``, ``s``, ``sdg`` and ``cx`` on int qubits return shared immutable
gates: each distinct one is built and validated once, on first use, and
every later call (``parse_qasm``'s too) is one dict lookup.  ``rz`` builds
a new gate per call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .errors import InvalidSize, SchemaError

_KINDS_1Q = ("h", "s", "sdg", "rz")
_KINDS = _KINDS_1Q + ("cx",)

RZ_EPS = 1e-12


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "cx" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be non-negative")
        if self.kind == "cx" and self.qubits[0] == self.qubits[1]:
            raise ValueError("cx control and target must differ")
        if self.kind == "rz":
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("rz needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} carries no angle")


class _Shared(dict):
    """The gates of one Clifford kind by qubit (a control/target pair for
    cx), each built, and so validated, when first looked up.  Keys must
    be exact ints: 1.0 and True hash like 1 and would get its gate."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, key) -> Gate:
        g = self[key] = Gate(self.kind, key if type(key) is tuple else (key,))
        return g


_SHARED = {kind: _Shared(kind) for kind in ("h", "s", "sdg", "cx")}
_H, _S, _SDG, _CX = _SHARED.values()


def h(q: int) -> Gate:
    return _H[q] if type(q) is int else Gate("h", (q,))


def s(q: int) -> Gate:
    return _S[q] if type(q) is int else Gate("s", (q,))


def sdg(q: int) -> Gate:
    return _SDG[q] if type(q) is int else Gate("sdg", (q,))


def cx(c: int, t: int) -> Gate:
    return _CX[c, t] if type(c) is type(t) is int else Gate("cx", (c, t))


def rz(q: int, theta: float) -> Gate:
    return Gate("rz", (q,), float(theta))


def inverse(g: Gate) -> Gate:
    if g.kind == "s":
        return sdg(g.qubits[0])
    if g.kind == "sdg":
        return s(g.qubits[0])
    if g.kind == "rz":
        return rz(g.qubits[0], -g.theta)
    return g  # h and cx are self-inverse


_QUBITS = attrgetter("qubits")


@dataclass(frozen=True)
class Circuit:
    """Time-ordered gate list over n qubits (first gate applied first)."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSize(f"qubit count must be positive, got {self.n}")
        # one max over every qubit; "not <" also sends a NaN qubit, which
        # max may or may not return, to the per-gate check
        if self.gates and not max(chain.from_iterable(map(_QUBITS, self.gates))) < self.n:
            for g in self.gates:
                if any(q >= self.n for q in g.qubits):
                    raise ValueError(f"gate {g} out of range for {self.n} qubits")


def cnot_count(c: Circuit) -> int:
    """Number of CNOT gates."""
    return sum(1 for g in c.gates if g.kind == "cx")


def entangling_depth(c: Circuit) -> int:
    """Greedy ASAP layering in which only CNOTs occupy layers."""
    depth = [0] * c.n
    out = 0
    for g in c.gates:
        if g.kind != "cx":
            continue
        a, b = g.qubits
        layer = 1 + max(depth[a], depth[b])
        depth[a] = depth[b] = layer
        out = max(out, layer)
    return out


def _cancels(a: Gate, b: Gate) -> bool:
    if a.qubits != b.qubits:
        return False
    if a.kind == b.kind and a.kind in ("h", "cx"):
        return True
    return {a.kind, b.kind} == {"s", "sdg"}


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


def peephole(c: Circuit) -> Circuit:
    """Fixed-point local cleanup: cancel wire-adjacent self-inverse pairs
    (H.H, CX.CX on the same control/target, S.SDG), merge wire-adjacent
    RZ on the same qubit, drop RZ angles below 1e-12.  The unitary is
    preserved; no commutation reasoning is attempted."""
    gates = list(c.gates)
    while True:
        gates, changed = _peephole_pass(gates)
        if not changed:
            return Circuit(c.n, tuple(gates))


def _qasm_gates(gates) -> str:
    """The OpenQASM 2.0 statements of ``gates``, one line each, each line
    ending in a newline; angles are printed at 17 significant digits."""
    lines = []
    for g in gates:
        if g.kind == "cx":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];\n")
        elif g.kind == "rz":
            lines.append(f"rz({g.theta:.17g}) q[{g.qubits[0]}];\n")
        else:
            lines.append(f"{g.kind} q[{g.qubits[0]}];\n")
    return "".join(lines)


def emit_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text: the header, then ``_qasm_gates`` of the gates."""
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{c.n}];\n' + _qasm_gates(c.gates)


# a gate statement with its ';', surrounding blanks and trailing comment:
# the one pattern a line of emitted QASM is matched against once its
# register is declared
_QASM_GATE = re.compile(
    r"\s*(?:(h|s|sdg)\s+q\[(\d+)\]|cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]"
    r"|rz\(([-+0-9.eE]+)\)\s+q\[(\d+)\])\s*;\s*(?://.*)?"
)
_QASM_QREG = re.compile(r"^qreg\s+q\[(\d+)\]$")


def _other_line(raw: str, n: int | None) -> int | None:
    """The register size after a line that is not a gate statement under
    a declared register: a blank or comment line, the header or the qreg
    declaration.  Anything else raises SchemaError."""
    stmt = raw.split("//", 1)[0].strip()
    if not stmt:
        return n
    if not stmt.endswith(";"):
        raise SchemaError(f"missing ';' in qasm line: {raw!r}")
    stmt = stmt[:-1].strip()
    if stmt == "OPENQASM 2.0" or stmt == 'include "qelib1.inc"':
        return n
    m = _QASM_QREG.match(stmt)
    if m and n is None:
        n = int(m.group(1))
        if n >= 1:
            return n
        msg = f"qubit count must be positive, got {n}"
    else:
        msg = "gate before qreg declaration" if n is None else "unsupported statement"
    raise SchemaError(f"bad qasm statement {stmt!r}: {msg}")


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM subset produced by :func:`emit_qasm`.  Text
    outside that subset, including a gate that is invalid or leaves the
    declared register, raises SchemaError naming the statement."""
    n = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        m = _QASM_GATE.fullmatch(raw) if n is not None else None
        if m is None:
            n = _other_line(raw, n)
            continue
        one, q, c, t, theta, rq = m.groups()
        try:
            if one:
                g = _SHARED[one][int(q)]
            elif c:
                g = _CX[int(c), int(t)]
            else:
                g = rz(int(rq), float(theta))
            if max(g.qubits) >= n:
                raise ValueError(f"qubit {max(g.qubits)} outside the {n}-qubit register")
        except ValueError as exc:
            stmt = raw.split("//", 1)[0].strip()[:-1].strip()
            raise SchemaError(f"bad qasm statement {stmt!r}: {exc}") from None
        gates.append(g)
    if n is None:
        raise SchemaError("qasm text lacks a qreg declaration")
    return Circuit(n, tuple(gates))

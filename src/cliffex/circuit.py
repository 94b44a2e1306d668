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
from collections import defaultdict
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
        try:
            if len(self.qubits) != arity:
                raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
            if any(q < 0 for q in self.qubits):
                raise ValueError("qubit indices must be non-negative")
            if self.kind == "rz" and (self.theta is None or not math.isfinite(self.theta)):
                raise ValueError("rz needs a finite angle")
        except (TypeError, OverflowError):  # qubits or an angle that are not numbers
            raise ValueError(f"not a {self.kind} gate: qubits {self.qubits!r}, angle {self.theta!r}") from None
        # "is" first: one NaN object on both wires is not equal to itself
        if self.kind == "cx" and (self.qubits[0] is self.qubits[1] or self.qubits[0] == self.qubits[1]):
            raise ValueError("cx control and target must differ")
        if self.kind != "rz" and self.theta is not None:
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
    try:
        theta = float(theta)
    except (TypeError, OverflowError):  # None, a list, an int past float range
        raise ValueError(f"rz needs a finite angle, got {theta!r}") from None
    return Gate("rz", (q,), theta)


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


class _Pair:
    """Two gates on the same wires, at indices ``left`` < ``right``, each
    the other's inverse, that cancel in pass ``level`` of the repeated
    passes ``peephole`` reproduces;
    with no gates (``left`` None) a run of RZ whose angles summed to zero
    in that pass.  ``inner`` holds, per wire, the stack entries between
    the two gates and ``low`` those it hides below it: pairs gone by
    then, which a later gate passing it never meets."""

    __slots__ = ("level", "left", "right", "inner", "low")

    def __init__(self, level: int, left: int | None, right: int | None, inner):
        self.level, self.left, self.right, self.inner, self.low = level, left, right, inner, []


class _Rz:
    """RZ gates on one wire merged into one of angle ``theta`` at the
    first one's index ``at``, which merges into the next _Rz below it on
    its wire's stack in pass ``merge`` (0: none does).  ``gate`` is the
    original gate while nothing merged into it; a merged one is rebuilt
    on qubit ``q``, the last merged gate's, as each pass rebuilds it."""

    __slots__ = ("theta", "at", "q", "gate", "merge")

    def __init__(self, theta: float, at: int, q, gate: Gate | None, merge: int):
        self.theta, self.at, self.q, self.gate, self.merge = theta, at, q, gate, merge


def _walk(stack: list) -> tuple[list, int, int]:
    """Meet a stack's entries from the top in pass order, as a non-RZ
    gate put on it does.  Returns the pairs met whose right gate is still
    there when the new gate meets it, as (index, pair, pass), the index of
    the entry that stops it (-1 for none) and the pass it meets that
    entry in.  An RZ run is followed down through its merges, the entries
    between hidden behind it, until it stops the gate or sums to zero."""
    hits = []
    cur, merge, theta = 1, 0, 0.0
    k = len(stack) - 1
    while k >= 0:
        entry = stack[k]
        if type(entry) is _Pair:
            if not merge and entry.level >= cur:
                if entry.level > cur and entry.left is not None:
                    hits.append((k, entry, cur))
                cur = entry.level + 1
        elif type(entry) is _Rz:
            theta = entry.theta + theta if merge else entry.theta
            if merge and abs(theta) < RZ_EPS:
                cur, merge = max(cur, merge + 1), 0
            elif not entry.merge:
                break
            else:
                merge = entry.merge
        else:
            break
        k -= 1
    return hits, k, cur


def _take(gates: list[Gate], g: Gate, walks: list) -> tuple | None:
    """The first pair, of those ``g``'s walks met, whose right gate ``g``
    takes: the pair's left gate equals ``g``, so its right gate is ``g``'s
    inverse.  A cx meets a pair on both its wires, in the later of the two
    passes.  Returns (pair, its index on each wire, the pass) or None."""
    if len(walks) == 1:
        return next(((pair, [k], t) for k, pair, t in walks[0][0] if gates[pair.left] == g), None)
    other = {id(pair): (k, t) for k, pair, t in walks[1][0]}
    for k, pair, t in walks[0][0]:
        if gates[pair.left] == g and id(pair) in other:
            k2, t2 = other[id(pair)]
            if max(t, t2) < pair.level:
                return pair, [k, k2], max(t, t2)
    return None


def _close(stacks, pair: _Pair) -> None:
    """Push ``pair`` on each wire's stack, hiding the pairs below it that
    are gone in its pass or earlier."""
    for stack in stacks:
        low = []
        while stack and type(stack[-1]) is _Pair and stack[-1].level <= pair.level:
            low.append(stack.pop())
        low.reverse()
        pair.low.append(low)
        stack.append(pair)


def _join(stack: list, i: int, g: Gate) -> None:
    """Put the RZ ``g``, index ``i``, on its wire's stack.  It meets the
    top RZ run in the first pass in which nothing is left between them,
    after that run's own merges due by then, and merges into it there; a
    merge that sums to zero leaves a gap, and the run below it is met
    instead."""
    cur, k = 1, len(stack) - 1
    while k >= 0:
        entry = stack[k]
        if type(entry) is _Pair:
            cur = max(cur, entry.level + 1)
            k -= 1
            continue
        if type(entry) is not _Rz:
            break
        while entry is not None and entry.merge and entry.merge <= cur:
            j = k - 1
            while type(stack[j]) is not _Rz:
                j -= 1
            under = stack[j]
            theta = under.theta + entry.theta
            if abs(theta) >= RZ_EPS:
                under.theta, under.q, under.gate = theta, entry.q, None
                del stack[j + 1:k + 1]
                entry, k = under, j
                continue
            stack[j:k + 1] = [_Pair(entry.merge, None, None, None)]
            entry, k = None, j  # met in a later pass, if any run is left
            if under.merge:
                cur = max(cur, under.merge)
                k -= 1
                while type(stack[k]) is not _Rz:
                    k -= 1
                entry = stack[k]
        if entry is not None:
            stack.append(_Rz(g.theta, i, g.qubits[0], g, cur))
            return
    stack.append(_Rz(g.theta, i, g.qubits[0], g, 0))


def peephole(c: Circuit) -> Circuit:
    """Local cleanup: cancel wire-adjacent self-inverse pairs (H.H, CX.CX
    on the same control/target, S.SDG), merge wire-adjacent RZ on the
    same qubit, drop RZ angles below 1e-12.  The unitary is preserved; no
    commutation reasoning is attempted.

    The result, down to which of equal gates survive and the order in
    which RZ angles are summed, is that of whole passes repeated until
    one changes nothing.  A pass meets each gate with the last gate kept
    on its wires, so after a removal the next gate there waits for the
    next pass.  One walk finds the same: each wire keeps a stack of kept
    gates, ``_Pair`` entries tagged with the pass that removes them, and
    ``_Rz`` runs, and a new gate meets them from the top in pass order.
    If it meets a pair's right gate before the pair's pass and is that
    gate's inverse, it takes it: the pair's left gate is freed and put
    back as when it came, and meets what it met then.  Otherwise it
    meets the first kept gate, through ``_cancels`` once."""
    gates = [g for g in c.gates if g.kind != "rz" or abs(g.theta) >= RZ_EPS]
    out: list[Gate | None] = list(gates)  # the kept gates by index; RZ is set at the end
    stacks: defaultdict = defaultdict(list)  # wire -> its stack

    for i, g in enumerate(gates):
        if g.kind == "rz":
            out[i] = None
            _join(stacks[g.qubits[0]], i, g)
            continue
        todo = []  # pairs to close once a freed gate is put back, innermost last
        while True:
            g = gates[i]
            wires = [stacks[q] for q in g.qubits]
            walks = [_walk(stack) for stack in wires]
            found = walks[0][0] and _take(gates, g, walks)
            if not found:
                break
            pair, ks, t = found
            above = []
            for stack, k, low in zip(wires, ks, pair.low):
                above.append(stack[k + 1:])
                del stack[k:]
                stack.extend(low)
            todo.append((wires, pair.inner, _Pair(t, pair.right, i, above)))
            out[i] = None
            i = pair.left
        ks = [k for _, k, _ in walks]
        stops = [stack[k] if k >= 0 else None for stack, k in zip(wires, ks)]
        j = stops[0]  # a kept gate, met on each wire, may cancel g
        if type(j) is int and stops[-1] == j and _cancels(gates[j], g):
            inner = []
            for stack, k in zip(wires, ks):
                inner.append(stack[k + 1:])
                del stack[k:]
            todo.append((wires, (), _Pair(max(t for _, _, t in walks), j, i, inner)))
            out[i] = out[j] = None
        else:
            out[i] = g
            for stack in wires:
                stack.append(i)
        for wires, inner, pair in reversed(todo):
            for stack, entries in zip(wires, inner):
                stack.extend(entries)
            _close(wires, pair)

    # each RZ run left on a wire, merged from the top down in pass order
    for stack in stacks.values():
        merge = 0
        for entry in reversed(stack):
            if type(entry) is not _Rz:
                continue
            if merge:
                theta, gate = entry.theta + theta, None
                if abs(theta) < RZ_EPS:
                    merge = 0
                    continue
            else:
                theta, q, gate = entry.theta, entry.q, entry.gate
            merge = entry.merge
            if not merge:
                out[entry.at] = gate or rz(q, theta)
    return Circuit(c.n, tuple(g for g in out if g is not None))


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


def _parse_lines(lines, n: int | None, gates: list[Gate]) -> int | None:
    """Parse QASM ``lines`` from register size ``n`` (None before the
    qreg declaration), appending each gate to ``gates``; returns the
    register size after them."""
    for raw in lines:
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
    return n


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM subset produced by :func:`emit_qasm`.  Text
    outside that subset, including a gate that is invalid or leaves the
    declared register, raises SchemaError naming the statement."""
    gates: list[Gate] = []
    n = _parse_lines(text.splitlines(), None, gates)
    if n is None:
        raise SchemaError("qasm text lacks a qreg declaration")
    return Circuit(n, tuple(gates))


def _parse_after(head: str, c: Circuit, text: str) -> Circuit:
    """``parse_qasm(text)``, where ``c`` is ``parse_qasm(head)``.  When
    ``head`` ends in a newline and ``text`` starts with it, only the rest
    of ``text`` is parsed, from ``c``'s register and gates: the parser
    works line by line, so its state after ``head`` is (c.n, c.gates), and
    its errors name statements, not line numbers."""
    if not (head.endswith("\n") and text.startswith(head)):
        return parse_qasm(text)
    gates: list[Gate] = []
    _parse_lines(text[len(head):].splitlines(), c.n, gates)
    return Circuit(c.n, c.gates + tuple(gates))

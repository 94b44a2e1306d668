"""Independent checker for the artifacts of one pipeline run.

Nothing here imports cliffex, so a defect in the program cannot hide in
a shared helper.  Two checks cover the rotations:

* ``symplectic``: at any size, replay ``opt.qasm`` and then
  ``clifford.qasm`` through a bit-mask tableau of the map
  P -> D^dagger P D for the Clifford prefix D.  Each ``rz(theta)`` on
  qubit q then implements exp(-i theta/2 * M(Z_q)), and the whole circuit
  matches the input when these rotations equal the input terms and angles
  block by block (reordering allowed only inside maximal commuting runs)
  and the map after the trailing Clifford is the identity.
* ``dense``: for n <= DENSE_CAP, compare statevectors with numpy: the
  round trip clifford * opt on random states, the output distribution
  after the Hadamard mask and CNOT network, and every observable.

The report's metrics, the executed circuits, ``postprocess`` and
``map-expectations`` outputs are recomputed and compared as well.
Each check returns a list of problems; an empty list means accepted.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

DENSE_CAP = 10
TOL = 1e-9

_QASM = re.compile(
    r"^(?:(h|s|sdg) q\[(\d+)\]|cx q\[(\d+)\],\s*q\[(\d+)\]|rz\(([-+0-9.eE]+)\) q\[(\d+)\])$"
)


def parse_qasm(text: str) -> tuple[int, list[tuple]]:
    """Gates as ("h"|"s"|"sdg", q), ("cx", c, t) or ("rz", q, theta)."""
    n = None
    gates: list[tuple] = []
    for line in text.splitlines():
        stmt = line.strip().rstrip(";").strip()
        if not stmt or stmt in ("OPENQASM 2.0", 'include "qelib1.inc"'):
            continue
        if stmt.startswith("qreg q["):
            n = int(stmt[7:-1])
            continue
        m = _QASM.match(stmt)
        if m is None:
            raise ValueError(f"unexpected qasm statement {stmt!r}")
        if m.group(1):
            gates.append((m.group(1), int(m.group(2))))
        elif m.group(3):
            gates.append(("cx", int(m.group(3)), int(m.group(4))))
        else:
            gates.append(("rz", int(m.group(6)), float(m.group(5))))
    if n is None:
        raise ValueError("qasm text has no qreg")
    return n, gates


def parse_word(word: str) -> tuple[int, int, int]:
    """Signed Pauli word (character q is qubit q) as (x, z, sign)."""
    sign = -1 if word.startswith("-") else 1
    x = z = 0
    for q, ch in enumerate(word.lstrip("+-")):
        x |= (ch in "XY") << q
        z |= (ch in "ZY") << q
    return x, z, sign


def cnot_depth(n: int, pairs) -> int:
    """Greedy ASAP layering of a CNOT sequence."""
    level = [0] * n
    for c, t in pairs:
        level[c] = level[t] = 1 + max(level[c], level[t])
    return max(level, default=0)


def native_cnots(n: int, terms) -> list[tuple[int, int]]:
    """CNOTs of the mirrored chain synthesis each rotation costs without
    extraction: a chain over the support in index order and its inverse."""
    out: list[tuple[int, int]] = []
    for x, z, _, _ in terms:
        supp = [q for q in range(n) if (x | z) >> q & 1]
        chain = list(zip(supp, supp[1:]))
        out += chain + chain[::-1]
    return out


def native_cost(payload: dict) -> tuple[int, int]:
    """(CNOT count, entangling depth) of the input's native synthesis."""
    n = payload["num_qubits"]
    terms = [parse_word(t["pauli"]) for t in payload["terms"]]
    cx = native_cnots(n, [(x, z, sign, 0.0) for x, z, sign in terms if x | z])
    return len(cx), cnot_depth(n, cx)


def _phase(ax: int, az: int, bx: int, bz: int) -> int:
    """Exponent k of i in (letters a)(letters b) = i**k (letters a^b)."""
    ax1, ay, az1 = ax & ~az, ax & az, az & ~ax
    bx1, by, bz1 = bx & ~bz, bx & bz, bz & ~bx
    up = (ax1 & by) | (ay & bz1) | (az1 & bx1)  # XY=iZ, YZ=iX, ZX=iY
    down = (ax1 & bz1) | (ay & bx1) | (az1 & by)
    return up.bit_count() - down.bit_count()


def _times(a, b, k: int = 0):
    """i**k * a * b for signed Paulis whose product is Hermitian."""
    k += _phase(a[0], a[1], b[0], b[1]) + (a[2] < 0) * 2 + (b[2] < 0) * 2
    if k % 2:
        raise ValueError("non-Hermitian product in tableau replay")
    return a[0] ^ b[0], a[1] ^ b[1], 1 if k % 4 == 0 else -1


class Replay:
    """Rows M(X_q), M(Z_q) of the map M(P) = D^dagger P D, where D is the
    Clifford formed by the gates applied so far (time order)."""

    def __init__(self, n: int):
        self.xr = [(1 << q, 0, 1) for q in range(n)]
        self.zr = [(0, 1 << q, 1) for q in range(n)]
        self.rotations: list[tuple[int, int, float]] = []

    def apply(self, gate: tuple) -> None:
        kind, q = gate[0], gate[1]
        if kind == "h":  # H X H = Z
            self.xr[q], self.zr[q] = self.zr[q], self.xr[q]
        elif kind == "s":  # S^dagger X S = -Y = -i X Z
            self.xr[q] = _times(self.xr[q], self.zr[q], 3)
        elif kind == "sdg":  # S X S^dagger = Y = i X Z
            self.xr[q] = _times(self.xr[q], self.zr[q], 1)
        elif kind == "cx":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
            t = gate[2]
            self.xr[q] = _times(self.xr[q], self.xr[t])
            self.zr[t] = _times(self.zr[q], self.zr[t])
        else:  # rz(theta) = exp(-i theta/2 Z) becomes exp(i t M(Z_q))
            x, z, sign = self.zr[q]
            self.rotations.append((x, z, -0.5 * gate[2] * sign))

    def rows(self):
        return self.xr + self.zr


def replay(n: int, gates) -> Replay:
    rep = Replay(n)
    for g in gates:
        rep.apply(g)
    return rep


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def symplectic(n, terms, opt, cliff) -> list[str]:
    """Equal rotation products and an identity map at the end.

    The input rotations are pulled, in input order, from the front of the
    emitted ones: each must find its string past emitted rotations that
    all commute with it, which admits any reordering of commuting
    rotations.  A matched angle is subtracted rather than required to be
    equal, since the peephole pass merges rz gates of equal strings."""
    rep = replay(n, opt + cliff)
    problems = []
    if rep.rows() != Replay(n).rows():
        problems.append("opt + clifford leaves a non-identity Clifford")
    left = [[(x, z), t] for x, z, t in rep.rotations]
    for k, (x, z, sign, coeff) in enumerate(terms):
        key = (x, z)
        j = 0
        while j < len(left) and left[j][0] != key and _commute(left[j][0], key):
            j += 1
        if j == len(left) or left[j][0] != key:
            problems.append(f"input term {k} is not the next rotation up to commutation")
            return problems
        left[j][1] -= coeff * sign
        if abs(left[j][1]) <= TOL * max(1.0, abs(coeff)):
            del left[j]
    if left:
        problems.append(f"{len(left)} rotations emitted beyond the input terms")
    return problems


# -- dense statevectors (qubit 0 is the most significant index bit) --------


def _dense_mask(n: int, mask: int) -> int:
    return sum(1 << (n - 1 - q) for q in range(n) if mask >> q & 1)


def _parity(masked: np.ndarray) -> np.ndarray:
    """(-1) ** popcount, elementwise."""
    return np.where(np.bitwise_count(masked) & 1, -1.0, 1.0)


def _run(n: int, gates, psi: np.ndarray) -> np.ndarray:
    psi = psi.copy()
    idx = np.arange(2**n)
    for g in gates:
        kind, q = g[0], g[1]
        if kind == "cx":
            c, t = 1 << (n - 1 - q), 1 << (n - 1 - g[2])
            psi = psi[np.where(idx & c, idx ^ t, idx)]
            continue
        a = psi.reshape(2**q, 2, 2 ** (n - q - 1), -1)
        if kind == "h":
            lo, hi = a[:, 0].copy(), a[:, 1].copy()
            a[:, 0], a[:, 1] = (lo + hi) / math.sqrt(2), (lo - hi) / math.sqrt(2)
        elif kind in ("s", "sdg"):
            a[:, 1] *= 1j if kind == "s" else -1j
        else:
            a[:, 0] *= np.exp(-0.5j * g[2])
            a[:, 1] *= np.exp(0.5j * g[2])
    return psi


def _pauli_apply(n: int, x: int, z: int, sign: int, psi: np.ndarray) -> np.ndarray:
    """P psi for P = sign * i**(#Y) * X^x Z^z."""
    idx = np.arange(2**n)
    xd, zd = _dense_mask(n, x), _dense_mask(n, z)
    src = idx ^ xd
    phase = sign * 1j ** (x & z).bit_count() * _parity(src & zd)
    return phase[:, None] * psi[src]


def _rotations(n: int, terms, psi: np.ndarray) -> np.ndarray:
    for x, z, sign, coeff in terms:  # exp(i c P) = cos c + i sin c P
        psi = math.cos(coeff) * psi + 1j * math.sin(coeff) * _pauli_apply(n, x, z, sign, psi)
    return psi


def _zero(n: int) -> np.ndarray:
    psi = np.zeros((2**n, 1), dtype=complex)
    psi[0, 0] = 1.0
    return psi


def dense(n, terms, opt, cliff, report, executed) -> list[str]:
    problems = []
    rng = np.random.default_rng(20240823)
    psi = rng.normal(size=(2**n, 4)) + 1j * rng.normal(size=(2**n, 4))
    want = _rotations(n, terms, psi)
    have = _run(n, opt + cliff, psi)
    k = int(np.argmax(np.abs(want)))
    phase = have.flat[k] / want.flat[k]
    if not np.allclose(have, phase / abs(phase) * want, rtol=0, atol=1e-8 * np.abs(want).max()):
        problems.append("dense: clifford * opt differs from the input rotations")
    target = _rotations(n, terms, _zero(n))
    if report["mode"] == "probabilities":
        p_exec = np.abs(_run(n, executed[0], _zero(n))[:, 0]) ** 2
        mapped = np.arange(2**n)
        for c, t in report["absorption"]["network"]:
            mapped = mapped ^ ((mapped >> (n - 1 - c)) & 1) << (n - 1 - t)
        if not np.allclose(np.abs(target[mapped, 0]) ** 2, p_exec, rtol=0, atol=TOL):
            problems.append("dense: output distribution after the CNOT network differs")
    else:
        for k, rec in enumerate(report["observables"]):
            ox, oz, osign = parse_word(rec["original"])
            lhs = np.vdot(target[:, 0], _pauli_apply(n, ox, oz, osign, target)[:, 0]).real
            tx, tz, tsign = parse_word(rec["transformed"])
            amp = _run(n, executed[k], _zero(n))[:, 0]
            parity = _parity(np.arange(2**n) & _dense_mask(n, tx | tz))
            rhs = tsign * float(np.sum(np.abs(amp) ** 2 * parity))
            if abs(lhs - rhs) > TOL:
                problems.append(f"dense: observable {k} expectation {rhs} vs {lhs}")
    return problems


# -- follow-up commands ------------------------------------------------------


def expected_postprocess(counts: dict, network) -> dict:
    """Push every bitstring through the network (bit[t] ^= bit[c])."""
    keys = list(counts["counts"])
    n = counts["n"]
    bits = np.frombuffer("".join(keys).encode(), dtype=np.uint8).reshape(len(keys), n) - 48
    for c, t in network:
        bits[:, t] ^= bits[:, c]
    flat = (bits + 48).tobytes().decode()
    out: dict[str, int] = {}
    for i, key in enumerate(keys):
        new = flat[i * n : (i + 1) * n]
        out[new] = out.get(new, 0) + counts["counts"][key]
    return out


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_optimize(d: Path) -> list[str]:
    """Check opt.qasm, clifford.qasm, the executed circuits and the report."""
    payload, report = _read(d / "input.json"), _read(d / "report.json")
    n = payload["num_qubits"]
    terms = [(*parse_word(t["pauli"]), t["coeff"]) for t in payload["terms"]]
    terms = [t for t in terms if t[0] | t[1]]
    n_opt, opt = parse_qasm((d / "opt.qasm").read_text(encoding="utf-8"))
    n_cl, cliff = parse_qasm((d / "clifford.qasm").read_text(encoding="utf-8"))
    executed = [parse_qasm(Path(p).read_text(encoding="utf-8"))[1] for p in report["artifacts"]["executed"]]
    if n_opt != n or n_cl != n:
        return [f"qasm registers {n_opt}/{n_cl} for a {n}-qubit input"]

    problems = []
    native = native_cnots(n, terms)
    opt_cx = [g[1:] for g in opt if g[0] == "cx"]
    m = report["metrics"]
    recomputed = {
        "cnot_before": len(native),
        "cnot_after": len(opt_cx),
        "entangling_depth_before": cnot_depth(n, native),
        "entangling_depth_after": cnot_depth(n, opt_cx),
        "rotation_count": len(terms),
    }
    for key, value in recomputed.items():
        if m.get(key) != value:
            problems.append(f"report {key}={m.get(key)}, recomputed {value}")

    if report["mode"] == "probabilities":
        mask = sorted(report["absorption"]["h_mask"])
        network = [tuple(e) for e in report["absorption"]["network"]]
        if executed != [opt + [("h", q) for q in mask]]:
            problems.append("executed circuit is not opt + the Hadamard mask")
        absorbed = [("h", q) for q in mask] + [("cx", c, t) for c, t in network]
        if replay(n, cliff).rows() != replay(n, absorbed).rows():
            problems.append("Hadamard mask + CNOT network differ from the extracted Clifford")
    else:
        records = report["observables"]
        if [r["original"] for r in records] != payload["observables"]:
            problems.append("report observables differ from the input")
        layers = [[(kind, q) for kind, q in r["basis_layer"]] for r in records]
        if executed != [opt + layer for layer in layers]:
            problems.append("executed circuits are not opt + each basis layer")
        if n > DENSE_CAP:
            problems.append("observable mode above the dense cap is not checked")

    problems += symplectic(n, terms, opt, cliff)
    if n <= DENSE_CAP:
        problems += dense(n, terms, opt, cliff, report, executed)
    return problems


def check_postprocess(d: Path) -> list[str]:
    """counts.post.json must be counts.json pushed through the report's network."""
    network = [tuple(e) for e in _read(d / "report.json")["absorption"]["network"]]
    post, counts = _read(d / "counts.post.json"), _read(d / "counts.json")
    if post["counts"] != expected_postprocess(counts, network) or post["shots"] != counts["shots"]:
        return ["output differs from the network applied to the counts"]
    return []


def check_map_expectations(d: Path) -> list[str]:
    """values.post.json must be values.json with each transformed observable's sign."""
    records = _read(d / "report.json")["observables"]
    values = _read(d / "values.json")["values"]
    signs = [parse_word(r["transformed"])[2] for r in records]
    if _read(d / "values.post.json")["values"] != [s * v for s, v in zip(signs, values)]:
        return ["output differs from the signed values"]
    return []


# Commands whose artifacts can be checked; ``verify`` writes none.
CHECKS = {
    "optimize": check_optimize,
    "postprocess": check_postprocess,
    "map-expectations": check_map_expectations,
}


def check_instance(d: Path, commands) -> dict[str, list[str]]:
    """Problems with what each of ``commands`` wrote into ``d``, keyed by
    command.  A missing or malformed artifact is a problem too."""
    out = {}
    for command in commands:
        if command not in CHECKS:
            continue
        try:
            problems = CHECKS[command](d)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
        if problems:
            out[command] = problems
    return out

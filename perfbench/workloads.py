"""Seeded inputs for the benchmark workloads.

Everything here is generated by the benchmark itself, without importing
cliffex: the program only ever sees the JSON files written by
:func:`write_inputs`.

The structure of every instance (graphs, Pauli words, observables) is
drawn once, from STRUCTURE_SEED; the workload seed draws everything else:
rotation angles and coefficients, measured counts and expectation values.
Seeded structure would make the output metrics move between seeds by more
than any useful bound (MaxCut depth ratio by 13%, the random lists' CNOT
ratio by 9% between seeds 1-10), and a second seed must reproduce them
exactly.  Seed 0 also keeps the default angles, so it reproduces the
instances measured in ROADMAP.md (regular graphs as ``cliffex gen maxcut
--seed 0`` samples them).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

STRUCTURE_SEED = 0

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("labs-large", "maxcut-layers", "dense-verify")


@dataclass(frozen=True)
class Instance:
    """One input of a workload and the follow-up files its pipeline needs."""

    name: str
    payload: dict  # input.json
    counts: dict | None = None  # counts.json for ``postprocess`` (probabilities mode)
    values: dict | None = None  # values.json for ``map-expectations`` (observable mode)
    # False only where a refusal (exit 2) is an accepted outcome: every
    # other instance must reach checked output with every command.
    must_succeed: bool = True

    @property
    def n(self) -> int:
        return self.payload["num_qubits"]

    @property
    def mode(self) -> str:
        return self.payload["mode"]


def _word(n: int, x: int, z: int) -> str:
    return "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n))


def _angles(seed: int, name: str, layers: int) -> tuple[list[float], list[float]]:
    """Seed 0 keeps the generator defaults; other seeds draw fresh angles
    (which move rz values only, never the circuit structure)."""
    if seed == 0:
        return [0.2 * (k + 1) for k in range(layers)], [0.4] * layers
    rng = random.Random(f"{seed}:angles:{name}")
    return (
        [rng.uniform(0.1, 1.2) for _ in range(layers)],
        [rng.uniform(0.1, 1.2) for _ in range(layers)],
    )


def labs_terms(n: int, gammas: list[float], betas: list[float]) -> list[tuple[int, int, float]]:
    """LABS layers as (x, z, coeff): the squared-autocorrelation expansion
    merged by string, in first-occurrence order, then one X per qubit."""
    mult: dict[int, int] = {}
    for k in range(1, n):
        pairs = [(1 << i) | (1 << (i + k)) for i in range(n - k)]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                mask = pairs[a] ^ pairs[b]
                mult[mask] = mult.get(mask, 0) + 2
    terms = []
    for gamma, beta in zip(gammas, betas):
        terms += [(0, mask, gamma * m) for mask, m in mult.items()]
        terms += [(1 << q, 0, beta) for q in range(n)]
    return terms


def regular_graph(n: int, degree: int, seed: int) -> list[tuple[int, int]]:
    """Pairing-model sampler with per-pair rejection of loops and
    multi-edges; the same draw sequence as ``cliffex gen maxcut``."""
    rng = random.Random(seed)
    for _ in range(2000):
        rem = [degree] * n
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < n * degree // 2:
            cands = [
                (u, v)
                for u in range(n)
                if rem[u]
                for v in range(u + 1, n)
                if rem[v] and (u, v) not in chosen
            ]
            if not cands:
                break
            u, v = rng.choices(cands, weights=[rem[a] * rem[b] for a, b in cands], k=1)[0]
            chosen.add((u, v))
            rem[u] -= 1
            rem[v] -= 1
        else:
            return sorted(chosen)
    raise ValueError(f"no {degree}-regular graph on {n} nodes")


def maxcut_terms(n, edges, gammas, betas) -> list[tuple[int, int, float]]:
    terms = []
    for gamma, beta in zip(gammas, betas):
        terms += [(0, (1 << u) | (1 << v), gamma) for u, v in edges]
        terms += [(1 << q, 0, beta) for q in range(n)]
    return terms


def _random_terms(words: random.Random, coeffs: random.Random, n: int, m: int, letters: str):
    """m non-identity (x, z, coeff) terms: letters from ``words``, signed
    coefficients in [0.1, 1] from ``coeffs``."""
    bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1), "I": (0, 0)}
    terms = []
    while len(terms) < m:
        x = z = 0
        for q in range(n):
            bx, bz = bits[words.choice(letters)]
            x |= bx << q
            z |= bz << q
        if x | z:
            terms.append((x, z, coeffs.choice((-1, 1)) * coeffs.uniform(0.1, 1.0)))
    return terms


def _payload(n, terms, mode, observables=None) -> dict:
    out = {
        "num_qubits": n,
        "mode": mode,
        "terms": [{"pauli": _word(n, x, z), "coeff": c} for x, z, c in terms],
    }
    if observables:
        out["observables"] = observables
    return out


def _counts(seed: int, name: str, n: int, shots: int) -> dict:
    rng = random.Random(f"{seed}:counts:{name}")
    counts: dict[str, int] = {}
    for _ in range(shots):
        key = format(rng.getrandbits(n), f"0{n}b")
        counts[key] = counts.get(key, 0) + 1
    return {"n": n, "shots": shots, "counts": counts}


def _probabilities(seed, name, n, terms, shots) -> Instance:
    return Instance(name, _payload(n, terms, "probabilities"), counts=_counts(seed, name, n, shots))


def _labs(seed: int, n: int, shots: int) -> Instance:
    name = f"labs-n{n}"
    return _probabilities(seed, name, n, labs_terms(n, *_angles(seed, name, 1)), shots)


def _maxcut(seed: int, n: int, degree: int, layers: int, shots: int) -> Instance:
    name = f"maxcut-n{n}r{degree}-l{layers}"
    edges = regular_graph(n, degree, STRUCTURE_SEED)
    return _probabilities(seed, name, n, maxcut_terms(n, edges, *_angles(seed, name, layers)), shots)


def _observable_list(seed: int, n: int, m: int, k: int) -> Instance:
    name = f"xyz-n{n}"
    words, coeffs = random.Random(f"{STRUCTURE_SEED}:{name}"), random.Random(f"{seed}:{name}")
    terms = _random_terms(words, coeffs, n, m, "IXYZ")
    observables = [_word(n, x, z) for x, z, _ in _random_terms(words, coeffs, n, k, "IXYZ")]
    values = {"values": [coeffs.uniform(-1.0, 1.0) for _ in range(k)]}
    return Instance(name, _payload(n, terms, "observables", observables), values=values)


def _xz_batch(seed: int, size: int) -> list[Instance]:
    """Small X/Z-only lists in probabilities mode.  Most extracted
    Cliffords are not H+CNOT reducible, so ``optimize`` must refuse them
    with exit 2; the batch is deliberately not filtered.  They get no
    counts: the few that pass go straight to ``verify``."""
    words, coeffs = random.Random(f"{STRUCTURE_SEED}:xz"), random.Random(f"{seed}:xz")
    out = []
    for k in range(size):
        n, m = 2 + k % 4, 2 + k % 7
        payload = _payload(n, _random_terms(words, coeffs, n, m, "IXZ"), "probabilities")
        out.append(Instance(f"xz-{k:02d}", payload, must_succeed=False))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for ``seed``; the same seed gives the same
    inputs on every platform (string seeds hash through SHA-512)."""
    if workload == "labs-large":
        # n8 is the instance the dense verifier can still check.
        return [_labs(seed, 8, 2000), _labs(seed, 20, 2000), _labs(seed, 24, 2000)]
    if workload == "maxcut-layers":
        return [
            _maxcut(seed, 8, 3, 3, 1000),
            _maxcut(seed, 12, 3, 3, 1000),
            _maxcut(seed, 20, 4, 3, 1000),
            _maxcut(seed, 30, 6, 3, 1000),
            _maxcut(seed, 50, 8, 3, 50000),
        ]
    if workload == "dense-verify":
        return [
            _observable_list(seed, 7, 40, 3),
            _observable_list(seed, 8, 40, 3),
            _maxcut(seed, 10, 3, 3, 2000),
        ] + _xz_batch(seed, 40)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(instances: list[Instance], root: Path) -> None:
    """One directory per instance: input.json plus counts.json or values.json."""
    for inst in instances:
        d = root / inst.name
        d.mkdir(parents=True)
        (d / "input.json").write_text(json.dumps(inst.payload), encoding="utf-8")
        if inst.counts is not None:
            (d / "counts.json").write_text(json.dumps(inst.counts), encoding="utf-8")
        if inst.values is not None:
            (d / "values.json").write_text(json.dumps(inst.values), encoding="utf-8")

"""Benchmark term-list generators and the input-file loader.

Layered alternating-operator instances are produced for MaxCut on
regular or random graphs (one ZZ term per edge, then one X term per
node, per layer) and for the low-autocorrelation binary sequence
energy, whose squared-correlation expansion yields two- and four-body
Z strings.  Externally produced term lists are imported from JSON only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .errors import InfeasibleDegree, InvalidSize, LengthMismatch, SchemaError
from .pauli import PauliString, PauliTerm, parse_pauli


def default_gammas(layers: int) -> tuple[float, ...]:
    return tuple(0.2 * (k + 1) for k in range(layers))


def default_betas(layers: int) -> tuple[float, ...]:
    return (0.4,) * layers


@dataclass(frozen=True)
class ProblemSpec:
    """A MaxCut instance: a ``degree``-regular graph or a random graph with
    ``edges`` edges on ``n`` nodes; exactly one of the two is given."""

    n: int
    degree: int | None = None
    edges: int | None = None
    seed: int = 0
    layers: int = 1
    gammas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.degree is None) == (self.edges is None):
            raise InvalidSize("pass exactly one of degree or edges")
        if self.n < 1:
            raise InvalidSize(f"node count must be positive, got {self.n}")
        if self.layers < 1:
            raise InvalidSize("layer count must be positive")
        for name, lst in (("gammas", self.gammas), ("betas", self.betas)):
            if lst is not None and len(lst) != self.layers:
                raise InvalidSize(f"{name} must have one entry per layer")
        if self.degree is not None:
            if self.degree < 1 or self.degree >= self.n:
                raise InfeasibleDegree(f"degree {self.degree} infeasible on {self.n} nodes")
            if (self.n * self.degree) % 2:
                raise InfeasibleDegree(
                    f"no {self.degree}-regular graph on {self.n} nodes (odd stub count)"
                )
        else:
            limit = self.n * (self.n - 1) // 2
            if not 0 <= self.edges <= limit:
                raise InvalidSize(f"edge count must lie in [0, {limit}]")


def _regular_graph(n: int, degree: int, seed: int) -> list[tuple[int, int]]:
    """Seeded pairing-model sampler with per-pair rejection of loops and
    multi-edges; dead ends restart the attempt."""
    rng = random.Random(seed)
    for _ in range(2000):
        rem = [degree] * n
        chosen: set[tuple[int, int]] = set()
        need = n * degree // 2
        ok = True
        while len(chosen) < need:
            cands = [
                (u, v)
                for u in range(n)
                if rem[u]
                for v in range(u + 1, n)
                if rem[v] and (u, v) not in chosen
            ]
            if not cands:
                ok = False
                break
            weights = [rem[u] * rem[v] for u, v in cands]
            u, v = rng.choices(cands, weights=weights, k=1)[0]
            chosen.add((u, v))
            rem[u] -= 1
            rem[v] -= 1
        if ok:
            return sorted(chosen)
    raise InfeasibleDegree(f"failed to sample a {degree}-regular graph on {n} nodes")


def _random_graph(n: int, edges: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, edges))


def maxcut_edges(spec: ProblemSpec) -> list[tuple[int, int]]:
    if spec.degree is not None:
        return _regular_graph(spec.n, spec.degree, spec.seed)
    return _random_graph(spec.n, spec.edges, spec.seed)


def gen_maxcut(spec: ProblemSpec) -> list[PauliTerm]:
    """Alternating-layer MaxCut terms: per layer, one ZZ term per edge
    with the layer's gamma, then one single-X term per node with the
    layer's beta."""
    edges = maxcut_edges(spec)
    gammas = spec.gammas or default_gammas(spec.layers)
    betas = spec.betas or default_betas(spec.layers)
    terms: list[PauliTerm] = []
    for layer in range(spec.layers):
        for u, v in edges:
            terms.append(
                PauliTerm(PauliString(spec.n, 0, (1 << u) | (1 << v)), gammas[layer])
            )
        for q in range(spec.n):
            terms.append(PauliTerm(PauliString(spec.n, 1 << q, 0), betas[layer]))
    return terms


def gen_labs(
    n: int,
    layers: int = 1,
    gammas: tuple[float, ...] | None = None,
    betas: tuple[float, ...] | None = None,
) -> list[PauliTerm]:
    """Low-autocorrelation binary sequence layers.

    The cost is the sum over shifts k of the squared correlation
    (sum_i Z_i Z_{i+k})**2; expanding the square merges equal strings
    with integer multiplicities and drops identity terms, leaving
    two-body Z_i Z_{i+2k} and four-body Z_i Z_{i+k} Z_j Z_{j+k} strings.
    Each merged term's coefficient is gamma times its multiplicity.
    """
    if n < 3:
        raise InvalidSize("need at least 3 qubits")
    if layers < 1:
        raise InvalidSize("layer count must be positive")
    gammas = gammas or default_gammas(layers)
    betas = betas or default_betas(layers)
    if len(gammas) != layers or len(betas) != layers:
        raise InvalidSize("need one gamma and one beta per layer")
    mult: dict[int, int] = {}
    for k in range(1, n):
        pairs = [((1 << i) | (1 << (i + k))) for i in range(n - k)]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                mask = pairs[a] ^ pairs[b]
                mult[mask] = mult.get(mask, 0) + 2
    terms: list[PauliTerm] = []
    for layer in range(layers):
        for mask, m in mult.items():
            terms.append(PauliTerm(PauliString(n, 0, mask), gammas[layer] * m))
        for q in range(n):
            terms.append(PauliTerm(PauliString(n, 1 << q, 0), betas[layer]))
    return terms


@dataclass(frozen=True)
class LoadedProblem:
    n: int
    terms: list[PauliTerm]
    observables: list[PauliString]
    mode: str  # "observables" | "probabilities"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; a missing or unreadable
    file, a directory or bytes that are not UTF-8 raise SchemaError
    naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path, what: str):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


def load_terms(path) -> LoadedProblem:
    """Load and validate the standard input JSON.

    Schema: {"num_qubits": int, "terms": [{"pauli": "word", "coeff": real}],
    "observables": ["word", ...]?, "mode": "observables"|"probabilities"?}.
    The default mode is "observables" when observables are present,
    otherwise "probabilities".
    """
    data = _read_json(path, "input")
    _require(isinstance(data, dict), "top level must be a JSON object")
    _require("num_qubits" in data, 'missing "num_qubits"')
    n = data["num_qubits"]
    _require(type(n) is int and n >= 1, '"num_qubits" must be a positive integer')
    _require(isinstance(data.get("terms"), list) and data["terms"], '"terms" must be a non-empty list')
    terms: list[PauliTerm] = []
    for k, entry in enumerate(data["terms"]):
        _require(isinstance(entry, dict), f"terms[{k}] must be an object")
        _require("pauli" in entry, f'terms[{k}] missing "pauli"')
        _require("coeff" in entry, f'terms[{k}] missing "coeff"')
        _require(isinstance(entry["pauli"], str), f'terms[{k}]: "pauli" must be a string')
        p = parse_pauli(entry["pauli"])
        if p.n != n:
            raise LengthMismatch(
                f"terms[{k}]: Pauli has {p.n} letters, expected {n}"
            )
        coeff = entry["coeff"]
        _require(
            type(coeff) in (int, float) and math.isfinite(coeff),
            f"terms[{k}]: coeff must be a finite number",
        )
        terms.append(PauliTerm(p, float(coeff)))
    observables: list[PauliString] = []
    if "observables" in data:
        _require(isinstance(data["observables"], list), '"observables" must be a list')
        for k, word in enumerate(data["observables"]):
            _require(isinstance(word, str), f"observables[{k}] must be a string")
            o = parse_pauli(word)
            if o.n != n:
                raise LengthMismatch(
                    f"observables[{k}]: Pauli has {o.n} letters, expected {n}"
                )
            observables.append(o)
    mode = data.get("mode")
    if mode is None:
        mode = "observables" if observables else "probabilities"
    _require(mode in ("observables", "probabilities"), f"unknown mode {mode!r}")
    return LoadedProblem(n, terms, observables, mode)


def to_input_dict(n: int, terms: list[PauliTerm]) -> dict:
    """Standard input JSON payload for a generated term list, in
    probabilities mode."""
    return {
        "num_qubits": n,
        "terms": [{"pauli": t.pauli.label(), "coeff": t.coeff} for t in terms],
        "mode": "probabilities",
    }

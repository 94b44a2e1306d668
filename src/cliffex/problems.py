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
import sys
from dataclasses import dataclass

from .errors import InvalidSize, LengthMismatch, SchemaError
from .pauli import PauliString, PauliTerm, parse_pauli


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
    raise InvalidSize(f"failed to sample a {degree}-regular graph on {n} nodes")


def _random_graph(n: int, edges: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, edges))


def _layers(n: int, cost: dict[int, int], layers: int, gammas, betas) -> list[PauliTerm]:
    """``layers`` alternating layers on ``n`` qubits: in layer k, one Z
    string per mask of ``cost`` with coefficient gammas[k] times the
    mask's integer weight, then one X per qubit with betas[k].  Each
    angle list holds 1 angle (used in every layer) or ``layers``; the
    defaults are gamma 0.2 (k + 1) and beta 0.4."""
    if layers < 1:
        raise InvalidSize("layer count must be positive")
    gammas = gammas or [0.2 * (k + 1) for k in range(layers)]
    betas = betas or [0.4]
    for name, angles in (("gamma", gammas), ("beta", betas)):
        if len(angles) not in (1, layers):
            raise InvalidSize(f"need 1 or {layers} {name} angles, got {len(angles)}")
    terms: list[PauliTerm] = []
    for k in range(layers):
        gamma, beta = gammas[k % len(gammas)], betas[k % len(betas)]
        terms += [PauliTerm(PauliString(n, 0, mask), gamma * w) for mask, w in cost.items()]
        terms += [PauliTerm(PauliString(n, 1 << q, 0), beta) for q in range(n)]
    return terms


def gen_maxcut(n: int, degree: int | None = None, edges: int | None = None, seed: int = 0,
               layers: int = 1, gammas=None, betas=None) -> list[PauliTerm]:
    """MaxCut layers on a seeded ``degree``-regular graph or random graph
    with ``edges`` edges on ``n`` nodes (exactly one of the two): one ZZ
    term per edge, then one X term per node, per layer."""
    if (degree is None) == (edges is None):
        raise InvalidSize("pass exactly one of degree or edges")
    if n < 1:
        raise InvalidSize(f"node count must be positive, got {n}")
    if degree is not None:
        if degree < 1 or degree >= n:
            raise InvalidSize(f"degree {degree} infeasible on {n} nodes")
        if (n * degree) % 2:
            raise InvalidSize(f"no {degree}-regular graph on {n} nodes (odd stub count)")
        graph = _regular_graph(n, degree, seed)
    else:
        limit = n * (n - 1) // 2
        if not 0 <= edges <= limit:
            raise InvalidSize(f"edge count must lie in [0, {limit}]")
        graph = _random_graph(n, edges, seed)
    return _layers(n, {1 << u | 1 << v: 1 for u, v in graph}, layers, gammas, betas)


def gen_labs(n: int, layers: int = 1, gammas=None, betas=None) -> list[PauliTerm]:
    """Low-autocorrelation binary sequence layers.

    The cost is the sum over shifts k of the squared correlation
    (sum_i Z_i Z_{i+k})**2; expanding the square merges equal strings
    with integer multiplicities and drops identity terms, leaving
    two-body Z_i Z_{i+2k} and four-body Z_i Z_{i+k} Z_j Z_{j+k} strings.
    Each merged term's coefficient is gamma times its multiplicity.
    """
    if n < 3:
        raise InvalidSize("need at least 3 qubits")
    mult: dict[int, int] = {}
    for k in range(1, n):
        pairs = [((1 << i) | (1 << (i + k))) for i in range(n - k)]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                mask = pairs[a] ^ pairs[b]
                mult[mask] = mult.get(mask, 0) + 2
    return _layers(n, mult, layers, gammas, betas)


@dataclass(frozen=True)
class LoadedProblem:
    n: int
    terms: list[PauliTerm]
    observables: list[PauliString]
    mode: str  # "observables" | "probabilities"


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
    """The JSON document in the file at ``path``, read by ``_read_text``;
    text that is not JSON, or nests too deeply to decode, raises
    SchemaError naming ``what``."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


def _field(doc, key, where: str, what: str = "", ok=None):
    """``doc[key]``, after checking that ``doc`` is a JSON object, that it
    holds ``key`` and, when ``ok`` is given, that ``ok(doc[key])`` holds.
    A failed check raises SchemaError: "<where> is not an object",
    '<where> lacks "<key>"' or "<where> <what>"."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} is not an object")
    if key not in doc:
        raise SchemaError(f'{where} lacks "{key}"')
    if ok is not None and not ok(doc[key]):
        raise SchemaError(f"{where} {what}")
    return doc[key]


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max  # nan fails, so do huge ints


def _word(text: str, n: int, where: str) -> PauliString:
    """``text`` parsed as a Pauli word, which must have ``n`` letters."""
    p = parse_pauli(text)
    if p.n != n:
        raise LengthMismatch(f"{where}: Pauli has {p.n} letters, expected {n}")
    return p


def _check_angles(terms) -> None:
    """Refuse ``terms`` unless the sum of 2|coeff|, which bounds every RZ angle, is finite."""
    if not math.isfinite(2 * sum(abs(t.coeff) for t in terms)):
        raise SchemaError("terms: the sum of 2|coeff| is not finite")


def load_terms(path) -> LoadedProblem:
    """Load and validate the standard input JSON.

    Schema: {"num_qubits": int, "terms": [{"pauli": "word", "coeff": real}],
    "observables": ["word", ...]?, "mode": "observables"|"probabilities"?}.
    The default mode is "observables" when observables are present,
    otherwise "probabilities".  The terms must pass ``_check_angles``.
    """
    data = _read_json(path, "input")
    n = _field(data, "num_qubits", "input", '"num_qubits" must be a positive integer',
               lambda v: type(v) is int and v >= 1)
    entries = _field(data, "terms", "input", '"terms" must be a non-empty list',
                     lambda v: isinstance(v, list) and v)
    terms: list[PauliTerm] = []
    for k, entry in enumerate(entries):
        word = _field(entry, "pauli", f"terms[{k}]:", '"pauli" must be a string',
                      lambda v: isinstance(v, str))
        coeff = _field(entry, "coeff", f"terms[{k}]:", "coeff must be a finite number", _finite)
        terms.append(PauliTerm(_word(word, n, f"terms[{k}]"), float(coeff)))
    _check_angles(terms)
    observables: list[PauliString] = []
    if "observables" in data:
        words = _field(data, "observables", "input", '"observables" must be a list of strings',
                       lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v))
        observables = [_word(w, n, f"observables[{k}]") for k, w in enumerate(words)]
    mode = "observables" if observables else "probabilities"
    if data.get("mode") is not None:
        mode = _field(data, "mode", "input", f"has unknown mode {data['mode']!r}",
                      lambda v: v in ("observables", "probabilities"))
    return LoadedProblem(n, terms, observables, mode)


def to_input_dict(n: int, terms: list[PauliTerm]) -> dict:
    """Standard input JSON payload for a generated term list, in
    probabilities mode; ``_check_angles`` refuses what load_terms would."""
    _check_angles(terms)
    return {
        "num_qubits": n,
        "terms": [{"pauli": t.pauli.label(), "coeff": t.coeff} for t in terms],
        "mode": "probabilities",
    }

"""Command-line surface binding the pipeline end to end.

Subcommands: ``gen`` (benchmark term lists), ``optimize`` (extract the
Clifford half, absorb it, emit QASM + report), ``postprocess`` (rewrite
measured counts through the report's CNOT network), ``map-expectations``
(apply transformed-observable signs), ``verify`` (dense cross-check of
the emitted artifacts against the input).  Exit codes: 0 ok,
1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .absorb import (
    CountsHistogram,
    ProbabilityAbsorption,
    TransformedObservable,
    _network_map,
    absorb_observables,
    absorb_probabilities,
    map_expectations,
    postprocess_counts,
)
from .circuit import Circuit, Gate, cnot_count, emit_qasm, entangling_depth, h, parse_qasm, peephole
from .errors import CliffexError, NonHCnotGate, NotReducible, SchemaError, TooLarge
from .extract import basis_change_gates, extract, native_circuit
from .oracle import _check_cap, circuit_unitary, equivalent_up_to_phase, expectation, probabilities
from .pauli import parse_pauli
from .problems import (
    ProblemSpec,
    _read_json,
    _read_text,
    gen_labs,
    gen_maxcut,
    load_terms,
    to_input_dict,
)

OK, VERIFY_FAIL, USAGE = 0, 1, 2


def _fail(msg: str, code: int = USAGE) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _executed_paths(out_path: str, mode: str, count: int) -> list[str]:
    stem = out_path[:-5] if out_path.endswith(".qasm") else out_path
    if mode == "probabilities":
        return [f"{stem}.executed.qasm"]
    return [f"{stem}.obs{k}.qasm" for k in range(count)]


def cmd_gen(args) -> int:
    if args.kind == "maxcut":
        spec = ProblemSpec(
            args.nodes, degree=args.degree, edges=args.edges, seed=args.seed, layers=args.layers,
            gammas=_angles(args.gamma, args.layers), betas=_angles(args.beta, args.layers),
        )
        terms = gen_maxcut(spec)
        n = spec.n
    else:  # labs
        terms = gen_labs(
            args.n, args.layers, _angles(args.gamma, args.layers), _angles(args.beta, args.layers)
        )
        n = args.n
    _write_json(args.out, to_input_dict(n, terms))
    print(f"wrote {len(terms)} terms on {n} qubits to {args.out}")
    return OK


def _angles(values, layers) -> tuple[float, ...] | None:
    if not values:
        return None
    if len(values) == 1:
        return tuple(values) * layers
    if len(values) != layers:
        raise CliffexError(f"need 1 or {layers} angles, got {len(values)}")
    return tuple(values)


def cmd_optimize(args) -> int:
    prob = load_terms(args.input)
    mode = args.mode or prob.mode
    if mode == "observables" and not prob.observables:
        return _fail("observable mode needs an 'observables' list in the input")
    exec_paths = _executed_paths(args.out, mode, len(prob.observables))
    # check every output before writing any, so a bad path leaves no
    # half-written set of artifacts behind
    for path in (args.out, args.clifford, *exec_paths, args.report):
        if not Path(path).parent.is_dir() or Path(path).is_dir():
            return _fail(f"cannot write {path}: no such directory, or the path is one")
    result = extract(prob.terms)
    opt = peephole(result.opt_circuit)
    native = native_circuit(prob.terms, prob.n)

    report: dict = {
        "input_digest": _digest(args.input),
        "num_qubits": prob.n,
        "mode": mode,
        "metrics": {
            "cnot_before": cnot_count(native),
            "cnot_after": cnot_count(opt),
            "entangling_depth_before": entangling_depth(native),
            "entangling_depth_after": entangling_depth(opt),
            "rotation_count": result.stats["rotations"],
        },
    }

    executed: list[Circuit] = []
    if mode == "probabilities":
        try:
            pa = absorb_probabilities(result.extracted)
        except (NotReducible, NonHCnotGate) as exc:
            return _fail(
                f"cannot absorb the extracted Clifford into bitstrings ({exc}); "
                "rerun with --mode observables"
            )
        report["absorption"] = {
            "h_mask": sorted(pa.h_mask),
            "network": [list(e) for e in pa.network],
        }
        executed.append(Circuit(opt.n, opt.gates + tuple(h(q) for q in sorted(pa.h_mask))))
    else:
        records = absorb_observables(result.tableau, prob.observables)
        report["observables"] = [
            {
                "original": r.original.label(),
                "transformed": r.transformed.label(),
                "basis_layer": [[g.kind, g.qubits[0]] for g in r.basis_layer],
            }
            for r in records
        ]
        for r in records:
            executed.append(Circuit(opt.n, opt.gates + r.basis_layer))

    Path(args.out).write_text(emit_qasm(opt), encoding="utf-8")
    Path(args.clifford).write_text(emit_qasm(result.extracted), encoding="utf-8")
    for path, circ in zip(exec_paths, executed):
        Path(path).write_text(emit_qasm(circ), encoding="utf-8")
    report["artifacts"] = {
        "optimized": args.out,
        "clifford": args.clifford,
        "executed": exec_paths,
    }
    _write_json(args.report, report)
    m = report["metrics"]
    print(
        f"cnot {m['cnot_before']} -> {m['cnot_after']}, "
        f"entangling depth {m['entangling_depth_before']} -> {m['entangling_depth_after']}, "
        f"mode {mode}"
    )
    return OK


def _load_report(path) -> dict:
    return _require(_read_json(path, "report"), (), "report")


def _load_counts(path) -> CountsHistogram:
    data = _require(_read_json(path, "counts"), ("n", "shots", "counts"), "counts file")
    if not isinstance(data["counts"], dict):
        raise SchemaError('counts file "counts" is not an object')
    return CountsHistogram(data["n"], data["counts"], data["shots"])


def _require(section, keys, where: str) -> dict:
    """``section`` itself, after checking that it is an object holding
    every one of ``keys``."""
    if not isinstance(section, dict):
        raise SchemaError(f"{where} is not an object")
    for key in keys:
        if key not in section:
            raise SchemaError(f'{where} lacks "{key}"')
    return section


def _absorption(report) -> ProbabilityAbsorption:
    """The report's probabilities-mode section, after checking that the
    mask and every network edge name qubits of the register (an edge
    with equal ends would make the map collapse bitstrings)."""
    if "absorption" not in report:
        raise SchemaError("report lacks an 'absorption' section (probabilities mode)")
    n = _require(report, ("num_qubits",), "report")["num_qubits"]
    if type(n) is not int or n < 0:
        raise SchemaError("report num_qubits is not a non-negative integer")
    sec = _require(report["absorption"], ("h_mask", "network"), "report absorption")

    def qubits(values) -> bool:
        return all(type(q) is int and 0 <= q < n for q in values)

    if not isinstance(sec["h_mask"], list) or not qubits(sec["h_mask"]):
        raise SchemaError(f"report absorption h_mask is not a list of qubits in [0, {n})")
    if not isinstance(sec["network"], list):
        raise SchemaError("report absorption network is not a list")
    for k, edge in enumerate(sec["network"]):
        if not (isinstance(edge, list) and len(edge) == 2 and qubits(edge) and edge[0] != edge[1]):
            raise SchemaError(
                f"report absorption network[{k}] is not a pair of distinct qubits in [0, {n})"
            )
    return ProbabilityAbsorption(
        n, frozenset(sec["h_mask"]), tuple((c, t) for c, t in sec["network"])
    )


def cmd_postprocess(args) -> int:
    pa = _absorption(_load_report(args.report))
    hist = _load_counts(args.counts)
    out = postprocess_counts(pa, hist)
    _write_json(args.out, {"n": out.n, "shots": out.shots, "counts": out.counts})
    print(f"rewrote {len(hist.counts)} bitstrings ({out.shots} shots) to {args.out}")
    return OK


def _observable_records(report) -> list[TransformedObservable]:
    """The report's observable section as records (basis layers are not
    needed to read it back)."""
    if "observables" not in report:
        raise CliffexError("report lacks an 'observables' section (observable mode)")
    if not isinstance(report["observables"], list):
        raise SchemaError("report observables is not a list")
    records = []
    for k, rec in enumerate(report["observables"]):
        _require(rec, ("original", "transformed"), f"report observables[{k}]")
        for key in ("original", "transformed"):
            if not isinstance(rec[key], str):
                raise SchemaError(f"report observables[{k}] {key} is not a string")
        records.append(
            TransformedObservable(parse_pauli(rec["original"]), parse_pauli(rec["transformed"]), ())
        )
    return records


def cmd_map_expectations(args) -> int:
    records = _observable_records(_load_report(args.report))
    data = _read_json(args.values, "values")
    values = data.get("values") if isinstance(data, dict) else data
    if not isinstance(values, list):
        raise SchemaError(f'values file {args.values} lacks a "values" list')
    for k, v in enumerate(values):
        if type(v) not in (int, float):
            raise SchemaError(f"values file {args.values} value [{k}] is not a number")
    mapped = map_expectations(records, values)
    _write_json(args.out, {"values": mapped})
    print(f"mapped {len(mapped)} expectation values to {args.out}")
    return OK


def _artifact(path: str, what: str, n: int) -> Circuit:
    """The circuit in a report's artifact file, which must declare the
    input's ``n`` qubits."""
    text = _read_text(path, what)
    try:
        circ = parse_qasm(text)
    except SchemaError as exc:
        raise SchemaError(f"{what} {path}: {exc}") from None
    if circ.n != n:
        raise SchemaError(f"{what} {path} declares {circ.n} qubits, the input has {n}")
    return circ


def _basis_layer(rec: dict, k: int, n: int) -> tuple[Gate, ...]:
    """Observable ``k``'s recorded measurement basis layer, after checking
    that it is a list of [kind, qubit] pairs with kind h or sdg."""
    layer = _require(rec, ("basis_layer",), f"report observables[{k}]")["basis_layer"]
    if not isinstance(layer, list) or not all(
        isinstance(g, list) and len(g) == 2 and g[0] in ("h", "sdg")
        and type(g[1]) is int and 0 <= g[1] < n
        for g in layer
    ):
        raise SchemaError(
            f"report observables[{k}] basis_layer is not a list of [h|sdg, qubit in [0, {n})]"
        )
    return tuple(Gate(kind, (q,)) for kind, q in layer)


def cmd_verify(args) -> int:
    prob = load_terms(args.input)
    _check_cap(prob.n)
    report = _load_report(args.report)
    _require(report, ("input_digest", "mode", "metrics", "artifacts"), "report")
    if report["mode"] not in ("observables", "probabilities"):
        raise SchemaError('report mode is not "observables" or "probabilities"')
    if not isinstance(report["input_digest"], str):
        raise SchemaError("report input_digest is not a string")
    m = _require(
        report["metrics"], ("cnot_after", "entangling_depth_after", "cnot_before"), "report metrics"
    )
    for key in ("cnot_after", "entangling_depth_after", "cnot_before"):
        if type(m[key]) is not int:
            raise SchemaError(f"report metrics {key} is not an integer")
    art = _require(report["artifacts"], ("optimized", "clifford", "executed"), "report artifacts")
    for key in ("optimized", "clifford"):
        if not isinstance(art[key], str):
            raise SchemaError(f'report artifacts "{key}" is not a path string')
    if not isinstance(art["executed"], list) or not all(isinstance(p, str) for p in art["executed"]):
        raise SchemaError('report artifacts "executed" is not a list of path strings')
    if report["mode"] == "observables":
        records = _observable_records(report)
        layers = [_basis_layer(rec, k, prob.n) for k, rec in enumerate(report["observables"])]
        if len(art["executed"]) != len(records):
            raise SchemaError(
                f'report artifacts "executed" lists {len(art["executed"])} files '
                f"for {len(records)} observables"
            )
    else:
        pa = _absorption(report)
        if pa.n != prob.n:
            raise SchemaError(f"report num_qubits {pa.n} does not match the input's {prob.n}")
        if not art["executed"]:
            raise SchemaError('report artifacts "executed" is empty')
    opt = _artifact(art["optimized"], "optimized circuit", prob.n)
    cliff = _artifact(art["clifford"], "Clifford circuit", prob.n)
    executed = [_artifact(path, "executed circuit", prob.n) for path in art["executed"]]
    native = native_circuit(prob.terms, prob.n)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    check("input digest matches report", report["input_digest"] == _digest(args.input))
    u_full = circuit_unitary(Circuit(prob.n, opt.gates + cliff.gates))
    check("unitary round-trip", equivalent_up_to_phase(u_full, circuit_unitary(native), 1e-9))

    check("cnot_after matches artifact", m["cnot_after"] == cnot_count(opt))
    check("entangling_depth_after matches artifact", m["entangling_depth_after"] == entangling_depth(opt))
    check("cnot_before matches input", m["cnot_before"] == cnot_count(native))

    if report["mode"] == "observables":
        ok = True
        for rec in records:
            unsigned = parse_pauli(rec.transformed.letters())
            lhs = expectation(native, rec.original)
            rhs = rec.transformed.sign * expectation(opt, unsigned)
            ok = ok and abs(lhs - rhs) <= 1e-9
        check("observable expectations", ok)
        for k, (rec, layer, circ) in enumerate(zip(records, layers, executed)):
            ok = layer == tuple(basis_change_gates(rec.transformed))
            ok = ok and circ.gates == opt.gates + layer
            check(f"executed circuit {k} is opt plus observable {k}'s basis layer", ok)
    else:
        p_full = probabilities(native)
        p_exec = probabilities(executed[0])
        mapped = _network_map(pa.network, prob.n)
        ok = all(abs(p_full[mapped(idx)] - p_exec[idx]) <= 1e-9 for idx in range(2**prob.n))
        check("output distribution", ok)

    if failures:
        print(f"{failures} check(s) failed")
        return VERIFY_FAIL
    print("all checks passed")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffex",
        description="Optimize Pauli-rotation circuits by extracting and absorbing Clifford subcircuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark term list")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    mc = gen_sub.add_parser("maxcut", help="MaxCut layers on a regular or random graph")
    mc.add_argument("--nodes", type=int, required=True)
    mc.add_argument("--degree", type=int, help="regular-graph degree")
    mc.add_argument("--edges", type=int, help="random-graph edge count")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--layers", type=int, default=1)
    mc.add_argument("--gamma", type=float, action="append", help="problem angle (repeat per layer)")
    mc.add_argument("--beta", type=float, action="append", help="mixer angle (repeat per layer)")
    mc.add_argument("--out", default="input.json")
    mc.set_defaults(func=cmd_gen, kind="maxcut")
    labs = gen_sub.add_parser("labs", help="binary-sequence autocorrelation layers")
    labs.add_argument("--n", type=int, required=True)
    labs.add_argument("--layers", type=int, default=1)
    labs.add_argument("--gamma", type=float, action="append")
    labs.add_argument("--beta", type=float, action="append")
    labs.add_argument("--out", default="input.json")
    labs.set_defaults(func=cmd_gen, kind="labs")

    opt = sub.add_parser("optimize", help="extract + absorb and emit artifacts")
    opt.add_argument("input")
    opt.add_argument("--mode", choices=("observables", "probabilities"))
    opt.add_argument("--out", default="opt.qasm")
    opt.add_argument("--clifford", default="clifford.qasm")
    opt.add_argument("--report", default="report.json")
    opt.set_defaults(func=cmd_optimize)

    post = sub.add_parser("postprocess", help="rewrite measured counts through the CNOT network")
    post.add_argument("counts")
    post.add_argument("--report", default="report.json")
    post.add_argument("--out", default="counts.post.json")
    post.set_defaults(func=cmd_postprocess)

    mapx = sub.add_parser("map-expectations", help="apply transformed-observable signs to values")
    mapx.add_argument("values")
    mapx.add_argument("--report", default="report.json")
    mapx.add_argument("--out", default="values.post.json")
    mapx.set_defaults(func=cmd_map_expectations)

    ver = sub.add_parser("verify", help="dense cross-check of emitted artifacts")
    ver.add_argument("input")
    ver.add_argument("--report", default="report.json")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        return _fail(f"{exc}; verify a smaller instance or a subset of terms")
    except CliffexError as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

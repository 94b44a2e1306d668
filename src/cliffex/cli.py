"""Command-line surface binding the pipeline end to end.

Subcommands: ``gen`` (benchmark term lists), ``optimize`` (extract the
Clifford half, absorb it, emit QASM + report), ``postprocess`` (rewrite
measured counts through the report's CNOT network), ``map-expectations``
(apply transformed-observable signs), ``verify`` (exact symplectic check
of the emitted artifacts against the input, at any qubit count).  Exit
codes: 0 ok, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

from .absorb import (
    CountsHistogram,
    ProbabilityAbsorption,
    TransformedObservable,
    absorb_observables,
    absorb_probabilities,
    map_expectations,
    postprocess_counts,
)
from .circuit import Circuit, Gate, cnot_count, cx, emit_qasm, entangling_depth, h, parse_qasm, peephole
from .errors import CliffexError, NotReducible, SchemaError
from .extract import basis_change_gates, extract, native_circuit
from .problems import (
    _field,
    _finite,
    _read_json,
    _read_text,
    _word,
    gen_labs,
    gen_maxcut,
    load_terms,
    to_input_dict,
)
from .tableau import replay

OK, VERIFY_FAIL, USAGE = 0, 1, 2


def _fail(msg: str, code: int = USAGE) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_counts(path, hist: CountsHistogram) -> None:
    """``_write_json`` of the histogram's n, shots and counts, byte for
    byte (the keys are binary strings and the counts ints), written line
    by line instead of through the generic encoder."""
    with open(path, "w", encoding="utf-8") as f:
        f.write('{\n  "counts": {')
        sep = "\n"
        for k in sorted(hist.counts):
            f.write(f'{sep}    "{k}": {hist.counts[k]}')
            sep = ",\n"
        f.write("\n  }" if hist.counts else "}")
        f.write(f',\n  "n": {hist.n},\n  "shots": {hist.shots}\n}}\n')


def _check_outputs(inputs: dict[str, str], outputs) -> None:
    """Raise CliffexError unless every output is a path in an existing
    directory and no two of them, nor an output and one of ``inputs``
    (path -> how to name it), are the same file.  A command calls this
    before it writes anything, so a bad path overwrites no file."""
    seen = {Path(path).resolve(): what for path, what in inputs.items()}
    for path in outputs:
        if not Path(path).parent.is_dir() or Path(path).is_dir():
            raise CliffexError(f"cannot write {path}: no such directory, or the path is one")
        target = Path(path).resolve()
        if target in seen:
            raise CliffexError(f"cannot write {path}: it is the same file as {seen[target]}")
        seen[target] = path


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _executed_paths(out_path: str, mode: str, count: int) -> list[str]:
    stem = out_path[:-5] if out_path.endswith(".qasm") else out_path
    if mode == "probabilities":
        return [f"{stem}.executed.qasm"]
    return [f"{stem}.obs{k}.qasm" for k in range(count)]


def _executed(opt: Circuit, layers) -> list[Circuit]:
    """The circuits that are run: ``opt`` followed by each measurement
    basis layer (probabilities mode has one, H on the mask in qubit order)."""
    return [Circuit(opt.n, opt.gates + tuple(layer)) for layer in layers]


def cmd_gen(args) -> int:
    if args.kind == "maxcut":
        terms = gen_maxcut(args.n, args.degree, args.edges, args.seed, args.layers, args.gamma, args.beta)
    else:  # labs
        terms = gen_labs(args.n, args.layers, args.gamma, args.beta)
    _write_json(args.out, to_input_dict(args.n, terms))
    print(f"wrote {len(terms)} terms on {args.n} qubits to {args.out}")
    return OK


def cmd_optimize(args) -> int:
    prob = load_terms(args.input)
    if prob.mode == "observables" and not prob.observables:
        return _fail("observable mode needs an 'observables' list in the input")
    exec_paths = _executed_paths(args.out, prob.mode, len(prob.observables))
    _check_outputs({args.input: f"the input {args.input}"},
                   (args.out, args.clifford, *exec_paths, args.report))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = extract(prob.terms)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    opt = peephole(result.opt_circuit)
    native = native_circuit(prob.terms)

    report: dict = {
        "input_digest": _digest(args.input),
        "num_qubits": prob.n,
        "mode": prob.mode,
        "metrics": {
            "cnot_before": cnot_count(native),
            "cnot_after": cnot_count(opt),
            "entangling_depth_before": entangling_depth(native),
            "entangling_depth_after": entangling_depth(opt),
            "rotation_count": result.stats["rotations"],
        },
        "artifacts": {"optimized": args.out, "clifford": args.clifford, "executed": exec_paths},
    }

    if prob.mode == "probabilities":
        try:
            pa = absorb_probabilities(result.extracted)
        except NotReducible as exc:
            return _fail(
                f"cannot absorb the extracted Clifford into bitstrings ({exc}); "
                'give the input "mode": "observables" and an "observables" list'
            )
        report["absorption"] = {
            "h_mask": sorted(pa.h_mask),
            "network": [list(e) for e in pa.network],
        }
        layers = [tuple(map(h, sorted(pa.h_mask)))]
    else:
        records = absorb_observables(result.extracted, prob.observables)
        report["observables"] = [
            {
                "original": r.original.label(),
                "transformed": r.transformed.label(),
                "basis_layer": [[g.kind, g.qubits[0]] for g in r.basis_layer],
            }
            for r in records
        ]
        layers = [r.basis_layer for r in records]

    Path(args.out).write_text(emit_qasm(opt), encoding="utf-8")
    Path(args.clifford).write_text(emit_qasm(result.extracted), encoding="utf-8")
    for path, circ in zip(exec_paths, _executed(opt, layers)):
        Path(path).write_text(emit_qasm(circ), encoding="utf-8")
    _write_json(args.report, report)
    m = report["metrics"]
    print(
        f"cnot {m['cnot_before']} -> {m['cnot_after']}, "
        f"entangling depth {m['entangling_depth_before']} -> {m['entangling_depth_after']}, "
        f"mode {prob.mode}"
    )
    return OK


def _count(v) -> bool:
    return type(v) is int and v >= 0


def _absorption(report) -> ProbabilityAbsorption:
    """The report's probabilities-mode section: its JSON shape is checked
    here, the qubit ranges by ``ProbabilityAbsorption``."""
    n = _field(report, "num_qubits", "report", "num_qubits is not a non-negative integer", _count)
    section = _field(report, "absorption", "report")

    def ints(values) -> bool:
        return isinstance(values, list) and all(type(q) is int for q in values)

    mask = _field(section, "h_mask", "report absorption",
                  f"h_mask is not a list of qubits in [0, {n})", ints)
    network = _field(
        section, "network", "report absorption",
        f"network is not a list of pairs of distinct qubits in [0, {n})",
        lambda v: isinstance(v, list) and all(ints(e) and len(e) == 2 for e in v),
    )
    try:
        return ProbabilityAbsorption(n, frozenset(mask), tuple((c, t) for c, t in network))
    except ValueError as exc:
        raise SchemaError(f"report absorption {exc}") from None


def cmd_postprocess(args) -> int:
    _check_outputs({args.counts: f"the counts file {args.counts}",
                    args.report: f"the report {args.report}"}, (args.out,))
    pa = _absorption(_read_json(args.report, "report"))
    data = _read_json(args.counts, "counts")
    n, shots = (
        _field(data, key, "counts file", f'"{key}" is not a non-negative integer', _count)
        for key in ("n", "shots")
    )
    counts = _field(data, "counts", "counts file", '"counts" is not an object',
                    lambda v: isinstance(v, dict))
    out = postprocess_counts(pa, CountsHistogram(n, counts, shots))
    _write_counts(args.out, out)
    print(f"rewrote {len(counts)} bitstrings ({out.shots} shots) to {args.out}")
    return OK


def _observable_records(report) -> list[TransformedObservable]:
    """The report's observable section as records, after checking that
    each word has the report's ``num_qubits`` letters and each basis layer
    is a list of [kind, qubit] pairs with kind h or sdg on those qubits."""
    n = _field(report, "num_qubits", "report", "num_qubits is not a non-negative integer", _count)
    if "observables" not in report:
        raise SchemaError("report lacks an 'observables' section (observable mode)")
    recs = _field(report, "observables", "report", "observables is not a list",
                  lambda v: isinstance(v, list))
    records = []
    for k, rec in enumerate(recs):
        where = f"report observables[{k}]"
        original, transformed = (
            _word(_field(rec, key, where, f"{key} is not a string", lambda v: isinstance(v, str)),
                  n, f"{where} {key}")
            for key in ("original", "transformed")
        )
        pairs = _field(
            rec, "basis_layer", where,
            f"basis_layer is not a list of [h|sdg, qubit in [0, {n})]",
            lambda v: isinstance(v, list) and all(
                isinstance(g, list) and len(g) == 2 and g[0] in ("h", "sdg")
                and type(g[1]) is int and 0 <= g[1] < n
                for g in v
            ),
        )
        layer = tuple(Gate(kind, (q,)) for kind, q in pairs)
        records.append(TransformedObservable(original, transformed, layer))
    return records


def cmd_map_expectations(args) -> int:
    _check_outputs({args.values: f"the values file {args.values}",
                    args.report: f"the report {args.report}"}, (args.out,))
    records = _observable_records(_read_json(args.report, "report"))
    values = _field(
        _read_json(args.values, "values"), "values", f"values file {args.values}",
        '"values" is not a list of finite numbers',
        lambda v: isinstance(v, list) and all(map(_finite, v)),
    )
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


def _same_rotations(terms, rotations, n: int) -> bool:
    """True iff the rotations of ``replay`` ((P, t) for exp(-i t/2 P), in
    time order) multiply to the input's rotations exp(i c P), in input
    order.  Each input term in turn starts at the front of the remaining
    rotations and passes those it commutes with: on its own string it
    takes its angle off that rotation, and on one it does not commute
    with, or at the end, it stays there with its angle negated.  A
    rotation whose coefficient is within 1e-9 max(1, |c|) of zero is
    dropped; the products are equal when no rotation is left.
    """
    # [packed string, the string with x and z swapped, coefficient]; a
    # string anticommutes with v iff v & its swap has odd weight
    rest = [[p.x | p.z << n, p.z | p.x << n, -0.5 * t * p.sign] for p, t in rotations]
    for term in terms:
        p = term.pauli
        v = p.x | p.z << n
        if not v:  # the identity only adds a global phase
            continue
        c = term.coeff * p.sign
        tol = 1e-9 * max(1.0, abs(c))
        k = 0
        while k < len(rest) and rest[k][0] != v and not (v & rest[k][1]).bit_count() & 1:
            k += 1
        if k < len(rest) and rest[k][0] == v:
            rest[k][2] -= c
            if abs(rest[k][2]) <= tol:
                del rest[k]
        elif abs(c) > tol:
            rest.insert(k, [v, p.z | p.x << n, -c])
    return not rest


def cmd_verify(args) -> int:
    prob = load_terms(args.input)
    report = _read_json(args.report, "report")
    _field(report, "num_qubits", "report", f"num_qubits is not the input's qubit count {prob.n}",
           lambda v: type(v) is int and v == prob.n)
    mode = _field(report, "mode", "report", 'mode is not "observables" or "probabilities"',
                  lambda v: v in ("observables", "probabilities"))
    digest = _field(report, "input_digest", "report", "input_digest is not a string",
                    lambda v: isinstance(v, str))
    m = _field(report, "metrics", "report")
    for key in ("cnot_before", "cnot_after", "entangling_depth_before", "entangling_depth_after",
                "rotation_count"):
        _field(m, key, "report metrics", f"{key} is not an integer", lambda v: type(v) is int)
    art = _field(report, "artifacts", "report")
    opt_path, cliff_path = (
        _field(art, key, "report artifacts", f'"{key}" is not a path string',
               lambda v: isinstance(v, str))
        for key in ("optimized", "clifford")
    )
    exec_paths = _field(art, "executed", "report artifacts", '"executed" is not a list of path strings',
                        lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v))
    if mode == "observables":
        records = _observable_records(report)
        layers = [rec.basis_layer for rec in records]
    else:
        pa = _absorption(report)
        records, layers = [], [tuple(map(h, sorted(pa.h_mask)))]
    if not exec_paths:
        raise SchemaError('report artifacts "executed" is empty')
    if len(exec_paths) != len(layers):
        raise SchemaError(
            f'report artifacts "executed" lists {len(exec_paths)} files for {len(layers)} '
            + ("observables" if mode == "observables" else "Hadamard layer in probabilities mode")
        )
    opt = _artifact(opt_path, "optimized circuit", prob.n)
    cliff = _artifact(cliff_path, "Clifford circuit", prob.n)
    executed = [_artifact(path, "executed circuit", prob.n) for path in exec_paths]
    native = native_circuit(prob.terms)
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    check("input digest matches report", digest == _digest(args.input))
    check("mode matches input", mode == prob.mode)
    check("observables match input", [r.original for r in records]
          == (prob.observables if prob.mode == "observables" else []))
    images, rotations = replay(opt.gates + cliff.gates, prob.n)
    check("unitary round-trip",
          images == replay((), prob.n)[0] and _same_rotations(prob.terms, rotations, prob.n))

    check("cnot_after matches artifact", m["cnot_after"] == cnot_count(opt))
    check("entangling_depth_after matches artifact", m["entangling_depth_after"] == entangling_depth(opt))
    check("cnot_before matches input", m["cnot_before"] == cnot_count(native))
    check("entangling_depth_before matches input",
          m["entangling_depth_before"] == entangling_depth(native))
    check("rotation_count matches input",
          m["rotation_count"] == sum(1 for t in prob.terms if t.pauli.weight()))

    expected = _executed(opt, layers)
    if mode == "observables":
        # E†OE for the Clifford E of the file; with the round trip, every
        # input state gives equal expectations on the native and
        # optimized circuits
        ok = all(g.kind != "rz" for g in cliff.gates) and [r.transformed for r in records] == [
            r.transformed for r in absorb_observables(cliff, [r.original for r in records])
        ]
        check("observable expectations", ok)
        for k, (rec, circ) in enumerate(zip(records, executed)):
            ok = rec.basis_layer == tuple(basis_change_gates(rec.transformed)) and circ == expected[k]
            check(f"executed circuit {k} is opt plus observable {k}'s basis layer", ok)
    else:
        check("executed circuit is opt plus H on the h_mask", executed[0] == expected[0])
        # E equal to the H layer then the network, with the round trip,
        # maps every input state's distribution onto the executed one's
        absorbed = layers[0] + tuple(cx(c, t) for c, t in pa.network)
        check("output distribution", replay(cliff.gates, prob.n) == replay(absorbed, prob.n))

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
    mc.add_argument("--nodes", dest="n", type=int, required=True)
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

    ver = sub.add_parser("verify", help="exact symplectic check of emitted artifacts")
    ver.add_argument("input")
    ver.add_argument("--report", default="report.json")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliffexError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

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
import os
import stat
import sys
import warnings
from functools import partial
from pathlib import Path

from .absorb import (
    CountsHistogram,
    ProbabilityAbsorption,
    TransformedObservable,
    _count,
    absorb_observables,
    absorb_probabilities,
    map_expectations,
    postprocess_counts,
)
from .circuit import (Circuit, Gate, _parse_after, _qasm_gates, cnot_count, cx, emit_qasm, entangling_depth,
                      h, parse_qasm, peephole, sdg)
from .errors import CliffexError, NotReducible, SchemaError
from .extract import basis_change_gates, extract, native_cost
from .pauli import _support
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
from .tableau import anticommuting, columns, replay

OK, VERIFY_FAIL, USAGE = 0, 1, 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE


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


def _file_key(path, dirs: dict[str, str | None]) -> tuple[object, bool]:
    """The identity of the file at ``path``, and whether one can be
    written there (the path is no directory, and its directory is one).
    A file that exists is its (device, inode) from one stat, which follows
    symlinks, so a symlink or a hard link to it matches it.  A new path is
    its directory's real path, kept in ``dirs`` per directory string (None
    for a non-directory), joined with its name; a dangling symlink is the
    real path of the file it would create.  Any other stat error, such as
    a symlink loop, is raised: no file can be written there."""
    p = os.fspath(path) or "."
    while len(p) > 1 and p.endswith(("/", "/.")):  # as pathlib spells it
        p = p[:-1]
    try:
        st = os.stat(p)
        return (st.st_dev, st.st_ino), not stat.S_ISDIR(st.st_mode)
    except (FileNotFoundError, NotADirectoryError):
        pass
    head, name = os.path.split(p)
    if head not in dirs:
        dirs[head] = os.path.realpath(head or ".") if os.path.isdir(head or ".") else None
    real = dirs[head]
    key = os.path.realpath(p) if os.path.islink(p) else os.path.join(real or head, name)
    return key, real is not None


def _check_outputs(inputs: dict[str, str], outputs) -> None:
    """Raise CliffexError unless every output is a path in an existing
    directory and no two of them, nor an output and one of ``inputs``
    (path -> how to name it), are the same file by ``_file_key``.  A
    command calls this before it writes anything, so a bad path
    overwrites no file."""
    dirs: dict[str, str | None] = {}
    seen = {_file_key(path, dirs)[0]: what for path, what in inputs.items()}
    for path in outputs:
        key, writable = _file_key(path, dirs)
        if not writable:
            raise CliffexError(f"cannot write {path}: no such directory, or the path is one")
        if key in seen:
            raise CliffexError(f"cannot write {path}: it is the same file as {seen[key]}")
        seen[key] = path


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _executed_paths(out_path: str, mode: str, count: int) -> list[str]:
    stem = out_path[:-5] if out_path.endswith(".qasm") else out_path
    if mode == "probabilities":
        return [f"{stem}.executed.qasm"]
    return [f"{stem}.obs{k}.qasm" for k in range(count)]


_METRICS = ("cnot_after", "entangling_depth_after", "cnot_before", "entangling_depth_before",
            "rotation_count")


def _metrics(opt: Circuit, native: tuple[int, int], rotations: int) -> dict[str, int]:
    """The report's metrics in ``_METRICS`` order, which verify checks them
    in; ``native`` is ``native_cost`` of the input."""
    return dict(zip(_METRICS, (cnot_count(opt), entangling_depth(opt), *native, rotations)))


def _layers(pa: ProbabilityAbsorption | None, records) -> list[tuple[Gate, ...]]:
    """The basis layer after opt in each executed circuit: H on ``pa``'s
    mask in qubit order, or with no ``pa`` each record's layer."""
    return [tuple(map(h, sorted(pa.h_mask)))] if pa else [r.basis_layer for r in records]


def cmd_gen(args) -> int:
    try:
        if args.kind == "maxcut":
            terms = gen_maxcut(args.n, args.degree, args.edges, args.seed, args.layers, args.gamma,
                               args.beta)
        else:  # labs
            terms = gen_labs(args.n, args.layers, args.gamma, args.beta)
        _write_json(args.out, to_input_dict(args.n, terms))
    except ValueError as exc:  # InvalidSize, PauliTerm's on a non-finite angle, or SchemaError
        return _fail(str(exc))
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
    # a refusal costs no peephole, baseline or metrics
    try:
        pa = absorb_probabilities(result.extracted) if prob.mode == "probabilities" else None
    except NotReducible as exc:
        return _fail(
            f"cannot absorb the extracted Clifford into bitstrings ({exc}); "
            'give the input "mode": "observables" and an "observables" list'
        )
    opt = peephole(result.opt_circuit)
    m = _metrics(opt, native_cost(prob.terms), result.stats["rotations"])
    report: dict = {
        "input_digest": _digest(args.input),
        "num_qubits": prob.n,
        "mode": prob.mode,
        "metrics": m,
        "artifacts": {"optimized": args.out, "clifford": args.clifford, "executed": exec_paths},
    }
    records = [] if pa else absorb_observables(result.extracted, prob.observables)
    if pa:
        report["absorption"] = {
            "h_mask": sorted(pa.h_mask),
            "network": [list(e) for e in pa.network],
        }
    else:
        report["observables"] = [
            {
                "original": r.original.label(),
                "transformed": r.transformed.label(),
                "basis_layer": [[g.kind, g.qubits[0]] for g in r.basis_layer],
            }
            for r in records
        ]

    # each executed file is emit_qasm of opt plus its layer, byte for
    # byte, with opt formatted once
    text = emit_qasm(opt)
    Path(args.out).write_text(text, encoding="utf-8")
    Path(args.clifford).write_text(emit_qasm(result.extracted), encoding="utf-8")
    for path, layer in zip(exec_paths, _layers(pa, records)):
        Path(path).write_text(text + _qasm_gates(layer), encoding="utf-8")
    _write_json(args.report, report)
    print(
        f"cnot {m['cnot_before']} -> {m['cnot_after']}, "
        f"entangling depth {m['entangling_depth_before']} -> {m['entangling_depth_after']}, "
        f"mode {prob.mode}"
    )
    return OK


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
        layer = tuple((h if kind == "h" else sdg)(q) for kind, q in pairs)
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


def _artifact(path: str, what: str, n: int, text: str | None = None, parse=None) -> Circuit:
    """The circuit in a report's artifact file, whose ``text`` may have
    been read already, parsed by ``parse`` or else ``parse_qasm`` (named
    at call time, so a wrapper put on it sees the call); it must declare
    the input's ``n`` qubits."""
    if text is None:
        text = _read_text(path, what)
    try:
        circ = (parse or parse_qasm)(text)
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

    The remaining rotations are the ``alive`` lanes of columns, front
    highest (rotation j of r is lane r - 1 - j), and no lane moves.  A
    term's stop is its highest anticommuting lane; it matches its own
    string's highest lane above that.  A term left over takes a new top
    lane, as it commutes with every lane it passed.
    """
    xs, zs, _ = columns([p for p, _ in reversed(rotations)], n)
    coeffs = [-0.5 * t * p.sign for p, t in reversed(rotations)]
    lanes: dict[tuple[int, int], int] = {}  # string -> mask of its alive lanes
    for k, (p, _) in enumerate(reversed(rotations)):
        lanes[p.x, p.z] = lanes.get((p.x, p.z), 0) | 1 << k
    alive = (1 << len(coeffs)) - 1
    for term in terms:
        p = term.pauli
        if not p.x | p.z:  # the identity only adds a global phase
            continue
        c = term.coeff * p.sign
        tol = 1e-9 * max(1.0, abs(c))
        same = lanes.get((p.x, p.z), 0)
        if same.bit_length() > (anticommuting(xs, zs, p) & alive).bit_length():
            k = same.bit_length() - 1
            coeffs[k] -= c
            if abs(coeffs[k]) <= tol:
                alive ^= 1 << k
                lanes[p.x, p.z] = same ^ 1 << k
        elif abs(c) > tol:
            k = len(coeffs)
            coeffs.append(-c)
            for q in _support(p.x):
                xs[q] |= 1 << k
            for q in _support(p.z):
                zs[q] |= 1 << k
            lanes[p.x, p.z] = same | 1 << k
            alive |= 1 << k
    return not alive


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
    for key in _METRICS:
        _field(m, key, "report metrics", f"{key} is not an integer", lambda v: type(v) is int)
    art = _field(report, "artifacts", "report")
    opt_path, cliff_path = (
        _field(art, key, "report artifacts", f'"{key}" is not a path string',
               lambda v: isinstance(v, str))
        for key in ("optimized", "clifford")
    )
    exec_paths = _field(art, "executed", "report artifacts", '"executed" is not a list of path strings',
                        lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v))
    pa = _absorption(report) if mode == "probabilities" else None
    records = [] if pa else _observable_records(report)
    layers = _layers(pa, records)
    if not exec_paths:
        raise SchemaError('report artifacts "executed" is empty')
    if len(exec_paths) != len(layers):
        raise SchemaError(
            f'report artifacts "executed" lists {len(exec_paths)} files for {len(layers)} '
            + ("observables" if mode == "observables" else "Hadamard layer in probabilities mode")
        )
    opt_text = _read_text(opt_path, "optimized circuit")
    opt = _artifact(opt_path, "optimized circuit", prob.n, opt_text)
    cliff = _artifact(cliff_path, "Clifford circuit", prob.n)
    # an executed file is opt's text and then its basis layer: only the layer is parsed
    executed = [_artifact(path, "executed circuit", prob.n, parse=partial(_parse_after, opt_text, opt))
                for path in exec_paths]
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

    count = sum(1 for t in prob.terms if t.pauli.weight())
    for key, value in _metrics(opt, native_cost(prob.terms), count).items():
        check(f"{key} matches {'artifact' if key.endswith('_after') else 'input'}", m[key] == value)

    expected = [opt.gates + layer for layer in layers]
    if mode == "observables":
        # E†OE for the Clifford E of the file; with the round trip, every
        # input state gives equal expectations on the native and
        # optimized circuits
        ok = all(g.kind != "rz" for g in cliff.gates) and [r.transformed for r in records] == [
            r.transformed for r in absorb_observables(cliff, [r.original for r in records])
        ]
        check("observable expectations", ok)
        for k, (rec, circ) in enumerate(zip(records, executed)):
            ok = rec.basis_layer == tuple(basis_change_gates(rec.transformed)) and circ.gates == expected[k]
            check(f"executed circuit {k} is opt plus observable {k}'s basis layer", ok)
    else:
        check("executed circuit is opt plus H on the h_mask", executed[0].gates == expected[0])
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


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call and kept: an in-process caller that runs
    # many commands pays for it once
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliffexError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""cliffex benchmark: one client, closed loop, strictly sequential.

    python3 perfbench/run.py --workload labs-large --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from ``--seed`` before timing starts, then drives the
real pipeline (optimize, then postprocess or map-expectations, then
verify where the dense oracle reaches) through ``cliffex.cli.main`` in
this process, pass after pass, until ``--seconds`` of wall time have
passed.  Every artifact of the first pass is checked by ``check.py``,
which shares no code with cliffex; later passes must reproduce its
hashes byte for byte.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over passes).  With ``--trace 1`` untraced and traced passes
alternate after the first, and the last line holds the per-layer metrics of
``tracing.py`` plus the tracing overhead.  Per-instance rows with sha256
hashes go to ``perfbench/out/``.  Exit 2, without a result line, when the
checkout has no cliffex sources.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools would otherwise spread the dense oracle over every
# core and make verify time depend on the host's load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# An untraced command is repeated, up to MAX_REPEATS times, until its runs
# add up to REPEAT_SECONDS, so that a cheap step is not one timer reading.
REPEAT_SECONDS = 0.5
MAX_REPEATS = 9
INPUT_FILES = ("input.json", "counts.json", "values.json")

END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "postprocess_s": "s",
    "verify_s": "s",
    "cnot_after": "count",
    "depth_after": "count",
    "cnot_ratio": "ratio",
    "depth_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# One child interpreter: start, import the program and the generator, write the inputs.
_PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import cliffex.cli, workloads; "
    "workloads.write_inputs(workloads.build(sys.argv[3], int(sys.argv[4])), pathlib.Path(sys.argv[5]))"
)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one interpreter start, imports and input generation."""
    d = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload, str(seed), str(d / "in")],
            check=True,
        )
        return time.perf_counter() - start
    finally:
        shutil.rmtree(d)


def run_op(cli, argv: list[str]) -> tuple[str, float]:
    """One cliffex command in this process: ("ok" | "refused" | failure, seconds).
    Exit 2 is a documented refusal; any other exit code or an escaping
    exception (a traceback on the command line) is a failure."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # every escape is a failed operation
        code = f"traceback {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {0: "ok", 2: "refused"}.get(code, f"exit {code}" if isinstance(code, int) else code), elapsed


def run_repeated(cli, argv: list[str], repeats: int) -> tuple[str, list[float]]:
    """Outcome and timings of one command, run up to ``repeats`` times while cheap."""
    times = []
    while True:
        outcome, seconds = run_op(cli, argv)
        times.append(seconds)
        if outcome not in ("ok", "refused") or len(times) >= repeats or sum(times) >= REPEAT_SECONDS:
            return outcome, times


def commands(inst, dense_cap: int) -> list[str]:
    """The commands an instance's pipeline runs, in order."""
    out = ["optimize"]
    if inst.counts is not None:
        out.append("postprocess")
    if inst.values is not None:
        out.append("map-expectations")
    if inst.n <= dense_cap:
        out.append("verify")
    return out


def run_instance(cli, inst, d: Path, dense_cap: int, repeats: int) -> dict[str, tuple[str, list[float]]]:
    """Run the instance's commands; the follow-ups only after an ``ok`` optimize."""
    for f in d.iterdir():
        if f.name not in INPUT_FILES:
            f.unlink()
    report = str(d / "report.json")
    argv = {
        "optimize": ["optimize", str(d / "input.json"), "--out", str(d / "opt.qasm"),
                     "--clifford", str(d / "clifford.qasm"), "--report", report],
        "postprocess": ["postprocess", str(d / "counts.json"), "--report", report,
                        "--out", str(d / "counts.post.json")],
        "map-expectations": ["map-expectations", str(d / "values.json"), "--report", report,
                             "--out", str(d / "values.post.json")],
        "verify": ["verify", str(d / "input.json"), "--report", report],
    }
    ops = {}
    for op in commands(inst, dense_cap):
        ops[op] = run_repeated(cli, argv[op], repeats)
        if ops["optimize"][0] != "ok":
            break
    return ops


def digests(d: Path) -> dict[str, str]:
    """sha256 of every emitted QASM file and post-processed output."""
    names = sorted(f.name for f in d.iterdir() if f.suffix == ".qasm" or f.name.endswith(".post.json"))
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in names}


# The command that writes each hashed file; every QASM file is optimize's.
WRITER = {"counts.post.json": "postprocess", "values.post.json": "map-expectations"}


def structure(inst) -> str:
    """Digest of the Pauli words alone: equal structure, equal output metrics."""
    words = [t["pauli"] for t in inst.payload["terms"]] + inst.payload.get("observables", [])
    return hashlib.sha256("\n".join(words).encode()).hexdigest()


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 1.0


class Bench:
    def __init__(self, cli, check, instances, work: Path, repeats: int):
        self.cli, self.check, self.instances, self.work = cli, check, instances, work
        self.repeats = repeats
        self.passes: list[dict] = []  # per pass: {instance: {op: (outcome, timings)}}
        self.samples: dict[tuple[str, str], list[float]] = {}  # untraced timings per (instance, op)
        self.hashes: dict[str, dict[str, str]] = {}
        self.rejected: dict[str, dict[str, list[str]]] = {}  # instance -> command -> checker problems
        self.nondeterministic: dict[str, set[str]] = {}  # instance -> commands whose bytes changed
        self.rows: list[dict] = []

    def run_pass(self, traced: bool = False) -> float:
        """One pass over every instance; returns the summed median op time."""
        ops = {}
        for inst in self.instances:
            d = self.work / inst.name
            ops[inst.name] = run_instance(self.cli, inst, d, self.check.DENSE_CAP, self.repeats)
            got = digests(d)
            if not self.passes:
                self.hashes[inst.name] = got
            else:
                first = self.hashes[inst.name]
                for f in got.keys() | first.keys():
                    if got.get(f) != first.get(f):
                        self.nondeterministic.setdefault(inst.name, set()).add(WRITER.get(f, "optimize"))
        if not self.passes:
            self._check_first_pass(ops)
        self.passes.append(ops)
        if not traced:
            for name, inst_ops in ops.items():
                for op, (_, times) in inst_ops.items():
                    self.samples.setdefault((name, op), []).extend(times)
        return sum(statistics.median(t) for inst_ops in ops.values() for _, t in inst_ops.values())

    def _check_first_pass(self, ops) -> None:
        """One row per instance.  An instance without checked output (a
        refusal, a failure or a rejected artifact) is costed at its native
        synthesis, as the checker computes it, so that losing an instance
        can never lower the output metrics."""
        for inst in self.instances:
            d = self.work / inst.name
            done = [op for op, (out, _) in ops[inst.name].items() if out == "ok"]
            cnot, depth = self.check.native_cost(inst.payload)
            row = {"instance": inst.name, "n": inst.n, "terms": len(inst.payload["terms"]),
                   "mode": inst.mode, "structure": structure(inst),
                   "outcomes": {op: out for op, (out, _) in ops[inst.name].items()},
                   "cnot_before": cnot, "depth_before": depth, "cnot_after": cnot, "depth_after": depth,
                   "checked": False}
            if "optimize" in done:
                problems = self.check.check_instance(d, done)
                if problems:
                    self.rejected[inst.name] = problems
                else:
                    m = json.loads((d / "report.json").read_text(encoding="utf-8"))["metrics"]
                    row.update(cnot_after=m["cnot_after"], depth_after=m["entangling_depth_after"], checked=True)
                row.update(sha256=self.hashes[inst.name], check=problems or "ok")
            self.rows.append(row)

    def failures(self) -> tuple[int, int, list[str], set[str]]:
        """(attempted, failed, reasons, broken) over every operation of every
        pass.  An operation fails when it exits other than 0 or 2, when the
        checker rejects what it wrote, or when its bytes are not reproduced.
        For an instance that must succeed, a refusal fails too, and so does
        every command it did not reach; ``broken`` names those instances."""
        attempted = failed = 0
        reasons, broken = [], set()
        for k, ops in enumerate(self.passes):
            for inst in self.instances:
                inst_ops = ops[inst.name]
                blamed = dict(self.rejected.get(inst.name, {}))
                for op in self.nondeterministic.get(inst.name, ()):
                    blamed[op] = blamed.get(op, []) + ["not reproducible"]
                if inst.must_succeed:
                    expected, allowed = commands(inst, self.check.DENSE_CAP), ("ok",)
                else:
                    expected, allowed = list(inst_ops), ("ok", "refused")
                for op in expected:
                    outcome = inst_ops[op][0] if op in inst_ops else "not reached"
                    attempted += 1
                    if outcome in allowed and op not in blamed:
                        continue
                    failed += 1
                    if inst.must_succeed:
                        broken.add(inst.name)
                    if k == 0:
                        reasons.append(f"{inst.name} {op}: {blamed.get(op, outcome)}")
        return attempted, failed, reasons, broken

    def times(self) -> dict[str, float]:
        """Each timing metric: the sum over its commands of the median of
        every untraced timing of that command in the run."""
        groups = {"compile_s": ("optimize",), "postprocess_s": ("postprocess", "map-expectations"),
                  "verify_s": ("verify",)}
        return {
            metric: sum(statistics.median(t) for (_, op), t in self.samples.items() if op in names)
            for metric, names in groups.items()
        }

    def output_metrics(self) -> dict[str, float]:
        rows = self.rows
        return {
            "cnot_after": sum(r["cnot_after"] for r in rows),
            "depth_after": sum(r["depth_after"] for r in rows),
            "cnot_ratio": geomean([r["cnot_after"] / r["cnot_before"] for r in rows
                                   if r["cnot_before"] and r["cnot_after"]]),
            "depth_ratio": geomean([r["depth_after"] / r["depth_before"] for r in rows
                                    if r["depth_before"] and r["depth_after"]]),
            "regressions": sum(r["cnot_after"] > r["cnot_before"] or r["depth_after"] > r["depth_before"]
                               for r in rows),
        }


def print_rows(rows: list[dict]) -> None:
    print(f"{'instance':<18}{'n':>3}{'terms':>6}  {'mode':<13}{'cnot':>13}{'depth':>13}  opt.qasm sha256  outcome")
    for r in rows:
        cnot = f"{r['cnot_before']}->{r['cnot_after']}"
        depth = f"{r['depth_before']}->{r['depth_after']}"
        sha = r.get("sha256", {}).get("opt.qasm", "-")[:16]
        outcome = ",".join(f"{op}={out}" for op, out in r["outcomes"].items())
        if not r["checked"]:
            outcome += " (costed at native)"
        if r.get("check", "ok") != "ok":
            outcome += f" check={r['check']}"
        print(f"{r['instance']:<18}{r['n']:>3}{r['terms']:>6}  {r['mode']:<13}{cnot:>13}{depth:>13}  {sha:<16} {outcome}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliffex" / "cli.py").is_file():
        print(f"error: no cliffex sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliffex.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported cliffex from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import check
    import workloads
    from tracing import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        instances = workloads.build(args.workload, args.seed)
        workloads.write_inputs(instances, work)
        setup = [setup_seconds(args.workload, args.seed) for _ in range(0 if args.trace else SETUP_PROBES)]

        # A traced pass runs each command once, so that its counts do not
        # depend on how fast the commands ran.
        bench = Bench(cli, check, instances, work, 1 if args.trace else MAX_REPEATS)
        start = time.perf_counter()
        bench.run_pass()
        layer_passes, untraced_seconds, traced_seconds, traced_commands = [], [], [], []
        tracer = Tracer() if args.trace else None
        while time.perf_counter() - start < args.seconds or (tracer is not None and not layer_passes):
            untraced_seconds.append(bench.run_pass())
            if tracer is None:
                continue
            # After the first pass, which also warmed caches up, each untraced
            # pass is followed by a traced one, so that the overhead compares
            # passes run close together in time on a host whose speed drifts.
            tracer.install()
            before = tracer.snapshot()
            traced_seconds.append(bench.run_pass(traced=True))
            layer_passes.append(Tracer.layer_metrics(before, tracer.snapshot()))
            tracer.uninstall()
            traced_commands += [op for inst_ops in bench.passes[-1].values() for op in inst_ops]
        measured = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work)

    attempted, failed, reasons, broken = bench.failures()
    correct = not (bench.rejected or bench.nondeterministic or broken)
    outputs = bench.output_metrics()
    times = bench.times()
    print(f"workload {args.workload}, seed {args.seed}: {len(bench.passes)} passes, "
          f"{measured:.2f} s measured, trace {args.trace}")
    print_rows(bench.rows)
    for reason in reasons:
        print(f"failed: {reason}")

    if tracer is None:
        values = {"setup_s": statistics.median(setup), **times, **outputs, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        for k, unit in END_TO_END.items():
            print(f"{k} = {values[k]} {unit}")
        print(f"regressions = {outputs['regressions']} count (instances worse than native in CNOTs or depth)")
    else:
        overhead = 100.0 * (statistics.median(traced_seconds) / statistics.median(untraced_seconds) - 1.0)
        metrics = {
            k: {"value": (statistics.median if unit == "s" else statistics.median_low)(p[k] for p in layer_passes),
                "unit": unit}
            for k, (unit, *_) in LAYER_METRICS.items()
        }
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for k, m in metrics.items():
            print(f"{k} = {m['value']} {m['unit']}")
        attribution = tracer.attribution(traced_commands)
        for command, (seconds, shares) in attribution.items():
            parts = ", ".join(f"{module} {100 * share:.1f}%" for module, share in shares.items())
            print(f"self time under {command} ({seconds:.3f} s traced): {parts}")
        for target in tracer.missing:
            print(f"not traced (absent): {target}")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} operations failed)")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": len(bench.passes),
              "samples": {f"{name} {op}": t for (name, op), t in bench.samples.items()},
              "outputs": outputs, "rows": bench.rows, "failures": reasons, **result}
    if tracer is not None:
        record["attribution"] = attribution
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

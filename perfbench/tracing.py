"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of each cliffex module from
the outside.  A wrapped function is rebound in every ``cliffex.*`` module
that holds it, so calls made inside the package (``cli`` calling
``extract``, ``extract`` calling ``tree_synthesis``) are caught too.
Spans are kept in typed arrays in memory and written once, at exit.  A
span's self time is its duration minus the durations of its direct
child spans.

The wrapper's own work costs about 1.8 microseconds per call on a
2.1 GHz Xeon; about four fifths of it falls outside the wrapped span, in
the caller's self time.  It matters only for hot functions: the ~8*10^5
``conj_raw`` calls of a labs-large pass add about 1.4 s (roughly 12%) to
the pass, about 1.1 s of it to ``extract.self_s``.  ``trace.overhead_pct``
reports the total as measured, which host drift between passes blurs.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _terms_weight(terms) -> int:
    return sum((t.pauli.x | t.pauli.z).bit_count() for t in terms)


def _count_load(counts, args, result):
    counts["problems.terms"] += len(result.terms)


def _count_extract(counts, args, result):
    stats = result.stats
    counts["extract.blocks"] += stats["blocks"]
    counts["extract.max_block"] = max(counts["extract.max_block"], *stats["block_sizes"])
    counts["extract.reorders"] += stats["reorders"]
    counts["extract.weight_in"] += _terms_weight(args[0])
    counts["extract.weight_conj"] += sum(stats["weights"])


def _count_peephole(counts, args, result):
    counts["circuit.peephole_removed"] += len(args[0].gates) - len(result.gates)


def _count_absorb(counts, args, result):
    counts["absorb.network_cx"] += len(result.network)
    counts["absorb.h_mask"] += len(result.h_mask)


def _count_observables(counts, args, result):
    counts["absorb.observables"] += len(result)


def _count_postprocess(counts, args, result):
    counts["absorb.bitstrings"] += len(args[1].counts)


# (module, attribute, hook that records counts from the call's arguments and result)
TARGETS = (
    ("cliffex.cli", "main", None),
    ("cliffex.problems", "load_terms", _count_load),
    ("cliffex.extract", "extract", _count_extract),
    ("cliffex.extract", "convert_commute_sets", None),
    ("cliffex.extract", "tree_synthesis", None),
    ("cliffex.extract", "native_circuit", None),
    ("cliffex.tableau", "ConjugationTableau.conj_raw", None),
    ("cliffex.tableau", "ConjugationTableau.append_gate", None),
    ("cliffex.circuit", "peephole", _count_peephole),
    ("cliffex.circuit", "emit_qasm", None),
    ("cliffex.circuit", "parse_qasm", None),
    ("cliffex.circuit", "cnot_count", None),
    ("cliffex.circuit", "entangling_depth", None),
    ("cliffex.absorb", "absorb_probabilities", _count_absorb),
    ("cliffex.absorb", "absorb_observables", _count_observables),
    ("cliffex.absorb", "postprocess_counts", _count_postprocess),
    ("cliffex.oracle", "circuit_unitary", None),
    ("cliffex.oracle", "statevector", None),
)

# Per-layer metric -> (unit, how it is read from one pass of the tracer).
LAYER_METRICS = {
    "tableau.conj_calls": ("count", "calls", "cliffex.tableau.ConjugationTableau.conj_raw"),
    "tableau.conj_s": ("s", "total", "cliffex.tableau.ConjugationTableau.conj_raw"),
    "tableau.append_calls": ("count", "calls", "cliffex.tableau.ConjugationTableau.append_gate"),
    "tableau.append_s": ("s", "total", "cliffex.tableau.ConjugationTableau.append_gate"),
    "extract.self_s": ("s", "self", "cliffex.extract.extract"),
    "extract.partition_s": ("s", "total", "cliffex.extract.convert_commute_sets"),
    "extract.tree_calls": ("count", "calls", "cliffex.extract.tree_synthesis"),
    "extract.tree_s": ("s", "total", "cliffex.extract.tree_synthesis"),
    "extract.blocks": ("count", "counts", "extract.blocks"),
    "extract.max_block": ("count", "counts", "extract.max_block"),
    "extract.reorders": ("count", "counts", "extract.reorders"),
    "extract.weight_in": ("count", "counts", "extract.weight_in"),
    "extract.weight_conj": ("count", "counts", "extract.weight_conj"),
    "extract.native_s": ("s", "total", "cliffex.extract.native_circuit"),
    "circuit.peephole_s": ("s", "total", "cliffex.circuit.peephole"),
    "circuit.peephole_removed": ("count", "counts", "circuit.peephole_removed"),
    "circuit.emit_s": ("s", "total", "cliffex.circuit.emit_qasm"),
    "circuit.parse_s": ("s", "total", "cliffex.circuit.parse_qasm"),
    "circuit.metrics_s": ("s", "total", "cliffex.circuit.cnot_count", "cliffex.circuit.entangling_depth"),
    "absorb.probabilities_s": ("s", "total", "cliffex.absorb.absorb_probabilities"),
    "absorb.observables": ("count", "counts", "absorb.observables"),
    "absorb.network_cx": ("count", "counts", "absorb.network_cx"),
    "absorb.h_mask": ("count", "counts", "absorb.h_mask"),
    "absorb.postprocess_s": ("s", "total", "cliffex.absorb.postprocess_counts"),
    "absorb.bitstrings": ("count", "counts", "absorb.bitstrings"),
    "oracle.unitary_calls": ("count", "calls", "cliffex.oracle.circuit_unitary"),
    "oracle.unitary_s": ("s", "total", "cliffex.oracle.circuit_unitary"),
    "oracle.state_s": ("s", "total", "cliffex.oracle.statevector"),
    "problems.load_s": ("s", "total", "cliffex.problems.load_terms"),
    "problems.terms": ("count", "counts", "problems.terms"),
    "cli.self_s": ("s", "self", "cliffex.cli.main"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time of direct children]
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapped)

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0.0, 0.0]
        clock = time.perf_counter
        stack = self._stack
        ends = self.span_end
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, ends.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1][0] if stack else -1)
            add_end(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            add_start(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a later version of the
        program no longer has is listed in ``missing`` and reads as 0.
        The wrappers are made once and kept across ``uninstall``."""
        if not self._bindings:
            self._bind()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, fn)

    def _bind(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cliffex" or k.startswith("cliffex.")]
        for modname, attr, hook in TARGETS:
            owner = sys.modules.get(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(f"{modname}.{attr}", fn, hook)
            if len(path) > 1:
                self._bindings.append((owner, path[-1], fn, wrapped))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, key, fn, wrapped))

    def snapshot(self) -> dict:
        return {
            "calls": Counter({k: v[0] for k, v in self.stats.items()}),
            "total": Counter({k: v[1] for k, v in self.stats.items()}),
            "self": Counter({k: v[2] for k, v in self.stats.items()}),
            "counts": Counter(self.counts),
        }

    @staticmethod
    def layer_metrics(before: dict, after: dict) -> dict[str, float]:
        """Per-layer metrics of the work done between two snapshots."""
        out = {}
        for metric, (_, kind, *keys) in LAYER_METRICS.items():
            if metric == "extract.max_block":
                out[metric] = after["counts"][keys[0]]
            else:
                out[metric] = sum(after[kind][k] - before[kind][k] for k in keys)
        return out

    def attribution(self, commands: list[str]) -> dict[str, tuple[float, dict[str, float]]]:
        """Per command: (traced seconds, share of them that is self time of
        each module).  ``commands`` names the root spans (the ``cli.main``
        calls) in the order they ran; every other span belongs to the root
        before it, since calls nest."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        root = parent < 0
        if int(root.sum()) != len(commands) or (len(root) and not root[0]):
            raise ValueError(f"{int(root.sum())} root spans for {len(commands)} traced commands")
        child = np.bincount(parent[~root], weights=dur[~root], minlength=len(dur))
        labels = sorted(set(commands))
        modules = sorted({name.split(".")[1] for name in self.names})
        module_of = np.array([modules.index(name.split(".")[1]) for name in self.names], dtype=np.int64)
        command_of = np.array([labels.index(c) for c in commands], dtype=np.int64)[np.cumsum(root) - 1]
        key = command_of * len(modules) + module_of[np.frombuffer(self.span_name, dtype=np.int32)]
        self_s = np.bincount(key, weights=dur - child, minlength=len(labels) * len(modules))
        out = {}
        for c, label in enumerate(labels):
            seconds = float(dur[root][command_of[root] == c].sum())
            row = self_s[c * len(modules):(c + 1) * len(modules)] / seconds
            shares = sorted(((float(v), m) for m, v in zip(modules, row) if v > 0), reverse=True)
            out[label] = (seconds, {m: v for v, m in shares})
        return out

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

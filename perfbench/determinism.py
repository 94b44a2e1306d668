#!/usr/bin/env python3
"""Determinism check for one workload.

    python3 perfbench/determinism.py --workload labs-large --seed 0

Runs ``run.py`` for a single pass four times and compares what it wrote:

* seed S under two PYTHONHASHSEED values: identical operation counts,
  outcomes, output metrics and QASM/post-processing sha256 hashes, and
  (traced) identical per-layer counts;
* seed S+1: the instance structure is the same, so every output metric
  must be the same too; only angles, counts and values differ.

Exit 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
METRIC_KEYS = ("cnot_before", "cnot_after", "depth_before", "depth_after", "outcomes", "structure")


def run(workload: str, seed: int, trace: int, hashseed: int) -> tuple[dict, dict]:
    """(result line, record file) of a one-pass run."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        env=env, capture_output=True, text=True, check=True,
    )
    record = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    problems = []
    a, rec_a = run(args.workload, args.seed, 0, 0)
    b, rec_b = run(args.workload, args.seed, 0, 1)
    for key in ("correct", "attempted", "failed"):
        if a[key] != b[key]:
            problems.append(f"{key}: {a[key]} vs {b[key]} under another PYTHONHASHSEED")
    if rec_a["rows"] != rec_b["rows"] or rec_a["outputs"] != rec_b["outputs"]:
        problems.append("rows, output metrics or hashes differ under another PYTHONHASHSEED")

    ta, _ = run(args.workload, args.seed, 1, 0)
    tb, _ = run(args.workload, args.seed, 1, 1)
    for key, m in ta["metrics"].items():
        if m["unit"] == "count" and m["value"] != tb["metrics"][key]["value"]:
            problems.append(f"layer count {key}: {m['value']} vs {tb['metrics'][key]['value']}")

    c, rec_c = run(args.workload, args.seed + 1, 0, 0)
    if rec_a["outputs"] != rec_c["outputs"]:
        problems.append(f"output metrics differ on seed {args.seed + 1}: {rec_a['outputs']} vs {rec_c['outputs']}")
    for ra, rc in zip(rec_a["rows"], rec_c["rows"]):
        if any(ra.get(k) != rc.get(k) for k in METRIC_KEYS):
            problems.append(f"{ra['instance']}: structure or output metrics differ on seed {args.seed + 1}")
    changed = sum(ra.get("sha256") != rc.get("sha256") for ra, rc in zip(rec_a["rows"], rec_c["rows"]))

    for p in problems:
        print(f"MISMATCH {p}")
    print(f"{args.workload} seed {args.seed}: {len(rec_a['rows'])} instances, "
          f"{a['attempted']} operations ({a['failed']} failed), "
          f"{changed} instances with other bytes on seed {args.seed + 1}: "
          f"{'deterministic' if not problems else 'NOT deterministic'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the benchmark's figures for this tree in BENCH_<label>.json, beside
an A/A band from a second copy of the same sources. Run from the repository
root:

    python scripts/bench_record.py LABEL

For each workload of BENCHMARK.json it alternates

    python3 benchmark/run.py --workload W --seed SEED --seconds SECONDS --trace 0

between this tree and the copy, PAIRS times each, in the order tree/copy,
copy/tree, ... so that a drift of the host's speed falls on both sides.
Every __pycache__ under either is removed before each run. The copy is
`git archive` of HEAD in a temporary directory or, when tracked files differ
from HEAD, of the snapshot `git stash create` makes of them; untracked files
are in neither copy, so `git add` a new file before recording. After each
run the last stdout line (correct, attempted, failed and the end-to-end
metrics) and benchmark/out/results/W-seedSEED-trace0.json (raw times and the
environment) are read before the next run overwrites the file. Then one
`--trace 1` run per workload, on the tree, gives the per-layer metrics, the
sizing line and the tracer self-test's failures.

The record holds, per workload, the median and quartiles of each end-to-end
metric (paced, as the benchmark reports them, and raw) over the tree's runs
and over the copy's; correct, attempted and failed over both; and the
traced metrics. Beside them: the commit, numpy's SIMD extensions and any
OPENBLAS_* settings. A gain counts only when it lies outside the band that
the copy's runs spread over.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600
# benchmark/run.py's --seed and --seconds, and the tree/copy pairs per workload
SEED = 1
SECONDS = 5.0
PAIRS = 3


def run_figures(line: dict, result: dict) -> dict:
    """One untraced run's figures: its end-to-end metrics, the medians of its
    raw times, and its correct/attempted/failed counts."""
    figures = {name: m["value"] for name, m in line.get("metrics", {}).items()}
    setup = [s["raw_s"] for s in result.get("setup_samples", [])]
    timed = [r for r in result.get("invocations", []) if "raw_wall_s" in r]
    for name, values in (("raw_setup_s", setup),
                         ("raw_wall_s", [r["raw_wall_s"] for r in timed]),
                         ("raw_cpu_s", [r["raw_cpu_s"] for r in timed])):
        if values:
            figures[name] = statistics.median(values)
    figures.update(correct=bool(line.get("correct")), attempted=line.get("attempted", 0),
                   failed=line.get("failed", 1))
    return figures


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles, as benchmark/run.py takes them, with
    the values in run order."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": list(values)}


def aggregate(runs: list[dict], traced: dict) -> dict:
    """Per-workload record from the parsed runs. runs holds one dict per
    untraced run, in run order: workload, side ("tree" or "copy"), line (the
    parsed last stdout line) and result (the results file); traced maps a
    workload to the line and result of its --trace 1 run."""
    record: dict = {}
    for r in runs:
        sides = record.setdefault(r["workload"], {"tree": [], "copy": []})
        sides[r["side"]].append(run_figures(r["line"], r["result"]))
    out = {}
    for workload, sides in record.items():
        every = sides["tree"] + sides["copy"]
        entry = {side: {name: spread([f[name] for f in figures])
                        for name in figures[0]
                        if name not in ("correct", "attempted", "failed")
                        and all(name in f for f in figures)}
                 for side, figures in sides.items() if figures}
        entry.update(correct=all(f["correct"] for f in every),
                     attempted=sum(f["attempted"] for f in every),
                     failed=sum(f["failed"] for f in every))
        if workload in traced:
            line, result = traced[workload]["line"], traced[workload]["result"]
            entry["traced"] = {
                "correct": bool(line.get("correct")), "attempted": line.get("attempted", 0),
                "failed": line.get("failed", 1),
                "metrics": {name: m["value"] for name, m in line.get("metrics", {}).items()},
                "sizing": result.get("sizing"),
                "self_test_failures": result.get("self_test_failures")}
        out[workload] = entry
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60).stdout.strip()


def make_copy(dest: Path) -> str:
    """Unpack the tree's tracked sources into dest; returns the archived ref."""
    ref = git("stash", "create") or git("rev-parse", "HEAD")
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True,
                             check=True, timeout=120).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True, timeout=120)
    return ref


def bench(root: Path, side: str, workload: str, trace: int) -> dict:
    """One benchmark run in root: its parsed last stdout line and results file."""
    for sub in ("src", "benchmark", "scripts", "tests"):
        for cache in (root / sub).rglob("__pycache__"):
            shutil.rmtree(cache)
    # a run that writes no results file must not be read as the last one
    path = root / "benchmark" / "out" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "error": proc.stderr[-2000:]}
    result = json.loads(path.read_text()) if path.is_file() else {}
    print(f"{workload} trace={trace} {side}: "
          + (" ".join(f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()
                      if k in ("wall_s", "cpu_s", "final_objective", "optimizer.steps"))
             or f"no metrics ({line.get('error', '').strip()[-200:]})"), flush=True)
    return {"line": line, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the record is written to BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '.', '_' and '-'")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-aa-") as tmp:
        copy = Path(tmp)
        ref = make_copy(copy)
        for workload in workloads:
            for i in range(PAIRS):
                order = [("tree", ROOT), ("copy", copy)]
                for side, root in order if i % 2 == 0 else order[::-1]:
                    runs.append({"workload": workload, "side": side,
                                 **bench(root, side, workload, 0)})
            traced[workload] = bench(ROOT, "tree", workload, 1)
    env = next((r["result"]["environment"] for r in runs if r["result"].get("environment")), {})
    record = {
        "label": args.label, "commit": git("rev-parse", "HEAD"),
        "tracked_changes": ref != git("rev-parse", "HEAD"),
        "seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
        "environment": {**{k: env.get(k) for k in ("nproc", "cpu_count", "python", "platform",
                                                   "numpy", "blas", "blas_threads")},
                        "simd_extensions": np.show_config(mode="dicts")["SIMD Extensions"],
                        **{k: v for k, v in sorted(os.environ.items())
                           if k.startswith("OPENBLAS_")}},
        "workloads": aggregate(runs, traced)}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0 if all(w["correct"] and w.get("traced", {}).get("correct")
                    for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

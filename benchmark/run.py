"""latentreg benchmark: one workload per run, checked and timed.

    python3 benchmark/run.py --workload fig1-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/latentreg``. Every timed
invocation is a fresh interpreter (``benchmark/worker.py``) with empty
in-process caches, as a CLI user sees it; the package is taken from
``src/`` by ``PYTHONPATH``, so nothing is installed.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh interpreters importing latentreg; the workload then runs once
and is repeated while ``--seconds`` lasts. These times are rescaled to a
reference processor speed by a probe that runs beside the timed work
(``benchmark/pace.py``), since a shared host's speed wanders by up to 2x;
the raw times are printed and recorded next to them. ``--trace 1`` runs the
tracer self-test, then one trial of the workload untraced and the same trial
traced, and reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit. Full results, the environment and the
metric -> layer -> workload map go to ``benchmark/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))
from pace import REFERENCE_S  # noqa: E402

SETUP_CODE = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import pace; pace.setup_probe()"

# trials per timed invocation: the work of a 400-step attraction depends
# most on the seed (1,100-4,500 objective evaluations per trial at n=100), so
# fig2's runs sum twenty trials; traced runs use one trial of the same seed
TRIALS = {"fig2-battery": 20}
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0

# per-layer metric -> (layer, end-to-end metrics it should move, where)
LAYER_MAP = {
    "specfun.calls": ("specfun", "wall_s, cpu_s",
                      "most on attract-n400, partly fig1-grid, little fig2-battery, "
                      "none l2-geometry"),
    "specfun.self_s": ("specfun", "wall_s, cpu_s", "as specfun.calls"),
    "cdf_attract.table_entries": ("cdf_attract", "wall_s",
                                  "~90% of it on attract-n400, ~1 s per process on fig1-grid, "
                                  "~0.3 s on fig2-battery"),
    "cdf_attract.table_s": ("cdf_attract", "wall_s", "as cdf_attract.table_entries"),
    "cdf_attract.residual_calls": ("cdf_attract", "wall_s (final_objective must hold)",
                                   "fig2-battery"),
    "cdf_attract.residual_s": ("cdf_attract", "wall_s (final_objective must hold)",
                               "fig2-battery"),
    "cdf_attract.gradient_calls": ("cdf_attract", "wall_s", "fig2-battery"),
    "cdf_attract.gradient_s": ("cdf_attract", "wall_s", "fig2-battery"),
    "cdf_attract.self_s": ("cdf_attract", "wall_s", "fig2-battery, attract-n400"),
    "optimizer.steps": ("optimizer", "wall_s, final_objective",
                        "fig2-battery; almost nothing elsewhere"),
    "optimizer.value_evals": ("optimizer", "wall_s, final_objective", "fig2-battery"),
    "optimizer.evals_per_step": ("optimizer", "wall_s, final_objective", "fig2-battery"),
    "optimizer.halvings": ("optimizer", "wall_s, final_objective", "fig2-battery"),
    "optimizer.self_s": ("optimizer", "wall_s", "fig2-battery"),
    "optimizer.stop_tolerance": ("optimizer", "final_objective", "fig1-grid, attract-n400"),
    "optimizer.stop_max_steps": ("optimizer", "final_objective", "fig2-battery, fig1-grid"),
    "optimizer.stop_no_descent": ("optimizer", "final_objective", "fig2-battery"),
    "baselines.calls": ("baselines", "wall_s, cpu_s", "fig1-grid only"),
    "baselines.self_s": ("baselines", "wall_s, cpu_s", "fig1-grid only"),
    "stat_tests.ks_calls": ("stat_tests", "wall_s", "fig1-grid (~1.1 s per trial)"),
    "stat_tests.ks_s": ("stat_tests", "wall_s", "fig1-grid"),
    "stat_tests.self_s": ("stat_tests", "wall_s", "fig1-grid"),
    "sampling.normals": ("sampling", "wall_s", "fig1-grid (a prior sample per WAE step)"),
    "sampling.self_s": ("sampling", "wall_s", "fig1-grid"),
    "svgplot.panels": ("svgplot", "wall_s", "fig1-grid, fig2-battery"),
    "svgplot.render_s": ("svgplot", "wall_s", "fig1-grid, fig2-battery"),
    "svgplot.bytes": ("svgplot", "wall_s", "fig1-grid, fig2-battery"),
    "cli.csv_s": ("cli", "wall_s", "fig1-grid, fig2-battery"),
    "cli.self_s": ("cli", "wall_s", "fig1-grid, fig2-battery"),
    "cli.artifact_files": ("cli", "wall_s", "fig1-grid, fig2-battery"),
    "cli.artifact_bytes": ("cli", "wall_s", "fig1-grid (~6-7 MB per trial), fig2-battery"),
    "gaussian_l2.full_cov_s": ("gaussian_l2", "wall_s", "l2-geometry only"),
    "gaussian_l2.pair_integrals": ("gaussian_l2", "wall_s", "l2-geometry only"),
    "gaussian_l2.spherical_s": ("gaussian_l2", "wall_s, peak_rss_mb", "l2-geometry only"),
    "gaussian_l2.mean_field_s": ("gaussian_l2", "wall_s", "l2-geometry only"),
    "trace.overhead_s": ("trace", "none (traced wall_s - untraced wall_s)", "every workload"),
}

# the expected split of each workload, and its test on a traced run's layer
# times; a traced run reports whether it agrees
SIZING = {
    "fig2-battery": ("cdf_attract.residual_s + optimizer.self_s make up most of wall_s",
                     lambda m, self_s, wall: m["cdf_attract.residual_s"]
                     + m["optimizer.self_s"] > 0.5 * wall),
    "attract-n400": ("cdf_attract.table_s dominates wall_s",
                     lambda m, self_s, wall: m["cdf_attract.table_s"] > 0.5 * wall),
    "fig1-grid": ("baselines.self_s is the largest layer self time",
                  lambda m, self_s, wall: max(self_s, key=self_s.get) == "baselines"),
    "l2-geometry": ("gaussian_l2.full_cov_s dominates wall_s",
                    lambda m, self_s, wall: m["gaussian_l2.full_cov_s"] > 0.5 * wall),
}


def child_env() -> dict:
    """Environment of every child interpreter: the package from src/, and
    BLAS thread counts clamped to the processors this process may use."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = env.get(var, "")
        if value.isdigit() and int(value) > nproc:
            env[var] = str(nproc)
    return env


def measure_setup(env: dict) -> list[dict]:
    """Seconds from starting a fresh interpreter until latentreg is imported,
    raw and rescaled to the reference speed (``pace.py``) by probes the
    interpreter takes around the import; the probes' own time is left out."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        before, after, probes = (float(v) for v in proc.stdout.split()[-3:])
        raw = elapsed - probes
        samples.append({"raw_s": raw, "s": raw * REFERENCE_S / (0.5 * (before + after))})
    return samples


class Runner:
    """Starts worker invocations and keeps their results."""

    def __init__(self, workload: str, env: dict, started: float) -> None:
        self.workload = workload
        self.env = env
        self.started = started
        self.work = OUT / "work" / workload
        self.invocations: list[dict] = []

    def invoke(self, seed: int | None, trials: int = 1, trace: bool = False,
               selftest: bool = False, pace: bool = False) -> dict:
        result_path = self.work.parent / f"{self.workload}.result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(self.work),
               "--result", str(result_path)]
        if selftest:
            cmd += ["--selftest"]
        else:
            cmd += ["--workload", self.workload, "--seed", str(seed), "--trials", str(trials)]
        if trace:
            cmd += ["--trace"]
        if pace:
            cmd += ["--pace"]
        timeout = RUN_LIMIT_S - (time.perf_counter() - self.started)
        record = {"seed": seed, "trace": trace, "selftest": selftest}
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
            if result_path.is_file():
                record.update(json.loads(result_path.read_text()))
            else:
                record["failures"] = [f"worker exited {proc.returncode} without a result: "
                                      f"{proc.stderr[-2000:]}"]
        except subprocess.TimeoutExpired:
            record["failures"] = [f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit"]
        self.invocations.append(record)
        return record

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(runner: Runner, seed: int, trials: int, seconds: float) -> dict:
    """Repeat the invocation while --seconds lasts: at least once, and once
    more whenever at least half of another one fits."""
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        runner.invoke(seed, trials, pace=True)
        measured += time.perf_counter() - t0
        mean = measured / len(runner.invocations)
        if measured + 0.5 * mean > seconds or runner.elapsed() + mean > RUN_LIMIT_S - 10.0:
            break
    # a run whose checks failed still took its time; correct=false flags it
    timed = [r for r in runner.invocations if "wall_s" in r]
    summary = {name: quartiles([r[name] for r in timed]) if timed else None
               for name in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s")}
    # quality figures are fixed for a seed; repeats must match the first
    summary.update({key: runner.invocations[0].get(key)
                    for key in ("final_objective", "ks")})
    return summary


def check_repeats(invocations: list[dict]) -> None:
    """Every repeat of the run's invocation must write the first one's
    artifacts, byte for byte."""
    done = [r for r in invocations if not r["selftest"] and not r["failures"]]
    for r in done[1:]:
        if r["digest"] != done[0]["digest"]:
            r["failures"].append(f"artifacts differ from the first run of seed {r['seed']} "
                                 f"({r['digest'][:12]} vs {done[0]['digest'][:12]})")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def on_terminate(signum, frame):
    """SIGTERM ends the run the way Ctrl-C does, so subprocess.run kills its
    running worker and waits for it before this process exits."""
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, on_terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["per_layer"]} != set(LAYER_MAP):
        sys.stderr.write("benchmark: LAYER_MAP and the per_layer metrics of "
                         "BENCHMARK.json name different metrics\n")
        return 2
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "latentreg" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no latentreg sources under {ROOT / 'src'}\n")
        return 2

    started = time.perf_counter()
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark: importing latentreg failed: {exc}\n")
        return 2
    runner = Runner(args.workload, env, started)
    # the CLI runs trial t on seed + t, so trials never overlap between seeds
    trials = TRIALS.get(args.workload, 1)
    seed = args.seed * trials
    lines = [f"workload {args.workload}: {workloads[args.workload]}",
             f"seed {args.seed}: input seed {seed}"
             + (f", {trials} trials (seeds {seed}..{seed + trials - 1})" if trials > 1 else "")]
    report: dict = {"workload": args.workload, "why": workloads[args.workload],
                    "seed": args.seed, "input_seed": seed, "trials": trials,
                    "trace": args.trace, "setup_samples": setup}
    if args.trace:
        selftest = runner.invoke(None, selftest=True)
        ref = runner.invoke(seed)
        traced = runner.invoke(seed, trace=True)
        check_repeats(runner.invocations)
        metrics = {}
        if "wall_s" in ref and "layers" in traced:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - ref["wall_s"]
            claim, test = SIZING[args.workload]
            agrees = test(metrics, traced["layer_self_s"], traced["wall_s"])
            report["sizing"] = {"claim": claim, "agrees": agrees}
            lines.append(f"sizing: {claim}: {'agrees' if agrees else 'DOES NOT AGREE'}")
            lines.append(f"traced wall_s {traced['wall_s']:.4f} s, untraced "
                         f"{ref['wall_s']:.4f} s; final_objective "
                         f"{ref.get('final_objective')!r}, ks_pass_frac {ref.get('ks_pass_frac')!r}")
            lines.append(f"optimizer.evals_per_step base: {metrics['optimizer.value_evals']} "
                         f"value evaluations over {metrics['optimizer.steps']} steps")
        for m in spec["per_layer"]:
            if m["name"] in metrics:
                lines.append(f"{m['name']:30s} {metrics[m['name']]:.6g} {m['unit']}")
        report["self_test_failures"] = selftest["failures"]
    else:
        summary = measure(runner, seed, trials, args.seconds)
        check_repeats(runner.invocations)
        q1, q2, q3 = quartiles([sample["s"] for sample in setup])
        metrics = {"setup_s": q2}
        lines.append(f"setup_s {q2:.4f} s (median of {len(setup)}; q1 {q1:.4f}, q3 {q3:.4f}; "
                     f"raw median {statistics.median(x['raw_s'] for x in setup):.4f} s)")
        count = sum(1 for r in runner.invocations if "wall_s" in r)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            if summary[name]:
                q1, q2, q3 = summary[name]
                metrics[name] = q2
                spread = (f"median of {count}; q1 {q1:.4f}, q3 {q3:.4f}" if count > 1
                          else "one invocation")
                if name != "peak_rss_mb":
                    spread += f"; raw median {summary['raw_' + name][1]:.4f} s"
                lines.append(f"{name} {q2:.4f} {units[name]} ({spread})")
        if summary["final_objective"] is not None:
            metrics["final_objective"] = summary["final_objective"]
            lines.append(f"final_objective {summary['final_objective']!r} "
                         f"{units['final_objective']} (mean over {trials} trials)")
            ks = summary["ks"]
            if ks:
                passed = sum(1 for stat, value, band in ks if value <= band)
                lines.append(f"ks_pass_frac {passed / len(ks):.4f} 1 "
                             f"({passed} of {len(ks)} KS statistics within their q95 band)")
            else:
                lines.append("ks_pass_frac n/a (no calibrated KS band at this size)")
    failed = sum(1 for r in runner.invocations if r["failures"])
    attempted = len(runner.invocations)
    lines.append(f"fail_frac {failed / attempted:.4f} 1 ({failed} of {attempted} runs failed)")
    for r in runner.invocations:
        for failure in r["failures"]:
            lines.append(f"FAILED (seed {r['seed']}): {failure.strip()}")

    env_info = runner.invocations[0].get("env", {})
    report.update(
        environment={"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                     "python": platform.python_version(), "platform": platform.platform(),
                     "git_commit": git_commit(), **env_info},
        metrics=metrics, invocations=runner.invocations,
        layer_map={name: {"layer": layer, "moves": moves, "where": where}
                   for name, (layer, moves, where) in LAYER_MAP.items()},
        workloads=workloads)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if any(m["name"] not in metrics for m in wanted):
        print("\n".join(lines))
        sys.stderr.write("benchmark: no successful run to take metrics from\n")
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in per-layer tracing of latentreg.

The tracer wraps, from outside the package, the public functions and public
methods of each layer module, and rebinds every module namespace that holds
one of them (``cli`` and ``stat_tests`` bind ``chi2_cdf``, ``run``,
``radii_test`` ... through ``from ... import``, so patching only the
defining module would miss their calls). Nothing under ``src/`` changes.

* Each wrapped call outside ``specfun`` records a span (name, parent span,
  start, end). Spans stay in memory and are written out when the run ends.
  A layer's self time is its spans' durations minus the time of the wrapped
  calls they made.
* ``specfun`` is called about a million times per run, so its calls are
  counted and timed in aggregate: a counter per call, and one clock pair per
  outermost ``specfun`` call. The pair integrals of ``gaussian_l2``'s
  full-covariance sums are only counted; their time stays with the caller.

``uninstall`` puts every original back; ``leftover_wrappers`` lists any
``latentreg`` attribute that still points at a wrapper.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "sampling", "cdf_attract", "optimizer", "baselines",
          "stat_tests", "gaussian_l2", "svgplot", "cli")

# private helpers that carry a per-layer metric: the CLI's CSV writers and
# the pair integral of the full-covariance L2 sums; the self-test fails when
# one of them is gone, so a metric cannot silently stop counting
EXTRA_PRIVATE = {"cli": ("_write_curve_csv", "_write_histograms"),
                 "gaussian_l2": ("_log_pair_integral",)}
# wrapped calls that are counted only, without a span or a clock
COUNTED_ONLY = ("gaussian_l2._log_pair_integral",)

# whichever of these exist are timed as CSV writing (cli.csv_s)
CSV_WRITERS = ("cli._write_curve_csv", "cli._write_histograms",
               "sampling.PointCloud.to_csv", "optimizer.trace_to_csv",
               "stat_tests.EdfCurve.to_csv")

SPECFUN_COUNTED = ("specfun.chi2_cdf", "specfun.chi2_inv_cdf",
                   "specfun.normal_cdf", "specfun.normal_inv_cdf")
BASELINE_COUNTED = ("baselines.wae_mmd", "baselines.wae_mmd_gradient",
                    "baselines.cwae", "baselines.cwae_gradient")
KS_FUNCTIONS = ("stat_tests.ks_statistic", "stat_tests.ks_statistic_two_sample")
VALUE_METHODS = ("optimizer.WaeMmdObjective.value", "optimizer.CwaeObjective.value",
                 "optimizer.CdfAttractionObjective.value")

_MARK = "_latentreg_bench_wrapper"

def layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"latentreg.{layer}") for layer in LAYERS}


def wrap_targets() -> list[tuple[str, str, object, str, object]]:
    """(qualified name, layer, owner, attribute, original) for every function
    the tracer wraps: public module functions and public methods of classes
    defined in each layer module, plus the CLI's CSV writers."""
    targets = []
    for layer, mod in layer_modules().items():
        extra = EXTRA_PRIVATE.get(layer, ())
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not name.startswith("_") or name in extra):
                targets.append((f"{layer}.{name}", layer, mod, name, obj))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        targets.append((f"{layer}.{name}.{attr}", layer, obj, attr, member))
    return targets


def missing_private() -> list[str]:
    """EXTRA_PRIVATE helpers that no longer exist in their layer module."""
    mods = layer_modules()
    return [f"{layer}.{name}" for layer, names in EXTRA_PRIVATE.items()
            for name in names if not inspect.isfunction(getattr(mods[layer], name, None))]


def latentreg_modules() -> list[object]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "latentreg" or name.startswith("latentreg."))]


def leftover_wrappers() -> list[str]:
    """Names of latentreg module or class attributes that point at a wrapper."""
    found = []
    for mod in latentreg_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def _is_spherical(bandwidths) -> bool:
    # mirrors SmoothedSample.spherical: a flat sequence of scalar widths
    return np.ndim(bandwidths[0]) == 0


class Tracer:
    """Counts, times and spans of latentreg calls while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()           # wrapped calls by qualified name
        self.inclusive_s: defaultdict = defaultdict(float)  # by qualified name
        self.self_s: defaultdict = defaultdict(float)       # by layer
        self.work: Counter = Counter()            # counts read at layer boundaries
        self.work_s: defaultdict = defaultdict(float)       # times of selected calls
        self.spans: list = []                     # (name, parent index, start, end)
        self._stack: list = []                    # [span index, child seconds]
        self._hot_depth = 0
        self._patches: list = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for qual, layer, owner, attr, fn in wrap_targets():
            if layer == "specfun":
                wrapper = self._hot_wrapper(qual, fn)
            elif qual in COUNTED_ONLY:
                wrapper = self._count_wrapper(qual, fn)
            else:
                wrapper = self._span_wrapper(qual, layer, fn)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
        # rebind every module namespace that bound one of the functions
        for mod in latentreg_modules():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers -----------------------------------------------------------
    def _hot_wrapper(self, qual: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if tracer._hot_depth:
                return fn(*args, **kwargs)
            tracer._hot_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer._hot_depth = 0
                self_s["specfun"] += dur
                if stack:
                    stack[-1][1] += dur

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_wrapper(self, qual: str, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _span_wrapper(self, qual: str, layer: str, fn):
        calls, inclusive, self_s = self.calls, self.inclusive_s, self.self_s
        spans, stack = self.spans, self._stack
        before, after = self._hooks(qual)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            entry = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - entry[1]
                if stack:
                    stack[-1][1] += dur
                calls[qual] += 1
                inclusive[qual] += dur
                spans[index] = (qual, parent, t0, t1)
            if after:
                after(state, args, kwargs, result, dur)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _hooks(self, qual: str):
        """(before, after) callbacks that read work counts at a boundary."""
        work, work_s = self.work, self.work_s
        if qual in CSV_WRITERS:
            def after(state, args, kwargs, result, dur):
                work_s["cli.csv_s"] += dur
            return None, after
        if qual == "cdf_attract.chi2_quantile_table":
            def cache():
                mod = sys.modules["latentreg.cdf_attract"]
                info = getattr(getattr(mod, "_chi2_quantile_table", None), "cache_info", None)
                return info().misses if info else None

            def before(args, kwargs):
                return cache()

            def after(state, args, kwargs, result, dur):
                # without a cache every call builds its table
                if state is None or cache() > state:
                    work["cdf_attract.cold_builds"] += 1
                    work["cdf_attract.table_entries"] += len(result)
                    work_s["cdf_attract.table_s"] += dur
            return before, after
        if qual == "sampling.Rng.normal":
            def after(state, args, kwargs, result, dur):
                work["sampling.normals"] += len(result)
            return None, after
        if qual == "svgplot.render_panel":
            def after(state, args, kwargs, result, dur):
                path = args[0] if args else kwargs["path"]
                work["svgplot.bytes"] += os.path.getsize(path)
            return None, after
        if qual == "optimizer.run":
            def before(args, kwargs):
                return sum(self.calls[q] for q in VALUE_METHODS)

            def after(state, args, kwargs, result, dur):
                config = args[0] if args else kwargs["config"]
                objective = args[1] if len(args) > 1 else kwargs["objective"]
                self._record_run(config, objective, result[1],
                                 sum(self.calls[q] for q in VALUE_METHODS) - state)
            return before, after
        if qual == "gaussian_l2.l2_distance_samples":
            def after(state, args, kwargs, result, dur):
                a, b = args[0], args[1]
                if a.spherical and b.spherical:
                    work_s["gaussian_l2.spherical_s"] += dur
                else:
                    work_s["gaussian_l2.full_cov_s"] += dur
            return None, after
        if qual == "gaussian_l2.l2_distance_to_standard_gaussian":
            def after(state, args, kwargs, result, dur):
                if _is_spherical(args[1]):
                    work_s["gaussian_l2.spherical_s"] += dur
                else:
                    work_s["gaussian_l2.full_cov_s"] += dur
            return None, after
        if qual == "gaussian_l2.l2_distance_samples_isotropic":
            def after(state, args, kwargs, result, dur):
                work_s["gaussian_l2.spherical_s"] += dur
            return None, after
        if qual == "gaussian_l2.mean_field_sigma":
            def after(state, args, kwargs, result, dur):
                work_s["gaussian_l2.mean_field_s"] += dur
            return None, after
        return None, None

    def _record_run(self, config, objective, trace, value_evals: int) -> None:
        """Steps, halvings and stop reason of one optimizer.run, read from its
        returned trace, its RunConfig and the objective evaluations it made."""
        work = self.work
        rows = len(trace)
        no_descent = rows > 0 and trace[-1].alpha == 0.0
        if no_descent:
            reason = "no_descent"
        elif rows == config.max_steps:
            reason = "max_steps"
        else:
            reason = "tolerance"
        work[f"optimizer.stop_{reason}"] += 1
        work["optimizer.steps"] += rows - int(no_descent)
        if objective.deterministic:
            # per row: the pre-step value, the first candidate, one per halving;
            # a tolerance stop evaluates once more without writing a row
            work["optimizer.halvings"] += value_evals - 2 * rows - int(reason == "tolerance")

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since install."""
        calls, incl, self_s = self.calls, self.inclusive_s, self.self_s
        steps = self.work["optimizer.steps"]
        value_evals = sum(calls[q] for q in VALUE_METHODS)
        return {
            "specfun.calls": sum(calls[q] for q in SPECFUN_COUNTED),
            "specfun.self_s": self_s["specfun"],
            "cdf_attract.table_entries": self.work["cdf_attract.table_entries"],
            "cdf_attract.table_s": self.work_s["cdf_attract.table_s"],
            "cdf_attract.residual_calls": calls["cdf_attract.residual_bundle"],
            "cdf_attract.residual_s": incl["cdf_attract.residual_bundle"],
            "cdf_attract.gradient_calls": calls["cdf_attract.gradient_from_residuals"],
            "cdf_attract.gradient_s": incl["cdf_attract.gradient_from_residuals"],
            "cdf_attract.self_s": self_s["cdf_attract"],
            "optimizer.steps": steps,
            "optimizer.value_evals": value_evals,
            "optimizer.evals_per_step": value_evals / steps if steps else 0.0,
            "optimizer.halvings": self.work["optimizer.halvings"],
            "optimizer.self_s": self_s["optimizer"],
            "optimizer.stop_tolerance": self.work["optimizer.stop_tolerance"],
            "optimizer.stop_max_steps": self.work["optimizer.stop_max_steps"],
            "optimizer.stop_no_descent": self.work["optimizer.stop_no_descent"],
            "baselines.calls": sum(calls[q] for q in BASELINE_COUNTED),
            "baselines.self_s": self_s["baselines"],
            "stat_tests.ks_calls": sum(calls[q] for q in KS_FUNCTIONS),
            "stat_tests.ks_s": sum(incl[q] for q in KS_FUNCTIONS),
            "stat_tests.self_s": self_s["stat_tests"],
            "sampling.normals": self.work["sampling.normals"],
            "sampling.self_s": self_s["sampling"],
            "svgplot.panels": calls["svgplot.render_panel"],
            "svgplot.render_s": incl["svgplot.render_panel"],
            "svgplot.bytes": self.work["svgplot.bytes"],
            "cli.csv_s": self.work_s["cli.csv_s"],
            "cli.self_s": self_s["cli"],
            "gaussian_l2.full_cov_s": self.work_s["gaussian_l2.full_cov_s"],
            "gaussian_l2.pair_integrals": calls["gaussian_l2._log_pair_integral"],
            "gaussian_l2.spherical_s": self.work_s["gaussian_l2.spherical_s"],
            "gaussian_l2.mean_field_s": self.work_s["gaussian_l2.mean_field_s"],
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent index (-1 at the root), start
        and end in seconds of the perf_counter clock."""
        with open(path, "w") as fh:
            for index, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")

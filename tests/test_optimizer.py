import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from latentreg import baselines, calibration, cdf_attract, optimizer, sampling
from latentreg.cdf_attract import TargetQuantiles, build_target_quantiles, cloud_stats
from latentreg.optimizer import (
    CdfAttractionObjective,
    CwaeObjective,
    OptimizationError,
    RunConfig,
    TraceRow,
    WaeMmdObjective,
    initial_cloud,
    run,
    trace_to_csv,
)
from latentreg.sampling import PointCloud, Rng, sample_standard_normal, sample_uniform_cube


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=10, dim=2, seed=0, max_steps=0)
    for alpha0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(n=10, dim=2, seed=0, alpha0=alpha0)
    with pytest.raises(ValueError):
        RunConfig(n=10, dim=2, seed=0, schedule="exotic")
    for stall in ((0, 0.1), (2.5, 0.1), (25, 0.0), (25, 1.0), (25, float("nan"))):
        with pytest.raises(ValueError):
            RunConfig(n=10, dim=2, seed=0, stall=stall)


def test_attraction_from_perfect_cloud_stops_immediately():
    # build the target tables from the init cloud itself: objective 0 < tol
    config = RunConfig(n=12, dim=3, seed=9, max_steps=100, alpha0=0.5,
                       schedule="proportional_to_objective", stop_tolerance=1e-9)
    init = initial_cloud(config)
    assert np.array_equal(init.data, sample_uniform_cube(Rng(9), 12, 3, -1.0, 1.0).data)
    targets = TargetQuantiles(*map(np.sort, cloud_stats(init)))
    final, trace = run(config, CdfAttractionObjective(targets))
    assert trace == []
    assert np.array_equal(final.data, init.data)


def test_cwae_accepted_sequence_monotone():
    config = RunConfig(n=60, dim=20, seed=3, max_steps=150, alpha0=50.0)
    _, trace = run(config, CwaeObjective())
    objs = [r.objective for r in trace]
    assert len(objs) > 10
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_backtracking_keeps_monotonicity_under_huge_alpha():
    config = RunConfig(n=40, dim=20, seed=4, max_steps=60, alpha0=1e6)
    _, trace = run(config, CwaeObjective())
    objs = [r.objective for r in trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_wae_mmd_noisy_but_windowed_means_decrease():
    # resampling makes single steps noisy; 100-step window means still slide
    # down across the first 2100 steps (lag-5 window comparison)
    config = RunConfig(n=100, dim=20, seed=5, max_steps=2100, alpha0=2.0)
    _, trace = run(config, WaeMmdObjective(Rng(5).derive(1)))
    objs = np.array([r.objective for r in trace])
    assert np.any(np.diff(objs) > 0)  # genuinely noisy
    means = objs.reshape(21, 100).mean(1)
    assert all(means[k + 5] < means[k] for k in range(16))


def test_attraction_run_reaches_stop_tolerance():
    targets = build_target_quantiles(200, 20)
    config = RunConfig(n=200, dim=20, seed=11, max_steps=5000,
                       alpha0=calibration.ATTRACT_ALPHA0,
                       schedule="proportional_to_objective",
                       stop_tolerance=calibration.ATTRACT_STOP_TOLERANCE)
    final, trace = run(config, CdfAttractionObjective(targets))
    assert len(trace) < 200
    from latentreg.cdf_attract import cdf_objective
    assert cdf_objective(final, targets) < calibration.ATTRACT_STOP_TOLERANCE


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tolerance_run_at_n400_takes_full_steps_to_the_tolerance(seed):
    # ATTRACT_ALPHA0 is the step constant of the tolerance-stopped runs: at
    # attract-n400's scale it never halves a step and reaches the tolerance
    # in about 14 steps, where alpha0 = 0.2 took about 28
    config = RunConfig(n=400, dim=20, seed=seed, max_steps=200,
                       alpha0=calibration.ATTRACT_ALPHA0,
                       schedule="proportional_to_objective",
                       stop_tolerance=calibration.ATTRACT_STOP_TOLERANCE)
    _, trace = run(config, CdfAttractionObjective(build_target_quantiles(400, 20)))
    assert 0 < len(trace) <= 16
    assert all(row.alpha == config.alpha0 * row.objective for row in trace)


class _CountedAttraction(CdfAttractionObjective):
    evals = 0

    def value(self, x):
        self.evals += 1
        return super().value(x)


_STALL = (25, 1e-3)


def _stall_runs():
    # the same attraction run with the stall rule, without it, and without it
    # cut at the stalled run's row count k
    targets = build_target_quantiles(16, 3)
    config = RunConfig(n=16, dim=3, seed=5, max_steps=400,
                       alpha0=calibration.ATTRACT_STALL_ALPHA0,
                       schedule="proportional_to_objective", stall=_STALL)
    stalled = _CountedAttraction(targets)
    final, trace = run(config, stalled)
    config.stall = None
    _, full_trace = run(config, CdfAttractionObjective(targets))
    config.max_steps = len(trace)
    cut = _CountedAttraction(targets)
    cut_final, cut_trace = run(config, cut)
    return (final, trace, stalled.evals), full_trace, (cut_final, cut_trace, cut.evals)


def test_stalled_run_is_a_prefix_of_the_run_without_the_rule():
    (final, trace, _), full_trace, (cut_final, cut_trace, _) = _stall_runs()
    k = len(trace)
    assert 0 < k < len(full_trace)
    assert all(row.alpha > 0.0 for row in trace)
    assert _trace_bits(trace) == _trace_bits(full_trace[:k])
    assert _trace_bits(cut_trace) == _trace_bits(trace)
    assert final.data.tobytes() == cut_final.data.tobytes()
    # it stops at the first step start whose objective is less than f below
    # the one W accepted steps earlier
    window, fraction = _STALL
    objs = [row.objective for row in full_trace]
    stalls = [s for s in range(window, len(objs))
              if objs[s - window] - objs[s] < fraction * objs[s - window]]
    assert stalls[0] == k


def test_stalled_run_makes_one_value_call_after_its_last_row():
    (_, _, evals), _, (_, _, cut_evals) = _stall_runs()
    # the cut run ends after its last row; the stalled one values its cloud
    # once more at the next step start
    assert evals == cut_evals + 1


def test_negative_objective_run_stalls():
    # CWAE's objective is negative, so the fall is compared with the
    # magnitude of the value W accepted steps earlier
    def cwae_trace(stall):
        config = RunConfig(n=50, dim=10, seed=1, max_steps=400, alpha0=20.0, stall=stall)
        return run(config, CwaeObjective())[1]

    trace, full_trace = cwae_trace(_STALL), cwae_trace(None)
    k = len(trace)
    assert len(full_trace) == 400 and full_trace[-1].objective < 0.0
    assert 0 < k < 400
    assert _trace_bits(trace) == _trace_bits(full_trace[:k])
    window, fraction = _STALL
    objs = [row.objective for row in full_trace]
    stalls = [s for s in range(window, len(objs))
              if objs[s - window] - objs[s] < fraction * abs(objs[s - window])]
    assert stalls[0] == k


def test_stochastic_objective_ignores_the_stall_rule():
    config = RunConfig(n=10, dim=2, seed=3, max_steps=6, alpha0=2.0, stall=(1, 0.99))
    _, trace = run(config, WaeMmdObjective(Rng(3).derive(1)))
    assert len(trace) == 6


def test_identical_configs_give_identical_trace_bytes(tmp_path):
    def one(path):
        config = RunConfig(n=30, dim=5, seed=21, max_steps=40, alpha0=1.0,
                           schedule="proportional_to_objective")
        _, trace = run(config, CdfAttractionObjective(build_target_quantiles(30, 5)))
        trace_to_csv(trace, path)
        return path.read_bytes()

    assert one(tmp_path / "a.csv") == one(tmp_path / "b.csv")


def test_trace_csv_columns(tmp_path):
    # the extras follow the attraction's TRACE_KEYS, whatever order the rows
    # hold them in
    rows = [TraceRow(0, 1.5, 0.25, 3.25, {"radii_term": 1.0, "distance_term": 0.5})]
    plain = tmp_path / "plain.csv"
    trace_to_csv(rows, plain)
    assert plain.read_text().splitlines() == [
        "step,objective,alpha,distance_term,radii_term", "0,1.5,0.25,0.5,1"]


def test_trace_csv_is_per_row_formatted_across_a_chunk(tmp_path):
    keys = CdfAttractionObjective.TRACE_KEYS
    chunk = sampling._TABLE_FIELDS // (3 + len(keys))  # rows a chunk
    values = np.random.default_rng(8).normal(scale=1e5, size=(chunk + 1, 4)).tolist()
    rows = [TraceRow(k, a, b, 0.0, dict(zip(keys, extras)))
            for k, (a, b, *extras) in enumerate(values)]
    path = tmp_path / "trace.csv"
    trace_to_csv(rows, path)
    expected = "".join(",".join([str(r.step), "%.17g" % r.objective, "%.17g" % r.alpha,
                                 *("%.17g" % r.extras[k] for k in keys)]) + "\n" for r in rows)
    assert path.read_bytes() == ("step,objective,alpha," + ",".join(keys) + "\n" + expected).encode()


def test_trace_csv_names_the_objective_columns_without_rows(tmp_path):
    # a run that stops at its first step start writes no row; the header
    # still carries the attraction's extras, in the rows' column order, as
    # run reads them after a step start's value
    objective = CdfAttractionObjective(build_target_quantiles(4, 2))
    objective.value(sample_uniform_cube(Rng(1), 4, 2, -1.0, 1.0))
    assert list(CdfAttractionObjective.TRACE_KEYS) == sorted(objective.trace_extras())
    path = tmp_path / "empty.csv"
    trace_to_csv([], path)
    assert path.read_text() == "step,objective,alpha,distance_term,radii_term\n"


def test_attraction_trace_extras_are_the_terms_of_the_cloud_last_valued():
    # run reads the extras right after a step start's value: they are that
    # cloud's two terms, whichever clouds were valued before it
    targets = build_target_quantiles(12, 3)
    objective = CdfAttractionObjective(targets)
    rng = Rng(14)
    x1, x2 = (PointCloud(rng.normal(12 * 3).reshape(12, 3)) for _ in range(2))
    for x in (x1, x2, x1):
        objective.value(x)
        term_r, term_d = cdf_attract.value_terms(cloud_stats(x), targets)
        assert objective.trace_extras() == {"radii_term": term_r, "distance_term": term_d}


@pytest.mark.parametrize("cls", [WaeMmdObjective, CwaeObjective, CdfAttractionObjective],
                         ids=lambda cls: cls.__name__)
def test_each_objective_defines_the_methods_the_benchmark_counts(cls):
    # the benchmark's tracer wraps only the methods a public class defines
    # itself, and reads value evaluations and halvings from value calls: a
    # value or gradient inherited from the shared base would count as none
    assert "value" in vars(cls) and "gradient" in vars(cls)


class _NanGradientObjective:
    deterministic = True

    def value(self, x):
        return 1.0

    def gradient(self, x):
        g = np.zeros_like(x.data)
        g[0, 0] = np.nan
        return g

    def trace_extras(self):
        return {}


class _NanValueObjective(_NanGradientObjective):
    def __init__(self):
        self.calls = 0

    def value(self, x):
        self.calls += 1
        return np.nan if self.calls > 3 else 1.0

    def gradient(self, x):
        return np.zeros_like(x.data)


def test_non_finite_gradient_aborts_with_step_index():
    config = RunConfig(n=5, dim=2, seed=1, max_steps=10, alpha0=0.1)
    with pytest.raises(OptimizationError) as err:
        run(config, _NanGradientObjective())
    assert err.value.step == 0
    assert "step 0" in str(err.value)


def test_non_finite_value_aborts_with_step_index():
    config = RunConfig(n=5, dim=2, seed=1, max_steps=10, alpha0=0.0001)
    with pytest.raises(OptimizationError) as err:
        run(config, _NanValueObjective())
    assert err.value.step >= 1


def _trace_bits(trace):
    return [(row.step, row.objective.hex(), row.alpha.hex(),
             sorted((k, v.hex()) for k, v in row.extras.items())) for row in trace]


def test_reused_sort_orders_leave_the_run_unchanged(monkeypatch):
    # the ranked pass may keep a default-kind sort order; the run must be the
    # one a plain stable sort gives
    config = RunConfig(n=16, dim=3, seed=6, max_steps=60, alpha0=1.0)
    targets = build_target_quantiles(16, 3)
    final, trace = run(config, CdfAttractionObjective(targets))
    stable_sorts = []

    def stable_ranked(values):
        stable_sorts.append(1)
        order = np.argsort(values, kind="stable")
        return order, values[order]

    monkeypatch.setattr(cdf_attract, "_ranked", stable_ranked)
    stable_final, stable_trace = run(config, CdfAttractionObjective(targets))
    assert len(trace) == 60
    assert any(row.alpha < config.alpha0 for row in trace)  # some halvings
    # two ranked sorts per gradient; candidates are not ranked
    assert len(stable_sorts) == 2 * 60
    assert _trace_bits(trace) == _trace_bits(stable_trace)
    assert final.data.tobytes() == stable_final.data.tobytes()


def test_attraction_ranks_only_the_clouds_whose_gradient_is_taken(monkeypatch):
    ranked_sorts, values, gradients = [], [], []
    ranked = cdf_attract._ranked

    def counting_ranked(stat_values):
        ranked_sorts.append(1)
        return ranked(stat_values)

    monkeypatch.setattr(cdf_attract, "_ranked", counting_ranked)
    objective = CdfAttractionObjective(build_target_quantiles(16, 3))
    value, gradient = objective.value, objective.gradient
    objective.value = lambda x: values.append(x) or value(x)
    objective.gradient = lambda x: gradients.append(x) or gradient(x)
    config = RunConfig(n=16, dim=3, seed=6, max_steps=60, alpha0=1.0)
    _, trace = run(config, objective)
    assert any(row.alpha < config.alpha0 for row in trace)  # rejected candidates
    # each row asks for its start value and one value per candidate
    assert len(values) > 2 * len(trace)
    assert len(gradients) == len(trace)
    # two statistics, one ranked sort each, per gradient
    assert len(ranked_sorts) == 2 * len(gradients)


def _counting_sq_dists(monkeypatch):
    calls = []
    sq_dists = baselines._sq_dists

    def counting(*args, **kwargs):
        calls.append(1)
        return sq_dists(*args, **kwargs)

    monkeypatch.setattr(baselines, "_sq_dists", counting)
    return calls


def _evaluated_candidates(trace, alpha0):
    # each row evaluates its first candidate and one per halving; alpha 0
    # marks a row that used up every halving
    return sum(1 + (optimizer._MAX_HALVINGS if row.alpha == 0.0 else
                    round(math.log2(alpha0 / row.alpha))) for row in trace)


def test_cwae_run_builds_one_distance_matrix_per_evaluated_cloud(monkeypatch):
    calls = _counting_sq_dists(monkeypatch)
    objective = CwaeObjective()
    requests = []
    value = objective.value
    objective.value = lambda x: requests.append(x) or value(x)
    config = RunConfig(n=40, dim=20, seed=4, max_steps=60, alpha0=1e6)
    _, trace = run(config, objective)
    candidates = _evaluated_candidates(trace, config.alpha0)
    assert candidates > 2 * len(trace)  # the line search halves
    assert len(calls) == 1 + candidates
    # the step-start request for the accepted candidate is served from the memo
    assert len(requests) == len(trace) + candidates


def test_cwae_run_takes_one_root_pass_per_evaluated_cloud(monkeypatch):
    roots = []
    cwae_roots = baselines.cwae_roots
    monkeypatch.setattr(baselines, "cwae_roots",
                        lambda *args: roots.append(1) or cwae_roots(*args))
    objective = CwaeObjective()
    in_gradient = []
    gradient = objective.gradient

    def counted_gradient(x):
        before = len(roots)
        result = gradient(x)
        in_gradient.append(len(roots) - before)
        return result

    objective.gradient = counted_gradient
    config = RunConfig(n=40, dim=20, seed=4, max_steps=60, alpha0=1e6)
    _, trace = run(config, objective)
    candidates = _evaluated_candidates(trace, config.alpha0)
    assert candidates > 2 * len(trace)
    assert len(roots) == 1 + candidates
    # every gradient reuses its cloud's roots
    assert len(in_gradient) == len(trace) and not any(in_gradient)


def test_wae_mmd_run_builds_two_distance_matrices_per_step(monkeypatch):
    calls = _counting_sq_dists(monkeypatch)
    config = RunConfig(n=20, dim=4, seed=7, max_steps=25, alpha0=2.0)
    _, trace = run(config, WaeMmdObjective(Rng(7).derive(1)))
    assert len(trace) == 25
    assert len(calls) == 2 * 25


def test_wae_mmd_new_prior_sample_clears_the_memo():
    # a new cloud object, even of the same points, draws the next prior
    # sample and is valued against it, not against the last cloud's kernels
    objective, prior = WaeMmdObjective(Rng(7).derive(1)), Rng(7).derive(1)
    data = sample_uniform_cube(Rng(7), 20, 4, -1.0, 1.0).data
    for _ in range(2):
        x = PointCloud(data)
        z_tilde = sample_standard_normal(prior, x.n, x.dim)
        assert objective.value(x) == baselines.wae_mmd(
            baselines.kernel_matrix(x, x), baselines.kernel_matrix(x, z_tilde))


def _counting_prior_draws(monkeypatch):
    draws = []
    monkeypatch.setattr(optimizer, "sample_standard_normal",
                        _recorded(draws, optimizer.sample_standard_normal))
    return draws


def test_wae_mmd_draws_one_prior_sample_per_new_cloud(monkeypatch):
    draws = _counting_prior_draws(monkeypatch)
    objective = WaeMmdObjective(Rng(7).derive(1))
    rng = Rng(13)
    x1, x2 = (PointCloud(rng.normal(20 * 4).reshape(20, 4)) for _ in range(2))
    # value, gradient and value again of one cloud share its draw; x1 after
    # x2 is a new cloud again, since the memo keeps only the last one
    counts = []
    for method, x in (("value", x1), ("gradient", x1), ("value", x1), ("value", x2),
                      ("gradient", x2), ("gradient", x1), ("value", x1)):
        getattr(objective, method)(x)
        counts.append(len(draws))
    assert counts == [1, 1, 1, 2, 2, 3, 3]


def test_wae_mmd_run_draws_one_prior_sample_per_step(monkeypatch):
    draws = _counting_prior_draws(monkeypatch)
    config = RunConfig(n=20, dim=4, seed=7, max_steps=12, alpha0=2.0)
    _, trace = run(config, WaeMmdObjective(Rng(7).derive(1)))
    assert len(trace) == 12
    assert len(draws) == 12


def _recorded(record, fn):
    # fn, appending its first argument to record on every call
    def recorded(*args, **kwargs):
        record.append(args[0])
        return fn(*args, **kwargs)
    return recorded


def _ids(objects):
    return [id(x) for x in objects]


def test_baseline_objectives_reach_the_public_baselines_functions(monkeypatch):
    # every value and every gradient of a WAE-MMD or CWAE descent goes through
    # the baselines' public names, the only ones the benchmark's tracer wraps;
    # every recorded cloud stays referenced, so its id is its own
    names = ("kernel_matrix", "wae_mmd", "wae_mmd_gradient", "cwae_roots", "cwae",
             "cwae_gradient")
    calls = {name: [] for name in names}
    for name in names:
        monkeypatch.setattr(baselines, name, _recorded(calls[name], getattr(baselines, name)))

    def observed(objective):
        seen = {"value": [], "gradient": []}
        for method, record in seen.items():
            setattr(objective, method, _recorded(record, getattr(objective, method)))
        return objective, seen

    objective, seen = observed(CwaeObjective())
    _, trace = run(RunConfig(n=40, dim=20, seed=4, max_steps=30, alpha0=1e6), objective)
    assert len(seen["value"]) > 2 * len(trace) > 0  # the line search halves
    evaluated = {id(x) for x in seen["value"]}
    assert set(_ids(calls["cwae_roots"])) == set(_ids(calls["cwae"])) == evaluated
    assert len(calls["cwae"]) == len(evaluated)
    assert _ids(calls["cwae_gradient"]) == _ids(seen["gradient"])
    assert not calls["kernel_matrix"] and not calls["wae_mmd"]

    objective, seen = observed(WaeMmdObjective(Rng(7).derive(1)))
    _, trace = run(RunConfig(n=20, dim=4, seed=7, max_steps=12, alpha0=2.0), objective)
    assert len(trace) == len(seen["value"]) == len(calls["wae_mmd"]) == 12
    assert _ids(calls["kernel_matrix"]) == [id(x) for x in seen["value"] for _ in "zt"]
    assert _ids(calls["wae_mmd_gradient"]) == _ids(seen["gradient"]) == _ids(seen["value"])


class _DirectCwaeObjective(CwaeObjective):
    """CWAE on fresh roots for every call, without memo or buffers."""

    def value(self, x):
        return baselines.cwae(x, baselines.cwae_roots(x))

    def gradient(self, x):
        return baselines.cwae_gradient(x, baselines.cwae_roots(x))


class _DirectWaeMmdObjective(WaeMmdObjective):
    """WAE-MMD on fresh kernel matrices for every call, without buffers; the
    memo keeps only each new cloud's prior sample."""

    def _derive(self, x):
        return sample_standard_normal(self.prior_rng, x.n, x.dim)

    def value(self, x):
        z_tilde = self._derived(x)
        return baselines.wae_mmd(baselines.kernel_matrix(x, x), baselines.kernel_matrix(x, z_tilde))

    def gradient(self, x):
        z_tilde = self._derived(x)
        return baselines.wae_mmd_gradient(x, z_tilde, baselines.kernel_matrix(x, x),
                                          baselines.kernel_matrix(x, z_tilde))


@pytest.mark.parametrize("alpha0", [50.0, 1e6])
def test_cwae_memo_leaves_the_run_unchanged(alpha0):
    config = RunConfig(n=40, dim=20, seed=4, max_steps=60, alpha0=alpha0)
    direct_final, direct_trace = run(config, _DirectCwaeObjective())
    final, trace = run(config, CwaeObjective())
    assert _trace_bits(trace) == _trace_bits(direct_trace)
    assert final.data.tobytes() == direct_final.data.tobytes()


def test_wae_mmd_memo_leaves_the_run_unchanged():
    config = RunConfig(n=30, dim=5, seed=8, max_steps=50, alpha0=2.0)
    direct_final, direct_trace = run(
        config, _DirectWaeMmdObjective(Rng(8).derive(1)))
    final, trace = run(config, WaeMmdObjective(Rng(8).derive(1)))
    assert _trace_bits(trace) == _trace_bits(direct_trace)
    assert final.data.tobytes() == direct_final.data.tobytes()


_BUFFERED_AND_DIRECT = {
    "cwae": (CwaeObjective, _DirectCwaeObjective),
    "wae_mmd_imq": (lambda: WaeMmdObjective(Rng(3).derive(1)),
                    lambda: _DirectWaeMmdObjective(Rng(3).derive(1))),
}


@pytest.mark.parametrize("kind", sorted(_BUFFERED_AND_DIRECT))
def test_buffered_objectives_equal_the_public_functions_bit_for_bit(kind):
    make, make_direct = _BUFFERED_AND_DIRECT[kind]
    objective, direct = make(), make_direct()
    rng = Rng(11)
    x1, x2, x3 = (PointCloud(0.5 * rng.normal(30 * 6).reshape(30, 6)) for _ in range(3))
    x1_again = PointCloud(x1.data)
    # revisits after another cloud overwrote the buffers, and a new cloud
    # object of x1's points (a new prior sample for WAE-MMD) between them
    calls = [("value", x1), ("value", x2), ("gradient", x1), ("gradient", x2),
             ("value", x1), ("value", x1_again), ("gradient", x1_again), ("value", x1),
             ("gradient", x3), ("value", x3), ("gradient", x2), ("value", x2)]
    for step, (method, x) in enumerate(calls):
        got, want = getattr(objective, method)(x), getattr(direct, method)(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (step, method)


@pytest.mark.parametrize("kind", sorted(_BUFFERED_AND_DIRECT))
def test_one_objective_serves_clouds_of_any_shape(kind):
    # n and D come from each cloud, so the buffers are re-sized for the
    # (40, 3) cloud and again for the (30, 6) one
    make, make_direct = _BUFFERED_AND_DIRECT[kind]
    objective, direct = make(), make_direct()
    rng = Rng(12)
    x1 = PointCloud(0.5 * rng.normal(30 * 6).reshape(30, 6))
    x2 = PointCloud(0.5 * rng.normal(40 * 3).reshape(40, 3))
    for step, x in enumerate((x1, x2, x1)):
        for method in ("value", "gradient"):
            got, want = getattr(objective, method)(x), getattr(direct, method)(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (step, method)


@pytest.mark.parametrize("make", [
    lambda: CwaeObjective(),
    lambda: WaeMmdObjective(Rng(5).derive(1)),
], ids=["cwae", "wae_mmd"])
def test_steady_state_steps_allocate_no_square_matrix(make):
    n, dim = 200, 20
    objective = make()
    peaks, growth = [], []

    def measured(method, *args):
        # the traced peak so far, and how far this call rises above what
        # was live before it: an (n, n) temporary alone rises n*n*8 bytes
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        result = getattr(objective, method)(*args)
        growth.append(tracemalloc.get_traced_memory()[1] - current)
        return result

    def step(x):
        # a run's step: start value, gradient, one line-search candidate
        measured("value", x)
        candidate = PointCloud(x.data - 1e-3 * measured("gradient", x))
        measured("value", candidate)
        return candidate

    x = step(sample_uniform_cube(Rng(5), n, dim, -1.0, 1.0))  # allocates the buffers
    peaks.clear()
    growth.clear()
    tracemalloc.start()
    try:
        for _ in range(3):
            x = step(x)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(growth) == 9
    assert max(peaks) < 2 * n * n * 8
    assert max(growth) < n * n * 8


@pytest.mark.parametrize("make", [
    lambda: CwaeObjective(),
    lambda: WaeMmdObjective(Rng(2).derive(1)),
    lambda: CdfAttractionObjective(build_target_quantiles(12, 3)),
])
def test_objective_and_its_memo_free_without_the_cycle_collector(make):
    # the memo's matrices go with the objective, not at some later collection
    objective = make()
    run(RunConfig(n=12, dim=3, seed=2, max_steps=3, alpha0=0.1), objective)
    gone = weakref.ref(objective)
    gc.disable()
    try:
        del objective
        assert gone() is None
    finally:
        gc.enable()

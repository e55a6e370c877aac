import importlib.util
from pathlib import Path

import pytest

from latentreg import calibration
from latentreg.cli import main
from latentreg.sampling import PointCloud, Rng, sample_standard_normal

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# the calibration.py constants that scripts/calibrate_constants.py measures
MEASURED = ("DBAR_MEDIAN", "ATTRACT_STOP_TOLERANCE", "RADII_KS_MEDIAN", "RADII_KS_Q95",
            "DISTANCE_KS_Q95", "PROJECTION_KS_Q95",
            "SCALAR_KS2_Q95", "ANGLE_KS2_Q95")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep_alpha0", "calibrate_constants", "bench_record"])
def test_script_imports_resolve(name):
    # executing the module runs its imports from latentreg; main() is guarded
    assert callable(load_script(name).main)


def test_calibration_check_flags_drift_beyond_tolerance(capsys):
    module = load_script("calibrate_constants")

    values = {"DIM": calibration.DIM, "DBAR_MEDIAN": calibration.DBAR_MEDIAN}
    assert module.check(values) == 0
    values["DBAR_MEDIAN"] *= 1.0 + 0.9 * module.CHECK_RTOL
    assert module.check(values) == 0
    values["DBAR_MEDIAN"] = calibration.DBAR_MEDIAN * (1.0 + 2.0 * module.CHECK_RTOL)
    assert module.check(values) == 1
    assert "DBAR_MEDIAN" in capsys.readouterr().out.splitlines()[-2]


def test_calibration_rewrite_sets_only_the_measured_lines():
    module = load_script("calibrate_constants")
    module.TRIALS = 3  # the names, not the values, are checked here
    assert sorted(module.constants()) == sorted(MEASURED)
    rewrite = module.rewrite
    text = Path(calibration.__file__).read_text()
    committed = {name: getattr(calibration, name) for name in MEASURED}
    assert rewrite(text, committed) == text
    changed = rewrite(text, {**committed, "SCALAR_KS2_Q95": 0.5})
    old_lines, new_lines = text.splitlines(keepends=True), changed.splitlines(keepends=True)
    assert len(new_lines) == len(old_lines)
    assert [(a, b) for a, b in zip(old_lines, new_lines) if a != b] == [
        (f"SCALAR_KS2_Q95 = {calibration.SCALAR_KS2_Q95!r}\n", "SCALAR_KS2_Q95 = 0.5\n")]


@pytest.mark.parametrize("text", ["N = 200\n", "N = 200\nDBAR_MEDIAN = 1.0\nDBAR_MEDIAN = 2.0\n",
                                  "# DBAR_MEDIAN = 1.0\n", "XDBAR_MEDIAN = 1.0\n"])
def test_calibration_rewrite_needs_exactly_one_line_per_name(text):
    with pytest.raises(ValueError, match="DBAR_MEDIAN"):
        load_script("calibrate_constants").rewrite(text, {"DBAR_MEDIAN": 0.5})


@pytest.mark.parametrize("seed", [1, 2])
def test_battery_pass_agrees_with_the_fig2_summary(tmp_path, seed):
    # _battery_pass is criterion 6's check on one cloud: all three KS
    # distances inside their bands, as the pass flags of fig2's summary say.
    # Seed 1's iid cloud passes all three and its one-step attraction cloud
    # fails two; seed 2's iid cloud fails the angle band alone
    n, dim = calibration.N, calibration.DIM
    out = tmp_path / "fig2"
    assert main(["fig2", "--n", str(n), "--dim", str(dim), "--trials", "1", "--steps", "1",
                 "--seed", str(seed), "--out", str(out)]) == 0
    flags = {}
    for row in (out / "fig2_summary.csv").read_text().splitlines()[1:]:
        side, _, _, _, _, ok = row.split(",")
        flags.setdefault(side, []).append(ok == "1")
    clouds = {"iid": sample_standard_normal(Rng(seed).derive(4), n, dim),
              "attract": PointCloud.from_csv(out / "fig2_attract_trial00_cloud.csv")}
    battery_pass = load_script("sweep_alpha0")._battery_pass
    for side, cloud in clouds.items():
        assert len(flags[side]) == 3
        assert battery_pass(cloud, seed) == all(flags[side]), side


def _canned_run(workload, side, wall_s, raw_wall_s, correct=True):
    # the parsed last stdout line and results file of one untraced run
    line = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {"setup_s": {"value": 0.1, "unit": "s"},
                        "wall_s": {"value": wall_s, "unit": "s"},
                        "final_objective": {"value": 1.5, "unit": "1"}}}
    result = {"setup_samples": [{"s": 0.1, "raw_s": r} for r in (0.2, 0.4, 0.3)],
              "invocations": [{"raw_wall_s": r, "raw_cpu_s": 2 * r} for r in raw_wall_s]
              + [{"selftest": False, "failures": ["no timing"]}]}
    return {"workload": workload, "side": side, "line": line, "result": result}


def test_bench_record_aggregates_each_side_of_each_workload():
    module = load_script("bench_record")
    runs = [_canned_run("attract-n400", "tree", 0.10, [0.2, 0.4]),
            _canned_run("attract-n400", "copy", 0.14, [0.3]),
            _canned_run("attract-n400", "copy", 0.12, [0.5]),
            _canned_run("attract-n400", "tree", 0.11, [0.1, 0.3, 0.2]),
            _canned_run("attract-n400", "tree", 0.30, [0.9]),
            _canned_run("l2-geometry", "tree", 0.2, [0.2], correct=False),
            _canned_run("l2-geometry", "copy", 0.2, [0.2])]
    traced = {"attract-n400": {
        "line": {"correct": True, "attempted": 3, "failed": 0,
                 "metrics": {"optimizer.steps": {"value": 14, "unit": "count"}}},
        "result": {"sizing": {"claim": "c", "agrees": False}, "self_test_failures": []}}}
    record = module.aggregate(runs, traced)
    attract = record["attract-n400"]
    tree_wall = attract["tree"]["wall_s"]
    assert tree_wall["runs"] == [0.10, 0.11, 0.30]
    assert (tree_wall["q1"], tree_wall["median"], tree_wall["q3"]) == pytest.approx(
        (0.105, 0.11, 0.205))
    assert attract["copy"]["wall_s"]["median"] == pytest.approx(0.13)
    assert attract["copy"]["wall_s"]["runs"] == [0.14, 0.12]
    # raw times: the median over each run's timed invocations, then the spread
    assert attract["tree"]["raw_wall_s"]["runs"] == pytest.approx([0.3, 0.2, 0.9])
    assert attract["tree"]["raw_cpu_s"]["median"] == pytest.approx(0.6)
    assert attract["tree"]["raw_setup_s"]["runs"] == [0.3, 0.3, 0.3]
    assert attract["tree"]["final_objective"]["median"] == 1.5
    assert "correct" not in attract["tree"]
    assert (attract["correct"], attract["attempted"], attract["failed"]) == (True, 15, 0)
    assert attract["traced"] == {"correct": True, "attempted": 3, "failed": 0,
                                 "metrics": {"optimizer.steps": 14},
                                 "sizing": {"claim": "c", "agrees": False},
                                 "self_test_failures": []}
    l2 = record["l2-geometry"]
    assert (l2["correct"], l2["attempted"], l2["failed"]) == (False, 6, 1)
    assert "traced" not in l2


def test_bench_record_counts_a_run_without_output_as_failed():
    module = load_script("bench_record")
    figures = module.run_figures({"correct": False, "attempted": 0, "failed": 1,
                                  "metrics": {}, "error": "boom"}, {})
    assert figures == {"correct": False, "attempted": 0, "failed": 1}
    record = module.aggregate([{"workload": "w", "side": "tree", "line": {}, "result": {}}], {})
    assert record["w"] == {"tree": {}, "correct": False, "attempted": 0, "failed": 1}

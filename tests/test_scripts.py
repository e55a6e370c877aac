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


@pytest.mark.parametrize("name", ["sweep_alpha0", "calibrate_constants"])
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

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["sweep_alpha0", "calibrate_constants"])
def test_script_imports_resolve(name):
    # executing the module runs its imports from latentreg; main() is guarded
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_calibration_check_flags_drift_beyond_tolerance(capsys):
    spec = importlib.util.spec_from_file_location("calibrate_constants",
                                                  SCRIPTS / "calibrate_constants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from latentreg import calibration

    values = {"DIM": calibration.DIM, "DBAR_MEDIAN": calibration.DBAR_MEDIAN}
    assert module.check(values) == 0
    values["DBAR_MEDIAN"] *= 1.0 + 0.9 * module.CHECK_RTOL
    assert module.check(values) == 0
    values["DBAR_MEDIAN"] = calibration.DBAR_MEDIAN * (1.0 + 2.0 * module.CHECK_RTOL)
    assert module.check(values) == 1
    assert "DBAR_MEDIAN" in capsys.readouterr().out.splitlines()[-2]

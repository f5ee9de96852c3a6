import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "ab_bench.py")


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regression_verdicts():
    verdict = load_ab_bench().verdict
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8]
    # within the bound either way, and beyond it
    assert verdict(steady, [9.0] * 6, "higher", 0.25) == "ok"
    assert verdict(steady, [7.0] * 6, "higher", 0.25) == "worse"
    assert verdict(steady, [13.0] * 6, "lower", 0.25) == "worse"
    assert verdict(steady, [12.0] * 6, "lower", 0.25) == "ok"
    # the parent's own spread exceeds the bound: no verdict either way ...
    wide = [6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
    assert verdict(wide, [11.0] * 6, "higher", 0.25) == "unresolved"
    assert verdict(wide, [4.0] * 6, "higher", 0.25) == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict(wide, [17.0, 30.0, 18.0], "higher", 0.25) == "ok"
    assert verdict(wide, [5.0, 1.0, 2.0], "lower", 0.25) == "ok"

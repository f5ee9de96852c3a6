import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "item_times.py")


def load_item_times():
    spec = importlib.util.spec_from_file_location("item_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_finds_slowest_and_worst_ratio():
    summarize = load_item_times().summarize
    parent = [1.0, 10.0, 2.0, 8.0, 0.5]
    change = [0.5, 6.0, 4.0, 9.0, 0.25]
    labels = ["small", "large", "medium", "large", "small"]
    s = summarize(parent, change, labels, top=2)
    assert s["items"] == 5
    # the slowest by the slower side, largest first
    assert [r[0] for r in s["slowest"]] == [1, 3]
    assert s["slowest"][0] == (1, "large", 10.0, 6.0, 0.6)
    # item 2 doubled, but only item 3 is among the slowest
    assert s["worst"][:2] == (2, "medium") and s["worst"][4] == 2.0
    assert s["worst_of_slowest"][0] == 3
    assert s["worst_of_slowest"][4] == pytest.approx(9.0 / 8.0)
    assert s["median_ratio"] == pytest.approx(0.6)
    assert s["total"] == (21.5, 19.75)


def test_summary_ties_and_mismatch():
    summarize = load_item_times().summarize
    # ties go to the earlier item, in both orders
    s = summarize([1.0, 1.0, 1.0], [2.0, 2.0, 1.0], ["a", "b", "c"], top=10)
    assert [r[0] for r in s["slowest"]] == [0, 1, 2]
    assert s["worst"][0] == 0 and s["worst_of_slowest"][0] == 0
    with pytest.raises(ValueError, match="different item lists"):
        summarize([1.0], [1.0, 2.0], ["a", "b"])

"""tools/route_constants.py fits the constants that auto predicts with."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "route_constants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("route_constants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_fit_follows_the_typical_run():
    # every work count is timed at half, once and twice 0.3 ms + 2 us/unit;
    # the fastest runs must not pull the constants below the middle one
    points = [(units, (0.3 + 0.002 * units) * factor)
              for units in (1, 10, 100, 1000) for factor in (0.5, 1, 2)]
    fixed, per_unit = load_tool().fit(points)
    assert fixed == pytest.approx(0.3, rel=0.05)
    assert per_unit == pytest.approx(0.002, rel=0.05)


def test_the_fit_keeps_both_constants_at_zero_or_above():
    # times that fall as the work grows fit a constant alone
    fixed, per_unit = load_tool().fit([(1, 2.0), (10, 1.5), (100, 1.0)])
    assert per_unit == 0 and 1.0 < fixed < 2.0

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def verdict():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.verdict


PARENT = [0.0775, 0.0770, 0.0780, 0.0768, 0.0784, 0.0776, 0.0772, 0.0779, 0.0767, 0.0781]


def test_gain_needs_nine_wins_and_a_gap_past_the_parent_spread(verdict):
    # the parent's quartiles are 0.07695 and 0.078025, its median 0.07755
    change = [p - 0.0045 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["parent"] == pytest.approx((0.07695, 0.07755, 0.078025))
    assert v["change"] == pytest.approx(0.07305)
    assert (v["wins"], v["pairs"], v["gain"], v["regression"]) == (10, 10, True, "none")
    # eight wins of ten are no gain; a tie counts for neither side
    eight = change[:8] + [PARENT[8] + 0.001, PARENT[9]]
    v = verdict(PARENT, eight, "lower", 0.25)
    assert (v["wins"], v["gain"]) == (8, False)
    # ten wins by less than the spread are no gain either
    v = verdict(PARENT, [p - 0.0005 for p in PARENT], "lower", 0.25)
    assert (v["wins"], v["gain"]) == (10, False)


def test_regression_is_a_median_worse_by_more_than_the_bound(verdict):
    # a bound of 0.1 of the parent's median 100: 111 is a regression, 109 is not
    parent = [99.0, 100.0, 101.0, 100.0, 100.0]
    assert verdict(parent, [111.0] * 5, "lower", 0.1)["regression"] == "regression"
    assert verdict(parent, [109.0] * 5, "lower", 0.1)["regression"] == "none"
    # higher is better: a fall is the regression
    assert verdict(parent, [89.0] * 5, "higher", 0.1)["regression"] == "regression"
    assert verdict(parent, [111.0] * 5, "higher", 0.1)["regression"] == "none"


def test_a_parent_spread_wider_than_the_bound_is_unresolved(verdict):
    # quartiles 0.9 and 1.1 of a median 1: a spread of 0.2 against a bound of 0.1
    parent = [0.8, 0.9, 1.0, 1.1, 1.2, 0.9, 1.0, 1.1]
    assert verdict(parent, [1.0] * 8, "lower", 0.1)["regression"] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert verdict(parent, [0.7] * 8, "lower", 0.1)["regression"] == "none"
    assert verdict(parent, [1.3] * 8, "higher", 0.1)["regression"] == "none"

"""tools/pairs.py's fit of peak RSS against the op count of a side's runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(ops, rss):
    return {"attempted": ops, "metrics": {"peak_rss_mb": {"value": rss}}}


def test_rss_fit_is_the_least_squares_line(pairs):
    # 7 MB per 1000 ops on 60 MB, with residuals that cancel in the fit
    runs = [_run(1000, 67.5), _run(2000, 73.0), _run(3000, 81.5), _run(4000, 88.0)]
    fit = pairs._rss_fit(runs)
    assert fit["mb_per_1000_ops"] == pytest.approx(7.0)
    assert fit["mb_at_0_ops"] == pytest.approx(60.0)


def test_rss_fit_needs_two_op_counts(pairs):
    assert pairs._rss_fit([_run(1000, 67.0)]) is None
    assert pairs._rss_fit([_run(1000, 67.0), _run(1000, 68.0)]) is None

"""tools/query_ab.py: the per-query comparison of the two sides' rounds."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def query_ab():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        spec = importlib.util.spec_from_file_location(
            "query_ab", os.path.join(ROOT, "tools", "query_ab.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))
    return module


def _round(best_ms, sha256):
    return {"best_ms": best_ms, "sha256": sha256}


def test_compare_summarises_each_query_over_the_rounds(query_ab):
    weights = [(0.0, 0.0), (0.5, 0.5)]
    parent = [_round([4.0, 12.0], ["a", "b"]), _round([4.2, 12.4], ["a", "b"])]
    change = [_round([3.0, 12.2], ["a", "b"]), _round([3.6, 12.3], ["a", "c"])]
    zero, interior = query_ab.compare(weights, parent, change)
    assert zero["weights"] == [0.0, 0.0]
    assert zero["parent"]["median"] == pytest.approx(4.1)
    assert zero["change"]["min"] == 3.0
    assert zero["change_frac"] == round(3.3 / 4.1 - 1.0, 4)
    assert zero["change_wins"] == 2 and zero["same_output"]
    assert interior["change_wins"] == 1
    assert not interior["same_output"]

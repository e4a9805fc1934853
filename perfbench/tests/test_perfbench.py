"""The benchmark's own tests: names, reduced-size runs, and the checkers."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from affine12 import AffineParam12, HomAffine3  # noqa: E402
from affine12.linalg3 import AntiSymMat3  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ENVELOPE_ITEMS,
    WORKLOADS,
    Animate,
    CliBatch,
    Convert,
    Meshblend,
    envelope_probe,
)

pytestmark = [
    pytest.mark.filterwarnings("ignore::affine12.errors.IllConditionedWarning"),
    pytest.mark.filterwarnings("ignore::affine12.errors.OrientationFlipWarning"),
]

SEED = 11


@pytest.fixture(autouse=True)
def _one_quick_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", (2, 2))

WORKLOAD_NAMES = ["convert", "animate", "meshblend", "cli_batch"]
END_TO_END = {
    "setup_s": "s", "op_best_ms": "ms",
    "err_p99_digits": "digits", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"ns": 24, "s": 3, "ms": 5, "frac": 7, "1": 2}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_names_and_units_are_pinned():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert harness.END_TO_END == END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == harness.PER_LAYER
    units = {}
    for u in per_layer.values():
        units[u] = units.get(u, 0) + 1
    assert units == PER_LAYER_UNITS
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _finite_positive(metrics):
    return all(math.isfinite(m["value"]) and m["value"] >= 0.0 for m in metrics.values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_runs_at_reduced_size(name, tmp_path):
    result, record = harness.run(name, SEED, 0.2, False, str(tmp_path), small=True)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert _finite_positive(result["metrics"])
    assert record["seed"] == SEED and record["machine"]["threads"]
    assert not record["failures"]
    if name == "convert":
        assert record["envelope"]["attempted"] == ENVELOPE_ITEMS


def test_envelope_probe_reports_the_known_defects():
    # every named ROADMAP item 5 case fails today; the probe counts them
    env = envelope_probe(SEED)
    assert env["attempted"] == ENVELOPE_ITEMS
    assert 0 < env["failed"] < env["attempted"]
    assert sum(env["failures"].values()) == env["failed"]
    failing = {k.split("/")[0] for k in env["failures"]}
    assert {"diag(1,1,1e-9)", "1e-150*I", "1e100*shear", "diag(1e6,1,1e-6)"} <= failing


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, record = harness.run(name, SEED, 0.3, True, str(tmp_path), small=True)
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert _finite_positive({k: m for k, m in result["metrics"].items()
                             if not k.endswith("_glue.ns") and k != "meshblend.solve_s"})
    assert os.path.exists(record["trace_files"][0])
    env = record["envelope"]
    assert result["metrics"]["param.envelope_ok_frac"]["value"] == 1.0 - env["failed"] / ENVELOPE_ITEMS


def _ordinary(wl, i):
    return [n for n, k in enumerate(wl.items(i)) if wl.kinds[k] == "ordinary"]


def test_checker_counts_nan_exception_and_over_tolerance(tmp_path):
    wl = Convert(SEED, small=True)
    out = wl.op(0)
    base = wl.check(0, out)
    a, b, c = _ordinary(wl, 0)[:3]
    rows = list(out[c].to_rows())
    nan_rows = list(rows)
    nan_rows[4] = math.nan
    off_rows = list(rows)
    off_rows[0] += 1e-9
    out[a] = HomAffine3.from_rows(nan_rows)
    out[b] = RuntimeError("bare exception")
    out[c] = HomAffine3.from_rows(off_rows)
    assert base.failed == 0
    res = wl.check(0, out)
    assert res.failed == 3
    assert wl.failures["ordinary/non-finite"] == 1
    assert wl.failures["ordinary/RuntimeError"] == 1
    assert wl.failures["ordinary/over-tolerance"] == 1


@pytest.mark.parametrize("cls", [Animate, Meshblend, CliBatch])
def test_checker_counts_a_raised_operation(cls, tmp_path):
    wl = cls(SEED, small=True, workdir=str(tmp_path))
    try:
        out = ValueError("math domain error")
        res = wl.check(1, out)
        assert (res.items, res.failed) == (1, 1)
    finally:
        wl.close()


def test_meshblend_checker_counts_nan_and_defect():
    wl = Meshblend(SEED, small=True)
    out = wl.op(1)                       # one-hot: must reproduce target 0
    assert wl.check(1, out).failed == 0
    out.vertices[3] = type(out.vertices[3])(math.nan, 0.0, 0.0)
    assert wl.check(1, out).failed == 1
    out = wl.op(1)
    v = out.vertices[5]
    out.vertices[5] = type(v)(v[0] + 1e-3, v[1], v[2])
    assert wl.check(1, out).failed == 1
    assert set(wl.failures) == {"non-finite", "over-tolerance"}


def test_animate_checker_catches_a_branch_flip():
    wl = Animate(SEED, small=True)
    f = wl.cycle // 2
    wl.check(f - 1, wl.op(f - 1))
    assert wl.check(f, wl.op(f)).failed == 0
    wl.check(f - 1, wl.op(f - 1))
    refs = list(wl.refs[f])
    x = refs[3].rotation
    turn = 2.0 * math.pi / math.sqrt(sum(v * v for v in x))
    refs[3] = AffineParam12(refs[3].translation, AntiSymMat3(*(v * (1 + turn) for v in x)),
                            refs[3].stretch)
    wl.refs[f] = tuple(refs)
    assert wl.check(f, wl.op(f)).failed == 1
    assert wl.failures["jump"] == 1


def test_cli_checker_wants_bit_equal_output(tmp_path):
    wl = CliBatch(SEED, small=True, workdir=str(tmp_path))
    try:
        assert [wl.check(i, wl.op(i)).failed for i in range(4)] == [0, 0, 0, 0]
        first = wl.expected["unparam"][0][1]
        first[0] = math.nextafter(first[0], math.inf)
        assert wl.check(4, wl.op(4)).failed == 0
        assert wl.check(5, wl.op(5)).failed == 1
        assert wl.failures["unparam:mismatch"] == 1
    finally:
        wl.close()


def test_inputs_depend_only_on_the_seed():
    from perfbench import inputs
    assert inputs.transform_stream(5, 300) == inputs.transform_stream(5, 300)
    assert inputs.transform_stream(5, 300) != inputs.transform_stream(6, 300)
    assert inputs.pose_tracks(5, 2) == inputs.pose_tracks(5, 2)


def test_entry_point_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

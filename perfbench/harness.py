"""Run one workload: set up, measure in a closed loop, check, report.

The untraced run gives the end-to-end metrics. The traced run measures the
same workload untraced for a while, then with spans, and reports the
per-layer metrics; layers the workload does not exercise are measured on a
reduced-size copy of the workload that does, built from the same seed.
Every operation's output is checked outside the timed region. The envelope
probe runs after the timed phase of convert and of every traced run.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import THREAD_VARS
from .trace import INVERSE_STAGES, Probe, Tracer, timer_cost_ns
from .workloads import WORKLOADS, Outcome, envelope_probe

# name -> unit; every workload reports all of them.
#
# op_best_ms is the median, over the workload's distinct operations (or
# passes of several, see best_repeat), of the fastest time each one took
# in the run (each is repeated many times). On
# a shared host that slows this process by up to 1.8x for seconds at a
# time, a run's median, p90 and mean operation times spread 15-30% from
# run to run; the best repeat of each operation spread 2-3%. Median, p90,
# tail and throughput still go into the record line.
END_TO_END = {
    "setup_s": "s",
    "op_best_ms": "ms",
    "err_p99_digits": "digits",
    "peak_rss_mb": "MB",
}

# name -> unit. The traced operation of every workload yields the linalg3,
# logmap, expmap, param and inputs rows; blend, meshblend and cli rows come
# from the workload that runs those layers, or from a side probe of it.
PER_LAYER = {
    "linalg3.gram.ns": "ns",
    "linalg3.sym_eigenvalues.ns": "ns",
    "linalg3.mat_mul_sym.ns": "ns",
    "logmap.log_spd_half_gram.ns": "ns",
    "logmap.inv_sqrt_from_log.ns": "ns",
    "logmap.log_so3.ns": "ns",
    "expmap.exp_sym3_with_eig.ns": "ns",
    "expmap.exp_so3.ns": "ns",
    "param.transform_to_params.ns": "ns",
    "param.params_to_transform.ns": "ns",
    "param.inverse_glue.ns": "ns",
    "param.orth_defect_max": "1",
    "blend.interpolate_pose.linear.ns": "ns",
    "blend.interpolate_pose.hermite.ns": "ns",
    "blend.interpolate_pose.bspline.ns": "ns",
    "blend.curve_glue.ns": "ns",
    "blend.blend.ns": "ns",
    "logmap.consistent_log_so3.ns": "ns",
    "meshblend.face_frame.ns": "ns",
    "meshblend.per_face_affine.ns": "ns",
    "meshblend.pullback_s": "s",
    "meshblend.face_blend_s": "s",
    "meshblend.solve_s": "s",
    "meshblend.patch_strain_max": "1",
    "cli.load_transforms.ms": "ms",
    "cli.param.ms": "ms",
    "cli.unparam.ms": "ms",
    "cli.blend.ms": "ms",
    "cli.interp.ms": "ms",
    "cli.kernel_share": "frac",
    "inputs.near_pi_share": "frac",
    "inputs.small_angle_share": "frac",
    "inputs.confluent_share": "frac",
    "param.envelope_ok_frac": "frac",
    "animate.branch_shift_share": "frac",
    "baseline.jacobi_exp.ns": "ns",
    "baseline.jacobi_log.ns": "ns",
    "baseline.numpy_eigh.ns_per_elem": "ns",
    "baseline.scipy_rotvec.ns_per_elem": "ns",
    "baseline.scipy_polar.ns": "ns",
    "trace.overhead_frac": "frac",
}

SETUP_REPS = (5, 25)    # least and most set-up runs per process; setup_s is their median
SETUP_BUDGET_S = 1.5    # set-up runs continue past the least until this much time
ERR_FLOOR = 1e-18       # error counted for an exact result (18 digits)
TAIL_BEYOND = 10        # samples the tail percentile must leave beyond it
UNTRACED_SHARE = 0.3    # traced run: share of --seconds measured untraced
TRACED_SHARE = 0.5      # traced run: share of --seconds measured with spans
SIDE_OPS = {"animate": 24, "meshblend": 3, "cli_batch": 8}


class CheckError(RuntimeError):
    """A correctness check could not run; the run has no valid result."""


@dataclass
class Tally:
    """Op durations and check totals of one measured phase."""

    durations: list[int] = field(default_factory=list)   # ns per op
    first_index: int = 0
    items: int = 0
    failed: int = 0
    errs: array = field(default_factory=lambda: array("d"))
    next_index: int = 0

    def add(self, res: Outcome) -> None:
        self.items += res.items
        self.failed += res.failed
        self.errs.extend(res.errs)

    def merge(self, other: "Tally") -> None:
        self.durations += other.durations
        self.items += other.items
        self.failed += other.failed
        self.errs.extend(other.errs)


def _check(wl, i: int, out) -> Outcome:
    try:
        return wl.check(i, out)
    except Exception as exc:
        raise CheckError(f"{wl.name}: check of operation {i} could not run: {exc!r}") from exc


def setup(cls, seed: int, small: bool, workdir: str):
    """Build the workload repeatedly (see SETUP_REPS); each build ends after its first operation."""
    times, wl, warm = [], None, None
    least, most = SETUP_REPS
    while len(times) < least or (sum(times) < SETUP_BUDGET_S and len(times) < most):
        if wl is not None:
            wl.close()
            wl = None
            gc.collect()
        t0 = time.perf_counter()
        wl = cls(seed, small=small, workdir=workdir)
        out = wl.op(0)
        times.append(time.perf_counter() - t0)
        warm = Tally(next_index=1)
        warm.add(_check(wl, 0, out))
    return wl, times, warm


def timed(op, wl, seconds: float, start: int) -> Tally:
    """Closed loop: the next operation starts when the last one has returned."""
    tally = Tally(first_index=start)
    i = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        out = op(wl, i)
        t1 = time.perf_counter_ns()
        tally.durations.append(t1 - t0)
        tally.add(_check(wl, i, out))
        i += 1
    tally.next_index = i
    return tally


def _plain_op(wl, i):
    return wl.op(i)


def tail(durations: list[int]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    s = sorted(durations)
    n = len(s)
    if n <= TAIL_BEYOND:
        return float(s[-1]), 100.0
    return float(s[n - 1 - TAIL_BEYOND]), 100.0 * (n - TAIL_BEYOND) / n


def best_repeat(tally: Tally, cycle: int, ops_per_pass: int = 1) -> tuple[float, int]:
    """Median over distinct passes of each one's fastest time.

    A distinct operation is an index mod cycle; a pass is ops_per_pass
    consecutive distinct operations, and its fastest time is the sum of
    theirs.
    """
    best: dict[int, int] = {}
    repeats: Counter = Counter()
    for i, d in enumerate(tally.durations, start=tally.first_index):
        key = i % cycle
        best[key] = min(d, best.get(key, d))
        repeats[key] += 1
    passes: Counter = Counter()
    for key, d in best.items():
        passes[key // ops_per_pass] += d
    return statistics.median(passes.values()), min(repeats.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(setup_times, tally: Tally, errs, cycle: int,
               ops_per_pass: int = 1) -> tuple[dict, dict]:
    """End-to-end values from the timed phase; errs includes the warm-up operation's."""
    if not errs:
        raise CheckError("no accuracy check ran")
    durs = tally.durations
    best, fewest_repeats = best_repeat(tally, cycle, ops_per_pass)
    tail_ns, tail_pct = tail(durs)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_best_ms": best / 1e6,
        "err_p99_digits": -math.log10(max(float(np.percentile(errs, 99)), ERR_FLOOR)),
        "peak_rss_mb": peak_rss_mb(),
    }
    pct = (5, 10, 25, 50, 75, 90, 95, 99)
    extra = {"ops": len(durs), "distinct_ops": min(cycle, len(durs)),
             "fewest_repeats": fewest_repeats,
             "op_p50_ms": statistics.median(durs) / 1e6,
             "op_tail_ms": tail_ns / 1e6, "op_tail_percentile": tail_pct,
             "items_per_s": tally.items / (sum(durs) / 1e9),
             "op_ms_percentiles": dict(zip(pct, (np.percentile(durs, pct) / 1e6).tolist())),
             "err_max": max(errs), "errs_checked": len(errs),
             "setup_samples_s": setup_times}
    return values, extra


def _mean(d, name, cost) -> float:
    return float(d[name].mean()) - cost


def _total(d, name, cost) -> float:
    return float(d[name].sum()) - cost * len(d[name])


def layer_values(probe: Probe, tracer: Tracer, cost: float) -> dict:
    """Per-layer metric values from one probe's spans, for whichever groups it ran."""
    d = tracer.durations()
    c = probe.counts
    out = {}

    def cat(*names):
        return np.concatenate([d[n] for n in names])

    if "param.transform_to_params" in d:
        out.update({
            "linalg3.gram.ns": _mean(d, "inv/linalg3.gram", cost),
            "linalg3.sym_eigenvalues.ns": float(cat("inv/linalg3.sym_eigenvalues",
                                                    "fwd/linalg3.sym_eigenvalues").mean()) - cost,
            "linalg3.mat_mul_sym.ns": float(cat("inv/linalg3.mat_mul_sym",
                                                "fwd/linalg3.mat_mul_sym").mean()) - cost,
            "logmap.log_spd_half_gram.ns": _mean(d, "inv/logmap.log_spd_half_gram", cost),
            "logmap.inv_sqrt_from_log.ns": _mean(d, "inv/logmap.inv_sqrt_from_log", cost),
            "logmap.log_so3.ns": _mean(d, "inv/logmap.log_so3", cost),
            "expmap.exp_sym3_with_eig.ns": _mean(d, "fwd/expmap.exp_sym3_with_eig", cost),
            "expmap.exp_so3.ns": _mean(d, "fwd/expmap.exp_so3", cost),
            "param.transform_to_params.ns": _mean(d, "param.transform_to_params", cost),
            "param.params_to_transform.ns": _mean(d, "param.params_to_transform", cost),
            "param.inverse_glue.ns": _mean(d, "param.transform_to_params", cost)
            - sum(_mean(d, n, cost) for n in INVERSE_STAGES),
            "param.orth_defect_max": probe.orth_defect_max,
            "inputs.near_pi_share": c["core.near_pi"] / c["core.items"],
            "inputs.small_angle_share": c["core.small_angle"] / c["core.items"],
            "inputs.confluent_share": c["core.confluent"] / c["core.items"],
        })
    if "blend.blend" in d:
        curves = [f"blend.interpolate_pose.{k}" for k in ("linear", "hermite", "bspline")]
        out.update({f"{n}.ns": _mean(d, n, cost) for n in curves})
        out.update({
            "blend.curve_glue.ns": float(cat(*curves).mean())
            - _mean(d, "curve/param.params_to_transform", cost) - cost,
            "blend.blend.ns": _mean(d, "blend.blend", cost),
            "logmap.consistent_log_so3.ns": _mean(d, "logmap.consistent_log_so3", cost),
            "animate.branch_shift_share": c["blend.branch_shifts"] / c["blend.pullbacks"],
        })
    if "meshblend.blend_shapes" in d:
        q = c["meshblend.queries"]
        pfa = _total(d, "meshblend.per_face_affine", cost)
        pull = _total(d, "meshblend.pullback", cost)
        face_blend = _total(d, "meshblend.face_blend", cost)
        out.update({
            "meshblend.face_frame.ns": _mean(d, "meshblend.face_frame", cost),
            "meshblend.per_face_affine.ns": _mean(d, "meshblend.per_face_affine", cost),
            "meshblend.pullback_s": pull / q / 1e9,
            "meshblend.face_blend_s": (face_blend - pull) / q / 1e9,
            "meshblend.solve_s": (_total(d, "meshblend.blend_shapes", cost) - pfa - face_blend)
            / q / 1e9,
            "meshblend.patch_strain_max": probe.strain_max,
        })
    if "cli.op" in d:
        commands = ("param", "unparam", "blend", "interp")
        out.update({f"cli.{k}.ms": _mean(d, f"cli.{k}", cost) / 1e6
                    for k in ("load_transforms",) + commands})
        out["cli.kernel_share"] = sum(_mean(d, f"cli.library.{k}", cost) for k in commands) / sum(
            _mean(d, f"cli.{k}", cost) for k in commands)
    return out


def _traced_op(name: str):
    return {"convert": Probe.convert_op, "animate": Probe.animate_op,
            "meshblend": Probe.meshblend_op, "cli_batch": Probe.cli_op}[name]


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str,
        small: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, record). Raises CheckError if a check cannot run."""
    cls = WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    wl, setup_times, tally = setup(cls, seed, small, workdir)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "loop": "closed, one caller, one process", "machine": machine()}
    try:
        if not traced:
            gc.collect()
            phase = timed(_plain_op, wl, seconds, tally.next_index)
            tally.merge(phase)
            values, extra = end_to_end(setup_times, phase, tally.errs, wl.cycle, wl.ops_per_pass)
            record.update(extra)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            if workload == "convert":
                record["envelope"] = envelope_probe(seed)
        else:
            metrics, extra = _traced_run(wl, seed, seconds, workdir, tally)
            record.update(extra)
        record["failures"] = dict(wl.failures)
        if hasattr(wl, "max_jump_per_unit"):
            record["max_jump_per_unit"] = wl.max_jump_per_unit
        record["input_mix"] = _input_mix(wl)
    finally:
        wl.close()
    result = {"correct": tally.failed == 0 and tally.items > 0,
              "attempted": tally.items, "failed": tally.failed, "metrics": metrics}
    return result, record


def _input_mix(wl) -> dict:
    kinds = getattr(wl, "kinds", None)
    if kinds is None:
        return {}
    return {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))}


def _traced_run(wl, seed, seconds, workdir, tally: Tally):
    cost = timer_cost_ns()
    gc.collect()
    untraced = timed(_plain_op, wl, UNTRACED_SHARE * seconds, tally.next_index)
    tally.merge(untraced)
    tracer = Tracer()
    probe = Probe(tracer)
    op = _traced_op(wl.name)
    traced = timed(lambda w, i: op(probe, w, i), wl, TRACED_SHARE * seconds, untraced.next_index)
    tally.merge(traced)
    values = layer_values(probe, tracer, cost)
    values["trace.overhead_frac"] = (statistics.mean(traced.durations)
                                     / statistics.mean(untraced.durations) - 1.0)
    side_tracer = Tracer()
    side = Probe(side_tracer)
    side_failures = {}
    for name, n_ops in SIDE_OPS.items():
        if name == wl.name:
            continue
        side_wl = WORKLOADS[name](seed, small=True, workdir=workdir)
        try:
            side_op = _traced_op(name)
            # spread the operations over the workload's cycle (frames, weights)
            stride = max(1, side_wl.cycle // n_ops)
            for k in range(n_ops):
                out = side_op(side, side_wl, k * stride)
                _check(side_wl, k * stride, out)
            side_failures[name] = dict(side_wl.failures)
        finally:
            side_wl.close()
    side_values = layer_values(side, side_tracer, cost)
    values.update({k: v for k, v in side_values.items() if k not in values})
    values.update(side.baselines(seed))
    envelope = envelope_probe(seed)
    values["param.envelope_ok_frac"] = 1.0 - envelope["failed"] / envelope["attempted"]
    missing = [k for k in PER_LAYER if k not in values]
    if missing:
        raise CheckError(f"traced run produced no value for {missing}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    trace_dir = os.path.join(workdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, f"{wl.name}-{seed}")
    tracer.dump(stem + ".npz")
    side_tracer.dump(stem + "-side.npz")
    extra = {
        "timer_cost_ns": cost,
        "untraced_ops": len(untraced.durations),
        "traced_ops": len(traced.durations),
        "self_time_ns": tracer.self_times(),
        "side_probes": {"sizes": "reduced (small=True)", "failures": side_failures},
        "envelope": envelope,
        "trace_files": [stem + ".npz", stem + "-side.npz"],
    }
    return metrics, extra


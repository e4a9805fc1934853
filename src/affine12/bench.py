"""Random-matrix protocol, error statistics, and timing harness.

Inputs come from a seeded Mersenne Twister (the stdlib generator), so every
report is replayable from its recorded seed; matrices are drawn with i.i.d.
uniform [-1, 1] entries and rejection-resampled until the determinant
clears the requested floor. Timing pre-generates all inputs, repeats each
kernel three times, and keeps the fastest mean so scheduler noise cannot
inflate a kernel unfairly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .expmap import exp_sym3
from .linalg3 import Mat3, SymMat3, Vec3, gram, mat_det, sym_eigenvalues, sym_norm2, sym_scale
from .oracle import matfun_diag
from .logmap import log_spd_half_gram
from .param import (
    HomAffine3,
    params_to_transform,
    transform_distance2,
    transform_to_params,
)

GENERATOR_NAME = "python-random-mt19937"
DEFAULT_SEED = 987654321
_TIMING_REPEATS = 3


@dataclass(frozen=True)
class BenchReport:
    """Result bundle for one run; serialised one CSV row per kernel."""

    sample_count: int
    max_sq_frobenius_error: float
    errors: dict[str, float] = field(default_factory=dict)
    mean_seconds_per_call: dict[str, float] = field(default_factory=dict)
    speed_ratio: dict[str, float] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.max_sq_frobenius_error < 0.0:
            raise ValueError("errors cannot be negative")


def _check_det_floor(det_floor: float) -> None:
    # no matrix with entries in [-1, 1] has a determinant of 4 or more, and
    # a NaN floor is never cleared: the rejection sampler would loop forever
    if not 0.0 < det_floor < 4.0:
        raise ValueError(f"det_floor must be in (0, 4), got {det_floor}")


def _draw_linear(rng: random.Random, det_floor: float) -> tuple[Mat3, Vec3, int]:
    attempts = 0
    while True:
        attempts += 1
        vals = [rng.uniform(-1.0, 1.0) for _ in range(12)]
        m = Mat3(*vals[:9])
        if mat_det(m) > det_floor:
            return m, Vec3(*vals[9:]), attempts


def sample_affines(n: int, det_floor: float, seed: int) -> tuple[list[HomAffine3], float]:
    """n random transforms plus the rejection sampler's acceptance rate."""
    _check_det_floor(det_floor)
    rng = random.Random(seed)
    out = []
    attempts = 0
    for _ in range(n):
        linear, translation, tries = _draw_linear(rng, det_floor)
        attempts += tries
        out.append(HomAffine3(linear, translation))
    return out, n / attempts


def random_sym(rng: random.Random) -> SymMat3:
    return SymMat3(*(rng.uniform(-1.0, 1.0) for _ in range(6)))


def roundtrip_error_stats(n: int, det_floor: float = 1e-3,
                          seed: int = DEFAULT_SEED) -> BenchReport:
    """Max squared Frobenius error of the full parametrisation round trip."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    samples, rate = sample_affines(n, det_floor, seed)
    worst = 0.0
    for a in samples:
        err = transform_distance2(a, params_to_transform(transform_to_params(a)))
        if err > worst:
            worst = err
    return BenchReport(
        sample_count=n,
        max_sq_frobenius_error=worst,
        errors={"affine_roundtrip": worst},
        seed=seed,
        acceptance_rate=rate,
    )


def _log_spd_full(s: SymMat3) -> SymMat3:
    return sym_scale(log_spd_half_gram(s, sym_eigenvalues(s)), 2.0)


def _exp_diag(y: SymMat3) -> SymMat3:
    return matfun_diag(y, "exp")


def _log_diag(s: SymMat3) -> SymMat3:
    return matfun_diag(s, "log")


_KERNELS = {
    "exp_sym3": (exp_sym3, "sym"),
    "log_spd": (_log_spd_full, "spd"),
    "exp_diag": (_exp_diag, "sym"),
    "log_diag": (_log_diag, "spd"),
}

_RATIO_PAIRS = (("exp_sym3", "exp_diag"), ("log_spd", "log_diag"))


def _mean_time(fn, inputs) -> float:
    best = float("inf")
    for _ in range(_TIMING_REPEATS):
        t0 = time.perf_counter()
        for v in inputs:
            fn(v)
        mean = (time.perf_counter() - t0) / len(inputs)
        if mean < best:
            best = mean
    return best


def _sq_frob_sym(a: SymMat3, b: SymMat3) -> float:
    return sym_norm2(SymMat3(*(x - y for x, y in zip(a, b))))


def timing_run(n: int, seed: int = DEFAULT_SEED, det_floor: float = 1e-3) -> BenchReport:
    """Per-call timings and closed-form vs diagonalisation speed ratios.

    Symmetric inputs have uniform [-1, 1] entries; SPD inputs are Gram
    matrices of random linear parts over the same determinant floor. The
    error column carries each route's own exp/log round-trip maximum on
    the SPD set, mirroring how the two routes are normally compared.
    """
    if n < 1000:
        raise ValueError(f"timing needs n >= 1000, got {n}")
    _check_det_floor(det_floor)
    rng = random.Random(seed)
    sym_inputs = [random_sym(rng) for _ in range(n)]
    spd_inputs = [gram(_draw_linear(rng, det_floor)[0]) for _ in range(n)]
    pools = {"sym": sym_inputs, "spd": spd_inputs}
    times = {name: _mean_time(fn, pools[pool]) for name, (fn, pool) in _KERNELS.items()}
    ratios = {closed: times[diag] / times[closed] for closed, diag in _RATIO_PAIRS}
    closed_err = max(_sq_frob_sym(s, exp_sym3(_log_spd_full(s))) for s in spd_inputs)
    diag_err = max(_sq_frob_sym(s, _exp_diag(_log_diag(s))) for s in spd_inputs)
    errors = {"exp_sym3": closed_err, "log_spd": closed_err,
              "exp_diag": diag_err, "log_diag": diag_err}
    return BenchReport(
        sample_count=n,
        max_sq_frobenius_error=max(closed_err, diag_err),
        errors=errors,
        mean_seconds_per_call=times,
        speed_ratio=ratios,
        seed=seed,
    )


CSV_HEADER = "name,n,max_sq_frob_error,mean_ns_per_call,speed_ratio"


def write_csv(report: BenchReport, stream) -> None:
    """One row per kernel; replay seed recorded in a leading comment line."""
    stream.write(f"# generator={GENERATOR_NAME} seed={report.seed}\n")
    stream.write(CSV_HEADER + "\n")
    names = list(dict.fromkeys(list(report.mean_seconds_per_call) + list(report.errors)))
    for name in names:
        err = report.errors.get(name)
        secs = report.mean_seconds_per_call.get(name)
        ratio = report.speed_ratio.get(name)
        stream.write(",".join((
            name,
            str(report.sample_count),
            "" if err is None else repr(err),
            "" if secs is None else repr(secs * 1e9),
            "" if ratio is None else repr(ratio),
        )) + "\n")

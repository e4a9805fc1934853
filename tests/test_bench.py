import io
import math

import pytest

from affine12.bench import (
    BenchReport,
    CSV_HEADER,
    roundtrip_error_stats,
    sample_affines,
    timing_run,
    write_csv,
)
from affine12.linalg3 import mat_det
from affine12.param import (
    HomAffine3,
    params_to_transform,
    transform_distance2,
    transform_to_params,
)


class TestRandomAffine:
    def test_determinant_floor(self):
        samples, rate = sample_affines(2000, 1e-3, seed=11)
        assert all(mat_det(a.linear) > 1e-3 for a in samples)
        assert 0.0 < rate <= 1.0

    def test_seed_determinism(self):
        s1, _ = sample_affines(100, 1e-3, seed=5)
        s2, _ = sample_affines(100, 1e-3, seed=5)
        assert s1 == s2

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            sample_affines(10, -1.0, seed=1)


class TestRoundtripStats:
    def test_identity_error_is_noise_level(self):
        eye = HomAffine3.identity()
        err = transform_distance2(eye, params_to_transform(transform_to_params(eye)))
        assert err <= 1e-28

    def test_reports_are_reproducible(self):
        a = roundtrip_error_stats(500, seed=77)
        b = roundtrip_error_stats(500, seed=77)
        assert a.max_sq_frobenius_error == b.max_sq_frobenius_error
        assert a.acceptance_rate == b.acceptance_rate

    def test_near_singular_floor_degrades_error(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loose = roundtrip_error_stats(10000, det_floor=1e-6, seed=3)
        tight = roundtrip_error_stats(10000, det_floor=1e-3, seed=3)
        assert loose.max_sq_frobenius_error > tight.max_sq_frobenius_error

    def test_validation(self):
        with pytest.raises(ValueError):
            roundtrip_error_stats(0)
        with pytest.raises(ValueError):
            BenchReport(sample_count=0, max_sq_frobenius_error=0.0)
        with pytest.raises(ValueError):
            BenchReport(sample_count=1, max_sq_frobenius_error=-1.0)


class TestTimingRun:
    def test_smoke_run_and_csv(self):
        report = timing_run(1000, seed=9)
        assert set(report.mean_seconds_per_call) == {
            "exp_sym3", "log_spd", "exp_diag", "log_diag"}
        assert set(report.speed_ratio) == {"exp_sym3", "log_spd"}
        assert all(v > 0 for v in report.mean_seconds_per_call.values())
        buf = io.StringIO()
        write_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("# generator=")
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + 4
        for line in lines[2:]:
            assert len(line.split(",")) == 5

    def test_errors_reproducible_for_fixed_seed(self):
        a = timing_run(1000, seed=13)
        b = timing_run(1000, seed=13)
        assert a.errors == b.errors  # timings may differ, errors must not

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            timing_run(100)

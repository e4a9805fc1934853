import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine12.blend import (
    CURVE_KINDS,
    PoseTrack,
    WeightedTransforms,
    _eval_bspline,
    _eval_hermite,
    _eval_linear,
    blend,
    deform_point,
    interpolate_pose,
    sample_poses,
)
from affine12.errors import NonFiniteInputError, OutOfRangeError
from affine12.expmap import exp_so3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    AntiSymMat3,
    SymMat3,
    Vec3,
    gram,
    mat_det,
)
from affine12.param import (
    AffineParam12,
    HomAffine3,
    TransformClass,
    params_to_transform,
    project_to_class,
    transform_distance2,
    transform_to_params,
)
from conftest import (
    axis_angle_rotation,
    generator_for,
    mat_dist,
    rand_linear,
    rand_unit_axis,
    sym_to_mat3,
    vec_dist,
)


def _rand_affine(rng) -> HomAffine3:
    return HomAffine3(rand_linear(rng), Vec3(*(rng.uniform(-1, 1) for _ in range(3))))


class TestBlend:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedTransforms((), ())
        with pytest.raises(ValueError):
            WeightedTransforms((HomAffine3.identity(),), (1.0, 2.0))

    def test_reference_count_must_match(self):
        a = HomAffine3.identity()
        zero = AffineParam12.from_vector([0.0] * 12)
        with pytest.raises(ValueError) as err:
            blend(WeightedTransforms((a, a), (0.5, 0.5)), refs=(zero,))
        assert str(err.value) == "2 transforms but 1 references"

    def test_pose_track_needs_one_time_per_knot(self):
        zero = AffineParam12.from_vector([0.0] * 12)
        with pytest.raises(ValueError) as err:
            PoseTrack((zero, zero, zero), (0.0, 1.0))
        assert str(err.value) == "3 knots but 2 times"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_by_index(self, rng, bad):
        a = _rand_affine(rng)
        with pytest.raises(NonFiniteInputError, match=r"weight 1 is not finite"):
            WeightedTransforms((a, a, a), (0.5, bad, 0.25))
        with pytest.raises(NonFiniteInputError, match=r"weight 0 is not finite"):
            blend(WeightedTransforms((a, a), (bad, 0.5)))
        with pytest.raises(NonFiniteInputError, match=r"weight 2 is not finite"):
            deform_point(Vec3(0.0, 0.0, 0.0), [a, a, a], [0.5, 0.5, bad])

    def test_unit_weight_interpolates(self, rng):
        transforms = tuple(_rand_affine(rng) for _ in range(4))
        for k in range(4):
            weights = tuple(1.0 if i == k else 0.0 for i in range(4))
            out = blend(WeightedTransforms(transforms, weights))
            assert transform_distance2(out, transforms[k]) <= 1e-20

    def test_coaxial_rotations_average(self, rng):
        axis = rand_unit_axis(rng)
        t1, t2 = 0.7, 2.1
        a = HomAffine3(axis_angle_rotation(axis, t1), Vec3(0, 0, 0))
        b = HomAffine3(axis_angle_rotation(axis, t2), Vec3(0, 0, 0))
        out = blend(WeightedTransforms((a, b), (0.5, 0.5)))
        want = axis_angle_rotation(axis, (t1 + t2) / 2.0)
        assert mat_dist(out.linear, want) <= 1e-12

    def test_skew_large_rotations_stay_orthogonal(self, rng):
        a = HomAffine3(axis_angle_rotation(rand_unit_axis(rng), 0.9 * math.pi),
                       Vec3(0, 0, 0))
        b = HomAffine3(axis_angle_rotation(rand_unit_axis(rng), -0.9 * math.pi),
                       Vec3(0, 0, 0))
        out = blend(WeightedTransforms((a, b), (0.5, 0.5)))
        assert mat_dist(sym_to_mat3(gram(out.linear)), MAT3_IDENTITY) <= 1e-9
        assert abs(mat_det(out.linear) - 1.0) <= 1e-9

    def test_extrapolation_never_degenerate(self, rng):
        for _ in range(100):
            transforms = tuple(_rand_affine(rng) for _ in range(3))
            weights = tuple(rng.uniform(-2, 2) for _ in range(3))
            out = blend(WeightedTransforms(transforms, weights))
            assert mat_det(out.linear) > 0.0

    def test_consistent_refs_change_branch(self, rng):
        # a full turn looks like identity on the principal branch but keeps
        # its winding when blended against matching references
        axis = (0.0, 0.0, 1.0)
        full = HomAffine3(axis_angle_rotation(axis, 2 * math.pi), Vec3(0, 0, 0))
        ref = AffineParam12(Vec3(0, 0, 0), generator_for(axis, 2 * math.pi),
                            SymMat3(0, 0, 0, 0, 0, 0))
        out = blend(WeightedTransforms((full,), (0.5,)), refs=(ref,))
        want = axis_angle_rotation(axis, math.pi)
        assert mat_dist(out.linear, want) <= 1e-9


class TestDeformPoint:
    def test_single_probe(self, rng):
        a = _rand_affine(rng)
        u = Vec3(0.3, -0.4, 0.9)
        got = deform_point(u, [a], [1.0])
        assert vec_dist(got, a.apply(u)) <= 1e-10

    def test_zero_weights_fix_point(self, rng):
        probes = [_rand_affine(rng) for _ in range(3)]
        u = Vec3(1.0, 2.0, 3.0)
        assert vec_dist(deform_point(u, probes, [0.0, 0.0, 0.0]), u) <= 1e-12

    def test_commuting_translations_add(self):
        t1 = HomAffine3(MAT3_IDENTITY, Vec3(1.0, 0.0, 0.0))
        t2 = HomAffine3(MAT3_IDENTITY, Vec3(-1.0, 0.0, 0.0))
        u = Vec3(0.5, 0.5, 0.0)
        got = deform_point(u, [t1, t2], [0.75, 0.25])
        assert vec_dist(got, Vec3(0.5 + 0.75 - 0.25, 0.5, 0.0)) <= 1e-12


def _rotation_track(rng, n=4):
    knots = []
    times = []
    for j in range(n):
        p = AffineParam12(Vec3(0, 0, 0),
                          generator_for(rand_unit_axis(rng), rng.uniform(0.1, 2.5)),
                          SymMat3(0, 0, 0, 0, 0, 0))
        knots.append(p)
        times.append(float(j))
    return PoseTrack(tuple(knots), tuple(times))


class TestInterpolatePose:
    def test_track_validation(self):
        p = AffineParam12.zero()
        with pytest.raises(ValueError):
            PoseTrack((p,), (0.0,))
        with pytest.raises(ValueError):
            PoseTrack((p, p), (1.0, 1.0))

    def test_hermite_passes_through_knots(self, rng):
        track = _rotation_track(rng)
        for j, t in enumerate(track.times):
            out = interpolate_pose(track, t, curve="hermite")
            want = params_to_transform(track.knots[j])
            assert transform_distance2(out, want) <= 1e-20

    def test_linear_midpoint_translation(self):
        a = transform_to_params(HomAffine3.identity())
        b = transform_to_params(HomAffine3(MAT3_IDENTITY, Vec3(1.0, 0.0, 0.0)))
        track = PoseTrack((a, b), (0.0, 1.0))
        out = interpolate_pose(track, 0.5, curve="linear")
        assert vec_dist(out.translation, Vec3(0.5, 0.0, 0.0)) <= 1e-15
        assert mat_dist(out.linear, MAT3_IDENTITY) <= 1e-15

    @pytest.mark.parametrize("curve", ["linear", "hermite", "bspline"])
    def test_rotation_track_stays_orthogonal(self, rng, curve):
        track = _rotation_track(rng)
        t0, t1 = track.times[0], track.times[-1]
        for i in range(100):
            t = t0 + (t1 - t0) * i / 99
            out = interpolate_pose(track, t, curve=curve)
            assert mat_dist(sym_to_mat3(gram(out.linear)), MAT3_IDENTITY) <= 1e-9
            assert vec_dist(out.translation, Vec3(0, 0, 0)) <= 1e-9

    @pytest.mark.parametrize("curve", ["linear", "hermite", "bspline"])
    def test_endpoints_attained(self, rng, curve):
        track = _rotation_track(rng)
        for t, knot in ((track.times[0], track.knots[0]),
                        (track.times[-1], track.knots[-1])):
            out = interpolate_pose(track, t, curve=curve)
            assert transform_distance2(out, params_to_transform(knot)) <= 1e-18

    def test_out_of_range(self, rng):
        track = _rotation_track(rng)
        for curve in ("linear", "hermite", "bspline"):
            with pytest.raises(OutOfRangeError):
                interpolate_pose(track, track.times[-1] + 0.5, curve=curve)

    def test_unknown_curve(self, rng):
        with pytest.raises(ValueError):
            interpolate_pose(_rotation_track(rng), 0.5, curve="bezier")

    def test_bspline_two_and_three_knots(self):
        # degree drops so endpoints stay attained on short tracks
        a = transform_to_params(HomAffine3.identity())
        b = transform_to_params(HomAffine3(MAT3_IDENTITY, Vec3(2.0, 0.0, 0.0)))
        track = PoseTrack((a, b), (0.0, 1.0))
        mid = interpolate_pose(track, 0.5, curve="bspline")
        assert vec_dist(mid.translation, Vec3(1.0, 0.0, 0.0)) <= 1e-12
        c = transform_to_params(HomAffine3(MAT3_IDENTITY, Vec3(0.0, 4.0, 0.0)))
        track3 = PoseTrack((a, b, c), (0.0, 1.0, 2.0))
        for t, knot in ((0.0, a), (2.0, c)):
            out = interpolate_pose(track3, t, curve="bspline")
            assert transform_distance2(out, params_to_transform(knot)) <= 1e-18


# Per-call reference evaluators: each one re-derives from the raw knot
# vectors what PoseTrack now prepares once.

def _ref_segment(times, t):
    i = bisect.bisect_right(times, t) - 1
    return min(max(i, 0), len(times) - 2)


def _ref_linear(vectors, times, t):
    i = _ref_segment(times, t)
    s = (t - times[i]) / (times[i + 1] - times[i])
    a, b = vectors[i], vectors[i + 1]
    return [av + s * (bv - av) for av, bv in zip(a, b)]


def _ref_tangent(vectors, times, i):
    lo = max(i - 1, 0)
    hi = min(i + 1, len(vectors) - 1)
    dt = times[hi] - times[lo]
    return [(b - a) / dt for a, b in zip(vectors[lo], vectors[hi])]


def _ref_hermite(vectors, times, t):
    i = _ref_segment(times, t)
    dt = times[i + 1] - times[i]
    s = (t - times[i]) / dt
    p0, p1 = vectors[i], vectors[i + 1]
    m0 = _ref_tangent(vectors, times, i)
    m1 = _ref_tangent(vectors, times, i + 1)
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return [h00 * a + h10 * dt * ma + h01 * b + h11 * dt * mb
            for a, ma, b, mb in zip(p0, m0, p1, m1)]


def _ref_de_boor(vectors, times, t):
    n = len(vectors)
    degree = min(3, n - 1)
    interior = n - degree - 1
    knots = ([0.0] * (degree + 1)
             + [j / (interior + 1) for j in range(1, interior + 1)]
             + [1.0] * (degree + 1))
    u = (t - times[0]) / (times[-1] - times[0])
    k = degree
    last = len(knots) - degree - 2
    while k < last and u >= knots[k + 1]:
        k += 1
    pts = [list(vectors[k - degree + j]) for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            lo = knots[k - degree + j]
            hi = knots[k + 1 + j - r]
            alpha = 0.0 if hi == lo else (u - lo) / (hi - lo)
            pts[j] = [(1.0 - alpha) * a + alpha * b for a, b in zip(pts[j - 1], pts[j])]
    return pts[degree]


def _ref_cox_de_boor(vectors, times, t):
    """The generic Cox-de Boor ratio loop of degree min(3, n - 1), per call."""
    n = len(vectors)
    degree = min(3, n - 1)
    interior = n - degree - 1
    knots = ((0.0,) * (degree + 1)
             + tuple(j / (interior + 1) for j in range(1, interior + 1))
             + (1.0,) * (degree + 1))
    u = (t - times[0]) / (times[-1] - times[0])
    k = min(max(bisect.bisect_right(knots, u) - 1, degree), n - 1)
    weights = [1.0]
    for r in range(1, degree + 1):
        nxt = [0.0] * (r + 1)
        for i, w in enumerate(weights):
            lo = knots[k - r + 1 + i]
            alpha = (u - lo) / (knots[k + 1 + i] - lo)
            nxt[i] += (1.0 - alpha) * w
            nxt[i + 1] += alpha * w
        weights = nxt
    rows = vectors[k - degree:k + 1]
    out = [weights[0] * x for x in rows[0]]
    for w, row in zip(weights[1:], rows[1:]):
        out = [o + w * x for o, x in zip(out, row)]
    return out


def _span_boundary_times(track):
    """Interior knot times and the times of the B-spline's interior knots."""
    t0, t1 = track.times[0], track.times[-1]
    pieces = max(len(track.times) - 3, 1)
    spline = [t0 + (t1 - t0) * (j / pieces) for j in range(1, pieces)]
    return list(track.times[1:-1]), spline


def _random_track(rng, n):
    knots = tuple(AffineParam12.from_vector([rng.uniform(-2.0, 2.0) for _ in range(12)])
                  for _ in range(n))
    times = [rng.uniform(-1.0, 1.0)]
    for _ in range(n - 1):
        times.append(times[-1] + rng.uniform(0.05, 2.0))
    return PoseTrack(knots, tuple(times))


def _sample_times(rng, track):
    t0, t1 = track.times[0], track.times[-1]
    return list(track.times) + [rng.uniform(t0, t1) for _ in range(50)]


def _bits(v):
    return [float(x).hex() for x in v]


class TestPreparedTrack:
    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_linear_and_hermite_match_per_call_evaluation(self, rng, n):
        track = _random_track(rng, n)
        vectors = [k.to_vector() for k in track.knots]
        for t in _sample_times(rng, track):
            assert _bits(_eval_linear(track, t)) == _bits(_ref_linear(vectors, track.times, t))
            assert _bits(_eval_hermite(track, t)) == _bits(_ref_hermite(vectors, track.times, t))

    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_bspline_matches_de_boor(self, rng, n):
        track = _random_track(rng, n)
        vectors = [k.to_vector() for k in track.knots]
        for t in _sample_times(rng, track):
            got = _eval_bspline(track, t)
            want = _ref_de_boor(vectors, track.times, t)
            scale = max(abs(x) for x in want)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * scale
        assert _eval_bspline(track, track.times[0]) == list(vectors[0])
        assert _eval_bspline(track, track.times[-1]) == list(vectors[-1])

    @pytest.mark.parametrize("n", [4, 5, 12])
    def test_bspline_matches_cox_de_boor_loop_bit_for_bit(self, rng, n):
        track = _random_track(rng, n)
        vectors = [k.to_vector() for k in track.knots]
        _, spline = _span_boundary_times(track)
        for t in _sample_times(rng, track) + spline:
            got = _eval_bspline(track, t)
            assert _bits(got) == _bits(_ref_cox_de_boor(vectors, track.times, t))

    @pytest.mark.parametrize("n", [2, 3])
    def test_short_bspline_is_its_degree_elevation(self, rng, n):
        # the cubic control rows trace the line or quadratic of the loop
        track = _random_track(rng, n)
        vectors = [k.to_vector() for k in track.knots]
        scale = max(abs(x) for v in vectors for x in v)
        for t in _sample_times(rng, track):
            got = _eval_bspline(track, t)
            want = _ref_cox_de_boor(vectors, track.times, t)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * scale
        assert _eval_bspline(track, track.times[0]) == list(vectors[0])
        assert _eval_bspline(track, track.times[-1]) == list(vectors[-1])

    def test_equality_hash_and_repr_ignore_prepared_fields(self, rng):
        a = _random_track(rng, 5)
        b = PoseTrack(list(a.knots), [float(t) for t in a.times])
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == f"PoseTrack(knots={a.knots!r}, times={a.times!r})"
        assert a != PoseTrack(a.knots, tuple(t + 1.0 for t in a.times))

    def test_non_finite_knot_rejected(self):
        p = AffineParam12.zero()
        bad = AffineParam12(Vec3(0.0, math.nan, 0.0), p.rotation, p.stretch)
        with pytest.raises(NonFiniteInputError, match="knot 1 "):
            PoseTrack((p, bad, p), (0.0, 1.0, 2.0))

    def test_non_finite_time_rejected(self):
        p = AffineParam12.zero()
        with pytest.raises(NonFiniteInputError, match="time 1 "):
            PoseTrack((p, p), (0.0, math.inf))

    def test_overflowing_time_span_rejected(self):
        # each time is finite, but the curves would divide by an infinite span
        p = AffineParam12.zero()
        with pytest.raises(NonFiniteInputError, match="time span -1e[+]308 to 1e[+]308"):
            PoseTrack((p, p, p), (-1e308, 0.0, 1e308))
        PoseTrack((p, p), (-8e307, 8e307))


def _sampled_rows(track, times, curve):
    linear, translation = sample_poses(track, times, curve)
    return np.dstack((linear, translation)).reshape(-1, 12).tolist()


class TestSamplePoses:
    @pytest.mark.parametrize("curve", CURVE_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_equals_interpolate_pose_bit_for_bit(self, rng, n, curve):
        # knot times (endpoints among them), B-spline span ends and random times
        track = _random_track(rng, n)
        _, spline = _span_boundary_times(track)
        t0, t1 = track.times[0], track.times[-1]
        times = _sample_times(rng, track) + spline + [rng.uniform(t0, t1) for _ in range(200)]
        rng.shuffle(times)
        for t, row in zip(times, _sampled_rows(track, times, curve)):
            assert _bits(row) == _bits(interpolate_pose(track, t, curve).to_rows())

    def test_no_times_no_poses(self, rng):
        linear, translation = sample_poses(_random_track(rng, 3), [], "bspline")
        assert linear.shape == (0, 3, 3) and translation.shape == (0, 3)

    @pytest.mark.parametrize("curve", CURVE_KINDS)
    def test_lowest_time_out_of_range_is_named(self, rng, curve):
        track = _random_track(rng, 4)
        t0, t1 = track.times[0], track.times[-1]
        for times, row, bad in (([t0, t1, math.nextafter(t1, math.inf), t0 - 1.0], 2,
                                 math.nextafter(t1, math.inf)),
                                ([t1, math.nan, t1 + 1.0], 1, math.nan),
                                ([t0 - 1.0, math.inf], 0, t0 - 1.0)):
            with pytest.raises(OutOfRangeError) as info:
                sample_poses(track, times, curve)
            with pytest.raises(OutOfRangeError) as scalar:
                interpolate_pose(track, bad, curve)
            assert str(info.value) == f"row {row}: {scalar.value}"
            assert info.value.row == row
            assert str(info.value.__cause__) == str(scalar.value)

    def test_forward_map_error_is_the_batch_error(self):
        # the linear stretch log reaches 800 at t = 1 only
        zero = AffineParam12.zero()
        big = AffineParam12.from_vector([0.0] * 6 + [800.0] + [0.0] * 5)
        track = PoseTrack((zero, big), (0.0, 1.0))
        with pytest.raises(OverflowError) as info:
            sample_poses(track, [0.0, 0.5, 1.0, 1.0], "linear")
        assert str(info.value) == "row 2: exp of leading eigenvalue 800.0 is not representable"
        assert info.value.row == 2
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("curve", CURVE_KINDS)
    def test_not_finite_rows_come_out_as_the_scalar_ones(self, curve):
        # knot differences of 2e308 overflow: no warning, no error, the
        # samples not finite where interpolate_pose's are
        knots = tuple(AffineParam12.from_vector([x] + [0.0] * 11) for x in (-1e308, 1e308, -1e308))
        track = PoseTrack(knots, (0.0, 1.0, 2.0))
        times = [0.0, 0.5, 1.0, 1.5, 2.0]
        for t, row in zip(times, _sampled_rows(track, times, curve)):
            want = interpolate_pose(track, t, curve).to_rows()
            assert [math.isfinite(v) for v in row] == [math.isfinite(v) for v in want]
            assert _bits(v for v in row if not math.isnan(v)) == _bits(
                v for v in want if not math.isnan(v))

    def test_bad_arguments(self, rng):
        track = _random_track(rng, 3)
        with pytest.raises(ValueError, match="unknown curve 'cubic'"):
            sample_poses(track, [track.times[0]], "cubic")
        with pytest.raises(ValueError, match=r"times: expected shape \(F,\), got \(1, 2\)"):
            sample_poses(track, [list(track.times[:2])])


@st.composite
def _tracks(draw):
    n = draw(st.integers(2, 12))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(entry, min_size=12, max_size=12), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    times = [draw(st.floats(-100.0, 100.0))]
    for g in gaps:
        times.append(times[-1] + g)
    return PoseTrack(tuple(AffineParam12.from_vector(r) for r in rows), tuple(times))


_EVALUATORS = {"linear": _eval_linear, "hermite": _eval_hermite, "bspline": _eval_bspline}


class TestCurveProperties:
    @settings(max_examples=150, deadline=None)
    @given(_tracks())
    def test_finite_continuous_and_bspline_ends_exact(self, track):
        t0, t1 = track.times[0], track.times[-1]
        knot_times, spline = _span_boundary_times(track)
        # every curve moves at most this far per unit time (slope bound)
        shortest = min(min(b - a for a, b in zip(track.times, track.times[1:])),
                       (t1 - t0) / max(len(track.times) - 3, 1))
        slope = 100.0 * 4.0 / shortest
        for curve, evaluate in _EVALUATORS.items():
            boundaries = spline if curve == "bspline" else knot_times
            for tb in boundaries:
                # a few ulps either side, so rounding in the span lookup
                # cannot keep both neighbours in one span
                step = 4.0 * math.ulp(max(abs(t0), abs(t1)))
                lo, hi = tb - step, tb + step
                left, mid, right = (evaluate(track, t) for t in (lo, tb, hi))
                tol = 1e-12 + slope * (hi - lo)
                for a, b, c in zip(left, mid, right):
                    assert abs(a - b) <= tol and abs(c - b) <= tol
            for t in [t0, t1] + boundaries + [t0 + (t1 - t0) * i / 8 for i in range(1, 8)]:
                t = min(max(t, t0), t1)
                out = interpolate_pose(track, t, curve=curve)
                assert all(map(math.isfinite, out.to_rows()))
        for t, knot in ((t0, track.knots[0]), (t1, track.knots[-1])):
            assert _eval_bspline(track, t) == list(knot.to_vector())
            assert interpolate_pose(track, t, curve="bspline") == params_to_transform(knot)


class TestClassClosureSample:
    def test_blend_closure_smoke(self, rng):
        # light version of the acceptance sweep: rotations only
        cls = TransformClass.SO3
        members = []
        for _ in range(4):
            p = AffineParam12(Vec3(0, 0, 0),
                              generator_for(rand_unit_axis(rng), rng.uniform(0, 2.5)),
                              SymMat3(0, 0, 0, 0, 0, 0))
            members.append(params_to_transform(project_to_class(p, cls)))
        for _ in range(20):
            weights = tuple(rng.uniform(-2, 2) for _ in range(4))
            out = blend(WeightedTransforms(tuple(members), weights))
            assert mat_dist(sym_to_mat3(gram(out.linear)), MAT3_IDENTITY) <= 1e-8
            assert vec_dist(out.translation, Vec3(0, 0, 0)) <= 1e-8

import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine12 import logmap
from affine12.batch import _log_so3, params_to_transforms, transforms_to_params
from affine12.errors import NotARotationError, NotPositiveDefiniteError, OutOfRangeError
from affine12.expmap import exp_so3, exp_sym3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    AntiSymMat3,
    Mat3,
    SymMat3,
    Vec3,
    antisym_angle,
    gram,
    mat_mul,
    sym_eigenvalues,
    sym_scale,
    sym_square,
)
from affine12.logmap import (
    consistent_log_so3,
    inv_sqrt_spd,
    log_quad_coeff,
    log_so3,
    log_spd_half_gram,
)
from affine12.oracle import matfun_diag
from affine12.param import HomAffine3, params_to_transform, transform_to_params
from conftest import (
    TINY_ARGUMENTS,
    axis_angle_rotation,
    conjugate_spectrum,
    generator_for,
    mat_dist,
    rand_antisym,
    rand_linear,
    rand_unit_axis,
    sym_dist,
    sym_norm,
    sym_to_mat3,
)


class TestLogQuadCoeff:
    def test_limit_at_one(self):
        assert log_quad_coeff(1.0) == 0.0

    def test_quotient_near_one(self):
        # the plain quotient needs no series: within an ulp of
        # sum (-1)^(k+1) u^(k-1)/k (k <= 9, truncation below 1e-20 here)
        # from the smallest offset to 1e-3, across the former switch at 1e-3
        for t in TINY_ARGUMENTS:
            for x in (1.0 + t, 1.0 - t):
                u = x - 1.0  # exact: the offset the helper sees
                series = sum((-1) ** (k + 1) * u ** (k - 1) / k for k in range(2, 10))
                assert abs(log_quad_coeff(x) - series) <= 2.3e-16, x


class TestLogSpd:
    def test_identity(self):
        eye = SymMat3(1, 0, 0, 1, 0, 1)
        out = log_spd_half_gram(eye, sym_eigenvalues(eye))
        assert sym_norm(out) <= 1e-15

    def test_diagonal_half_log(self):
        g = SymMat3(4.0, 0, 0, 1.0, 0, 0.25)
        out = log_spd_half_gram(g, sym_eigenvalues(g))
        want = SymMat3(math.log(2.0), 0, 0, 0.0, 0, -math.log(2.0))
        assert sym_dist(out, want) <= 1e-15

    def test_rejects_indefinite(self):
        g = SymMat3(1.0, 0, 0, -1.0, 0, 1.0)
        with pytest.raises(NotPositiveDefiniteError):
            log_spd_half_gram(g, sym_eigenvalues(g))

    def test_tight_spectrum_gaps(self):
        # ratio gaps down to an ulp take the plain divided differences far
        # below their former series switches at 1e-3 and 1e-4
        rng = random.Random(33)
        for k in range(2, 17):
            d = 10.0 ** -k
            for _ in range(100):
                l2 = math.exp(rng.uniform(-0.5, 0.5))
                q = exp_so3(rand_antisym(rng, 2.0))
                for lams in ((l2 * (1 + d), l2, 0.5 * l2),
                             (l2 * (1 + 0.5 * d), l2, l2 * (1 - 0.5 * d))):
                    g = conjugate_spectrum(q, lams)
                    ours = log_spd_half_gram(g, sym_eigenvalues(g))
                    ref = matfun_diag(g, "log")
                    assert sym_dist(sym_scale(ours, 2.0), ref) <= 1e-12 * max(1.0, sym_norm(ref))
        # diagonal inputs keep their exact spectrum, here with one-ulp gaps
        for l2 in (0.3, 1.0, 7.0):
            up, down = math.nextafter(l2, 10.0), math.nextafter(l2, 0.0)
            for lams in ((up, l2, down), (up, l2, 0.5 * l2), (l2, l2, down), (l2, l2, l2)):
                g = SymMat3(lams[0], 0.0, 0.0, lams[1], 0.0, lams[2])
                out = log_spd_half_gram(g, sym_eigenvalues(g))
                want = [0.5 * math.log(v) for v in lams]
                assert (out.xy, out.xz, out.yz) == (0.0, 0.0, 0.0)
                for got, w in zip((out.xx, out.yy, out.zz), want):
                    assert abs(got - w) <= 2.3e-16 * max(1.0, *map(abs, want)), lams

    def test_sqrt_roundtrip_on_grams(self, rng):
        # exp of the half-log is sqrt(G): squared it must reproduce G
        for _ in range(10000):
            g = gram(rand_linear(rng))
            eig = sym_eigenvalues(g)
            root = exp_sym3(log_spd_half_gram(g, eig))
            assert sym_dist(sym_square(root), g) <= 1e-10 * max(1.0, sym_norm(g))


class TestInvSqrt:
    def test_identity(self):
        eye = SymMat3(1, 0, 0, 1, 0, 1)
        assert sym_dist(inv_sqrt_spd(eye, sym_eigenvalues(eye)), eye) <= 1e-15

    def test_scalar(self):
        g = SymMat3(4.0, 0, 0, 4.0, 0, 4.0)
        out = inv_sqrt_spd(g, sym_eigenvalues(g))
        assert sym_dist(out, SymMat3(0.5, 0, 0, 0.5, 0, 0.5)) <= 1e-15

    def test_against_oracle_sqrt(self, rng):
        for _ in range(500):
            lams = sorted((math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
                           for _ in range(3)), reverse=True)
            g = conjugate_spectrum(exp_so3(rand_antisym(rng, 2.0)), lams)
            inv_root = inv_sqrt_spd(g, sym_eigenvalues(g))
            root = matfun_diag(g, "sqrt")
            prod = mat_mul(sym_to_mat3(inv_root), sym_to_mat3(root))
            assert mat_dist(prod, MAT3_IDENTITY) <= 1e-10


class TestLogSo3:
    def test_identity(self):
        assert antisym_angle(log_so3(MAT3_IDENTITY)) == 0.0

    def test_quarter_turn_inverse(self):
        r = Mat3(0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        x = log_so3(r)
        assert abs(x.m12 + math.pi / 2.0) <= 1e-15
        assert abs(x.m13) <= 1e-15
        assert abs(x.m23) <= 1e-15

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotationError):
            log_so3(Mat3(1.0, 0.1, 0, 0, 1.0, 0, 0, 0, 1.0))
        with pytest.raises(NotARotationError):
            log_so3(Mat3(1.0, 0, 0, 0, 1.0, 0, 0, 0, -1.0))  # reflection

    def test_near_pi_roundtrip(self):
        axis = (1.0 / math.sqrt(3.0),) * 3
        r = axis_angle_rotation(axis, math.pi - 1e-5)
        assert mat_dist(exp_so3(log_so3(r)), r) <= 1e-9

    def test_roundtrip_all_regimes(self, rng):
        angles = [0.0, 1e-9, 1e-6, 1e-4, 0.5, 1.5, 2.8, math.pi - 1e-3,
                  math.pi - 1e-4, math.pi - 1e-6, math.pi - 1e-9, math.pi]
        for angle in angles:
            for _ in range(50):
                axis = rand_unit_axis(rng)
                r = axis_angle_rotation(axis, angle)
                assert mat_dist(exp_so3(log_so3(r)), r) <= 1e-10, angle

    def test_principal_angle_range(self, rng):
        for _ in range(500):
            r = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0, math.pi))
            assert antisym_angle(log_so3(r)) <= math.pi + 1e-12

    def test_continuity_across_near_pi_branch(self, rng):
        for _ in range(300):
            axis = rand_unit_axis(rng)
            lo = axis_angle_rotation(axis, math.pi - 1e-3 * (1 + 1e-8))
            hi = axis_angle_rotation(axis, math.pi - 1e-3 * (1 - 1e-8))
            d = mat_dist(sym_to_mat3_anti(log_so3(lo)), sym_to_mat3_anti(log_so3(hi)))
            assert d <= 1e-10


def sym_to_mat3_anti(x: AntiSymMat3) -> Mat3:
    from conftest import antisym_to_mat3

    return antisym_to_mat3(x)


HALF_TURNS = (Mat3(1.0, 0, 0, 0, -1.0, 0, 0, 0, -1.0),
              Mat3(-1.0, 0, 0, 0, 1.0, 0, 0, 0, -1.0),
              Mat3(-1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0))

unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3).map(lambda v: tuple(c / math.hypot(*v) for c in v))


def unit_generator(v, angle: float) -> AntiSymMat3:
    """The generator angle * v/|v|, v given as its packed entries (m12, m13, m23)."""
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return AntiSymMat3(*(c / n * angle for c in v))


def batch_log_so3(r: Mat3) -> AntiSymMat3:
    """batch._log_so3 of the single rotation r."""
    x = _log_so3(Mat3(*(np.array([c]) for c in r)))
    return AntiSymMat3(*(float(c[0]) for c in x))


def batch_exp_so3(x: AntiSymMat3) -> Mat3:
    """The rotation of x through batch.params_to_transforms (zero stretch log)."""
    lin, _ = params_to_transforms(np.array([[0.0] * 3 + list(x) + [0.0] * 6]))
    return Mat3(*lin[0].ravel())


def small_component_axis(t) -> tuple[float, float, float]:
    """Entry i is sign * 10**e, in [1e-12, 1e-5]; the other two lie on a circle at angle phi."""
    i, e, sign, phi = t
    axis = [math.cos(phi), math.sin(phi)]
    axis.insert(i, sign * 10.0 ** e)
    return tuple(axis)


# one axis component times sin t sits below the rounding of R's entries (a, b)
# or below a 1e-10 change of one of them (c): a sign read off that component
# alone is lost
CASE_A = exp_so3(unit_generator((1.0, 3e-9, 0.6), math.pi - 1e-8))
CASE_B = mat_mul(CASE_A, Mat3(2.0, 0, 0, 0, 1.0, 0, 0, 0, 0.5))
_R_C = exp_so3(unit_generator((1.0, 1e-7, 0.6), math.pi - 1e-4))
CASE_C = _R_C._replace(a13=_R_C.a13 - 1e-10)


class TestLogSo3NearPiSign:
    """The axis projection s that gives the near-pi angle also gives the sign."""

    @pytest.mark.parametrize("log", [log_so3, batch_log_so3])
    def test_small_axis_component(self, log):
        assert mat_dist(exp_so3(log(CASE_A)), CASE_A) <= 1e-14
        assert mat_dist(batch_exp_so3(log(CASE_A)), CASE_A) <= 1e-14

    def test_stretched_small_axis_component(self):
        a = HomAffine3(CASE_B, Vec3(0.0, 0.0, 0.0))
        back = params_to_transform(transform_to_params(a))
        assert mat_dist(back.linear, CASE_B) <= 1e-14
        lin, _ = params_to_transforms(transforms_to_params(np.array([CASE_B]).reshape(1, 3, 3),
                                                           np.zeros((1, 3))))
        assert mat_dist(Mat3(*lin[0].ravel()), CASE_B) <= 1e-14

    @pytest.mark.parametrize("log", [log_so3, batch_log_so3])
    def test_perturbed_entry_costs_only_its_own_size(self, log):
        # a13 lowered by 1e-10: the nearest rotation is ~1e-10 away
        assert mat_dist(exp_so3(log(CASE_C)), CASE_C) <= 2e-10
        assert mat_dist(batch_exp_so3(log(CASE_C)), CASE_C) <= 2e-10

    @pytest.mark.parametrize("gap", [1.001e-3, 1e-2, 0.1, 0.3, 0.5 * math.pi - 1e-4])
    def test_one_entry_moved_costs_only_its_own_size(self, gap):
        # the obtuse rule holds the round trip to the input's own defect over
        # the whole obtuse half, not only next to the half-turn
        rng = random.Random(17)
        rows = []
        for _ in range(200):
            r = list(exp_so3(unit_generator([rng.gauss(0.0, 1.0) for _ in range(3)],
                                            math.pi - gap)))
            r[rng.randrange(9)] += rng.choice((-1e-10, 1e-10))
            rows.append(Mat3(*r))
        for log in (log_so3, batch_log_so3):
            assert max(mat_dist(exp_so3(log(r)), r) for r in rows) <= 2e-10

    @settings(max_examples=300, deadline=None)
    @given(axis=st.one_of(
               st.tuples(st.integers(0, 2), st.floats(-12.0, -5.0), st.sampled_from((-1.0, 1.0)),
                         st.floats(0.0, 2.0 * math.pi)).map(small_component_axis),
               unit_axes),
           gap=st.floats(-12.0, math.log10(0.5 * math.pi)).map(lambda e: 10.0 ** e),
           perturbation=st.lists(st.floats(-1e-10, 1e-10), min_size=9, max_size=9))
    def test_near_pi_round_trip_property(self, axis, gap, perturbation):
        r = exp_so3(unit_generator(axis, math.pi - gap))
        perturbed = Mat3(*(a + d for a, d in zip(r, perturbation)))
        size = math.sqrt(sum(d * d for d in perturbation))
        for log in (log_so3, batch_log_so3):
            assert mat_dist(exp_so3(log(r)), r) <= 1e-14
            assert mat_dist(exp_so3(log(perturbed)), perturbed) <= 10.0 * size + 1e-14


class TestLogSo3TinyAngles:
    """Plain t/sin t and sin(t)/t hold log(exp x) to roundoff down to 1e-300."""

    @settings(max_examples=300, deadline=None)
    @given(axis=unit_axes, angle=st.floats(-300.0, -3.0).map(lambda e: 10.0 ** e))
    def test_log_of_exp_property(self, axis, angle):
        x = unit_generator(axis, angle)
        for got in (log_so3(exp_so3(x)), batch_log_so3(batch_exp_so3(x))):
            assert math.dist(got, x) <= 1e-15 * angle


class TestConsistentLog:
    def test_identity_with_zero_ref(self):
        out = consistent_log_so3(MAT3_IDENTITY, AntiSymMat3(0, 0, 0))
        assert antisym_angle(out) == 0.0

    def test_full_turn_preserved(self):
        # the identity with a reference one full turn away stays a full turn
        ref = generator_for((0.0, 0.0, 1.0), 2.0 * math.pi)
        out = consistent_log_so3(MAT3_IDENTITY, ref)
        assert abs(antisym_angle(out) - 2.0 * math.pi) <= 1e-12
        assert mat_dist(sym_to_mat3_anti(out), sym_to_mat3_anti(ref)) <= 1e-12

    def test_chained_sequence_angles(self, rng):
        # fixed-axis steps of ~0.1 rad: chained branch tracking recovers k*step
        axis = rand_unit_axis(rng)
        prev = AntiSymMat3(0.0, 0.0, 0.0)
        for k in range(126):
            angle = 0.1 * k
            r = axis_angle_rotation(axis, angle)
            x = consistent_log_so3(r, prev)
            assert abs(antisym_angle(x) - angle) <= 1e-9
            prev = x

    def test_half_turn_follows_reference_direction(self):
        r = Mat3(-1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0)  # exact half turn about z
        ref = generator_for((0.0, 0.0, 1.0), 2.5)
        out = consistent_log_so3(r, ref)
        want = generator_for((0.0, 0.0, 1.0), math.pi)
        assert mat_dist(sym_to_mat3_anti(out), sym_to_mat3_anti(want)) <= 1e-12

    def test_half_turns_zero_reference_reproduce_rotation(self):
        # the x, y and z half-turns each keep their own axis
        for r in HALF_TURNS:
            out = consistent_log_so3(r, AntiSymMat3(0.0, 0.0, 0.0))
            assert mat_dist(exp_so3(out), r) <= 1e-15
            assert antisym_angle(out) == math.pi

    def test_half_turn_far_reference_takes_its_turn(self):
        # a reference of 9 rad about z puts the z half-turn on 3*pi, as the
        # same rotation just short of pi already was
        ref = generator_for((0.0, 0.0, 1.0), 9.0)
        for angle in (math.pi, math.pi - 1e-4):
            out = consistent_log_so3(axis_angle_rotation((0.0, 0.0, 1.0), angle), ref)
            want = generator_for((0.0, 0.0, 1.0), angle + 2.0 * math.pi)
            assert mat_dist(sym_to_mat3_anti(out), sym_to_mat3_anti(want)) <= 1e-12
        out = consistent_log_so3(HALF_TURNS[2], ref)
        assert abs(antisym_angle(out) - 3.0 * math.pi) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(rotation=st.one_of(
               st.sampled_from(HALF_TURNS),
               st.tuples(unit_axes, st.floats(0.0, math.pi)).map(
                   lambda aa: axis_angle_rotation(*aa))),
           ref_axis=unit_axes,
           ref_angle=st.one_of(st.just(0.0), st.floats(-300.0, 7.0).map(lambda e: 10.0 ** e)))
    def test_branch_rule_property(self, rotation, ref_axis, ref_angle):
        ref = generator_for(ref_axis, ref_angle)
        ref_angle = antisym_angle(ref)
        if ref_angle > 1e7:   # 1e7 itself may measure one ulp above the bound
            with pytest.raises(OutOfRangeError):
                consistent_log_so3(rotation, ref)
            return
        out = consistent_log_so3(rotation, ref)
        assert mat_dist(exp_so3(out), rotation) <= 1e-12 + 1e-15 * ref_angle
        # along the principal axis (the reference's for the identity), the
        # result lies within pi of the reference angle signed the same way
        principal = log_so3(rotation)
        axis = principal if antisym_angle(principal) > 1e-12 else ref
        norm = antisym_angle(axis)
        if norm == 0.0:
            assert out == principal
            return
        signed = (out.m12 * axis.m12 + out.m13 * axis.m13 + out.m23 * axis.m23) / norm
        side = ref.m12 * axis.m12 + ref.m13 * axis.m13 + ref.m23 * axis.m23
        target = ref_angle if side >= 0.0 else -ref_angle
        assert abs(signed - target) <= math.pi + 1e-9 + 1e-15 * ref_angle

    @pytest.mark.parametrize("ref_angle", [1.0000001e7, 1e17, 1e300, math.inf, math.nan])
    def test_reference_out_of_range(self, ref_angle):
        # the call is stopped after 10 s, so a branch search that does not
        # end at a huge reference fails the test instead of hanging the suite
        def stop(signum, frame):
            raise TimeoutError("consistent_log_so3 ran for 10 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(10)
        try:
            ref = generator_for((0.0, 0.6, 0.8), ref_angle)
            with pytest.raises(OutOfRangeError, match="reference angle"):
                consistent_log_so3(MAT3_IDENTITY, ref)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_roundtrip_and_angle_window(self, rng):
        for _ in range(1000):
            angle = rng.uniform(0.0, math.pi - 1e-6)
            r = axis_angle_rotation(rand_unit_axis(rng), angle)
            ref_angle = rng.uniform(0.0, 10.0)
            ref = generator_for(rand_unit_axis(rng), ref_angle)
            out = consistent_log_so3(r, ref)
            assert mat_dist(exp_so3(out), r) <= 1e-10
            # the signed angle of the result lies within pi of the reference's
            out_angle = antisym_angle(out)
            dot = (out.m12 * ref.m12 + out.m13 * ref.m13 + out.m23 * ref.m23)
            signed = out_angle if dot >= 0.0 or out_angle == 0.0 else -out_angle
            assert min(abs(signed - ref_angle), abs(-signed - ref_angle)) <= math.pi + 1e-9

    def test_checks_rotation_once(self, rng, monkeypatch):
        calls = []
        check = logmap._check_rotation
        monkeypatch.setattr(logmap, "_check_rotation", lambda r: calls.append(r) or check(r))
        half_turn = Mat3(-1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0)
        rotations = [MAT3_IDENTITY, half_turn,
                     axis_angle_rotation(rand_unit_axis(rng), math.pi - 1e-9),
                     axis_angle_rotation(rand_unit_axis(rng), 2.0)]
        ref = generator_for(rand_unit_axis(rng), 7.0)
        for k, r in enumerate(rotations, start=1):
            consistent_log_so3(r, ref)
            assert len(calls) == k
        with pytest.raises(NotARotationError):
            consistent_log_so3(Mat3(2.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0), ref)
        assert len(calls) == len(rotations) + 1


class TestLogBranchContinuity:
    def test_l2_threshold_sweep(self, rng):
        # outer eigenvalue ratio crossing the former series switch of the log helper
        for _ in range(300):
            q = exp_so3(rand_antisym(rng, 2.0))
            l2 = math.exp(rng.uniform(-0.5, 0.5))
            lo = conjugate_spectrum(q, (l2 * (1 + 1e-3 * (1 - 1e-7)), l2, 0.5 * l2))
            hi = conjugate_spectrum(q, (l2 * (1 + 1e-3 * (1 + 1e-7)), l2, 0.5 * l2))
            a = log_spd_half_gram(lo, sym_eigenvalues(lo))
            b = log_spd_half_gram(hi, sym_eigenvalues(hi))
            assert sym_dist(a, b) <= 1e-10

    def test_log_confluent_spread_sweep(self, rng):
        # Gram spread crossing the former confluent-series switch
        for _ in range(300):
            q = exp_so3(rand_antisym(rng, 2.0))
            l2 = math.exp(rng.uniform(-0.5, 0.5))
            s = 1e-4
            lo = conjugate_spectrum(q, (l2 * (1 + s * (1 - 1e-7) / 2), l2,
                                        l2 * (1 - s * (1 - 1e-7) / 2)))
            hi = conjugate_spectrum(q, (l2 * (1 + s * (1 + 1e-7) / 2), l2,
                                        l2 * (1 - s * (1 + 1e-7) / 2)))
            a = log_spd_half_gram(lo, sym_eigenvalues(lo))
            b = log_spd_half_gram(hi, sym_eigenvalues(hi))
            assert sym_dist(a, b) <= 1e-10

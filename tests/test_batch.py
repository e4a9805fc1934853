"""The batched parameter maps against the scalar ones, row by row, bit for bit."""

import math
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine12.batch import params_to_transforms, transforms_to_params
from affine12.errors import (
    NotOrientationPreservingError,
    NotPositiveDefiniteError,
    OutOfRangeError,
)
from affine12.expmap import exp_so3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    Mat3,
    Vec3,
    antisym_angle,
    gram,
    mat_mul,
    sym_eigenvalues,
)
from affine12.param import (
    _NEWTON_SKIP,
    AffineParam12,
    HomAffine3,
    params_to_transform,
    transform_to_params,
)
from conftest import (
    axis_angle_rotation,
    conjugate_spectrum,
    generator_for,
    rand_antisym,
    rand_linear,
    rand_unit_axis,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench import inputs  # noqa: E402
from perfbench.workloads import ENVELOPE_ITEMS, CliBatch  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _straddle(x: float, eps: float = 1e-8):
    return x * (1.0 - eps), x * (1.0 + eps)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type below
        return exc


def _bits(values) -> list[str]:
    """float.hex of every entry: equal lists are equal bit for bit, NaN and -0.0 included."""
    return [float(v).hex() for v in np.ravel(values)]


def _ref_rows(logs, rng=None) -> np.ndarray:
    """Reference rows (N, 12) with the given rotation logs and random
    translation and stretch columns, which the maps never read."""
    rng = np.random.default_rng(len(logs)) if rng is None else rng
    refs = rng.uniform(-9.0, 9.0, (len(logs), 12))
    refs[:, 3:6] = logs
    return refs


def _check_inverse(mats, ref_logs=None):
    """The batch inverse map equals the scalar one bit for bit on every row,
    or raises the error of the lowest row that has one; with ref_logs, on
    the branch nearest each row's reference rotation log."""
    lin = np.array(mats, dtype=float).reshape(-1, 3, 3)
    rng = np.random.default_rng(len(mats))
    tr = rng.uniform(-2.0, 2.0, (len(mats), 3))
    refs = None if ref_logs is None else _ref_rows(ref_logs, rng)
    scalar_refs = ([None] * len(mats) if refs is None
                   else [AffineParam12.from_vector(r) for r in refs.tolist()])
    want = [_outcome(lambda m=m, t=t, r=r: transform_to_params(HomAffine3(Mat3(*m), Vec3(*t)),
                                                               ref=r))
            for m, t, r in zip(lin.reshape(-1, 9).tolist(), tr.tolist(), scalar_refs)]
    errors = [(i, w) for i, w in enumerate(want) if isinstance(w, Exception)]
    if errors:
        _raises_as(errors[0][1], errors[0][0], lambda: transforms_to_params(lin, tr, refs))
        return
    got = transforms_to_params(lin, tr, refs)
    assert got.shape == (len(mats), 12)
    assert _bits(got) == _bits([w.to_vector() for w in want])
    return got


def _check_forward(params):
    """The batch forward map equals the scalar one bit for bit on every row."""
    p = np.array(params, dtype=float).reshape(-1, 12)
    lin, tr = params_to_transforms(p)
    want = np.array([params_to_transform(AffineParam12.from_vector(v)).to_rows()
                     for v in p.tolist()]).reshape(-1, 3, 4)
    assert _bits(lin) == _bits(want[:, :, :3])
    assert _bits(tr) == _bits(want[:, :, 3])


def _linear_of(params):
    return [params_to_transform(AffineParam12.from_vector(v)).linear for v in params]


def _param(rotation, stretch_eig, rng):
    """A parameter vector with the given generator and stretch-log spectrum."""
    y = conjugate_spectrum(exp_so3(rand_antisym(rng, 2.0)), stretch_eig)
    return [rng.uniform(-1.0, 1.0) for _ in range(3)] + list(rotation) + list(y)


def test_criterion_1_sample_inverse_and_forward():
    rng = random.Random(101)
    mats = [rand_linear(rng) for _ in range(2000)]
    _check_inverse(mats)
    params = [transform_to_params(HomAffine3(m, Vec3(0.0, 0.0, 0.0))).to_vector() for m in mats]
    _check_forward(params)
    _check_forward(np.random.default_rng(5).uniform(-2.0, 2.0, (2000, 12)))


def test_rotation_thresholds_straddled():
    # the former switches of the sinc series (at the angle and at its half,
    # which exp_so3 also takes) and of the half-turn branch of the log, and
    # the branch test of the log at cos t = 0
    rng = random.Random(102)
    params, mats = [], []
    for _ in range(50):
        axis = rand_unit_axis(rng)
        for angle in (*_straddle(1e-4), *_straddle(2e-4),
                      *(math.pi - g for g in _straddle(1e-3)),
                      *_straddle(0.5 * math.pi)):
            params.append([0.0] * 3 + list(generator_for(axis, angle)) + [0.0] * 6)
            mats.append(axis_angle_rotation(axis, angle))
    _check_forward(params)
    _check_inverse(mats)
    _check_inverse(_linear_of(params))


def test_stretch_thresholds_straddled():
    # the former series switches (exp: e2 at 1e-4 on an outer gap, the
    # confluent spectrum at a spread of 1e-4; log: L2 at 1e-3 on the Gram
    # ratio, the confluent Gram spectrum at 1e-4), tiny gaps far below them
    # and a spread of exactly 0; the Newton skip on a Gram gap
    rng = random.Random(103)
    params = []
    for _ in range(50):
        x = rand_antisym(rng, 1.0)
        base = rng.uniform(-0.5, 0.5)
        for d in (*_straddle(1e-4), 1e-12):
            params.append(_param(x, (base + d, base, base - 0.5), rng))
            params.append(_param(x, (base + d / 2, base, base - d / 2), rng))
        for d in (*_straddle(1e-3), 1e-12):
            params.append(_param(x, (base + 0.5 * math.log1p(d), base, base - 0.35), rng))
        for d in (*_straddle(1e-4), 1e-12):
            params.append(_param(x, (base + 0.25 * d, base, base - 0.25 * d), rng))
        # diagonal stretch logs keep their exact spectrum, so the gaps
        # 1e-100 and 1e-300 reach the exp kernel; without a rotation the
        # Gram matrix is exactly diagonal too, and exactly I (a zero log
        # spread) where exp rounds the gap away
        for d in (1e-100, 1e-300, 0.0):
            for rot in (x, (0.0, 0.0, 0.0)):
                params.append([0.0] * 3 + list(rot) + [d, 0.0, 0.0, 0.0, 0.0, -d])
                params.append([0.0] * 3 + list(rot) + [base + d, 0.0, 0.0, base, 0.0, base - 0.5])
        # Gram spectrum (l2 (1 + g), l2, l2 / 2): the top Newton step sees
        # |dp| = g (1/2 + g) l2^2 against the skip bound, here at l1 ~ 1
        for g in _straddle(2.0 * _NEWTON_SKIP):
            params.append(_param(x, (0.5 * math.log1p(g), 0.0, -0.5 * math.log(2.0)), rng))
    _check_forward(params)
    _check_inverse(_linear_of(params))


def test_near_and_exact_half_turns():
    rng = random.Random(104)
    mats = [Mat3(1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0),
            Mat3(-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
            Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0)]
    exact = []
    for _ in range(100):
        axis = rand_unit_axis(rng)
        exact.append(axis_angle_rotation(axis, math.pi))
        for gap in (1e-12, 1e-7, 1e-4, 5e-4):
            mats.append(axis_angle_rotation(axis, math.pi - gap))
    # an axis component of a few ulps of sin t, where a sign read off that
    # component alone is lost in rounding
    for i in range(3):
        for small in (1e-12, 3e-9, -1e-7, 1e-5):
            axis = [0.8, -0.6]
            axis.insert(i, small)
            n = math.sqrt(sum(c * c for c in axis))
            for gap in (1e-12, 1e-8, 1e-4):
                mats.append(axis_angle_rotation([c / n for c in axis], math.pi - gap))
    for group in (mats, exact):
        stretched = [mat_mul(m, Mat3(1.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.7)) for m in group]
        _check_inverse(group)
        _check_inverse(stretched)
    params = [[0.0] * 3 + list(generator_for(rand_unit_axis(rng), math.pi)) + [0.0] * 6
              for _ in range(50)]
    _check_forward(params)


def test_diagonal_input_takes_the_shortcut():
    rng = random.Random(105)
    mats = [Mat3(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
            Mat3(2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.5)]
    params = [[0.0] * 12, [0.0] * 6 + [0.3, 0.0, 0.0, 0.3, 0.0, -0.2]]
    for _ in range(200):
        d = [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(3)]
        mats.append(Mat3(d[0], 0.0, 0.0, 0.0, d[1], 0.0, 0.0, 0.0, d[2]))
        params.append([0.0] * 6 + [math.log(d[0]), 0.0, 0.0, math.log(d[1]), 0.0, math.log(d[2])])
    _check_inverse(mats)
    _check_forward(params)


def test_gram_recovery_when_the_cubic_returns_l3_not_positive():
    # cond(A) ~ 1e8: the scalar route itself carries ~eps * cond there
    rng = random.Random(106)
    mats = []
    while len(mats) < 40:
        q1 = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, 3.0))
        q2 = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, 3.0))
        m = mat_mul(mat_mul(q1, Mat3(100.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-6)), q2)
        if sym_eigenvalues(gram(m)).l3 <= 0.0:
            mats.append(m)
    # the batch leaves these rows to the scalar map
    _check_inverse(mats)


def test_same_typed_errors_naming_the_row():
    good = np.eye(3)
    zero = np.zeros(3)

    def batch(*mats):
        return transforms_to_params(np.array(mats), np.zeros((len(mats), 3)))

    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotOrientationPreservingError):
        transform_to_params(HomAffine3(Mat3(*flip.ravel()), Vec3(*zero)))
    with pytest.raises(NotOrientationPreservingError, match="row 1"):
        batch(good, flip)

    # det^2 underflows, so even the recovered smallest Gram eigenvalue is 0
    tiny = np.diag([1.0, 1.0, 1e-200])
    with pytest.raises(NotPositiveDefiniteError):
        transform_to_params(HomAffine3(Mat3(*tiny.ravel()), Vec3(*zero)))
    with pytest.raises(NotPositiveDefiniteError, match="row 2"):
        batch(good, good, tiny)

    for stretch in ([710.0, 0.0, 0.0, 0.0, 0.0, 0.0],      # leading eigenvalue
                    [700.0, 0.0, 0.0, -100.0, 0.0, -100.0]):  # eigenvalue spread
        p = [0.0] * 6 + stretch
        with pytest.raises(OverflowError):
            params_to_transform(AffineParam12.from_vector(p))
        with pytest.raises(OverflowError, match="row 1"):
            params_to_transforms(np.array([[0.0] * 12, p]))

    # a rotation log whose angle overflows to inf: the scalar path's error, not NaN rows
    p = [0.0] * 3 + [1e200, 0.0, 0.0] + [0.0] * 6
    with pytest.raises(OutOfRangeError, match="rotation angle inf"):
        params_to_transform(AffineParam12.from_vector(p))
    with pytest.raises(OutOfRangeError, match=r"^row 2: rotation angle inf is not finite$"):
        params_to_transforms(np.array([[0.0] * 12, [0.0] * 12, p, p]))


# inputs on which the scalar maps raise, one per rule, in the order they are checked
INVERSE_ERRORS = {
    "det <= 0": np.diag([1.0, 1.0, -1.0]),
    "det^2 underflows to a zero Gram eigenvalue": np.diag([1.0, 1.0, 1e-200]),
    "Gram ratio lost in log1p(x - 1)": np.diag([1.0, 1.0, 1e-9]),
    "no orthogonal rotation factor": np.diag([1e6, 1.0, 1e-6]),
}
FORWARD_ERRORS = {
    "leading eigenvalue": [0.0] * 6 + [710.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    # exp(l1) overflows, but the rotated eigenvectors would keep every entry finite
    "rotated leading eigenvalue": [0.0] * 6 + [709.4, -0.4, 0.0, 709.4, 0.0, 679.0],
    "eigenvalue spread": [0.0] * 6 + [700.0, 0.0, 0.0, -100.0, 0.0, -100.0],
    "infinite rotation angle": [0.0] * 3 + [1e200, 0.0, 0.0] + [0.0] * 6,
}


def _scalar_inverse(m, ref_log=None):
    ref = None if ref_log is None else AffineParam12.from_vector([0.0] * 3 + [*ref_log] + [0.0] * 6)
    return transform_to_params(HomAffine3(Mat3(*np.ravel(m).tolist()), Vec3(0.0, 0.0, 0.0)),
                               ref=ref)


def _scalar_forward(p):
    return params_to_transform(AffineParam12.from_vector(p))


def _raises_as(want: Exception, row: int, fn):
    """fn raises want's type with want's message after "row {row}: "."""
    with pytest.raises(Exception) as info:
        fn()
    assert type(info.value) is type(want)
    assert str(info.value) == f"row {row}: {want}"


@pytest.mark.parametrize("m", INVERSE_ERRORS.values(), ids=INVERSE_ERRORS)
def test_inverse_raises_the_scalar_error_of_the_row(m):
    want = _outcome(lambda: _scalar_inverse(m))
    assert isinstance(want, Exception)
    good = np.eye(3)
    _raises_as(want, 2, lambda: transforms_to_params(np.array([good, good, m, good]),
                                                     np.zeros((4, 3))))


@pytest.mark.parametrize("p", FORWARD_ERRORS.values(), ids=FORWARD_ERRORS)
def test_forward_raises_the_scalar_error_of_the_row(p):
    want = _outcome(lambda: _scalar_forward(p))
    assert isinstance(want, Exception)
    _raises_as(want, 2, lambda: params_to_transforms(np.array([[0.0] * 12] * 2 + [p, [0.0] * 12])))


def test_the_lowest_failing_row_raises():
    # a rotation check failing on row 1 comes before a determinant failing on row 2
    rot, flip = INVERSE_ERRORS["no orthogonal rotation factor"], INVERSE_ERRORS["det <= 0"]
    _raises_as(_outcome(lambda: _scalar_inverse(rot)), 1,
               lambda: transforms_to_params(np.array([np.eye(3), rot, flip]), np.zeros((3, 3))))
    spread, lead = FORWARD_ERRORS["eigenvalue spread"], FORWARD_ERRORS["leading eigenvalue"]
    _raises_as(_outcome(lambda: _scalar_forward(spread)), 1,
               lambda: params_to_transforms(np.array([[0.0] * 12, spread, lead])))


def test_nan_rows_stay_nan_as_in_the_scalar_maps():
    m = np.eye(3)
    m[0, 1] = math.nan
    assert all(math.isnan(v) for v in _scalar_inverse(m).to_vector()[3:])
    got = transforms_to_params(np.array([np.eye(3), m]), np.zeros((2, 3)))
    assert np.isnan(got[1, 3:]).all() and np.array_equal(got[0], np.zeros(12))
    p = [0.0] * 6 + [math.nan] + [0.0] * 5
    assert all(math.isnan(v) for v in _scalar_forward(p).linear)
    lin, _ = params_to_transforms(np.array([[0.0] * 12, p]))
    assert np.isnan(lin[1]).all() and np.array_equal(lin[0], np.eye(3))


def test_shapes():
    assert transforms_to_params(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 12)
    lin, tr = params_to_transforms(np.zeros((0, 12)))
    assert lin.shape == (0, 3, 3) and tr.shape == (0, 3)
    with pytest.raises(ValueError):
        transforms_to_params(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        transforms_to_params(np.zeros((2, 3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        params_to_transforms(np.zeros((2, 11)))


def _same_outcome(got, want, values):
    """got is want's values bit for bit, or want's error type with its message after "row 0: "."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == f"row 0: {want}"
    else:
        assert not isinstance(got, Exception), got
        assert _bits(got) == _bits(values(want))


@pytest.mark.parametrize("seed", [5, 23])
def test_one_row_batches_of_the_envelope_inputs_are_the_scalar_outcomes(seed):
    # valid inputs far outside the protocol's scales, where many rows fail or
    # overflow to NaN: each is a one-row batch, inverse map then forward map
    cases = inputs.envelope_inputs(np.random.default_rng(seed + 3), ENVELOPE_ITEMS)
    for rows, _ in cases:
        a = np.array(rows, dtype=float).reshape(1, 3, 4)
        want = _outcome(lambda: transform_to_params(HomAffine3.from_rows(rows)))
        got = _outcome(lambda: transforms_to_params(a[:, :, :3], a[:, :, 3]))
        _same_outcome(got, want, AffineParam12.to_vector)
        if isinstance(want, Exception):
            continue
        _same_outcome(_outcome(lambda: np.dstack(params_to_transforms(got))),
                      _outcome(lambda: params_to_transform(want)), HomAffine3.to_rows)


@pytest.mark.parametrize("seed", [5, 23])
def test_the_benchmark_streams_are_the_scalar_maps_bit_for_bit(seed):
    # the convert workload's 10 000 transforms and the cli_batch document's 400
    for stream in (inputs.transform_stream(seed, 10000),
                   inputs.transform_stream(seed, 400, mix=CliBatch.MIX)):
        rows = [r for r, _ in stream]
        want = [transform_to_params(HomAffine3.from_rows(r)) for r in rows]
        a = np.array(rows).reshape(-1, 3, 4)
        got = transforms_to_params(a[:, :, :3], a[:, :, 3])
        assert _bits(got) == _bits([p.to_vector() for p in want])
        lin, tr = params_to_transforms(got)
        assert _bits(np.dstack((lin, tr))) == _bits([params_to_transform(p).to_rows()
                                                     for p in want])


# -- references: the branch of consistent_log_so3, row by row ------------------

def test_references_follow_the_criterion_4_tracks():
    # chained 4*pi tracks: each row's reference is the scalar result of the
    # row before it, so the batch rows wind up to 4*pi as the scalar chain does
    rng = random.Random(107)
    for axis, steps in (((1.0 / math.sqrt(3.0),) * 3, 126), (rand_unit_axis(rng), 41)):
        mats = [axis_angle_rotation(axis, 4.0 * math.pi * k / steps) for k in range(1, steps + 1)]
        refs, prev = [], AffineParam12.zero()
        for m in mats:
            refs.append(prev.rotation)
            prev = transform_to_params(HomAffine3(m, Vec3(0.0, 0.0, 0.0)), ref=prev)
        got = _check_inverse(mats, refs)
        angles = np.linalg.norm(got[:, 3:6], axis=1)
        assert (np.diff(angles) > 0.0).all() and abs(angles[-1] - 4.0 * math.pi) <= 1e-9


def test_references_at_exact_and_near_half_turns():
    rng = random.Random(108)
    mats, refs = [], []
    for _ in range(60):
        axis = rand_unit_axis(rng)
        for gap in (0.0, 1e-12, 1e-7, 1e-4):
            r = axis_angle_rotation(axis, math.pi - gap)
            for ref_angle in (0.0, 2.5, -2.5, 9.0, -9.0, 30.0):
                mats.append(r)
                refs.append(generator_for(axis, ref_angle))
            mats.append(r)
            refs.append(generator_for(rand_unit_axis(rng), rng.uniform(0.0, 20.0)))
    for r in (Mat3(1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0),
              Mat3(-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
              Mat3(-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0)):
        for ref_angle in (0.0, 4.0, -4.0, 9.0):
            mats.append(r)
            refs.append(generator_for((0.0, 0.0, 1.0), ref_angle))
    _check_inverse(mats, refs)
    stretch = Mat3(1.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.7)
    _check_inverse([mat_mul(m, stretch) for m in mats], refs)


def test_references_at_gaps_of_exactly_pi_keep_the_principal_log():
    # z-rotations by t, and references on z of pi + t, or of pi - t on the
    # other side, each measured exactly pi from t: the tie keeps the
    # principal log; the next reference angle measured past pi takes a turn
    mats, refs, ties, beyond = [], [], [], []
    for t in np.linspace(0.01, 3.1, 120).tolist():
        r = axis_angle_rotation((0.0, 0.0, 1.0), t)
        theta = antisym_angle(transform_to_params(HomAffine3(r, Vec3(0.0, 0.0, 0.0))).rotation)
        for sign in (1.0, -1.0):
            c = math.pi + sign * theta
            if sign * c - theta != sign * math.pi:
                continue
            past = c
            while sign * past - theta == sign * math.pi:
                past = math.nextafter(past, math.inf)
            for angle, group in ((c, ties), (past, beyond)):
                mats.append(r)
                refs.append(generator_for((0.0, 0.0, sign), angle))
                group.append(len(mats) - 1)
    assert len(ties) >= 100
    got = _check_inverse(mats, refs)
    principal = _check_inverse(mats)
    assert _bits(got[ties]) == _bits(principal[ties])
    turns = (got[beyond, 3] - principal[beyond, 3]) / (2.0 * math.pi)
    assert np.allclose(np.abs(turns), 1.0, rtol=0.0, atol=1e-15)


def test_identity_takes_the_reference_axis_and_zero_reference_the_principal_log():
    rng = random.Random(109)
    axes = [rand_unit_axis(rng) for _ in range(20)]
    refs = [generator_for(a, angle) for a in axes for angle in (2.0 * math.pi, 7.0, 13.0, 1e-3)]
    got = _check_inverse([MAT3_IDENTITY] * len(refs), refs)
    # a whole number of turns on the reference's own axis
    for row, ref in zip(got[:, 3:6], refs):
        turns = np.linalg.norm(row) / (2.0 * math.pi)
        assert abs(turns - round(turns)) <= 1e-15
        if turns > 0.5:
            assert np.allclose(row / np.linalg.norm(row), np.array(ref) / antisym_angle(ref),
                               rtol=0.0, atol=1e-15)
    mats = [rand_linear(rng) for _ in range(200)]
    zero = _check_inverse(mats, [(0.0, 0.0, 0.0)] * len(mats))
    assert _bits(zero) == _bits(_check_inverse(mats))


@pytest.mark.parametrize("ref_angle", [1e17, math.inf, math.nan, 1.0000001e7])
def test_reference_out_of_range_raises_the_scalar_error_of_the_row(ref_angle):
    far = (0.0, 0.0, ref_angle)
    good, ok = np.eye(3), (0.0, 0.0, 0.0)
    want = _outcome(lambda: _scalar_inverse(good, far))
    assert isinstance(want, OutOfRangeError) and str(want).startswith("reference angle ")
    lin, tr = np.array([good, good, good]), np.zeros((3, 3))
    _raises_as(want, 1, lambda: transforms_to_params(lin, tr, _ref_rows([ok, far, ok])))
    # a polar-split error on a lower row comes first
    tiny = INVERSE_ERRORS["det^2 underflows to a zero Gram eigenvalue"]
    _raises_as(_outcome(lambda: _scalar_inverse(tiny)), 0,
               lambda: transforms_to_params(np.array([tiny, good]), np.zeros((2, 3)),
                                            _ref_rows([ok, far])))
    # within a row the scalar order holds: the polar split, then the
    # reference angle, then the rotation check
    for m in INVERSE_ERRORS.values():
        _raises_as(_outcome(lambda: _scalar_inverse(m, far)), 1,
                   lambda: transforms_to_params(np.array([good, m]), np.zeros((2, 3)),
                                                _ref_rows([ok, far])))


def test_reference_shapes():
    lin, tr = np.zeros((2, 3, 3)), np.zeros((2, 3))
    for refs in (np.zeros((3, 12)), np.zeros((2, 11)), np.zeros(12), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="refs|references"):
            transforms_to_params(lin, tr, refs)
    assert transforms_to_params(np.zeros((0, 3, 3)), np.zeros((0, 3)),
                                np.zeros((0, 12))).shape == (0, 12)


@settings(max_examples=300, deadline=None)
@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 0.1 < math.hypot(*v)),
       angle=st.floats(0.0, math.pi),
       ref_axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 0.1 < math.hypot(*v)),
       exponent=st.floats(-300.0, 7.0))
def test_reference_rule_property(axis, angle, ref_axis, exponent):
    # log-uniform reference angles up to 1e7, on rotations and on a stretched one
    n, rn = math.hypot(*axis), math.hypot(*ref_axis)
    r = axis_angle_rotation([v / n for v in axis], angle)
    ref = generator_for([v / rn for v in ref_axis], 10.0 ** exponent)
    stretched = mat_mul(r, Mat3(2.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.5))
    _check_inverse([r, stretched, MAT3_IDENTITY], [ref, ref, ref])

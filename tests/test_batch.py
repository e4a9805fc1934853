"""The batched parameter maps against the scalar ones, row by row."""

import math
import random
import warnings

import numpy as np
import pytest

from affine12.batch import params_to_transforms, transforms_to_params
from affine12.errors import (
    IllConditionedWarning,
    NotOrientationPreservingError,
    NotPositiveDefiniteError,
)
from affine12.expmap import _E2_TAYLOR, _SINC_TAYLOR, exp_so3
from affine12.expmap import _SPREAD_TAYLOR as _EXP_SPREAD_TAYLOR
from affine12.linalg3 import Mat3, Vec3, gram, mat_mul, sym_eigenvalues
from affine12.logmap import _L2_TAYLOR, _NEAR_PI
from affine12.logmap import _SPREAD_TAYLOR as _LOG_SPREAD_TAYLOR
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

# NumPy's exp/log/acos/... may differ from libm by an ulp; the Gram route
# amplifies that by up to cond(A)^2 ~ 1e6 on the det > 1e-3 sample, which
# kept the largest measured difference near 5e-13.
TOL = 1e-11

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _straddle(x: float, eps: float = 1e-8):
    return x * (1.0 - eps), x * (1.0 + eps)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type below
        return exc


def _check_inverse(mats, tol=TOL):
    """Batch and scalar inverse maps agree on every row, or raise the same error."""
    lin = np.array(mats, dtype=float).reshape(-1, 3, 3)
    rng = np.random.default_rng(len(mats))
    tr = rng.uniform(-2.0, 2.0, (len(mats), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        want = [_outcome(lambda m=m, t=t: transform_to_params(HomAffine3(Mat3(*m), Vec3(*t))))
                for m, t in zip(lin.reshape(-1, 9).tolist(), tr.tolist())]
        errors = [type(w) for w in want if isinstance(w, Exception)]
        if errors:
            with pytest.raises(errors[0]):
                transforms_to_params(lin, tr)
            return
        got = transforms_to_params(lin, tr)
    want = np.array([w.to_vector() for w in want])
    assert got.shape == (len(mats), 12)
    # at an exact half-turn X and -X are both principal logs, and roundoff
    # far below the rotation's own accuracy picks the sign
    half_turn = np.abs(np.linalg.norm(want[:, 3:6], axis=1) - math.pi) <= 1e-12
    flipped = want.copy()
    flipped[half_turn, 3:6] *= -1.0
    bound = tol * np.maximum(1.0, np.abs(want))
    assert np.all((np.abs(got - want) <= bound).all(axis=1)
                  | (np.abs(got - flipped) <= bound).all(axis=1))


def _check_forward(params, tol=TOL):
    """Batch and scalar forward maps agree on every row."""
    p = np.array(params, dtype=float).reshape(-1, 12)
    lin, tr = params_to_transforms(p)
    want = np.array([params_to_transform(AffineParam12.from_vector(v)).to_rows()
                     for v in p.tolist()]).reshape(-1, 3, 4)
    assert np.all(np.abs(lin - want[:, :, :3]) <= tol * np.maximum(1.0, np.abs(want[:, :, :3])))
    assert np.array_equal(tr, want[:, :, 3])


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
    # sinc series (at the angle and at its half, which exp_so3 also takes),
    # and the half-turn branch of the log
    rng = random.Random(102)
    params, mats = [], []
    for _ in range(50):
        axis = rand_unit_axis(rng)
        for angle in (*_straddle(_SINC_TAYLOR), *_straddle(2.0 * _SINC_TAYLOR),
                      *(math.pi - g for g in _straddle(_NEAR_PI))):
            params.append([0.0] * 3 + list(generator_for(axis, angle)) + [0.0] * 6)
            mats.append(axis_angle_rotation(axis, angle))
    _check_forward(params)
    _check_inverse(mats)
    _check_inverse(_linear_of(params))


def test_stretch_thresholds_straddled():
    # exp: e2 series on an outer gap, confluent spectrum; log: L2 series on
    # the Gram ratio, confluent Gram spectrum; Newton skip on a Gram gap
    rng = random.Random(103)
    params = []
    for _ in range(50):
        x = rand_antisym(rng, 1.0)
        base = rng.uniform(-0.5, 0.5)
        for d in _straddle(_E2_TAYLOR):
            params.append(_param(x, (base + d, base, base - 0.5), rng))
        for d in _straddle(_EXP_SPREAD_TAYLOR):
            params.append(_param(x, (base + d / 2, base, base - d / 2), rng))
        for d in _straddle(_L2_TAYLOR):
            params.append(_param(x, (base + 0.5 * math.log1p(d), base, base - 0.35), rng))
        for d in _straddle(_LOG_SPREAD_TAYLOR):
            params.append(_param(x, (base + 0.25 * d, base, base - 0.25 * d), rng))
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
    _check_inverse(mats, tol=1e-7)


def test_same_typed_errors_and_warnings_naming_the_row():
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
    with pytest.warns(IllConditionedWarning), pytest.raises(NotPositiveDefiniteError):
        transform_to_params(HomAffine3(Mat3(*tiny.ravel()), Vec3(*zero)))
    with pytest.warns(IllConditionedWarning), pytest.raises(NotPositiveDefiniteError,
                                                             match="row 2"):
        batch(good, good, tiny)

    with pytest.warns(IllConditionedWarning, match="row 1"):
        batch(good, np.diag([1.0, 1.0, 1e-7]))

    for stretch in ([710.0, 0.0, 0.0, 0.0, 0.0, 0.0],      # leading eigenvalue
                    [700.0, 0.0, 0.0, -100.0, 0.0, -100.0]):  # eigenvalue spread
        p = [0.0] * 6 + stretch
        with pytest.raises(OverflowError):
            params_to_transform(AffineParam12.from_vector(p))
        with pytest.raises(OverflowError, match="row 1"):
            params_to_transforms(np.array([[0.0] * 12, p]))


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

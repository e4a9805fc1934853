"""The parameter maps over whole arrays of transforms, one NumPy pass each.

The closed-form kernels need no eigenvectors and no iteration, so a batch
of N transforms runs as a fixed sequence of array operations. Every regime
switch of the scalar path (series forms, the confluent spectrum, the
half-turn axis extraction, the Newton skip, the l3 <= 0 recovery, the
diagonal shortcut) becomes an ``np.where`` over the batch with the same
threshold, imported from the scalar module that owns it; the branch not
taken is evaluated on a guarded denominator so it computes nothing
undefined. The branch-free arithmetic is the scalar code itself: the
linalg3 formulas, the Rodrigues assembly of exp_so3, the orthogonality
defect of log_so3 and the Newton orthonormalisation step take arrays in
place of floats.

Each row agrees with transform_to_params / params_to_transform to
roundoff (the NumPy transcendentals may differ from libm by an ulp). The
errors and warnings are the scalar path's, raised for the first offending
row and naming its index.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    IllConditionedWarning,
    NotARotationError,
    NotOrientationPreservingError,
    NotPositiveDefiniteError,
)
from .expmap import _E2_TAYLOR, _EXP_ARG_MAX, _SINC_TAYLOR, _rodrigues
from .expmap import _SPREAD_TAYLOR as _EXP_SPREAD_TAYLOR
from .linalg3 import (
    _MIN_NORMAL,
    _TWO_THIRDS_PI,
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    gram,
    mat_det,
    mat_mul_sym,
    sym_char_coeffs,
    sym_poly2,
    sym_scale,
)
from .logmap import _AXIS_COMPONENT_EPS, _L2_TAYLOR, _NEAR_PI, _ROTATION_TOL, _orth_defect2
from .logmap import _SPREAD_TAYLOR as _LOG_SPREAD_TAYLOR
from .param import _ILL_CONDITIONED_DET, _NEWTON_SKIP, _newton_orthonormalize


def transforms_to_params(linear, translation) -> np.ndarray:
    """Principal-branch parameters of N transforms, one row each.

    `linear` is (N, 3, 3) and `translation` (N, 3); the result is (N, 12)
    in the AffineParam12.to_vector order (translation, rotation log,
    stretch log). Row i is transform_to_params of transform i, to
    roundoff. The errors are the scalar path's (NotOrientationPreservingError
    for a determinant <= 0 and the rarer ones after it), raised for the
    first row that has one and naming it; IllConditionedWarning is issued
    once if any determinant is below 1e-6.
    """
    linear = _rows_of(linear, (3, 3), "linear")
    translation = _rows_of(translation, (3,), "translation")
    if len(linear) != len(translation):
        raise ValueError(f"{len(linear)} linear parts but {len(translation)} translations")
    a = Mat3(*linear.reshape(-1, 9).T.copy())
    with np.errstate(all="ignore"):
        det = mat_det(a)
        i = _first(det <= 0.0)
        if i is not None:
            raise NotOrientationPreservingError(
                f"row {i}: linear part has non-positive determinant ({float(det[i])!r})")
        ill = np.flatnonzero(det < _ILL_CONDITIONED_DET)
        if ill.size:
            warnings.warn(
                f"{ill.size} determinants close to zero (row {ill[0]}: "
                f"{float(det[ill[0]]):.3e}); parameters may lose accuracy",
                IllConditionedWarning,
                stacklevel=2,
            )
        g = gram(a)
        eig = _refined_gram_eig(g, det)
        half_log = _log_spd_half_gram(g, eig)
        neg_eig = SymEig3(-0.5 * np.log(eig.l3), -0.5 * np.log(eig.l2), -0.5 * np.log(eig.l1))
        s_inv = _exp_sym3_with_eig(sym_scale(half_log, -1.0), neg_eig)
        r = _newton_orthonormalize(mat_mul_sym(a, s_inv))
        x = _log_so3(r)
    return np.column_stack((translation, *x, *half_log))


def params_to_transforms(params) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of N parameter rows: (N, 12) -> linear (N, 3, 3), translation (N, 3).

    Row i is params_to_transform of row i. Raises OverflowError for a
    stretch log beyond the double-precision exponent range.
    """
    p = _rows_of(params, (12,), "params")
    cols = p.T.copy()
    with np.errstate(all="ignore"):
        y = SymMat3(*cols[6:])
        stretch = _exp_sym3_with_eig(y, _sym_eigenvalues(y))
        linear = mat_mul_sym(_exp_so3(AntiSymMat3(*cols[3:6])), stretch)
    return np.stack(linear, axis=-1).reshape(-1, 3, 3), cols[:3].T.copy()


def _rows_of(x, shape: tuple[int, ...], name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 + len(shape) or x.shape[1:] != shape:
        raise ValueError(f"{name}: expected shape (N, {', '.join(map(str, shape))}), "
                         f"got {x.shape}")
    return x


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _safe(x: np.ndarray, unused: np.ndarray) -> np.ndarray:
    """x with the entries of a branch not taken replaced by 1 (a harmless divisor)."""
    return np.where(unused, 1.0, x)


def _sort3(l1, l2, l3):
    l1, l2 = np.maximum(l1, l2), np.minimum(l1, l2)
    l2, l3 = np.maximum(l2, l3), np.minimum(l2, l3)
    return np.maximum(l1, l2), np.minimum(l1, l2), l3


def _sym_eigenvalues(y: SymMat3) -> SymEig3:
    """linalg3.sym_eigenvalues over a batch (diagonal input returned exactly)."""
    xx, xy, xz, yy, yz, zz = y
    q = (xx + yy + zz) / 3.0
    dxx, dyy, dzz = xx - q, yy - q, zz - q
    p2 = (dxx * dxx + dyy * dyy + dzz * dzz
          + 2.0 * (xy * xy + xz * xz + yz * yz))
    p = np.sqrt(p2 / 6.0)
    flat = p == 0.0
    inv = 1.0 / _safe(p, flat)
    b11, b12, b13 = dxx * inv, xy * inv, xz * inv
    b22, b23, b33 = dyy * inv, yz * inv, dzz * inv
    half_det = 0.5 * (b11 * (b22 * b33 - b23 * b23)
                      - b12 * (b12 * b33 - b23 * b13)
                      + b13 * (b12 * b23 - b22 * b13))
    ang = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * np.cos(ang)
    l3 = q + 2.0 * p * np.cos(ang + _TWO_THIRDS_PI)
    l2 = 3.0 * q - l1 - l3
    diagonal = (xy == 0.0) & (xz == 0.0) & (yz == 0.0)
    return SymEig3(*_sort3(np.where(diagonal, xx, np.where(flat, q, l1)),
                           np.where(diagonal, yy, np.where(flat, q, l2)),
                           np.where(diagonal, zz, np.where(flat, q, l3))))


def _refined_gram_eig(g: SymMat3, det_linear: np.ndarray) -> SymEig3:
    """param._refined_gram_eig over a batch."""
    l1, l2, l3 = _sym_eigenvalues(g)
    c2, c1 = sym_char_coeffs(g)
    c0 = det_linear * det_linear
    lams = [l1, l2, np.where(l3 <= 0.0, c0 / np.maximum(l1 * l2, _MIN_NORMAL), l3)]
    scale2 = np.maximum(1.0, l1 * l1)
    for i in range(3):
        lam = lams[i]
        o1, o2 = (lams[j] for j in range(3) if j != i)
        dp = (lam - o1) * (lam - o2)
        skip = np.abs(dp) < _NEWTON_SKIP * scale2
        p = ((lam - c2) * lam + c1) * lam - c0
        lams[i] = np.where(skip, lam, lam - p / _safe(dp, skip))
    return SymEig3(*_sort3(*lams))


def _sinc(theta):
    series = np.abs(theta) < _SINC_TAYLOR
    t = _safe(theta, series)
    return np.where(series, 1.0 - theta * theta / 6.0, np.sin(t) / t)


def _exp_quad_coeff(x):
    series = np.abs(x) < _E2_TAYLOR
    t = _safe(x, series)
    return np.where(series, 0.5 + x / 6.0 + x * x / 24.0, (np.expm1(t) - t) / (t * t))


def _log_quad_coeff(x):
    u = x - 1.0
    series = np.abs(u) < _L2_TAYLOR
    t = _safe(u, series)
    return np.where(series, u * (-0.5 + u * (1.0 / 3.0 + u * (-0.25 + u * 0.2))),
                    (np.log1p(t) - t) / t)


def _exp_sym3_with_eig(y: SymMat3, eig: SymEig3) -> SymMat3:
    """expmap.exp_sym3_with_eig over a batch."""
    l1, l2, l3 = eig
    i = _first(l1 > _EXP_ARG_MAX)
    if i is not None:
        raise OverflowError(f"row {i}: exp of leading eigenvalue {float(l1[i])!r} "
                            "is not representable")
    lp1, lp3 = l1 - l2, l3 - l2
    series = lp1 - lp3 < _EXP_SPREAD_TAYLOR
    # the scalar expm1(lp1) raises here: exp of the spread overflows
    i = _first(~series & (lp1 > _EXP_ARG_MAX))
    if i is not None:
        raise OverflowError(f"row {i}: exp of eigenvalue spread {float(lp1[i])!r} "
                            "is not representable")
    e1 = _exp_quad_coeff(lp1)
    e3 = _exp_quad_coeff(lp3)
    spread = _safe(lp1 - lp3, series)
    b = np.where(series, 1.0 - lp1 * lp3 / 6.0, 1.0 - lp1 * lp3 * (e1 - e3) / spread)
    c = np.where(series,
                 0.5 + (lp1 + lp3) / 6.0 + (lp1 * lp1 + lp1 * lp3 + lp3 * lp3) / 24.0,
                 0.5 + (lp1 * (2.0 * e1 - 1.0) - lp3 * (2.0 * e3 - 1.0)) / (2.0 * spread))
    z = SymMat3(y.xx - l2, y.xy, y.xz, y.yy - l2, y.yz, y.zz - l2)
    return sym_scale(sym_poly2(1.0, b, c, z), np.exp(l2))


def _log_spd_half_gram(g: SymMat3, eig: SymEig3) -> SymMat3:
    """logmap.log_spd_half_gram over a batch."""
    l1, l2, l3 = eig
    i = _first(l3 <= 0.0)
    if i is not None:
        raise NotPositiveDefiniteError(
            f"row {i}: smallest eigenvalue {float(l3[i])!r} is not positive")
    lp1, lp3 = l1 / l2, l3 / l2
    series = lp1 - lp3 < _LOG_SPREAD_TAYLOR
    # the scalar log1p(lp3 - 1) raises here: lp3 is below the rounding of 1
    i = _first(~series & (lp3 - 1.0 <= -1.0))
    if i is not None:
        raise ValueError(f"row {i}: stretch eigenvalue ratio {float(lp3[i])!r} "
                         "is lost in log1p(x - 1) (math domain error)")
    u1 = lp1 - 1.0
    u3 = lp3 - 1.0
    c_series = (-0.5 + (u1 + u3) / 3.0
                - (u1 * u1 + u1 * u3 + u3 * u3) / 4.0
                + (u1 * u1 * u1 + u1 * u1 * u3 + u1 * u3 * u3 + u3 * u3 * u3) / 5.0)
    t1 = _log_quad_coeff(lp1)
    t3 = _log_quad_coeff(lp3)
    spread = _safe(lp1 - lp3, series)
    a = np.where(series, -1.0 + c_series + u1 * u3 * (1.0 / 3.0 - (u1 + u3) / 4.0),
                 -1.0 + (lp3 * t1 - lp1 * t3) / spread)
    c = np.where(series, c_series, (t1 - t3) / spread)
    k = 0.5 * (a + np.log(l2))
    return sym_poly2(k, -0.5 * (a + c), 0.5 * c, sym_scale(g, 1.0 / l2))


def _exp_so3(x: AntiSymMat3) -> Mat3:
    """expmap.exp_so3 over a batch."""
    a, b, c = x
    theta = np.sqrt(a * a + b * b + c * c)
    sh = _sinc(0.5 * theta)
    return _rodrigues(a, b, c, _sinc(theta), 0.5 * sh * sh)


def _log_so3(r: Mat3) -> AntiSymMat3:
    """logmap.log_so3 over a batch, both regimes evaluated and selected per row."""
    resid2 = _orth_defect2(r)
    i = _first(resid2 > _ROTATION_TOL * _ROTATION_TOL)
    if i is not None:
        raise NotARotationError(f"row {i}: ||R^T R - I||_F = {math.sqrt(resid2[i]):.3e} "
                                f"exceeds {_ROTATION_TOL}")
    i = _first(mat_det(r) <= 0.0)
    if i is not None:
        raise NotARotationError(f"row {i}: determinant is not positive")
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    cos_t = np.clip(0.5 * (a11 + a22 + a33 - 1.0), -1.0, 1.0)
    h12 = 0.5 * (a12 - a21)
    h13 = 0.5 * (a13 - a31)
    h23 = 0.5 * (a23 - a32)
    sin_t = np.minimum(np.sqrt(h12 * h12 + h13 * h13 + h23 * h23), 1.0)
    theta = np.arctan2(sin_t, cos_t)
    small = theta < _SINC_TAYLOR
    inv_sinc = np.where(small, 1.0 / _sinc(theta), theta / _safe(sin_t, sin_t == 0.0))

    # half-turn regime: the axis is a column of (R + R^T)/2 - cos(t) I
    m11, m22, m33 = a11 - cos_t, a22 - cos_t, a33 - cos_t
    m12 = 0.5 * (a12 + a21)
    m13 = 0.5 * (a13 + a31)
    m23 = 0.5 * (a23 + a32)
    n1 = m11 * m11 + m12 * m12 + m13 * m13
    n2 = m12 * m12 + m22 * m22 + m23 * m23
    n3 = m13 * m13 + m23 * m23 + m33 * m33
    col1 = (n1 >= n2) & (n1 >= n3)
    col2 = ~col1 & (n2 >= n3)
    nn = np.where(col1, n1, np.where(col2, n2, n3))
    inv = 1.0 / np.sqrt(_safe(nn, nn == 0.0))
    v1 = np.where(col1, m11, np.where(col2, m12, m13)) * inv
    v2 = np.where(col1, m12, np.where(col2, m22, m23)) * inv
    v3 = np.where(col1, m13, np.where(col2, m23, m33)) * inv
    d1, d2, d3 = a32 - a23, a13 - a31, a21 - a12
    sign_key = np.where(np.abs(v2) >= _AXIS_COMPONENT_EPS, v2 * d2,
                        np.where(np.abs(v1) >= _AXIS_COMPONENT_EPS, v1 * d1, v3 * d3))
    s = np.minimum(np.abs(0.5 * (d1 * v1 + d2 * v2 + d3 * v3)), 1.0)
    theta_pi = np.where(sign_key >= 0.0, 1.0, -1.0) * (math.pi - np.arcsin(s))

    generic = math.pi - theta >= _NEAR_PI
    return AntiSymMat3(np.where(generic, h12 * inv_sinc, -v3 * theta_pi),
                       np.where(generic, h13 * inv_sinc, v2 * theta_pi),
                       np.where(generic, h23 * inv_sinc, -v1 * theta_pi))

"""The parameter maps over whole arrays of transforms, one NumPy pass each.

The closed-form kernels need no eigenvectors and no iteration, so a batch
runs as a fixed sequence of array operations, under np.errstate(all=
"ignore") and with no check on the way. One mask then marks the rows this
vectorised path does not cover: for the inverse map det <= 0, a cubic
Gram eigenvalue l3 <= 0, a rotation factor failing log_so3's check, a
non-finite output, or a reference angle that is not at most 1e7 rad
(NaN and inf included); for the forward map a leading stretch eigenvalue
past exp's range, or a non-finite output. Each masked row, lowest first,
takes the value of transform_to_params / params_to_transform on its input
(and its reference), or raises that map's error prefixed "row i: ". So
every domain rule, recovery and message exists once, in the scalar path,
and so does the order of the checks within a row.

What ordinary inputs reach stays vectorised, each branch an np.where with
the scalar test and its owner's threshold: the obtuse rotation-log axis
(an all-obtuse batch would run six times slower through the scalar log),
the diagonal and flat spectra, the Newton skip, the 0/0 limits (sinc,
e2 and L2 at 0, a zero eigenvalue spread), which zero-weight mesh queries
reach on every row, and the whole-turn shift of consistent_log_so3 toward
a reference, its tie at a gap of exactly pi kept. np.where drops the inf
or NaN of a branch not taken.

The kernels share the scalar ones' arithmetic (the linalg3 formulas, in
the same order) and take their eight transcendentals (exp, expm1, log,
log1p, acos, cos, sin, atan2) from one of two tables; sqrt is NumPy's in
both, being correctly rounded. The libm table maps the math module's
functions over the rows, so every row of the public maps, masked or not,
equals the scalar map bit for bit. NumPy's SIMD ufuncs move a quarter to
a third of the rows by an ulp or more, but the libm table would add about
a quarter to a mesh query (14.6 to 17.9 ms at 800 faces), so
blend_shapes keeps the ufunc table through the private entries. Per row
(2 000 rows, Python 3.11, 2-vCPU Xeon) the inverse map costs about 1.9 us
with libm, 0.7 us with the ufuncs and 12.5 us scalar; the forward map
1.05, 0.35 and 5.6 us. A masked row costs its scalar call and about 2.5
us more, and a call costs about 0.5 ms (inverse) or 0.2 ms (forward)
however few its rows.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple

import numpy as np

from .errors import _DOMAIN_ERRORS
from .expmap import _EXP_ARG_MAX, _rodrigues
from .linalg3 import (
    _TWO_THIRDS_PI,
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    Vec3,
    gram,
    mat_det,
    mat_mul_sym,
    sym_char_coeffs,
    sym_poly2,
    sym_scale,
)
from .logmap import _AXIS_FLOOR, _MAX_REF_ANGLE, _ROTATION_TOL, _TWO_PI, _orth_defect2
from .param import (
    _NEWTON_SKIP,
    AffineParam12,
    HomAffine3,
    _newton_orthonormalize,
    params_to_transform,
    transform_to_params,
)


# the elementwise functions the kernels take from a table
_Transcendentals = namedtuple("_Transcendentals", "exp expm1 log log1p arccos cos sin arctan2")


def _libm(f):
    """f of the math module mapped over 1-D arrays, with NaN for a domain
    error and inf for an overflow where math raises (such a row is masked)."""
    def total(*x):
        try:
            return f(*x)
        except ValueError:
            return math.nan
        except OverflowError:
            return math.inf

    def apply(*arrays):
        cols = [a.tolist() for a in arrays]
        try:
            return np.fromiter(map(f, *cols), float, len(cols[0]))
        except (ValueError, OverflowError):
            return np.fromiter(map(total, *cols), float, len(cols[0]))
    return apply


_LIBM = _Transcendentals(*map(_libm, (math.exp, math.expm1, math.log, math.log1p,
                                      math.acos, math.cos, math.sin, math.atan2)))
_NUMPY = _Transcendentals(np.exp, np.expm1, np.log, np.log1p,
                          np.arccos, np.cos, np.sin, np.arctan2)


def transforms_to_params(linear, translation, refs=None) -> np.ndarray:
    """Parameters of N transforms, one row each.

    `linear` is (N, 3, 3) and `translation` (N, 3); the result is (N, 12)
    in the AffineParam12.to_vector order (translation, rotation log,
    stretch log). `refs` is None (principal branch) or one (N, 12)
    parameter row per transform, whose rotation log (columns 3-5) picks
    that row's branch. Row i is transform_to_params(transform i,
    ref=refs[i]) bit for bit, every row (see the module). The error is the
    scalar map's on the lowest row that has one, prefixed "row i: ", with
    i in its `row` and the scalar error as its __cause__: within a row the
    scalar map's order holds (a polar-split error before an out-of-range
    reference angle before a failed rotation check). A NaN input row gives
    NaNs, as in the scalar map.
    """
    return _transforms_to_params(linear, translation, _LIBM, refs)


def params_to_transforms(params) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of N parameter rows: (N, 12) -> linear (N, 3, 3), translation (N, 3).

    Row i is params_to_transform of row i bit for bit, every row. The
    error is the scalar map's on the lowest row that has one, prefixed
    "row i: " and carrying i and the scalar error as transforms_to_params's
    does: OverflowError for a stretch log beyond the double-precision
    exponent range, OutOfRangeError for a rotation log whose angle is
    infinite.
    """
    return _params_to_transforms(params, _LIBM)


def _transforms_to_params(linear, translation, fn: _Transcendentals, refs=None) -> np.ndarray:
    """transforms_to_params with the transcendentals of the table fn."""
    linear = _rows_of(linear, (3, 3), "linear")
    translation = _rows_of(translation, (3,), "translation")
    if len(linear) != len(translation):
        raise ValueError(f"{len(linear)} linear parts but {len(translation)} translations")
    if refs is not None:
        refs = _rows_of(refs, (12,), "refs")
        if len(refs) != len(linear):
            raise ValueError(f"{len(linear)} transforms but {len(refs)} references")
    flat = linear.reshape(-1, 9)
    a = Mat3(*flat.T.copy())
    with np.errstate(all="ignore"):
        det = mat_det(a)
        g = gram(a)
        eig, lost = _refined_gram_eig(g, det, fn)
        half_log = _log_spd_half_gram(g, eig, fn)
        neg_eig = SymEig3(-0.5 * fn.log(eig.l3), -0.5 * fn.log(eig.l2), -0.5 * fn.log(eig.l1))
        s_inv = _exp_sym3_with_eig(sym_scale(half_log, -1.0), neg_eig, fn)
        r = _newton_orthonormalize(mat_mul_sym(a, s_inv))
        x = _log_so3(r, fn)
        masked = ((det <= 0.0) | lost
                  | (_orth_defect2(r) > _ROTATION_TOL * _ROTATION_TOL) | (mat_det(r) <= 0.0)
                  | ~np.isfinite(sum(x) + sum(half_log)))
        if refs is not None:
            ref = AntiSymMat3(*refs[:, 3:6].T)
            ref_angle = np.sqrt(ref.m12 * ref.m12 + ref.m13 * ref.m13 + ref.m23 * ref.m23)
            masked |= ~(ref_angle <= _MAX_REF_ANGLE)
            x = _nearest_branch(x, ref, ref_angle)
    out = np.column_stack((translation, *x, *half_log))
    _scalar_rows(out, masked, lambda i: transform_to_params(
        HomAffine3(Mat3(*linear[i].ravel().tolist()), Vec3(*translation[i].tolist())),
        ref=None if refs is None else AffineParam12.from_vector(refs[i].tolist())).to_vector())
    return out


def _params_to_transforms(params, fn: _Transcendentals) -> tuple[np.ndarray, np.ndarray]:
    """params_to_transforms with the transcendentals of the table fn."""
    p = _rows_of(params, (12,), "params")
    cols = p.T.copy()
    with np.errstate(all="ignore"):
        y = SymMat3(*cols[6:])
        eig = _sym_eigenvalues(y, fn)
        stretch = _exp_sym3_with_eig(y, eig, fn)
        linear = mat_mul_sym(_exp_so3(AntiSymMat3(*cols[3:6]), fn), stretch)
        # exp(l1) overflows although a rotated stretch may keep every entry finite
        masked = (eig.l1 > _EXP_ARG_MAX) | ~np.isfinite(sum(linear))
        linear = np.stack(linear, axis=-1)
    _scalar_rows(linear, masked,
                 lambda i: params_to_transform(AffineParam12.from_vector(p[i].tolist())).linear)
    return linear.reshape(-1, 3, 3), cols[:3].T.copy()


def _rows_of(x, shape: tuple[int, ...], name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 + len(shape) or x.shape[1:] != shape:
        raise ValueError(f"{name}: expected shape (N, {', '.join(map(str, shape))}), "
                         f"got {x.shape}")
    return x


def _scalar_rows(out: np.ndarray, masked: np.ndarray, scalar_row) -> None:
    """out[i] = scalar_row(i) for each masked row i, lowest first; an error
    is raised as _row_error(i, error), with the scalar error as __cause__."""
    for i in np.flatnonzero(masked).tolist():
        try:
            out[i] = scalar_row(i)
        except _DOMAIN_ERRORS as exc:
            raise _row_error(i, exc) from exc


def _row_error(i: int, exc: Exception) -> Exception:
    """exc's type with "row i: " in front of its message and i in `row`."""
    err = type(exc)(f"row {i}: {exc}")
    err.row = i
    return err


@contextlib.contextmanager
def _named_rows(name):
    """Within the block, a batch map's error on row i is re-raised as the
    scalar map's error behind it (its __cause__), "{name(i)}: " in front
    of its message where the batch error has "row i: "."""
    try:
        yield
    except _DOMAIN_ERRORS as exc:
        err = exc.__cause__
        err.args = (f"{name(exc.row)}: {err}",)
        raise err from None


def _sort3(l1, l2, l3):
    l1, l2 = np.maximum(l1, l2), np.minimum(l1, l2)
    l2, l3 = np.maximum(l2, l3), np.minimum(l2, l3)
    return np.maximum(l1, l2), np.minimum(l1, l2), l3


def _sym_eigenvalues(y: SymMat3, fn: _Transcendentals) -> SymEig3:
    """linalg3.sym_eigenvalues over a batch (diagonal input returned exactly)."""
    xx, xy, xz, yy, yz, zz = y
    q = (xx + yy + zz) / 3.0
    dxx, dyy, dzz = xx - q, yy - q, zz - q
    p2 = (dxx * dxx + dyy * dyy + dzz * dzz
          + 2.0 * (xy * xy + xz * xz + yz * yz))
    p = np.sqrt(p2 / 6.0)
    flat = p == 0.0
    inv = 1.0 / p
    b11, b12, b13 = dxx * inv, xy * inv, xz * inv
    b22, b23, b33 = dyy * inv, yz * inv, dzz * inv
    half_det = 0.5 * (b11 * (b22 * b33 - b23 * b23)
                      - b12 * (b12 * b33 - b23 * b13)
                      + b13 * (b12 * b23 - b22 * b13))
    ang = fn.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * fn.cos(ang)
    l3 = q + 2.0 * p * fn.cos(ang + _TWO_THIRDS_PI)
    l2 = 3.0 * q - l1 - l3
    diagonal = (xy == 0.0) & (xz == 0.0) & (yz == 0.0)
    return SymEig3(*_sort3(np.where(diagonal, xx, np.where(flat, q, l1)),
                           np.where(diagonal, yy, np.where(flat, q, l2)),
                           np.where(diagonal, zz, np.where(flat, q, l3))))


def _refined_gram_eig(g: SymMat3, det_linear: np.ndarray,
                      fn: _Transcendentals) -> tuple[SymEig3, np.ndarray]:
    """param._refined_gram_eig over a batch, and the mask of rows whose cubic
    gives l3 <= 0, which the scalar path recovers from the determinant."""
    l1, l2, l3 = _sym_eigenvalues(g, fn)
    c2, c1 = sym_char_coeffs(g)
    c0 = det_linear * det_linear
    lams = [l1, l2, l3]
    scale2 = np.maximum(1.0, l1 * l1)
    for i in range(3):
        lam = lams[i]
        o1, o2 = (lams[j] for j in range(3) if j != i)
        dp = (lam - o1) * (lam - o2)
        skip = np.abs(dp) < _NEWTON_SKIP * scale2
        p = ((lam - c2) * lam + c1) * lam - c0
        lams[i] = np.where(skip, lam, lam - p / dp)
    return SymEig3(*_sort3(*lams)), l3 <= 0.0


def _sinc(theta, fn: _Transcendentals):
    return np.where(theta == 0.0, 1.0, fn.sin(theta) / theta)


def _exp_quad_coeff(x, fn: _Transcendentals):
    xx = x * x
    return np.where(xx == 0.0, 0.5, (fn.expm1(x) - x) / xx)


def _log_quad_coeff(x, fn: _Transcendentals):
    u = x - 1.0
    return np.where(u == 0.0, 0.0, (fn.log1p(u) - u) / u)


def _exp_sym3_with_eig(y: SymMat3, eig: SymEig3, fn: _Transcendentals) -> SymMat3:
    """expmap.exp_sym3_with_eig over a batch."""
    l1, l2, l3 = eig
    lp1, lp3 = l1 - l2, l3 - l2
    e1 = _exp_quad_coeff(lp1, fn)
    e3 = _exp_quad_coeff(lp3, fn)
    spread = lp1 - lp3
    zero = spread == 0.0
    b = np.where(zero, 1.0, 1.0 - lp1 * lp3 * (e1 - e3) / spread)
    c = np.where(zero, 0.5,
                 0.5 + (lp1 * (2.0 * e1 - 1.0) - lp3 * (2.0 * e3 - 1.0)) / (2.0 * spread))
    z = SymMat3(y.xx - l2, y.xy, y.xz, y.yy - l2, y.yz, y.zz - l2)
    return sym_scale(sym_poly2(1.0, b, c, z), fn.exp(l2))


def _log_spd_half_gram(g: SymMat3, eig: SymEig3, fn: _Transcendentals) -> SymMat3:
    """logmap.log_spd_half_gram over a batch."""
    l1, l2, l3 = eig
    lp1, lp3 = l1 / l2, l3 / l2
    t1 = _log_quad_coeff(lp1, fn)
    t3 = _log_quad_coeff(lp3, fn)
    spread = lp1 - lp3
    zero = spread == 0.0
    a = np.where(zero, -1.5, -1.0 + (lp3 * t1 - lp1 * t3) / spread)
    c = np.where(zero, -0.5, (t1 - t3) / spread)
    k = 0.5 * (a + fn.log(l2))
    return sym_poly2(k, -0.5 * (a + c), 0.5 * c, sym_scale(g, 1.0 / l2))


def _exp_so3(x: AntiSymMat3, fn: _Transcendentals) -> Mat3:
    """expmap.exp_so3 over a batch."""
    a, b, c = x
    theta = np.sqrt(a * a + b * b + c * c)
    sh = _sinc(0.5 * theta, fn)
    return _rodrigues(a, b, c, _sinc(theta, fn), 0.5 * sh * sh)


def _log_so3(r: Mat3, fn: _Transcendentals) -> AntiSymMat3:
    """logmap.log_so3 over a batch, both sides of cos t = 0 evaluated and selected
    per row; the caller's mask stands for its rotation check."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = r
    cos_t = 0.5 * (a11 + a22 + a33 - 1.0)
    h12 = 0.5 * (a12 - a21)
    h13 = 0.5 * (a13 - a31)
    h23 = 0.5 * (a23 - a32)
    sin_t = np.sqrt(h12 * h12 + h13 * h13 + h23 * h23)
    theta = fn.arctan2(sin_t, cos_t)
    acute = cos_t >= 0.0
    inv_sinc = np.where(sin_t == 0.0, 1.0, theta / sin_t)

    # obtuse rows: the axis is the column of R + R^T - 2 cos(t) I with the
    # largest diagonal entry, directed by the sign of the projection of h on it
    m11, m22, m33 = 2.0 * (a11 - cos_t), 2.0 * (a22 - cos_t), 2.0 * (a33 - cos_t)
    m12 = a12 + a21
    m13 = a13 + a31
    m23 = a23 + a32
    col1 = (a11 >= a22) & (a11 >= a33)
    col2 = ~col1 & (a22 >= a33)
    v1 = np.where(col1, m11, np.where(col2, m12, m13))
    v2 = np.where(col1, m12, np.where(col2, m22, m23))
    v3 = np.where(col1, m13, np.where(col2, m23, m33))
    scale = theta / np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    scale = np.where(h13 * v2 - h23 * v1 - h12 * v3 < 0.0, -scale, scale)
    return AntiSymMat3(np.where(acute, h12 * inv_sinc, -v3 * scale),
                       np.where(acute, h13 * inv_sinc, v2 * scale),
                       np.where(acute, h23 * inv_sinc, -v1 * scale))


def _nearest_branch(x: AntiSymMat3, ref: AntiSymMat3, ref_angle) -> AntiSymMat3:
    """The branch shift of logmap.consistent_log_so3 over a batch, given the
    reference angles; the caller masks those out of range."""
    theta = np.sqrt(x.m12 * x.m12 + x.m13 * x.m13 + x.m23 * x.m23)
    own_axis = theta > _AXIS_FLOOR
    inv = 1.0 / np.where(own_axis, theta, ref_angle)
    k12, k13, k23 = (np.where(own_axis, c, rc) * inv for c, rc in zip(x, ref))
    share = np.where(ref_angle > 0.0, (ref.m12 * x.m12 + ref.m13 * x.m13 + ref.m23 * x.m23) * inv, 0.0)
    theta = np.where(own_axis, theta, share)
    target = np.where(k12 * ref.m12 + k13 * ref.m13 + k23 * ref.m23 >= 0.0, ref_angle, -ref_angle)
    gap = target - theta
    up, down = gap > math.pi, gap < -math.pi
    n = np.where(up, np.ceil((gap - math.pi) / _TWO_PI), -np.ceil((-gap - math.pi) / _TWO_PI))
    angle = theta + n * _TWO_PI
    # with neither an axis of its own nor a reference, the gap is -0.0: x is kept
    return AntiSymMat3(*(np.where(up | down, k * angle, c) for k, c in zip((k12, k13, k23), x)))

"""Fixed-size 3D linear algebra kernels.

Value types are flat named tuples so the hot paths can unpack them into
locals and do unrolled scalar arithmetic; everything here is pure and
thread-safe. Symmetric and antisymmetric matrices store only their
independent entries, which makes (anti)symmetry a storage property rather
than a numerical one.

The hot return sites (gram, mat_mul_sym, sym_eigenvalues and the kernels of
expmap, logmap and param) build their named tuples with
``_new(Cls, (...))``, the ``tuple.__new__`` that the generated
``Cls.__new__`` itself calls. ``Cls(...)`` adds a Python-level call and
argument binding: on CPython 3.11 a 3- to 9-field record costs 75-90 ns
this way against 130-155 ns. The result is an instance of the same public
type with the same fields, so callers see no difference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_MIN_NORMAL = 2.2250738585072014e-308

_new = tuple.__new__


class Vec3(NamedTuple):
    x: float
    y: float
    z: float


class Mat3(NamedTuple):
    """General 3x3 matrix, row-major fields a11..a33."""

    a11: float
    a12: float
    a13: float
    a21: float
    a22: float
    a23: float
    a31: float
    a32: float
    a33: float


class SymMat3(NamedTuple):
    """Symmetric 3x3 matrix [[xx,xy,xz],[xy,yy,yz],[xz,yz,zz]]."""

    xx: float
    xy: float
    xz: float
    yy: float
    yz: float
    zz: float


class AntiSymMat3(NamedTuple):
    """Antisymmetric 3x3 matrix [[0,m12,m13],[-m12,0,m23],[-m13,-m23,0]]."""

    m12: float
    m13: float
    m23: float


class SymEig3(NamedTuple):
    """Eigenvalues of a symmetric 3x3 matrix, sorted l1 >= l2 >= l3."""

    l1: float
    l2: float
    l3: float


VEC3_ZERO = Vec3(0.0, 0.0, 0.0)
MAT3_IDENTITY = Mat3(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
SYM3_ZERO = SymMat3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
ANTISYM3_ZERO = AntiSymMat3(0.0, 0.0, 0.0)


# -- vectors ----------------------------------------------------------------

def vec_add(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x + b.x, a.y + b.y, a.z + b.z)


# -- general matrices -------------------------------------------------------

def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    b11, b12, b13, b21, b22, b23, b31, b32, b33 = b
    return Mat3(
        a11 * b11 + a12 * b21 + a13 * b31,
        a11 * b12 + a12 * b22 + a13 * b32,
        a11 * b13 + a12 * b23 + a13 * b33,
        a21 * b11 + a22 * b21 + a23 * b31,
        a21 * b12 + a22 * b22 + a23 * b32,
        a21 * b13 + a22 * b23 + a23 * b33,
        a31 * b11 + a32 * b21 + a33 * b31,
        a31 * b12 + a32 * b22 + a33 * b32,
        a31 * b13 + a32 * b23 + a33 * b33,
    )


def mat_vec(a: Mat3, v: Vec3) -> Vec3:
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    x, y, z = v
    return Vec3(
        a11 * x + a12 * y + a13 * z,
        a21 * x + a22 * y + a23 * z,
        a31 * x + a32 * y + a33 * z,
    )


def mat_det(a: Mat3) -> float:
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    return (a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31))


def gram(a: Mat3) -> SymMat3:
    """A^T A, stored symmetric."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    return _new(SymMat3, (
        a11 * a11 + a21 * a21 + a31 * a31,
        a11 * a12 + a21 * a22 + a31 * a32,
        a11 * a13 + a21 * a23 + a31 * a33,
        a12 * a12 + a22 * a22 + a32 * a32,
        a12 * a13 + a22 * a23 + a32 * a33,
        a13 * a13 + a23 * a23 + a33 * a33,
    ))


def mat_mul_sym(a: Mat3, s: SymMat3) -> Mat3:
    """A * S for symmetric S, without expanding S to a full matrix."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    sxx, sxy, sxz, syy, syz, szz = s
    return _new(Mat3, (
        a11 * sxx + a12 * sxy + a13 * sxz,
        a11 * sxy + a12 * syy + a13 * syz,
        a11 * sxz + a12 * syz + a13 * szz,
        a21 * sxx + a22 * sxy + a23 * sxz,
        a21 * sxy + a22 * syy + a23 * syz,
        a21 * sxz + a22 * syz + a23 * szz,
        a31 * sxx + a32 * sxy + a33 * sxz,
        a31 * sxy + a32 * syy + a33 * syz,
        a31 * sxz + a32 * syz + a33 * szz,
    ))


# -- symmetric / antisymmetric packing --------------------------------------

def sym_from_mat3(a: Mat3) -> SymMat3:
    """Symmetric part (A + A^T)/2, packed."""
    return SymMat3(
        a.a11,
        0.5 * (a.a12 + a.a21),
        0.5 * (a.a13 + a.a31),
        a.a22,
        0.5 * (a.a23 + a.a32),
        a.a33,
    )


def sym_scale(a: SymMat3, s: float) -> SymMat3:
    return SymMat3(*(x * s for x in a))


def sym_norm2(y: SymMat3) -> float:
    """Squared Frobenius norm, off-diagonal entries counted twice."""
    return (y.xx * y.xx + y.yy * y.yy + y.zz * y.zz
            + 2.0 * (y.xy * y.xy + y.xz * y.xz + y.yz * y.yz))


def sym_char_coeffs(y: SymMat3) -> tuple[float, float]:
    """(c2, c1) of det(x*I - Y) = x^3 - c2*x^2 + c1*x - det(Y); array-safe."""
    xx, xy, xz, yy, yz, zz = y
    return (xx + yy + zz,
            xx * yy + yy * zz + zz * xx - xy * xy - xz * xz - yz * yz)


def sym_square(y: SymMat3) -> SymMat3:
    """Y^2 for symmetric Y (again symmetric)."""
    xx, xy, xz, yy, yz, zz = y
    return SymMat3(
        xx * xx + xy * xy + xz * xz,
        xx * xy + xy * yy + xz * yz,
        xx * xz + xy * yz + xz * zz,
        xy * xy + yy * yy + yz * yz,
        xy * xz + yy * yz + yz * zz,
        xz * xz + yz * yz + zz * zz,
    )


def sym_poly2(a: float, b: float, c: float, y: SymMat3) -> SymMat3:
    """a*I + b*Y + c*Y^2 evaluated symmetric-in, symmetric-out."""
    xx, xy, xz, yy, yz, zz = y
    s2 = sym_square(y)
    return SymMat3(
        a + b * xx + c * s2.xx,
        b * xy + c * s2.xy,
        b * xz + c * s2.xz,
        a + b * yy + c * s2.yy,
        b * yz + c * s2.yz,
        a + b * zz + c * s2.zz,
    )


def antisym_angle(x: AntiSymMat3) -> float:
    """Rotation angle sqrt(tr(X^T X)/2) carried by the generator."""
    return math.sqrt(x.m12 * x.m12 + x.m13 * x.m13 + x.m23 * x.m23)


# -- analytic symmetric eigenvalues ------------------------------------------

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def sym_eigenvalues(y: SymMat3) -> SymEig3:
    """Real spectrum of a symmetric 3x3 matrix, sorted descending.

    Uses the trigonometric solution of the depressed cubic: shift by the
    mean eigenvalue, scale by sqrt(tr(B^2)/6), and read the roots off
    arccos of the scaled determinant (clamped against roundoff). Diagonal
    input is returned exactly.
    """
    xx, xy, xz, yy, yz, zz = y
    if xy == 0.0 and xz == 0.0 and yz == 0.0:
        l1, l2, l3 = xx, yy, zz
        if l1 < l2:
            l1, l2 = l2, l1
        if l2 < l3:
            l2, l3 = l3, l2
            if l1 < l2:
                l1, l2 = l2, l1
        return _new(SymEig3, (l1, l2, l3))

    q = (xx + yy + zz) / 3.0
    dxx, dyy, dzz = xx - q, yy - q, zz - q
    p2 = (dxx * dxx + dyy * dyy + dzz * dzz
          + 2.0 * (xy * xy + xz * xz + yz * yz))
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return _new(SymEig3, (q, q, q))
    inv = 1.0 / p
    b11, b12, b13 = dxx * inv, xy * inv, xz * inv
    b22, b23, b33 = dyy * inv, yz * inv, dzz * inv
    half_det = 0.5 * (b11 * (b22 * b33 - b23 * b23)
                      - b12 * (b12 * b33 - b23 * b13)
                      + b13 * (b12 * b23 - b22 * b13))
    if half_det <= -1.0:
        ang = math.pi / 3.0
    elif half_det >= 1.0:
        ang = 0.0
    else:
        ang = math.acos(half_det) / 3.0
    l1 = q + 2.0 * p * math.cos(ang)
    l3 = q + 2.0 * p * math.cos(ang + _TWO_THIRDS_PI)
    l2 = 3.0 * q - l1 - l3
    # roundoff in the l2 recovery can break the ordering by ~1 ulp
    if l2 > l1:
        l1, l2 = l2, l1
    if l3 > l2:
        l2, l3 = l3, l2
    return _new(SymEig3, (l1, l2, l3))

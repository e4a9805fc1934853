"""Shared helpers for the test suite."""

import math
import random

import pytest

from affine12.expmap import exp_so3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    AntiSymMat3,
    Mat3,
    SymMat3,
    Vec3,
    mat_det,
    mat_mul,
    sym_from_mat3,
)


# -- matrix packing, used only by the tests -----------------------------------

def sym_to_mat3(y: SymMat3) -> Mat3:
    return Mat3(y.xx, y.xy, y.xz, y.xy, y.yy, y.yz, y.xz, y.yz, y.zz)


def antisym_to_mat3(x: AntiSymMat3) -> Mat3:
    return Mat3(0.0, x.m12, x.m13, -x.m12, 0.0, x.m23, -x.m13, -x.m23, 0.0)


def mat_transpose(a: Mat3) -> Mat3:
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a
    return Mat3(a11, a21, a31, a12, a22, a32, a13, a23, a33)


def sym_trace(y: SymMat3) -> float:
    return y.xx + y.yy + y.zz


def antisym_scale(x: AntiSymMat3, s: float) -> AntiSymMat3:
    return AntiSymMat3(x.m12 * s, x.m13 * s, x.m23 * s)


# -- independent references for the closed forms ------------------------------

def mat_add(a: Mat3, b: Mat3) -> Mat3:
    return Mat3(*(x + y for x, y in zip(a, b)))


def mat_scale(a: Mat3, s: float) -> Mat3:
    return Mat3(*(x * s for x in a))


def frob_norm2(a: Mat3) -> float:
    """Squared Frobenius norm."""
    return sum(x * x for x in a)


def exp_series(a: Mat3) -> Mat3:
    """Matrix exponential by the defining power series.

    Scales the argument by 2^-k until its norm is below 1/2, sums terms
    until they fall under machine precision relative to the running sum,
    then squares k times.
    """
    norm = math.sqrt(frob_norm2(a))
    k = 0
    while norm > 0.5:
        norm *= 0.5
        k += 1
    scaled = mat_scale(a, 0.5 ** k)
    acc = MAT3_IDENTITY
    term = MAT3_IDENTITY
    i = 1
    while True:
        term = mat_scale(mat_mul(term, scaled), 1.0 / i)
        acc = mat_add(acc, term)
        if math.sqrt(frob_norm2(term)) <= 1e-20 * max(1.0, math.sqrt(frob_norm2(acc))):
            break
        i += 1
        if i > 60:
            break
    for _ in range(k):
        acc = mat_mul(acc, acc)
    return acc


def exp_antisym_series(x: AntiSymMat3) -> Mat3:
    """Series exponential of a packed antisymmetric generator."""
    return exp_series(antisym_to_mat3(x))


def vandermonde_coeffs(f_values: tuple[float, float, float],
                       eigenvalues: tuple[float, float, float]) -> tuple[float, float, float]:
    """Coefficients (a, b, c) with f(Y) = a*I + b*Y + c*Y^2.

    Solves the 3x3 Vandermonde system for pairwise distinct eigenvalues by
    the explicit partial-fraction form. Raises ValueError when two
    eigenvalues coincide exactly; the guarded closed forms are the stable
    route in that regime.
    """
    f1, f2, f3 = f_values
    l1, l2, l3 = eigenvalues
    d12 = l1 - l2
    d13 = l1 - l3
    d23 = l2 - l3
    if d12 == 0.0 or d13 == 0.0 or d23 == 0.0:
        raise ValueError(f"eigenvalues {eigenvalues!r} are not pairwise distinct")
    s = f1 / (d12 * d13)
    t = f2 / (-d12 * d23)
    u = f3 / (-d13 * -d23)
    a = s * l2 * l3 + t * l3 * l1 + u * l1 * l2
    b = -s * (l2 + l3) - t * (l3 + l1) - u * (l1 + l2)
    c = s + t + u
    return a, b, c


# -- inputs --------------------------------------------------------------------

# offsets from the smallest double to 1e-3 for the quotient helpers: every
# decade at three mantissas, the squares that just underflow and the former
# series switch at 1e-4
TINY_ARGUMENTS = (5e-324, 1.4e-162, 1.6e-162, 1e-4 * (1 - 1e-8), 1e-4 * (1 + 1e-8),
                  *(m * 10.0 ** k for k in range(-323, -3) for m in (1.0, 2.5, 6.3)), 1e-3)


def rand_sym(rng: random.Random, scale: float = 1.0) -> SymMat3:
    return SymMat3(*(rng.uniform(-scale, scale) for _ in range(6)))


def rand_antisym(rng: random.Random, scale: float = 1.0) -> AntiSymMat3:
    return AntiSymMat3(*(rng.uniform(-scale, scale) for _ in range(3)))


def rand_unit_axis(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 1e-3:
            return (v[0] / n, v[1] / n, v[2] / n)


def generator_for(axis, angle: float) -> AntiSymMat3:
    """Packed antisymmetric generator whose exponential rotates by `angle` about `axis`."""
    v1, v2, v3 = axis
    return AntiSymMat3(-v3 * angle, v2 * angle, -v1 * angle)


def axis_angle_rotation(axis, angle: float) -> Mat3:
    """Rotation matrix from the classical closed form (independent of exp_so3)."""
    v1, v2, v3 = axis
    c = math.cos(angle)
    s = math.sin(angle)
    k = 1.0 - c
    return Mat3(
        c + k * v1 * v1, k * v1 * v2 - s * v3, k * v1 * v3 + s * v2,
        k * v1 * v2 + s * v3, c + k * v2 * v2, k * v2 * v3 - s * v1,
        k * v1 * v3 - s * v2, k * v2 * v3 + s * v1, c + k * v3 * v3,
    )


def rand_rotation(rng: random.Random, max_angle: float = math.pi) -> Mat3:
    return axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, max_angle))


def conjugate_spectrum(q: Mat3, eigenvalues) -> SymMat3:
    """Q diag(eigenvalues) Q^T packed symmetric."""
    l1, l2, l3 = eigenvalues
    d = Mat3(l1, 0.0, 0.0, 0.0, l2, 0.0, 0.0, 0.0, l3)
    return sym_from_mat3(mat_mul(mat_mul(q, d), mat_transpose(q)))


def char_poly(y: SymMat3, x: float) -> float:
    """det(x*I - Y), for residual checks on computed eigenvalues."""
    c2 = y.xx + y.yy + y.zz
    c1 = (y.xx * y.yy + y.yy * y.zz + y.zz * y.xx
          - y.xy * y.xy - y.xz * y.xz - y.yz * y.yz)
    c0 = mat_det(sym_to_mat3(y))
    return ((x - c2) * x + c1) * x - c0


def sym_with_spectrum(rng: random.Random, eigenvalues) -> SymMat3:
    """Random symmetric matrix with (approximately) the given spectrum."""
    return conjugate_spectrum(exp_so3(rand_antisym(rng, 2.0)), eigenvalues)


def rand_linear(rng: random.Random, det_floor: float = 1e-3) -> Mat3:
    while True:
        m = Mat3(*(rng.uniform(-1.0, 1.0) for _ in range(9)))
        if mat_det(m) > det_floor:
            return m


def mat_dist(a: Mat3, b: Mat3) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def sym_dist(a: SymMat3, b: SymMat3) -> float:
    return mat_dist(sym_to_mat3(a), sym_to_mat3(b))


def sym_norm(a: SymMat3) -> float:
    return math.sqrt(a.xx ** 2 + a.yy ** 2 + a.zz ** 2
                     + 2.0 * (a.xy ** 2 + a.xz ** 2 + a.yz ** 2))


def vec_dist(a: Vec3, b: Vec3) -> float:
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234567)

"""Shared helpers for the test suite."""

import math
import random

import pytest

from affine12.expmap import exp_so3
from affine12.linalg3 import (
    AntiSymMat3,
    Mat3,
    SymMat3,
    Vec3,
    mat_det,
    mat_mul,
    mat_transpose,
    sym_from_mat3,
    sym_to_mat3,
)


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

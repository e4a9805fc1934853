"""Reference implementations used by tests and benchmarks.

Deliberately slow but simple: a scaled-and-squared power series for the
exponential, a cyclic Jacobi eigensolver, and diagonalisation-based matrix
functions. None of this shares algorithmic code with the closed-form
kernels, so the two routes check each other independently.
"""

from __future__ import annotations

import math

from .errors import NotPositiveDefiniteError
from .linalg3 import (
    MAT3_IDENTITY,
    Mat3,
    SymMat3,
    frob_norm2,
    mat_add,
    mat_mul,
    mat_scale,
    sym_from_mat3,
)


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


def jacobi_eig(y: SymMat3, off_tol: float = 1e-14, max_sweeps: int = 30):
    """Cyclic Jacobi eigendecomposition of a symmetric 3x3 matrix.

    Returns (eigenvalues sorted descending, Mat3 whose columns are the
    matching orthonormal eigenvectors). Sweeps run until the off-diagonal
    norm drops below off_tol * max(1, ||Y||_F).
    """
    a = [[y.xx, y.xy, y.xz], [y.xy, y.yy, y.yz], [y.xz, y.yz, y.zz]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    scale = max(1.0, math.sqrt(sum(a[i][j] * a[i][j] for i in range(3) for j in range(3))))
    for _ in range(max_sweeps):
        off = math.sqrt(a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2)
        if off <= off_tol * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p][q]
            if apq == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for k in range(3):
                akp = a[k][p]
                akq = a[k][q]
                a[k][p] = c * akp - s * akq
                a[k][q] = s * akp + c * akq
            for k in range(3):
                apk = a[p][k]
                aqk = a[q][k]
                a[p][k] = c * apk - s * aqk
                a[q][k] = s * apk + c * aqk
            for k in range(3):
                vkp = v[k][p]
                vkq = v[k][q]
                v[k][p] = c * vkp - s * vkq
                v[k][q] = s * vkp + c * vkq
    order = sorted(range(3), key=lambda i: -a[i][i])
    values = tuple(a[i][i] for i in order)
    vectors = Mat3(
        v[0][order[0]], v[0][order[1]], v[0][order[2]],
        v[1][order[0]], v[1][order[1]], v[1][order[2]],
        v[2][order[0]], v[2][order[1]], v[2][order[2]],
    )
    return values, vectors


_MATFUN = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "inv-sqrt": lambda d: 1.0 / math.sqrt(d),
}

_NEEDS_SPD = frozenset(("log", "sqrt", "inv-sqrt"))


def matfun_diag(y: SymMat3, fname: str) -> SymMat3:
    """Apply exp/log/sqrt/inv-sqrt to a symmetric matrix by diagonalisation."""
    try:
        f = _MATFUN[fname]
    except KeyError:
        raise ValueError(f"unknown matrix function {fname!r}") from None
    values, p = jacobi_eig(y)
    if fname in _NEEDS_SPD and values[2] <= 0.0:
        raise NotPositiveDefiniteError(
            f"{fname} needs a positive definite input, smallest eigenvalue {values[2]!r}")
    d = Mat3(f(values[0]), 0.0, 0.0, 0.0, f(values[1]), 0.0, 0.0, 0.0, f(values[2]))
    full = mat_mul(mat_mul(p, d), Mat3(p.a11, p.a21, p.a31,
                                       p.a12, p.a22, p.a32,
                                       p.a13, p.a23, p.a33))
    return sym_from_mat3(full)


def exp_antisym_series(x) -> Mat3:
    """Series exponential of a packed antisymmetric generator."""
    return exp_series(Mat3(0.0, x.m12, x.m13, -x.m12, 0.0, x.m23, -x.m13, -x.m23, 0.0))

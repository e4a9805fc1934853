"""Closed-form exponentials of rotation generators and symmetric matrices.

The rotation exponential is the classical axis-angle formula. The symmetric
exponential avoids diagonalisation: with the spectrum from the analytic
cubic solver, exp(Y) reduces by Cayley-Hamilton to the quadratic
exp(l2) * (I + b*Z + c*Z^2) in Z = Y - l2*I, whose coefficients come from
divided differences of the analytic helper e2(x) = (exp(x) - 1 - x)/x^2
(the divided-difference form of f(A): Higham, Functions of Matrices, SIAM
2008). Every quotient is evaluated as it stands, with no series and no
tuned switch; only 0/0 is replaced by its limit. sin(t)/t is accurate to
an ulp down to the smallest double, so only t = 0 is guarded.
"""

from __future__ import annotations

import math

from .errors import OutOfRangeError
from .linalg3 import (
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    _new,
    sym_eigenvalues,
)

# log of the largest representable double; exp of anything above overflows
_EXP_ARG_MAX = 709.782712893384


def sinc_guarded(theta: float) -> float:
    """sin(t)/t, with its limit 1 at t = 0."""
    return math.sin(theta) / theta if theta else 1.0


def exp_quad_coeff(x: float) -> float:
    """e2(x) = (exp(x) - 1 - x)/x^2, the quadratic remainder coefficient of exp.

    Evaluated through expm1 to avoid the exp(x)-1 cancellation; for small
    x the error is about eps/|x|, which _exp_coeffs multiplies by x. Only
    x*x == 0 (x = 0, or |x| below ~1.5e-162, whose square underflows) is
    0/0 and returns the limit 1/2.
    """
    xx = x * x
    return (math.expm1(x) - x) / xx if xx else 0.5


def exp_so3(x: AntiSymMat3) -> Mat3:
    """Rotation matrix exp(X) for an antisymmetric generator X.

    I + sinc(t)*X + (1/2)*sinc(t/2)^2*X^2 with t = sqrt(tr(X^T X)/2).
    Raises OutOfRangeError when t is infinite (entries beyond ~1e154).
    """
    a, b, c = x
    theta = math.sqrt(a * a + b * b + c * c)
    try:
        sh = sinc_guarded(0.5 * theta)
    except ValueError:   # math.sin(inf)
        raise OutOfRangeError(f"rotation angle {theta!r} is not finite") from None
    return _rodrigues(a, b, c, sinc_guarded(theta), 0.5 * sh * sh)


def _rodrigues(a, b, c, s, h) -> Mat3:
    """I + s*X + h*X^2 for the generator X = (a, b, c); array-safe."""
    # X^2 entries (symmetric)
    q11 = -a * a - b * b
    q12 = -b * c
    q13 = a * c
    q22 = -a * a - c * c
    q23 = -a * b
    q33 = -b * b - c * c
    return _new(Mat3, (
        1.0 + h * q11, s * a + h * q12, s * b + h * q13,
        -s * a + h * q12, 1.0 + h * q22, s * c + h * q23,
        -s * b + h * q13, -s * c + h * q23, 1.0 + h * q33,
    ))


def _exp_coeffs(lp1: float, lp3: float) -> tuple[float, float]:
    """Quadratic coefficients (b, c) for exp on the shifted spectrum.

    lp1 >= 0 >= lp3 are the outer eigenvalues after subtracting the middle
    one. The divided differences are plain quotients by the spread: the
    rounding error of e2 or of the quotient reaches exp(Y) only through
    lp1, lp3 and Z^2, which are no larger than the spread, so it stays at
    roundoff however small the spread is. Only a spread of exactly 0
    (lp1 = lp3 = 0, a scalar matrix) is 0/0 and returns the limit (1, 1/2).
    """
    spread = lp1 - lp3
    if not spread:
        return 1.0, 0.5
    e1 = exp_quad_coeff(lp1)
    e3 = exp_quad_coeff(lp3)
    b = 1.0 - lp1 * lp3 * (e1 - e3) / spread
    c = 0.5 + (lp1 * (2.0 * e1 - 1.0) - lp3 * (2.0 * e3 - 1.0)) / (2.0 * spread)
    return b, c


def exp_sym3_with_eig(y: SymMat3, eig: SymEig3) -> SymMat3:
    """exp(Y) given the (sorted) spectrum of Y; result is SPD.

    Split out so callers that already know the eigenvalues (e.g. the SPD
    inverse square root, which negates and halves logs of a spectrum it
    has in hand) skip the second eigensolve.
    """
    l1, l2, l3 = eig
    if l1 > _EXP_ARG_MAX:
        raise OverflowError(f"exp of leading eigenvalue {l1!r} is not representable")
    b, c = _exp_coeffs(l1 - l2, l3 - l2)
    s = math.exp(l2)
    # Z = Y - l2*I and Z^2, fused with the final combination
    yxx, z2, z3, yyy, z5, yzz = y
    z1, z4, z6 = yxx - l2, yyy - l2, yzz - l2
    zz1 = z1 * z1 + z2 * z2 + z3 * z3
    zz2 = z1 * z2 + z2 * z4 + z3 * z5
    zz3 = z1 * z3 + z2 * z5 + z3 * z6
    zz4 = z2 * z2 + z4 * z4 + z5 * z5
    zz5 = z2 * z3 + z4 * z5 + z5 * z6
    zz6 = z3 * z3 + z5 * z5 + z6 * z6
    return _new(SymMat3, (
        s * (1.0 + b * z1 + c * zz1),
        s * (b * z2 + c * zz2),
        s * (b * z3 + c * zz3),
        s * (1.0 + b * z4 + c * zz4),
        s * (b * z5 + c * zz5),
        s * (1.0 + b * z6 + c * zz6),
    ))


def exp_sym3(y: SymMat3) -> SymMat3:
    """Closed-form exp of a symmetric matrix (no diagonalisation)."""
    return exp_sym3_with_eig(y, sym_eigenvalues(y))


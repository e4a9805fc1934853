"""Closed-form exponentials of rotation generators and symmetric matrices.

The rotation exponential is the classical axis-angle formula. The symmetric
exponential avoids diagonalisation: with the spectrum from the analytic
cubic solver, exp(Y) reduces by Cayley-Hamilton to the quadratic
exp(l2) * (I + b*Z + c*Z^2) in Z = Y - l2*I, whose coefficients come from
divided differences of the analytic helper e2(x) = (exp(x) - 1 - x)/x^2.
All small-denominator regimes switch to short Taylor forms whose truncation
error sits below double-precision roundoff at the switch point.
"""

from __future__ import annotations

import math

from .errors import DegenerateSpectrumError
from .linalg3 import (
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    sym_eigenvalues,
)

# log of the largest representable double; exp of anything above overflows
_EXP_ARG_MAX = 709.782712893384

# switch points for the guarded scalar helpers
_SINC_TAYLOR = 1e-4
_E2_TAYLOR = 1e-4
_SPREAD_TAYLOR = 1e-4


def sinc_guarded(theta: float) -> float:
    """sin(t)/t with the quadratic Taylor form below |t| = 1e-4."""
    if abs(theta) < _SINC_TAYLOR:
        return 1.0 - theta * theta / 6.0
    return math.sin(theta) / theta


def exp_quad_coeff(x: float) -> float:
    """e2(x) = (exp(x) - 1 - x)/x^2, the quadratic remainder coefficient of exp.

    Evaluated through expm1 to avoid the exp(x)-1 cancellation; below
    |x| = 1e-4 the series 1/2 + x/6 + x^2/24 is used (limit 1/2 at 0).
    """
    if abs(x) < _E2_TAYLOR:
        return 0.5 + x / 6.0 + x * x / 24.0
    return (math.expm1(x) - x) / (x * x)


def exp_so3(x: AntiSymMat3) -> Mat3:
    """Rotation matrix exp(X) for an antisymmetric generator X.

    I + sinc(t)*X + (1/2)*sinc(t/2)^2*X^2 with t = sqrt(tr(X^T X)/2).
    """
    a, b, c = x
    theta = math.sqrt(a * a + b * b + c * c)
    sh = sinc_guarded(0.5 * theta)
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
    return Mat3(
        1.0 + h * q11, s * a + h * q12, s * b + h * q13,
        -s * a + h * q12, 1.0 + h * q22, s * c + h * q23,
        -s * b + h * q13, -s * c + h * q23, 1.0 + h * q33,
    )


def _exp_coeffs(lp1: float, lp3: float) -> tuple[float, float]:
    """Quadratic coefficients (b, c) for exp on the shifted spectrum.

    lp1 >= 0 >= lp3 are the outer eigenvalues after subtracting the middle
    one. Near-confluent spectra use the divided-difference Taylor forms.
    """
    if lp1 - lp3 < _SPREAD_TAYLOR:
        b = 1.0 - lp1 * lp3 / 6.0
        c = 0.5 + (lp1 + lp3) / 6.0 + (lp1 * lp1 + lp1 * lp3 + lp3 * lp3) / 24.0
        return b, c
    e1 = exp_quad_coeff(lp1)
    e3 = exp_quad_coeff(lp3)
    spread = lp1 - lp3
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
    return SymMat3(
        s * (1.0 + b * z1 + c * zz1),
        s * (b * z2 + c * zz2),
        s * (b * z3 + c * zz3),
        s * (1.0 + b * z4 + c * zz4),
        s * (b * z5 + c * zz5),
        s * (1.0 + b * z6 + c * zz6),
    )


def exp_sym3(y: SymMat3) -> SymMat3:
    """Closed-form exp of a symmetric matrix (no diagonalisation)."""
    return exp_sym3_with_eig(y, sym_eigenvalues(y))


def vandermonde_coeffs(f_values: tuple[float, float, float],
                       eigenvalues: tuple[float, float, float]) -> tuple[float, float, float]:
    """Coefficients (a, b, c) with f(Y) = a*I + b*Y + c*Y^2.

    Solves the 3x3 Vandermonde system for pairwise distinct eigenvalues by
    the explicit partial-fraction form. Raises DegenerateSpectrumError when
    two eigenvalues coincide exactly; the guarded formulas above are the
    stable route in that regime.
    """
    f1, f2, f3 = f_values
    l1, l2, l3 = eigenvalues
    d12 = l1 - l2
    d13 = l1 - l3
    d23 = l2 - l3
    if d12 == 0.0 or d13 == 0.0 or d23 == 0.0:
        raise DegenerateSpectrumError(f"eigenvalues {eigenvalues!r} are not pairwise distinct")
    s = f1 / (d12 * d13)
    t = f2 / (-d12 * d23)
    u = f3 / (-d13 * -d23)
    a = s * l2 * l3 + t * l3 * l1 + u * l1 * l2
    b = -s * (l2 + l3) - t * (l3 + l1) - u * (l1 + l2)
    c = s + t + u
    return a, b, c

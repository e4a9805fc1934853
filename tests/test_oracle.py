import math
import random

import pytest

from affine12.errors import NotPositiveDefiniteError
from affine12.expmap import exp_so3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    Mat3,
    SymMat3,
    gram,
    sym_eigenvalues,
    sym_square,
)
from affine12.oracle import jacobi_eig, matfun_diag
from conftest import (
    conjugate_spectrum,
    exp_antisym_series,
    exp_series,
    mat_dist,
    rand_antisym,
    rand_linear,
    rand_sym,
    sym_dist,
    sym_norm,
)


class TestExpSeries:
    def test_zero(self):
        assert exp_series(Mat3(0, 0, 0, 0, 0, 0, 0, 0, 0)) == MAT3_IDENTITY

    def test_diagonal(self):
        out = exp_series(Mat3(1.0, 0, 0, 0, 2.0, 0, 0, 0, 3.0))
        for got, want in zip((out.a11, out.a22, out.a33),
                             (math.e, math.e ** 2, math.e ** 3)):
            assert abs(got - want) <= 1e-13 * want

    def test_cross_validates_rotation_formula(self):
        # both directions: the series must match the axis-angle closed form
        rng = random.Random(11)
        for _ in range(50):
            x = rand_antisym(rng, 0.6)  # angle around 1
            assert mat_dist(exp_antisym_series(x), exp_so3(x)) <= 1e-13


class TestJacobi:
    def test_diagonal_input(self):
        values, vectors = jacobi_eig(SymMat3(5.0, 0, 0, 3.0, 0, 1.0))
        assert values == (5.0, 3.0, 1.0)
        # columns form a signed permutation of the identity
        cols = [(vectors.a11, vectors.a21, vectors.a31),
                (vectors.a12, vectors.a22, vectors.a32),
                (vectors.a13, vectors.a23, vectors.a33)]
        for col in cols:
            assert sorted(abs(c) for c in col) == [0.0, 0.0, 1.0]

    def test_rank_one(self):
        v = (1.0, 2.0, 3.0)
        y = SymMat3(v[0] * v[0], v[0] * v[1], v[0] * v[2],
                    v[1] * v[1], v[1] * v[2], v[2] * v[2])
        values, _ = jacobi_eig(y)
        assert abs(values[0] - 14.0) <= 1e-12
        assert abs(values[1]) <= 1e-12
        assert abs(values[2]) <= 1e-12

    def test_reconstruction_and_crosscheck(self, rng):
        for _ in range(300):
            y = rand_sym(rng, 2.0)
            values, vectors = jacobi_eig(y)
            assert sym_dist(conjugate_spectrum(vectors, values), y) <= 1e-12
            eig = sym_eigenvalues(y)
            for a, b in zip(values, eig):
                assert abs(a - b) <= 1e-11


class TestMatfunDiag:
    def test_exp_of_zero(self):
        assert sym_dist(matfun_diag(SymMat3(0, 0, 0, 0, 0, 0), "exp"),
                        SymMat3(1, 0, 0, 1, 0, 1)) <= 1e-15

    def test_log_of_scaled_identity(self):
        e = math.e
        out = matfun_diag(SymMat3(e, 0, 0, e, 0, e), "log")
        assert sym_dist(out, SymMat3(1, 0, 0, 1, 0, 1)) <= 1e-14

    def test_sqrt_squares_back(self, rng):
        for _ in range(200):
            g = gram(rand_linear(rng))
            root = matfun_diag(g, "sqrt")
            assert sym_dist(sym_square(root), g) <= 1e-11 * max(1.0, sym_norm(g))

    def test_inv_sqrt(self, rng):
        g = gram(rand_linear(rng))
        inv_root = matfun_diag(g, "inv-sqrt")
        root = matfun_diag(g, "sqrt")
        assert mat_dist(_sym_mul(inv_root, root), MAT3_IDENTITY) <= 1e-10

    def test_spd_required(self):
        indef = SymMat3(1.0, 0, 0, -1.0, 0, 1.0)
        for name in ("log", "sqrt", "inv-sqrt"):
            with pytest.raises(NotPositiveDefiniteError):
                matfun_diag(indef, name)

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            matfun_diag(SymMat3(1, 0, 0, 1, 0, 1), "tanh")


def _sym_mul(a: SymMat3, b: SymMat3) -> Mat3:
    from affine12.linalg3 import mat_mul
    from conftest import sym_to_mat3

    return mat_mul(sym_to_mat3(a), sym_to_mat3(b))

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine12.errors import SingularMatrixError
from affine12.linalg3 import (
    MAT3_IDENTITY,
    Mat3,
    SymMat3,
    frob_norm2,
    gram,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_transpose,
    sym_eigenvalues,
    sym_norm2,
    sym_trace,
)
from conftest import axis_angle_rotation, char_poly, mat_dist, rand_sym, rand_unit_axis

sym_entries = st.lists(st.floats(-10, 10, allow_nan=False), min_size=6, max_size=6)


class TestSymEigenvalues:
    def test_diagonal_exact(self):
        assert sym_eigenvalues(SymMat3(3.0, 0.0, 0.0, 2.0, 0.0, 1.0)) == (3.0, 2.0, 1.0)
        # unsorted diagonal comes back sorted, still exact
        assert sym_eigenvalues(SymMat3(1.0, 0.0, 0.0, 3.0, 0.0, 2.0)) == (3.0, 2.0, 1.0)

    def test_identity(self):
        assert sym_eigenvalues(SymMat3(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)) == (1.0, 1.0, 1.0)

    def test_matches_jacobi_oracle(self):
        from affine12.oracle import jacobi_eig

        rng = random.Random(101)
        for _ in range(1000):
            y = rand_sym(rng)
            ours = sym_eigenvalues(y)
            ref, _ = jacobi_eig(y)
            for a, b in zip(ours, ref):
                assert abs(a - b) <= 1e-12

    @given(sym_entries)
    def test_sorted_descending(self, entries):
        eig = sym_eigenvalues(SymMat3(*entries))
        assert eig.l1 >= eig.l2 >= eig.l3

    @given(sym_entries)
    def test_char_poly_residual(self, entries):
        y = SymMat3(*entries)
        norm = math.sqrt(sym_norm2(y))
        bound = 1e-9 * max(1.0, norm ** 3)
        for lam in sym_eigenvalues(y):
            assert abs(char_poly(y, lam)) <= bound

    @given(st.lists(st.floats(-4, 4, allow_nan=False), min_size=6, max_size=6))
    def test_trace_identity(self, entries):
        y = SymMat3(*entries)
        eig = sym_eigenvalues(y)
        assert abs(sym_trace(y) - (eig.l1 + eig.l2 + eig.l3)) <= 1e-12


class TestMatOps:
    def test_det_identity(self):
        assert mat_det(MAT3_IDENTITY) == 1.0

    def test_gram_of_rotation_is_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            r = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0, math.pi))
            assert mat_dist(sym_to_full(gram(r)), MAT3_IDENTITY) <= 1e-14

    def test_inverse_diagonal(self):
        inv = mat_inverse(Mat3(2.0, 0, 0, 0, 4.0, 0, 0, 0, 5.0))
        assert inv == Mat3(0.5, 0, 0, 0, 0.25, 0, 0, 0, 0.2)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(Mat3(1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 1.0, 1.0))

    def test_inverse_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            m = Mat3(*(rng.uniform(-1, 1) for _ in range(9)))
            if abs(mat_det(m)) < 1e-3:
                continue
            assert mat_dist(mat_mul(m, mat_inverse(m)), MAT3_IDENTITY) <= 1e-11

    def test_transpose_involution_and_frobenius(self):
        m = Mat3(1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert mat_transpose(mat_transpose(m)) == m
        assert frob_norm2(m) == sum(x * x for x in m)


def sym_to_full(y: SymMat3) -> Mat3:
    return Mat3(y.xx, y.xy, y.xz, y.xy, y.yy, y.yz, y.xz, y.yz, y.zz)

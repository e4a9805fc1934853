import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine12.errors import OutOfRangeError
from affine12.expmap import (
    exp_quad_coeff,
    exp_so3,
    exp_sym3,
    sinc_guarded,
)
from affine12.linalg3 import (
    MAT3_IDENTITY,
    AntiSymMat3,
    Mat3,
    SymMat3,
    antisym_angle,
    mat_mul,
    sym_eigenvalues,
    sym_poly2,
)
from affine12.oracle import matfun_diag
from affine12.param import AffineParam12, params_to_transform
from conftest import (
    TINY_ARGUMENTS,
    antisym_scale,
    exp_antisym_series,
    mat_dist,
    rand_antisym,
    rand_sym,
    rand_unit_axis,
    sym_dist,
    sym_norm,
    sym_with_spectrum,
    vandermonde_coeffs,
)


class TestSincGuarded:
    def test_limit_at_zero(self):
        assert sinc_guarded(0.0) == 1.0

    def test_at_pi(self):
        assert abs(sinc_guarded(math.pi)) <= 1e-15

    def test_quotient_at_tiny_angles(self):
        # the plain quotient needs no series: it stays within an ulp of
        # 1 - t^2/6 + t^4/120 (truncation below 1e-21 here) down to the
        # smallest double, and across the former series switch at 1e-4
        for t in (5e-324, 1e-300, 1e-154, 1e-8, 1e-4 * (1 - 1e-8), 1e-4 * (1 + 1e-8), 1e-3):
            series = 1.0 - t * t / 6.0 + t ** 4 / 120.0
            for x in (t, -t):
                assert abs(sinc_guarded(x) - series) <= 2.3e-16, x


class TestExpQuadCoeff:
    def test_limit_at_zero(self):
        assert exp_quad_coeff(0.0) == 0.5
        # a square that underflows would make the quotient 0/0
        assert exp_quad_coeff(1e-200) == 0.5

    def test_quotient_at_tiny_arguments(self):
        # the plain quotient needs no series: its error is about eps/|x|,
        # and the kernels multiply it by x, so |x| times it stays within an
        # ulp of sum x^k/(k+2)! (k <= 8, truncation below 1e-20 here)
        for t in TINY_ARGUMENTS:
            for x in (t, -t):
                series = sum(x ** k / math.factorial(k + 2) for k in range(9))
                assert abs(x) * abs(exp_quad_coeff(x) - series) <= 2.3e-16, x


class TestExpSo3:
    def test_zero_gives_identity(self):
        assert exp_so3(AntiSymMat3(0.0, 0.0, 0.0)) == MAT3_IDENTITY

    def test_quarter_turn(self):
        out = exp_so3(AntiSymMat3(-math.pi / 2.0, 0.0, 0.0))
        want = Mat3(0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        assert mat_dist(out, want) <= 1e-15

    def test_matches_series_oracle(self):
        rng = random.Random(21)
        for _ in range(1000):
            angle = math.exp(rng.uniform(math.log(1e-8), math.log(10.0)))
            axis = rand_unit_axis(rng)
            v1, v2, v3 = axis
            x = AntiSymMat3(-v3 * angle, v2 * angle, -v1 * angle)
            assert mat_dist(exp_so3(x), exp_antisym_series(x)) <= 1e-12

    @pytest.mark.parametrize("entries", [(1e200, 0.0, 0.0), (0.0, 0.0, math.inf),
                                         (1e160, -1e160, 0.0)])
    def test_infinite_angle_raises_out_of_range(self, entries):
        # the angle overflows to inf (or is inf): typed, not math's ValueError
        with pytest.raises(OutOfRangeError, match=r"^rotation angle inf is not finite$"):
            exp_so3(AntiSymMat3(*entries))
        p = AffineParam12.from_vector([0.0] * 3 + list(entries) + [0.0] * 6)
        with pytest.raises(OutOfRangeError, match="rotation angle inf"):
            params_to_transform(p)

    def test_huge_finite_angle_still_maps(self):
        r = exp_so3(AntiSymMat3(1e150, 0.0, 0.0))
        assert mat_dist(mat_mul(r, exp_so3(AntiSymMat3(-1e150, 0.0, 0.0))), MAT3_IDENTITY) <= 1e-12

    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3))
    def test_inverse_property(self, entries):
        x = AntiSymMat3(*entries)
        neg = AntiSymMat3(-x.m12, -x.m13, -x.m23)
        assert mat_dist(mat_mul(exp_so3(x), exp_so3(neg)), MAT3_IDENTITY) <= 1e-12


class TestExpSym3:
    def test_diagonal(self):
        out = exp_sym3(SymMat3(1.0, 0.0, 0.0, -2.0, 0.0, 0.5))
        want = SymMat3(math.e, 0.0, 0.0, math.exp(-2.0), 0.0, math.exp(0.5))
        assert sym_dist(out, want) <= 1e-14 * math.e

    def test_zero(self):
        assert exp_sym3(SymMat3(0, 0, 0, 0, 0, 0)) == SymMat3(1, 0, 0, 1, 0, 1)

    def test_matches_diagonalisation_oracle(self):
        rng = random.Random(31)
        for _ in range(10000):
            y = rand_sym(rng)
            ours = exp_sym3(y)
            ref = matfun_diag(y, "exp")
            assert sym_dist(ours, ref) <= 1e-12 * max(1.0, sym_norm(ref))

    def test_tight_spectrum_gaps(self):
        # gaps down to 1e-300 take the plain divided differences far below
        # their former series switches at 1e-4, and past the underflow of
        # the gap's square
        rng = random.Random(32)
        for k in (*range(2, 17), 20, 50, 100, 160, 200, 300):
            gap = 10.0 ** -k
            for base in (*(rng.uniform(-1.0, 1.0) for _ in range(200)), 0.0):
                y = sym_with_spectrum(rng, (base + gap, base, base - gap))
                ours = exp_sym3(y)
                ref = matfun_diag(y, "exp")
                assert sym_dist(ours, ref) <= 1e-12 * max(1.0, sym_norm(ref))
        # diagonal inputs keep their exact spectrum: one-ulp gaps, and gaps
        # whose squares underflow
        spectra = [(math.nextafter(b, 2.0), b, math.nextafter(b, -2.0)) for b in (-0.7, 0.3, 1.0)]
        spectra += [(g, 0.0, -g) for g in (1e-160, 1e-300, 1e-320)]
        for lams in spectra:
            out = exp_sym3(SymMat3(lams[0], 0.0, 0.0, lams[1], 0.0, lams[2]))
            want = [math.exp(v) for v in lams]
            assert (out.xy, out.xz, out.yz) == (0.0, 0.0, 0.0)
            for got, w in zip((out.xx, out.yy, out.zz), want):
                assert abs(got - w) <= 2.3e-16 * max(want), lams

    def test_spd_output(self, rng):
        for _ in range(500):
            y = rand_sym(rng, 5.0 / 3.0)
            eig = sym_eigenvalues(exp_sym3(y))
            assert eig.l3 > 0.0

    def test_overflow(self):
        with pytest.raises(OverflowError):
            exp_sym3(SymMat3(800.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    def test_continuity_across_confluent_fallback(self, rng):
        # spectra straddling the former confluent-series switch, same eigenvectors
        from affine12.expmap import exp_so3 as _exp

        from conftest import conjugate_spectrum

        for _ in range(300):
            q = _exp(rand_antisym(rng, 2.0))
            base = rng.uniform(-1.0, 1.0)
            spread = 1e-4
            lo = conjugate_spectrum(q, (base + spread * (1 - 1e-7) / 2, base,
                                        base - spread * (1 - 1e-7) / 2))
            hi = conjugate_spectrum(q, (base + spread * (1 + 1e-7) / 2, base,
                                        base - spread * (1 + 1e-7) / 2))
            assert sym_dist(exp_sym3(lo), exp_sym3(hi)) <= 1e-10


class TestVandermonde:
    def test_exp_on_diagonal(self):
        lams = (0.0, 0.5, 1.0)
        a, b, c = vandermonde_coeffs(tuple(math.exp(l) for l in lams), lams)
        y = SymMat3(0.0, 0.0, 0.0, 0.5, 0.0, 1.0)
        out = sym_poly2(a, b, c, y)
        want = SymMat3(1.0, 0.0, 0.0, math.exp(0.5), 0.0, math.e)
        assert sym_dist(out, want) <= 1e-14

    def test_identity_function(self):
        a, b, c = vandermonde_coeffs((0.3, 1.7, -2.0), (0.3, 1.7, -2.0))
        assert abs(a) <= 1e-15
        assert abs(b - 1.0) <= 1e-15
        assert abs(c) <= 1e-15

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_coeffs((1.0, 1.0, 2.0), (0.5, 0.5, 1.0))

    def test_agrees_with_exp_sym3(self, rng):
        for _ in range(500):
            lams = sorted((rng.uniform(-2, 2) for _ in range(3)), reverse=True)
            if lams[0] - lams[1] < 1e-2 or lams[1] - lams[2] < 1e-2:
                continue
            y = sym_with_spectrum(rng, lams)
            eig = sym_eigenvalues(y)
            a, b, c = vandermonde_coeffs(tuple(math.exp(l) for l in eig), tuple(eig))
            assert sym_dist(sym_poly2(a, b, c, y), exp_sym3(y)) <= 1e-10

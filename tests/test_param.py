import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine12.errors import IllConditionedWarning, NotOrientationPreservingError
from affine12.linalg3 import (
    _MIN_NORMAL,
    MAT3_IDENTITY,
    AntiSymMat3,
    Mat3,
    SymEig3,
    SymMat3,
    Vec3,
    antisym_angle,
    gram,
    mat_det,
    mat_mul,
    sym_char_coeffs,
    sym_eigenvalues,
)
from affine12.logmap import _orth_defect2
from affine12.param import (
    _NEWTON_SKIP,
    _refined_gram_eig,
    AffineParam12,
    HomAffine3,
    TransformClass,
    class_contains,
    is_in_class,
    params_to_transform,
    polar_decompose,
    project_to_class,
    transform_distance2,
    transform_to_params,
)
from conftest import (
    generator_for,
    mat_dist,
    rand_linear,
    rand_rotation,
    rand_unit_axis,
    sym_dist,
    sym_to_mat3,
    vec_dist,
)

C = TransformClass


def _identity_or(m: Mat3) -> float:
    return mat_dist(m, MAT3_IDENTITY)


class TestVectorPacking:
    def test_serialization_order(self):
        p = AffineParam12(Vec3(1, 2, 3), AntiSymMat3(4, 5, 6),
                          SymMat3(7, 8, 9, 10, 11, 12))
        assert p.to_vector() == tuple(float(i) for i in range(1, 13))
        assert AffineParam12.from_vector(list(range(1, 13))) == p

    def test_records_have_the_public_types(self):
        v = [0.5 * i - 3.0 for i in range(12)]
        p = AffineParam12.from_vector(v)
        assert type(p) is AffineParam12
        assert type(p.translation) is Vec3
        assert type(p.rotation) is AntiSymMat3
        assert type(p.stretch) is SymMat3
        assert p.translation == Vec3(*v[0:3])
        assert p.rotation == AntiSymMat3(*v[3:6])
        assert p.stretch == SymMat3(*v[6:12])
        assert p.stretch.yz == v[10]
        out = p.to_vector()
        assert type(out) is tuple
        assert out == tuple(v)

        a = HomAffine3.from_rows(v)
        assert type(a) is HomAffine3
        assert type(a.linear) is Mat3
        assert type(a.translation) is Vec3
        assert a.linear == Mat3(v[0], v[1], v[2], v[4], v[5], v[6], v[8], v[9], v[10])
        assert a.translation == Vec3(v[3], v[7], v[11])
        assert a.linear.a23 == v[6] and a.translation.z == v[11]
        assert a.to_rows() == tuple(v)

    @pytest.mark.parametrize("size", [11, 13])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match=f"expected 12 components, got {size}"):
            AffineParam12.from_vector([0.0] * size)
        with pytest.raises(ValueError, match=f"got {size}"):
            HomAffine3.from_rows([0.0] * size)

    def test_antisym_packing(self):
        from conftest import antisym_to_mat3

        m = antisym_to_mat3(AntiSymMat3(4.0, 5.0, 6.0))
        assert m == Mat3(0, 4, 5, -4, 0, 6, -5, -6, 0)

    def test_sym_packing(self):
        m = sym_to_mat3(SymMat3(7, 8, 9, 10, 11, 12))
        assert m == Mat3(7, 8, 9, 8, 10, 11, 9, 11, 12)


class TestForwardMap:
    def test_zero_gives_identity(self):
        out = params_to_transform(AffineParam12.zero())
        assert _identity_or(out.linear) <= 1e-15
        assert out.translation == Vec3(0, 0, 0)

    def test_pure_translation(self):
        p = AffineParam12(Vec3(1.5, -2.0, 3.0), AntiSymMat3(0, 0, 0),
                          SymMat3(0, 0, 0, 0, 0, 0))
        out = params_to_transform(p)
        assert _identity_or(out.linear) <= 1e-15
        assert out.translation == Vec3(1.5, -2.0, 3.0)

    def test_uniform_scale(self):
        s = math.log(2.0)
        p = AffineParam12(Vec3(0, 0, 0), AntiSymMat3(0, 0, 0),
                          SymMat3(s, 0, 0, s, 0, s))
        out = params_to_transform(p)
        assert mat_dist(out.linear, Mat3(2, 0, 0, 0, 2, 0, 0, 0, 2)) <= 1e-14

    @given(st.lists(st.floats(-10 / math.sqrt(12), 10 / math.sqrt(12),
                              allow_nan=False), min_size=12, max_size=12))
    @settings(max_examples=200)
    def test_total_with_positive_determinant(self, vec):
        out = params_to_transform(AffineParam12.from_vector(vec))
        assert mat_det(out.linear) > 0.0


class TestInverseMap:
    def test_identity(self):
        p = transform_to_params(HomAffine3.identity())
        assert p == AffineParam12.zero()

    def test_pure_rotation(self):
        r = Mat3(0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        p = transform_to_params(HomAffine3(r, Vec3(0, 0, 0)))
        assert vec_dist(p.translation, Vec3(0, 0, 0)) == 0.0
        assert abs(p.rotation.m12 + math.pi / 2) <= 1e-12
        assert abs(p.rotation.m13) <= 1e-12
        assert abs(p.rotation.m23) <= 1e-12
        assert sym_dist(p.stretch, SymMat3(0, 0, 0, 0, 0, 0)) <= 1e-12

    def test_rejects_flip(self):
        flip = Mat3(-1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0)
        with pytest.raises(NotOrientationPreservingError):
            transform_to_params(HomAffine3(flip, Vec3(0, 0, 0)))

    def test_warns_near_singular(self):
        squash = Mat3(1.0, 0, 0, 0, 1.0, 0, 0, 0, 1e-7)
        with pytest.warns(IllConditionedWarning):
            transform_to_params(HomAffine3(squash, Vec3(0, 0, 0)))

    def test_roundtrip_transform_side(self, rng):
        for _ in range(2000):
            a = HomAffine3(rand_linear(rng), Vec3(*(rng.uniform(-1, 1) for _ in range(3))))
            back = params_to_transform(transform_to_params(a))
            assert transform_distance2(a, back) <= 1e-20

    def test_roundtrip_parameter_side_principal(self, rng):
        # identifiable region: rotation angle below pi
        for _ in range(1000):
            angle = rng.uniform(0.0, math.pi - 1e-3)
            p = AffineParam12(
                Vec3(*(rng.uniform(-2, 2) for _ in range(3))),
                generator_for(rand_unit_axis(rng), angle),
                SymMat3(*(rng.uniform(-1, 1) for _ in range(6))),
            )
            q = transform_to_params(params_to_transform(p))
            for a, b in zip(p.to_vector(), q.to_vector()):
                assert abs(a - b) <= 1e-9

    def test_consistent_ref_zero_matches_principal(self, rng):
        for _ in range(200):
            a = HomAffine3(rand_linear(rng), Vec3(0, 0, 0))
            p = transform_to_params(a)
            q = transform_to_params(a, ref=AffineParam12.zero())
            assert p == q

    def test_consistent_full_turn(self):
        ref = AffineParam12(Vec3(0, 0, 0), generator_for((0, 0, 1), 2 * math.pi),
                            SymMat3(0, 0, 0, 0, 0, 0))
        p = transform_to_params(HomAffine3.identity(), ref=ref)
        assert abs(antisym_angle(p.rotation) - 2 * math.pi) <= 1e-12

    def test_consistent_zero_ref_half_turns_round_trip(self):
        for diag in ((1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)):
            a = HomAffine3(Mat3(diag[0], 0, 0, 0, diag[1], 0, 0, 0, diag[2]), Vec3(1, 2, 3))
            back = params_to_transform(transform_to_params(a, ref=AffineParam12.zero()))
            assert mat_dist(back.linear, a.linear) <= 1e-15
            assert vec_dist(back.translation, a.translation) <= 1e-15

    def test_consistent_twist_chain(self, rng):
        axis = rand_unit_axis(rng)
        prev = AffineParam12.zero()
        last = 0.0
        n = 41
        for k in range(1, n + 1):
            angle = 4.0 * math.pi * k / n
            from conftest import axis_angle_rotation

            a = HomAffine3(axis_angle_rotation(axis, angle), Vec3(0, 0, 0))
            prev = transform_to_params(a, ref=prev)
            current = antisym_angle(prev.rotation)
            assert current > last
            last = current
        assert abs(last - 4.0 * math.pi) <= 1e-9


class TestPolar:
    def test_rotation_input(self, rng):
        from conftest import axis_angle_rotation

        r0 = axis_angle_rotation(rand_unit_axis(rng), 1.2)
        r, s = polar_decompose(r0)
        assert mat_dist(r, r0) <= 1e-12
        assert sym_dist(s, SymMat3(1, 0, 0, 1, 0, 1)) <= 1e-12

    def test_spd_input(self):
        r, s = polar_decompose(Mat3(2.0, 0, 0, 0, 3.0, 0, 0, 0, 4.0))
        assert _identity_or(r) <= 1e-13
        assert sym_dist(s, SymMat3(2, 0, 0, 3, 0, 4)) <= 1e-13

    def test_reconstruction(self, rng):
        for _ in range(2000):
            m = rand_linear(rng)
            r, s = polar_decompose(m)
            assert mat_dist(mat_mul(r, sym_to_mat3(s)), m) <= 1e-9
            assert mat_dist(sym_to_mat3(gram(r)), MAT3_IDENTITY) <= 1e-10

    def test_rejects_flip(self):
        with pytest.raises(NotOrientationPreservingError):
            polar_decompose(Mat3(-2.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0))


# Fig-1 style containment: direct edges, closed under reflexivity/transitivity
_EDGES = {
    C.Affplus3: (C.Simplus3, C.GLplus3),
    C.Simplus3: (C.SE3, C.COplus3),
    C.GLplus3: (C.COplus3, C.Symplus3),
    C.SE3: (C.R3, C.SO3),
    C.COplus3: (C.SO3, C.Rplus),
    C.Symplus3: (C.Rplus,),
}


def _expected_contains():
    table = {(c, c) for c in C}
    changed = True
    while changed:
        changed = False
        for outer, inners in _EDGES.items():
            for inner in inners:
                for a, b in list(table):
                    if a == inner and (outer, b) not in table:
                        table.add((outer, b))
                        changed = True
    return table


class TestClasses:
    def test_containment_lattice(self):
        expected = _expected_contains()
        for outer in C:
            for inner in C:
                assert class_contains(outer, inner) == ((outer, inner) in expected), \
                    (outer, inner)

    def test_projection_se3_zeroes_stretch(self, rng):
        p = AffineParam12(Vec3(1, 2, 3), AntiSymMat3(0.1, 0.2, 0.3),
                          SymMat3(1, 2, 3, 4, 5, 6))
        proj = project_to_class(p, C.SE3)
        assert proj.stretch == SymMat3(0, 0, 0, 0, 0, 0)
        assert proj.translation == p.translation
        assert proj.rotation == p.rotation

    def test_membership_respects_containment(self):
        p = AffineParam12(Vec3(0, 0, 0), AntiSymMat3(0.4, -0.2, 0.9),
                          SymMat3(0, 0, 0, 0, 0, 0))  # member of the rotation class
        assert is_in_class(p, C.SO3, 1e-12)
        assert is_in_class(p, C.SE3, 1e-12)

    def test_similarity_projection_trace_average(self):
        p = AffineParam12(Vec3(1, 1, 1), AntiSymMat3(0, 0, 0),
                          SymMat3(1.0, 0.5, 0.5, 2.0, 0.5, 3.0))
        proj = project_to_class(p, C.Simplus3)
        assert proj.stretch == SymMat3(2.0, 0, 0, 2.0, 0, 2.0)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12),
           st.sampled_from(list(C)))
    def test_projection_idempotent(self, vec, cls):
        p = AffineParam12.from_vector(vec)
        once = project_to_class(p, cls)
        assert project_to_class(once, cls) == once

    def test_forward_map_respects_rotation_class(self, rng):
        for _ in range(200):
            p = AffineParam12(Vec3(0, 0, 0),
                              generator_for(rand_unit_axis(rng), rng.uniform(0, 3)),
                              SymMat3(0, 0, 0, 0, 0, 0))
            out = params_to_transform(p)
            assert mat_dist(sym_to_mat3(gram(out.linear)), MAT3_IDENTITY) <= 1e-10
            assert vec_dist(out.translation, Vec3(0, 0, 0)) <= 1e-10


# -- the Newton refinement, pinned bit for bit to its loop form ---------------

def _loop_refined_gram_eig(g: SymMat3, det_linear: float) -> SymEig3:
    """The refinement in the loop form it had before it was unrolled."""
    l1, l2, l3 = sym_eigenvalues(g)
    c2 = g.xx + g.yy + g.zz
    c1 = (g.xx * g.yy + g.yy * g.zz + g.zz * g.xx
          - g.xy * g.xy - g.xz * g.xz - g.yz * g.yz)
    c0 = det_linear * det_linear
    if l3 <= 0.0:
        l3 = c0 / max(l1 * l2, _MIN_NORMAL)
    lams = [l1, l2, l3]
    scale2 = max(1.0, l1 * l1)
    for i in range(3):
        lam = lams[i]
        dp = 1.0
        for j in range(3):
            if j != i:
                dp *= lam - lams[j]
        if abs(dp) < _NEWTON_SKIP * scale2:
            continue
        p = ((lam - c2) * lam + c1) * lam - c0
        lams[i] = lam - p / dp
    lams.sort(reverse=True)
    return SymEig3(lams[0], lams[1], lams[2])


def _diag(d1, d2, d3) -> Mat3:
    return Mat3(d1, 0.0, 0.0, 0.0, d2, 0.0, 0.0, 0.0, d3)


def _refinement_cases() -> dict[str, list[tuple[SymMat3, float]]]:
    """Seeded (Gram matrix, det(linear)) inputs, grouped by the regime they reach."""
    rng = random.Random(4242)
    cases = {"general": [], "newton_skip": [], "l3_recovery": [], "diagonal": [], "nan": []}
    for _ in range(300):
        m = rand_linear(rng)
        cases["general"].append((gram(m), mat_det(m)))
    while len(cases["newton_skip"]) < 120:
        # a rotation times nearly equal scales: a triple or a double leading
        # root, kept when the first Newton step is skipped
        s = rng.uniform(0.3, 3.0)
        d3 = s * (1.0 + rng.uniform(0.0, 1e-9)) if len(cases["newton_skip"]) % 2 else 0.2 * s
        m = mat_mul(rand_rotation(rng), _diag(s, s * (1.0 + rng.uniform(0.0, 1e-9)), d3))
        g = gram(m)
        l1, l2, l3 = sym_eigenvalues(g)
        if abs((l1 - l2) * (l1 - l3)) < _NEWTON_SKIP * max(1.0, l1 * l1):
            cases["newton_skip"].append((g, mat_det(m)))
    while len(cases["l3_recovery"]) < 30:
        # cond(A) ~ 1e8: absolute roundoff in the cubic can push l3 below zero
        m = mat_mul(mat_mul(rand_rotation(rng, 3.0), _diag(100.0, 1.0, 1e-6)),
                    rand_rotation(rng, 3.0))
        g = gram(m)
        if sym_eigenvalues(g).l3 <= 0.0:
            cases["l3_recovery"].append((g, mat_det(m)))
    for _ in range(60):
        m = _diag(*(math.exp(rng.uniform(-3.0, 3.0)) for _ in range(3)))
        cases["diagonal"].append((gram(m), mat_det(m)))
    nan = float("nan")
    for k in range(40):
        s = rng.uniform(0.5, 2.0)
        m = mat_mul(rand_rotation(rng), _diag(s, s * (1.0 + 1e-12), rng.uniform(0.1, 0.3)))
        g = gram(m)
        if k % 2:
            # a NaN determinant: the double root is skipped, the simple one turns NaN
            cases["nan"].append((g, nan))
        else:
            cases["nan"].append((g._replace(xy=nan), mat_det(m)))
    return cases


def _hex(eig) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in eig)


class TestRefinementPinned:
    def test_unrolled_refinement_matches_the_loop_bit_for_bit(self):
        for regime, cases in _refinement_cases().items():
            for g, det in cases:
                got = _refined_gram_eig(g, det)
                assert type(got) is SymEig3
                assert _hex(got) == _hex(_loop_refined_gram_eig(g, det)), (regime, g, det)

    def test_the_cases_reach_their_regimes(self):
        cases = _refinement_cases()
        skips = [g for g, _ in cases["newton_skip"]]
        # the draws keep both triple and double leading roots
        assert sum(sym_eigenvalues(g).l3 > 0.5 * sym_eigenvalues(g).l1 for g in skips) >= 30
        assert sum(sym_eigenvalues(g).l3 < 0.5 * sym_eigenvalues(g).l1 for g in skips) >= 30
        for g, _ in cases["diagonal"]:
            assert g.xy == g.xz == g.yz == 0.0
        outs = [_refined_gram_eig(g, det) for g, det in cases["nan"]]
        assert all(any(map(math.isnan, eig)) for eig in outs)
        # some rows mix NaN and finite roots, where the order is the sort's
        assert any(not all(map(math.isnan, eig)) for eig in outs)

    def test_char_coeffs_and_orth_defect_agree_on_floats_and_arrays(self):
        rng = np.random.default_rng(17)
        n = 2000
        g = rng.uniform(-3.0, 3.0, (6, n))
        r = rng.uniform(-1.2, 1.2, (9, n))
        c2, c1 = sym_char_coeffs(SymMat3(*g))
        defect = _orth_defect2(Mat3(*r))
        for k in range(n):
            s2, s1 = sym_char_coeffs(SymMat3(*g[:, k].tolist()))
            assert (s2.hex(), s1.hex()) == (float(c2[k]).hex(), float(c1[k]).hex())
            assert _orth_defect2(Mat3(*r[:, k].tolist())).hex() == float(defect[k]).hex()

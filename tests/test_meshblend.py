import contextlib
import math
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from affine12.blend import WeightedTransforms, blend
from affine12.errors import (
    Affine12Error,
    DegenerateTriangleError,
    FileFormatError,
    NonFiniteInputError,
    NotARotationError,
    NotOrientationPreservingError,
    SolverNotConvergedError,
)
from affine12.linalg3 import (
    MAT3_IDENTITY,
    Mat3,
    Vec3,
    gram,
    mat_det,
    mat_vec,
    vec_add,
)
from affine12.meshblend import (
    CompatibleSet,
    TriMesh,
    _block_pcg,
    _coordinate_matmul,
    _face_residuals,
    _solve_vertices,
    _start,
    _vertex_matrix,
    _warm_start,
    blend_shapes,
    face_frame,
    load_obj,
    per_face_affine,
    save_obj,
    write_obj,
)
from affine12.param import HomAffine3, transform_to_params
from conftest import axis_angle_rotation, mat_dist, rand_unit_axis, sym_to_mat3, vec_dist

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import inputs  # noqa: E402
from perfbench.workloads import Meshblend  # noqa: E402

TRI = (Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.2, 1.1, 0.0))


def grid_mesh(m: int, n: int) -> TriMesh:
    """(m+1)x(n+1) planar grid split into 2*m*n triangles."""
    vertices = [Vec3(i / m, j / n, 0.0) for j in range(n + 1) for i in range(m + 1)]
    faces = []
    for j in range(n):
        for i in range(m):
            v00 = j * (m + 1) + i
            v10 = v00 + 1
            v01 = v00 + (m + 1)
            v11 = v01 + 1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return TriMesh(vertices, faces)


def warp_mesh(mesh: TriMesh) -> TriMesh:
    """Smooth twist-and-lift deformation with positive per-face determinants."""
    out = []
    for v in mesh.vertices:
        ang = 0.2 + 0.3 * v.x
        c, s = math.cos(ang), math.sin(ang)
        out.append(Vec3(c * v.x - s * v.y, s * v.x + c * v.y,
                        v.z + 0.2 * math.sin(v.x + v.y)))
    return TriMesh(out, list(mesh.faces))


def twist_mesh(mesh: TriMesh) -> TriMesh:
    """A second compatible target: twist about the x-axis plus a bulge."""
    out = []
    for v in mesh.vertices:
        ang = 0.6 * v.x
        c, s = math.cos(ang), math.sin(ang)
        out.append(Vec3(1.1 * v.x, c * v.y - s * v.z, s * v.y + c * v.z + 0.1 * v.x * v.y))
    return TriMesh(out, list(mesh.faces))


def numpy_frame(tri) -> np.ndarray:
    """The face frame [p1-p0, p2-p0, unit normal] by NumPy, not by the library."""
    p0, p1, p2 = np.array(tri, dtype=float)
    n = np.cross(p1 - p0, p2 - p0)
    return np.column_stack((p1 - p0, p2 - p0, n / np.linalg.norm(n)))


def reference_blend(rest: TriMesh, targets, weights) -> np.ndarray:
    """Blended vertices by scalar blends of face maps built from NumPy
    frames and inverses, and a dense least squares."""
    nv, nf = len(rest.vertices), len(rest.faces)
    frames_inv = [np.linalg.inv(numpy_frame(rest.face_points(j))) for j in range(nf)]

    def face_map(j, target):
        m = numpy_frame(target.face_points(j)) @ frames_inv[j]
        t = np.array(target.vertices[rest.faces[j][0]]) - m @ np.array(rest.face_points(j)[0])
        return HomAffine3(Mat3(*m.ravel().tolist()), Vec3(*t.tolist()))

    blended = [blend(WeightedTransforms(tuple(face_map(j, t) for t in targets),
                                        tuple(weights))) for j in range(nf)]

    def face_maps(x):
        # one coordinate row of every face map [M | t] of the configuration
        # x (vertices, then one normal tip per face)
        rows = []
        for j, (i0, i1, i2) in enumerate(rest.faces):
            frame_row = np.array([x[i1] - x[i0], x[i2] - x[i0], x[nv + j] - x[i0]])
            m_row = frame_row @ frames_inv[j]
            rows.extend([*m_row, x[i0] - m_row @ np.array(rest.vertices[i0])])
        return np.array(rows)

    a = np.column_stack([face_maps(e) for e in np.eye(nv + nf)])
    solved = np.empty((nv, 3))
    for d in range(3):
        b = np.array([v for bl in blended
                      for v in (*bl.linear[3 * d:3 * d + 3], bl.translation[d])])
        solved[:, d] = np.linalg.lstsq(a, b, rcond=None)[0][:nv]
    return solved


class TestPerFaceAffine:
    def test_identity(self):
        a = per_face_affine(TRI, TRI)
        assert mat_dist(a.linear, MAT3_IDENTITY) <= 1e-12
        assert vec_dist(a.translation, Vec3(0, 0, 0)) <= 1e-12

    def test_translation(self):
        t = Vec3(0.5, -1.0, 2.0)
        target = tuple(vec_add(p, t) for p in TRI)
        a = per_face_affine(TRI, target)
        assert mat_dist(a.linear, MAT3_IDENTITY) <= 1e-12
        assert vec_dist(a.translation, t) <= 1e-12

    def test_rotation_gives_orthogonal_linear(self, rng):
        for _ in range(100):
            r = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0, 3.0))
            target = tuple(mat_vec(r, p) for p in TRI)
            a = per_face_affine(TRI, target)
            assert mat_dist(sym_to_mat3(gram(a.linear)), MAT3_IDENTITY) <= 1e-10
            assert mat_dist(a.linear, r) <= 1e-10

    def test_degenerate_triangle(self):
        flat = (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0))
        with pytest.raises(DegenerateTriangleError):
            per_face_affine(flat, TRI)

    def test_index_order_normals_never_flip(self):
        # with recomputed normals the frame determinants share a sign, so
        # even a mirrored vertex order yields an orientation-preserving map
        import warnings as _w

        mirrored = (TRI[0], TRI[2], TRI[1])
        with _w.catch_warnings():
            _w.simplefilter("error")
            a = per_face_affine(TRI, mirrored)
        from affine12.linalg3 import mat_det

        assert mat_det(a.linear) > 0.0

    def test_rounding_flip_of_a_thin_target_fails_in_the_pull_back(self):
        # index-order normals preserve orientation in exact arithmetic, but
        # on a near-collinear target rounding leaves the determinant at 0;
        # the map is returned without a warning, and its pull-back fails as
        # blend_shapes does for the one-face set
        thin = (Vec3(97.66169574709912, -84.36695766209978, 279.7319923217762),
                Vec3(-122.69076383540263, -182.73657594143572, 14.189977689620491),
                Vec3(-12.514534044151667, -133.5517668017677, 146.96098500569846))
        unit = (Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
        cset = CompatibleSet(TriMesh(list(unit), [(0, 1, 2)]), [TriMesh(list(thin), [(0, 1, 2)])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = per_face_affine(unit, thin)
            assert mat_det(a.linear) <= 0.0
            with pytest.raises(NotOrientationPreservingError) as pulled:
                transform_to_params(a)
            with pytest.raises(NotOrientationPreservingError) as blended:
                blend_shapes(cset, [0.5])
        assert str(pulled.value) == "linear part has non-positive determinant (0.0)"
        assert str(blended.value) == f"target 0 face 0: {pulled.value}"

    def test_thin_rest_triangle_is_degenerate(self):
        # the thin triangle above has an area of 2.4e-12 against an extent
        # of 265.5, far below the area rule's 1e-12 extent^2
        thin = (Vec3(97.66169574709912, -84.36695766209978, 279.7319923217762),
                Vec3(-122.69076383540263, -182.73657594143572, 14.189977689620491),
                Vec3(-12.514534044151667, -133.5517668017677, 146.96098500569846))
        unit = (Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0))
        with pytest.raises(DegenerateTriangleError) as err:
            per_face_affine(thin, unit)
        assert str(err.value) == "triangle area 2.397e-12 below 7.05126e-08"

    def test_thin_face_frame_is_degenerate(self):
        # |n| = 1e-13 in the extent 2: area 5e-14 against 1e-12 * 2^2
        with pytest.raises(DegenerateTriangleError) as err:
            face_frame(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(2.0, 1e-13, 0.0))
        assert str(err.value) == "triangle area 5.000e-14 below 4e-12"

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)])
    @pytest.mark.parametrize("corner", [0, 1, 2])
    def test_non_finite_corner_is_named(self, corner, bad):
        # named before the area rule, in both forms, as blend_shapes names
        # a vertex: a target corner comes ahead of a degenerate rest triangle
        tri = list(TRI)
        tri[corner] = Vec3(*bad)
        with pytest.raises(NonFiniteInputError) as err:
            face_frame(*tri)
        assert str(err.value) == f"corner {corner} is not finite: {list(bad)}"
        flat = (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(2, 0, 0))
        for name, rest, target in (("rest", tri, TRI), ("target", TRI, tri),
                                   ("target", flat, tri)):
            with pytest.raises(NonFiniteInputError) as err:
                per_face_affine(rest, target)
            assert str(err.value) == f"{name} corner {corner} is not finite: {list(bad)}"

    def test_right_triangle_with_legs_of_1e_7_maps(self):
        # area 5e-15 against 1e-12 extent^2 = 1e-26: the area rule is
        # relative, so a small face is a face like any other
        small = (Vec3(0.0, 0.0, 0.0), Vec3(1e-7, 0.0, 0.0), Vec3(0.0, 1e-7, 0.0))
        assert face_frame(*small) == (1e-7, 0.0, 0.0, 0.0, 1e-7, 0.0, 0.0, 0.0, 1.0)
        a = per_face_affine(small, tuple(Vec3(2.0 * p.x, p.y, p.z) for p in small))
        assert a.linear == (2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        assert a.translation == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("scale", [2.0 ** 40, 2.0 ** -40, 1e6, 1e-6])
    def test_one_face_sets_agree_with_blend_shapes(self, monkeypatch, scale):
        # per_face_affine measures a face in its rest triangle's extent as
        # blend_shapes measures a one-face set, so both reject the same thin
        # triangles with the same area, and the linear part of every face
        # they accept is bit for bit the one blend_shapes pulls back
        import affine12.meshblend
        from affine12 import batch

        pulled = []

        def spy(linear, *args):
            pulled.append(linear[0].ravel().tolist())
            return batch._transforms_to_params(linear, *args)

        monkeypatch.setattr(affine12.meshblend, "_transforms_to_params", spy)
        rng = random.Random(21)
        verdicts = []
        for k in range(80):
            # heights log-uniform about the area rule's 2e-12 (extent ~1)
            r = axis_angle_rotation(rand_unit_axis(rng), rng.uniform(0.0, 3.0))
            c = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            thin = [Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0),
                    Vec3(rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-13.0, -10.0), 0.0)]
            thin = tuple(Vec3(*(scale * v for v in vec_add(mat_vec(r, p), c))) for p in thin)
            good = tuple(Vec3(*(scale * v for v in p)) for p in TRI)
            rest, target = (thin, good) if k % 2 else (good, thin)
            name = "rest mesh" if k % 2 else "target 0"
            cset = CompatibleSet(TriMesh(list(rest), [(0, 1, 2)]),
                                 [TriMesh(list(target), [(0, 1, 2)])])
            del pulled[:]
            try:
                linear = per_face_affine(rest, target).linear
            except DegenerateTriangleError as exc:
                with pytest.raises(DegenerateTriangleError) as err:
                    blend_shapes(cset, [0.5])
                assert str(err.value) == f"{name} face 0: {exc}"
                verdicts.append("degenerate")
                continue
            # a thin face map may not pull back, once it has been pulled
            with contextlib.suppress(Affine12Error, ArithmeticError, ValueError):
                blend_shapes(cset, [0.5])
            assert pulled == [list(linear)]
            verdicts.append("mapped")
        assert 20 <= verdicts.count("degenerate") <= 60


class TestCompatibleSet:
    def test_rejects_vertex_count_mismatch(self):
        rest = grid_mesh(2, 2)
        bad = TriMesh(rest.vertices[:-1], rest.faces)
        with pytest.raises(ValueError):
            CompatibleSet(rest, [bad])

    def test_rejects_connectivity_mismatch(self):
        rest = grid_mesh(2, 2)
        bad = TriMesh(list(rest.vertices), list(reversed(rest.faces)))
        with pytest.raises(ValueError):
            CompatibleSet(rest, [bad])


class TestBlendShapes:
    def test_zero_weights_reproduce_rest(self):
        # bit for bit: the solve starts at the rest mesh, already a solution,
        # and the extent is 1, so the length unit divides and multiplies exactly
        rest = grid_mesh(5, 5)
        out = blend_shapes(CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)]), [0.0, 0.0])
        assert out.vertices == rest.vertices

    def test_unit_weight_reproduces_target(self):
        rest = grid_mesh(5, 5)
        target = warp_mesh(rest)
        cset = CompatibleSet(rest, [target])
        out = blend_shapes(cset, [1.0])
        for got, want in zip(out.vertices, target.vertices):
            assert vec_dist(got, want) <= 1e-6

    def test_hinge_half_fold_dihedral(self):
        # two triangles hinged on the x-axis; folding one by `ang` and
        # blending at 1/2 must fold it by exactly ang/2 (coaxial logs halve)
        ang = 1.2
        v = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0.5, 1.0, 0.0), Vec3(0.5, -1.0, 0.0)]
        faces = [(0, 1, 2), (0, 3, 1)]
        rest = TriMesh(v, faces)
        folded = TriMesh([v[0], v[1], v[2],
                          Vec3(0.5, -math.cos(ang), -math.sin(ang))], list(faces))
        out = blend_shapes(CompatibleSet(rest, [folded]), [0.5])
        want = Vec3(0.5, -math.cos(ang / 2), -math.sin(ang / 2))
        assert vec_dist(out.vertices[3], want) <= 1e-6
        for i in (0, 1, 2):
            assert vec_dist(out.vertices[i], v[i]) <= 1e-6

    def test_exact_recovery_of_piecewise_linear_input(self, rng):
        # when the per-face transforms already agree on edges the solver
        # must reproduce them with negligible residual
        rest = grid_mesh(4, 4)
        r = axis_angle_rotation(rand_unit_axis(rng), 0.8)
        t = Vec3(0.3, -0.2, 0.7)
        target = TriMesh([vec_add(mat_vec(r, p), t) for p in rest.vertices],
                         list(rest.faces))
        out = blend_shapes(CompatibleSet(rest, [target]), [1.0])
        for got, want in zip(out.vertices, target.vertices):
            assert vec_dist(got, want) <= 1e-10

    def test_weight_count_validation(self):
        rest = grid_mesh(2, 2)
        with pytest.raises(ValueError):
            blend_shapes(CompatibleSet(rest, [warp_mesh(rest)]), [0.5, 0.5])

    def test_solution_is_least_squares_minimum(self):
        # perturbing any vertex coordinate of the solved configuration must
        # not decrease the patching energy
        rest = grid_mesh(3, 3)
        target = warp_mesh(rest)
        nf = len(rest.faces)
        blended = [blend(WeightedTransforms(
            (per_face_affine(rest.face_points(j), target.face_points(j)),), (0.37,)))
            for j in range(nf)]
        frames_inv = np.array([np.linalg.inv(np.array(face_frame(*rest.face_points(j)))
                                             .reshape(3, 3)) for j in range(nf)])
        faces = np.array(rest.faces)
        coef, rhs = _face_residuals(np.array(rest.vertices), faces, frames_inv,
                                    np.array([b.linear for b in blended]).reshape(nf, 3, 3),
                                    np.array([b.translation for b in blended]))
        solved = _solve_vertices(coef, rhs, faces, np.array(rest.vertices),
                                 np.array(rest.vertices), np.array([], dtype=int))
        # each normal tip at its own optimum for the solved vertices
        tip_col = coef[:, :, 3]
        tips = np.einsum("fr,frk->fk", tip_col, rhs - coef[:, :, :3] @ solved[faces]) / (
            np.einsum("fr,fr->f", tip_col, tip_col)[:, None])

        def energy(x):
            unknowns = np.concatenate((x[faces], tips[:, None]), axis=1)
            return float(np.sum((coef @ unknowns - rhs) ** 2))

        base = energy(solved)
        nv = len(rest.vertices)
        rng2 = random.Random(5)
        for _ in range(60):
            i = rng2.randrange(nv)
            axis = rng2.randrange(3)
            for delta in (1e-4, -1e-4):
                x = solved.copy()
                x[i, axis] += delta
                assert energy(x) >= base - 1e-15

    def test_matches_direct_least_squares_reference(self):
        # reference: scalar face maps and blends, the patching residual built
        # from its definition (the face map of the deformed frame against
        # the blended map), solved densely
        rest = grid_mesh(4, 3)
        targets = [warp_mesh(rest), twist_mesh(rest)]
        for weights in ((0.3, 0.5), (1.3, -0.4)):
            got = np.array(blend_shapes(CompatibleSet(rest, targets), weights).vertices)
            assert np.abs(got - reference_blend(rest, targets, weights)).max() <= 1e-9

    @pytest.mark.parametrize("mesh", ["rest mesh", "target 1"])
    def test_non_finite_vertex_names_mesh_and_index(self, mesh):
        rest = grid_mesh(2, 2)
        meshes = [rest, warp_mesh(rest), twist_mesh(rest)]
        k = 0 if mesh == "rest mesh" else 2
        vertices = list(meshes[k].vertices)
        vertices[4] = Vec3(0.5, math.inf if k else math.nan, 0.0)
        meshes[k] = TriMesh(vertices, list(rest.faces))
        with pytest.raises(NonFiniteInputError, match=f"{mesh} vertex 4 "):
            blend_shapes(CompatibleSet(meshes[0], meshes[1:]), [0.5, 0.5])
        assert issubclass(NonFiniteInputError, Affine12Error)

    def test_non_finite_weight_is_named(self):
        rest = grid_mesh(2, 2)
        cset = CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)])
        with pytest.raises(NonFiniteInputError, match="weight 1"):
            blend_shapes(cset, [0.5, math.nan])

    @pytest.mark.parametrize("mesh", ["rest mesh", "target 0"])
    def test_degenerate_face_names_mesh_and_index(self, mesh):
        # a separate triangle appended as face 8 collapses onto a line
        rest = grid_mesh(2, 2)
        extra = [Vec3(3.0, 0.0, 0.0), Vec3(4.0, 0.0, 0.0), Vec3(3.0, 1.0, 0.0)]
        flat = [extra[0], extra[1], Vec3(5.0, 0.0, 0.0)]
        faces = list(rest.faces) + [(9, 10, 11)]
        good = TriMesh(list(rest.vertices) + extra, faces)
        bad = TriMesh(list(rest.vertices) + flat, faces)
        cset = CompatibleSet(bad, [good]) if mesh == "rest mesh" else CompatibleSet(good, [bad])
        with pytest.raises(DegenerateTriangleError, match=f"{mesh} face 8:"):
            blend_shapes(cset, [0.5])

    @pytest.mark.parametrize("index", [-1, 9])
    def test_face_index_outside_the_vertices_is_rejected(self, index):
        rest = grid_mesh(2, 2)
        bad = TriMesh(list(rest.vertices), list(rest.faces) + [(0, 1, index)])
        with pytest.raises(ValueError, match="face 8"):
            blend_shapes(CompatibleSet(bad, []), [])

    def test_no_targets_reproduce_rest(self):
        rest = warp_mesh(grid_mesh(3, 3))
        out = blend_shapes(CompatibleSet(rest, []), [])
        for got, want in zip(out.vertices, rest.vertices):
            assert vec_dist(got, want) <= 1e-12

    @staticmethod
    def _stretched(mesh: TriMesh, sx: float, sy: float) -> TriMesh:
        return TriMesh([Vec3(v.x * sx, v.y * sy, v.z) for v in mesh.vertices], list(mesh.faces))

    def test_forward_map_error_names_the_face(self):
        # a weight of 600 on a 4x stretch leaves exp(600 log 4) out of range
        rest = grid_mesh(4, 4)
        cset = CompatibleSet(rest, [self._stretched(rest, 4.0, 1.0)])
        with pytest.raises(OverflowError) as err:
            blend_shapes(cset, [600.0])
        assert str(err.value) == (
            "face 0: exp of leading eigenvalue 831.776616671934 is not representable")

    def test_pull_back_error_names_the_target_and_face(self):
        # a 1e-8 squash leaves no orthogonal rotation factor in the pull-back
        rest = grid_mesh(4, 4)
        cset = CompatibleSet(rest, [self._stretched(rest, 1.1, 1.0),
                                    self._stretched(rest, 1.0, 1e-8)])
        with pytest.raises(NotARotationError) as err:
            blend_shapes(cset, [0.5, 0.5])
        assert str(err.value) == "target 1 face 0: ||R^T R - I||_F = 3.231e-05 exceeds 1e-06"

    def test_solver_stall_raises_typed_error(self):
        # a matrix without positive curvature stops every column at once
        b = np.ones((4, 3))
        with pytest.raises(SolverNotConvergedError):
            _block_pcg(lambda x: -x, np.ones(4), b, np.zeros((4, 3)))
        assert np.allclose(_block_pcg(lambda x: 2.0 * x, np.full(4, 2.0), b,
                                      np.zeros((4, 3))), 0.5)

    def test_unreferenced_vertices_stay_at_rest(self):
        rest = grid_mesh(2, 2)
        loose = Vec3(7.0, 8.0, 9.0)
        rest = TriMesh(list(rest.vertices) + [loose], list(rest.faces))
        target = warp_mesh(rest)
        out = blend_shapes(CompatibleSet(rest, [target]), [1.0])
        assert out.vertices[-1] == loose
        for got, want in zip(out.vertices[:-1], target.vertices[:-1]):
            assert vec_dist(got, want) <= 1e-8

    def test_loose_vertex_changes_no_referenced_vertex(self):
        # the length unit is the extent of the vertices the faces use, so a
        # vertex no face uses leaves the others bit for bit where they are
        # without it
        rest = grid_mesh(2, 2)
        want = blend_shapes(CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)]),
                            [0.5, 0.5])
        rest = TriMesh(list(rest.vertices) + [Vec3(7.0, 8.0, 9.0)], list(rest.faces))
        got = blend_shapes(CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)]),
                           [0.5, 0.5])
        assert got.vertices[:-1] == want.vertices

    def test_unreferenced_vertex_stays_at_rest_in_an_interior_query(self):
        # the warm start moves every referenced vertex toward the blend,
        # and the loose one still starts and ends exactly at rest
        rest = grid_mesh(2, 2)
        loose = Vec3(7.0, 8.0, 9.0)
        rest = TriMesh(list(rest.vertices) + [loose], list(rest.faces))
        cset = CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)])
        assert blend_shapes(cset, [0.5, 0.5]).vertices[-1] == loose

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    def test_coherent_queries_need_no_cg_iteration(self, monkeypatch, weights):
        # zero and one-hot weights start the solve at the answer, which the
        # face-wise start test finds without building the vertex system
        import affine12.meshblend

        counts = []

        def spy(*args):
            matmul = _coordinate_matmul(*args)

            def counted(x):
                counts[-1] += 1
                return matmul(x)
            counts.append(0)
            return counted

        monkeypatch.setattr(affine12.meshblend, "_coordinate_matmul", spy)
        rest = warp_mesh(grid_mesh(4, 4))
        blend_shapes(CompatibleSet(rest, [twist_mesh(rest), warp_mesh(twist_mesh(rest))]),
                     weights)
        assert counts == []

    def test_batch_maps_run_on_numpys_ufuncs(self, monkeypatch):
        # the libm table would add about a third to a query, so blend_shapes
        # calls the batch kernels through the private entries with NumPy's ufuncs
        import affine12.meshblend
        from affine12 import batch

        tables = []

        def spy(entry):
            def call(*args):
                tables.append(args[-1])
                return entry(*args)
            return call

        monkeypatch.setattr(affine12.meshblend, "_transforms_to_params",
                            spy(batch._transforms_to_params))
        monkeypatch.setattr(affine12.meshblend, "_params_to_transforms",
                            spy(batch._params_to_transforms))
        rest = grid_mesh(3, 3)
        blend_shapes(CompatibleSet(rest, [warp_mesh(rest)]), [0.5])
        assert tables == [batch._NUMPY, batch._NUMPY]

    @pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** -20, 1e6, 1e-6])
    def test_result_scales_with_the_mesh(self, scale):
        # lengths are taken in the rest mesh's extent, so a power-of-two
        # scale leaves every operation exact and another scale moves the
        # result by roundoff only, interior and extrapolating queries too
        rest = warp_mesh(grid_mesh(4, 4))
        targets = [twist_mesh(rest), warp_mesh(twist_mesh(rest))]

        def vertices(cset, w):
            return np.array(blend_shapes(cset, w).vertices)

        def scaled(mesh):
            return TriMesh([Vec3(*(scale * c for c in v)) for v in mesh.vertices], mesh.faces)

        cset = CompatibleSet(rest, targets)
        big = CompatibleSet(scaled(rest), [scaled(t) for t in targets])
        for w in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.5], [1.4, -0.6]):
            want = scale * vertices(cset, w)
            got = vertices(big, w)
            if math.frexp(scale)[0] == 0.5:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def seeded_targets(rest: TriMesh, seed: int, n: int = 3) -> list[TriMesh]:
    """n targets, each a seeded near-identity affine map of the rest mesh
    plus seeded noise of 0.03 on every vertex."""
    rng = np.random.default_rng(seed)
    v = np.array(rest.vertices)
    targets = []
    for _ in range(n):
        out = (v @ (np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))).T + rng.uniform(-1.0, 1.0, 3)
               + 0.03 * rng.standard_normal(v.shape))
        targets.append(TriMesh([Vec3(*p) for p in out.tolist()], list(rest.faces)))
    return targets


MIXED_WEIGHTS = [(0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                 (0.0, 0.0, 1.0), (0.0, 0.0, -0.7), (0.5, 0.5, 0.0), (0.0, 0.3, 0.7),
                 (1.4, 0.0, -0.4), (1.3, -0.6, 0.0)]


class TestUnweightedTargets:
    """A target at weight 0 adds nothing to the blend, so it is not pulled back."""

    rest = warp_mesh(grid_mesh(5, 4))

    @staticmethod
    def _vertices(rest, targets, weights) -> np.ndarray:
        return np.array(blend_shapes(CompatibleSet(rest, targets), weights).vertices)

    @pytest.mark.parametrize("weights", MIXED_WEIGHTS)
    def test_zero_weight_targets_do_not_reach_the_result(self, weights):
        # other geometry in the zero-weight slots leaves every bit in place
        targets = seeded_targets(self.rest, 5)
        others = [t if x != 0.0 else o
                  for t, o, x in zip(targets, seeded_targets(self.rest, 23), weights)]
        assert np.array_equal(self._vertices(self.rest, others, weights),
                              self._vertices(self.rest, targets, weights))

    @pytest.mark.parametrize("weights", MIXED_WEIGHTS)
    def test_equals_the_blend_without_the_zero_weight_targets(self, weights):
        # with one weighted target the blend is one rounded product either
        # way, so bit for bit; with two, the weighted sum over fewer targets
        # may round differently, which the solve keeps within its tolerance
        targets = seeded_targets(self.rest, 5)
        live = [k for k, x in enumerate(weights) if x != 0.0]
        got = self._vertices(self.rest, targets, weights)
        want = self._vertices(self.rest, [targets[k] for k in live], [weights[k] for k in live])
        if len(live) <= 1:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("weights", MIXED_WEIGHTS + [(0.2, 0.3, 0.5)])
    def test_only_weighted_targets_are_pulled_back(self, monkeypatch, weights):
        import affine12.meshblend
        from affine12 import batch

        pulled, pushed = [], []

        def pull_back(linear, *args):
            pulled.append(len(linear))
            return batch._transforms_to_params(linear, *args)

        def push(params, *args):
            pushed.append(len(params))
            return batch._params_to_transforms(params, *args)

        monkeypatch.setattr(affine12.meshblend, "_transforms_to_params", pull_back)
        monkeypatch.setattr(affine12.meshblend, "_params_to_transforms", push)
        blend_shapes(CompatibleSet(self.rest, seeded_targets(self.rest, 5)), weights)
        nf, live = len(self.rest.faces), sum(x != 0.0 for x in weights)
        assert pulled == ([live * nf] if live else [])
        assert pushed == [nf]

    @staticmethod
    def _squashed_set() -> tuple[TriMesh, list[TriMesh]]:
        # the set of test_pull_back_error_names_the_target_and_face: target
        # 1's 1e-8 squash leaves no orthogonal rotation factor in the pull-back
        rest = grid_mesh(4, 4)
        return rest, [TestBlendShapes._stretched(rest, 1.1, 1.0),
                      TestBlendShapes._stretched(rest, 1.0, 1e-8)]

    def test_unpullable_target_at_weight_0_is_left_out(self):
        # declared behaviour change: its parameters would never reach the
        # result, so the query no longer fails on them
        rest, (stretched, squashed) = self._squashed_set()
        got = blend_shapes(CompatibleSet(rest, [stretched, squashed]), [0.5, 0.0])
        assert got.vertices == blend_shapes(CompatibleSet(rest, [stretched]), [0.5]).vertices

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.0, 0.5), (0.0, -1.0)])
    def test_unpullable_target_with_a_weight_still_fails(self, weights):
        rest, targets = self._squashed_set()
        with pytest.raises(NotARotationError) as err:
            blend_shapes(CompatibleSet(rest, targets), weights)
        assert str(err.value) == "target 1 face 0: ||R^T R - I||_F = 3.231e-05 exceeds 1e-06"

    @pytest.mark.parametrize("fault, error, message", [
        ("flat", DegenerateTriangleError, "target 1 face 0: triangle area "),
        ("nan", NonFiniteInputError, "target 1 vertex 4 is not finite"),
    ])
    def test_bad_input_at_weight_0_still_fails(self, fault, error, message):
        rest = grid_mesh(2, 2)
        if fault == "flat":
            bad = [Vec3(v.x, 0.0, 0.0) for v in rest.vertices]
        else:
            bad = list(rest.vertices)
            bad[4] = Vec3(0.5, math.nan, 0.0)
        cset = CompatibleSet(rest, [warp_mesh(rest), TriMesh(bad, list(rest.faces))])
        with pytest.raises(error, match=re.escape(message)):
            blend_shapes(cset, [1.0, 0.0])


def in_plane_warp(mesh: TriMesh) -> TriMesh:
    """warp_mesh without its lift: a planar mesh stays in its plane."""
    return TriMesh([Vec3(w.x, w.y, v.z) for w, v in zip(warp_mesh(mesh).vertices, mesh.vertices)],
                   list(mesh.faces))


# the meshblend section of tools/digest.py: the workload's weights, then these
DIGEST_WEIGHTS = [(0.5, 0.5, 0.0), (0.0, 0.3, 0.7), (1.4, 0.0, -0.4), (0.0, -0.0, 0.0)]


class TestStartTest:
    """The start residual is summed face by face, and the vertex matrix is
    built only when a coordinate fails it."""

    @staticmethod
    def _record(monkeypatch) -> list:
        import affine12.meshblend

        calls = []

        def spy(*args):
            calls.append((args, _warm_start(*args)))
            return calls[-1][1]

        monkeypatch.setattr(affine12.meshblend, "_warm_start", spy)
        return calls

    @staticmethod
    def _assembled(reduced, b_faces, faces, b, x0):
        # the start of _block_pcg, on the assembled vertex matrix (an unused
        # vertex gets a unit row)
        unused = np.setdiff1d(np.arange(len(b)), faces)
        matmul, _ = _vertex_matrix(reduced, faces, unused, len(b))
        _, tol2, x = _start(b, x0)
        r = b - matmul(x)
        return x, np.vecdot(r, r, axis=0) <= tol2

    def _verdicts(self, monkeypatch, cset, weight_vectors) -> tuple[list, list]:
        """Each query's face-wise and assembled verdicts, and the arguments
        of its start test; both starts must be the same array."""
        calls = self._record(monkeypatch)
        for w in weight_vectors:
            blend_shapes(cset, w)
        verdicts = []
        for args, (x, met) in calls:
            want_x, want_met = self._assembled(*args)
            assert np.array_equal(x, want_x)
            verdicts.append((met.tolist(), want_met.tolist()))
        assert len(verdicts) == len(weight_vectors)
        return verdicts, [args for args, _ in calls]

    @pytest.mark.parametrize("seed", [5, 23])
    def test_face_wise_verdict_is_the_assembled_one_on_the_meshblend_sets(
            self, monkeypatch, seed):
        weights = inputs.weight_sequence(seed, 3) + DIGEST_WEIGHTS
        verdicts, _ = self._verdicts(monkeypatch, Meshblend(seed).cset, weights)
        for face_wise, assembled in verdicts:
            assert face_wise == assembled
        # zero and one-hot queries pass, the others fail in every coordinate
        assert [all(v) for v, _ in verdicts] == [
            sum(x != 0.0 for x in w) <= 1 and set(w) <= {0.0, 1.0} for w in weights]
        assert all(not any(v) for v, _ in verdicts if not all(v))

    def test_face_wise_verdict_is_the_assembled_one_with_a_loose_vertex(self, monkeypatch):
        rest = grid_mesh(2, 2)
        rest = TriMesh(list(rest.vertices) + [Vec3(7.0, 8.0, 9.0)], list(rest.faces))
        cset = CompatibleSet(rest, [warp_mesh(rest), twist_mesh(rest)])
        verdicts, _ = self._verdicts(monkeypatch, cset, [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        assert verdicts == [([True] * 3,) * 2, ([True] * 3,) * 2, ([False] * 3,) * 2]

    def test_face_wise_verdict_is_the_assembled_one_where_b_is_zero(self, monkeypatch):
        # a planar set keeps z = 0: its b column is zero, so tol2 is 0 and
        # the start is the zero column, met exactly
        rest = grid_mesh(4, 4)
        verdicts, calls = self._verdicts(monkeypatch, CompatibleSet(rest, [in_plane_warp(rest)]),
                                         [[0.0], [1.0], [0.5]])
        assert all(not b[:, 2].any() for *_, b, _ in calls)
        for face_wise, assembled in verdicts:
            assert face_wise == assembled
        assert [v for v, _ in verdicts] == [[True] * 3, [True] * 3, [False, False, True]]
        # the start's column of a zero b is 0 whatever x0 holds there
        for *blocks, b, x0 in calls:
            x0 = x0 + [0.0, 0.0, 1.0]
            x, met = _warm_start(*blocks, b, x0)
            want_x, want_met = self._assembled(*blocks, b, x0)
            assert np.array_equal(x, want_x) and not x[:, 2].any()
            assert met.tolist() == want_met.tolist() and met[2]

    def test_a_failing_coordinate_runs_the_assembled_pcg_bit_for_bit(self, monkeypatch):
        # z passes and x, y fail: the answer is _block_pcg's on the
        # assembled system from the same start, with z at 0
        rest = grid_mesh(4, 4)
        calls = self._record(monkeypatch)
        got = np.array(blend_shapes(CompatibleSet(rest, [in_plane_warp(rest)]), [0.5]).vertices)
        [((reduced, b_faces, faces, b, x0), (_, met))] = calls
        assert met.tolist() == [False, False, True]
        want = _block_pcg(*_vertex_matrix(reduced, faces, np.array([], dtype=int), len(b)),
                          b, x0)
        assert np.array_equal(got, want)  # the grid's extent is 1, so is the unit
        assert not got[:, 2].any()


class TestObjIO:
    def test_roundtrip(self, tmp_path):
        mesh = warp_mesh(grid_mesh(3, 2))
        path = tmp_path / "mesh.obj"
        save_obj(str(path), mesh)
        back = load_obj(str(path))
        assert back.faces == mesh.faces
        for got, want in zip(back.vertices, mesh.vertices):
            assert got == want  # bit-faithful floats

    def test_write_obj_text_is_unchanged_and_written_once(self):
        # one write of the records the format always had: v with repr
        # floats, then f with 1-based indices
        mesh = warp_mesh(grid_mesh(3, 2))
        writes = []

        class Sink:
            write = writes.append

        write_obj(Sink(), mesh)
        want = "".join([f"v {v.x!r} {v.y!r} {v.z!r}\n" for v in mesh.vertices]
                       + [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in mesh.faces])
        assert writes == [want]
        writes.clear()
        write_obj(Sink(), TriMesh(list(TRI), [(0, 1, 2)]))
        assert writes == ["v 0.0 0.0 0.0\nv 1.0 0.0 0.0\nv 0.2 1.1 0.0\nf 1 2 3\n"]

    def test_accepts_slash_indices_and_comments(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\n"
                        "f 1/1/1 2/2/1 3/3/1\n")
        mesh = load_obj(str(path))
        assert mesh.faces == [(0, 1, 2)]

    @pytest.mark.parametrize("content,fragment", [
        ("v 0 0\n", "3 coordinates"),
        ("v a b c\n", "bad vertex"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1\n", "triangle"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "exceeds"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1\n", "positive"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "bad face index"),
    ])
    def test_malformed_rejected_with_line_info(self, tmp_path, content, fragment):
        path = tmp_path / "bad.obj"
        path.write_text(content)
        with pytest.raises(FileFormatError) as err:
            load_obj(str(path))
        assert fragment in str(err.value)
        assert "bad.obj:" in str(err.value)

    def test_infinite_vertex_coordinate_is_named(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 0 inf 0\n")
        with pytest.raises(FileFormatError) as err:
            load_obj(str(path))
        assert str(err.value) == f"{path}:2: vertex coordinate is not finite"

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_bytes(b"\xff v 0 0 0\n")
        with pytest.raises(FileFormatError) as err:
            load_obj(str(path))
        assert str(err.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in "
                                  "position 0: invalid start byte")


def test_import_loads_no_scipy_module():
    # scipy.sparse alone adds ~20 MB of resident memory on import, and
    # scipy.sparse.linalg or scipy.linalg several MB more; the patching
    # solve runs on NumPy alone. The bench harness and the Jacobi oracle
    # are not part of the top-level API either.
    code = ("import sys, affine12; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m in ('affine12.bench', 'affine12.oracle')))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

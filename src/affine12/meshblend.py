"""Shape blending for compatibly triangulated meshes.

Every face of each target mesh gets the unique affine map carrying its rest
face (and rest unit normal) onto it. Those per-face maps are blended in
parameter space, which leaves them incoherent along shared edges; a sparse
linear least squares over the deformed vertex positions (plus one auxiliary
normal-tip point per face, which keeps the face frames linear in the
unknowns) patches them into a single piecewise-linear deformation. The
energy covers the full 3x4 block of each face transform, translation
column included, so the normal equations are generically full rank and
the solved mesh is anchored in space.

blend_shapes runs each stage over all faces at once, in NumPy: the face
frames and their inverses, one batched pull-back of every target face map
(affine12.batch), the weighted sum, one batched forward map, a vectorised
sparse assembly with the normal tips eliminated face by face, and a
preconditioned conjugate gradient on the three coordinates together.
Lengths are measured in the rest mesh's extent, so the result does not
depend on the caller's absolute scale. face_frame and per_face_affine
are the single-face forms of the same maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .batch import _NUMPY, _params_to_transforms, _transforms_to_params
from .errors import (
    DegenerateTriangleError,
    FileFormatError,
    NonFiniteInputError,
    OrientationFlipWarning,
    SolverNotConvergedError,
)
from .linalg3 import (
    Mat3,
    Vec3,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_vec,
    vec_cross,
    vec_norm,
    vec_scale,
    vec_sub,
)
from .param import HomAffine3

_MIN_AREA = 1e-12
_CG_RTOL = 1e-10


@dataclass
class TriMesh:
    vertices: list[Vec3]
    faces: list[tuple[int, int, int]]

    def face_points(self, j: int) -> tuple[Vec3, Vec3, Vec3]:
        i0, i1, i2 = self.faces[j]
        return self.vertices[i0], self.vertices[i1], self.vertices[i2]


@dataclass
class CompatibleSet:
    """A rest mesh plus targets sharing its face list one-to-one."""

    rest: TriMesh
    targets: list[TriMesh] = field(default_factory=list)

    def __post_init__(self):
        for k, tgt in enumerate(self.targets):
            if len(tgt.vertices) != len(self.rest.vertices):
                raise ValueError(
                    f"target {k}: {len(tgt.vertices)} vertices, rest has "
                    f"{len(self.rest.vertices)}")
            if tgt.faces != self.rest.faces:
                raise ValueError(f"target {k}: face connectivity differs from the rest mesh")


def face_frame(p0: Vec3, p1: Vec3, p2: Vec3, normal: Vec3 | None = None) -> Mat3:
    """Columns [p1-p0, p2-p0, unit normal].

    By default the normal follows the index order (counterclockwise); a
    caller-supplied normal (e.g. authored shading normals) is normalised
    and used as-is.
    """
    e1 = vec_sub(p1, p0)
    e2 = vec_sub(p2, p0)
    n = vec_cross(e1, e2)
    ln = vec_norm(n)
    if 0.5 * ln <= _MIN_AREA:
        raise DegenerateTriangleError(f"triangle area {0.5 * ln:.3e} below {_MIN_AREA}")
    if normal is not None:
        ln = vec_norm(normal)
        if ln <= _MIN_AREA:
            raise DegenerateTriangleError(f"supplied normal has length {ln:.3e}")
        n = normal
    n = vec_scale(n, 1.0 / ln)
    return Mat3(e1.x, e2.x, n.x,
                e1.y, e2.y, n.y,
                e1.z, e2.z, n.z)


def per_face_affine(rest_tri: Sequence[Vec3], target_tri: Sequence[Vec3],
                    rest_normal: Vec3 | None = None,
                    target_normal: Vec3 | None = None) -> HomAffine3:
    """The unique affine map sending one triangle-with-normal onto another.

    The linear part carries the rest edge frame and unit normal onto the
    target's; the translation pins the first vertex. Normals default to the
    index-order orientation, in which case the map always preserves
    orientation; a supplied normal pair that disagrees with the winding
    trips an OrientationFlipWarning (downstream parameter extraction would
    reject the transform).
    """
    v0 = face_frame(*rest_tri, normal=rest_normal)
    vi = face_frame(*target_tri, normal=target_normal)
    linear = mat_mul(vi, mat_inverse(v0))
    det = mat_det(linear)
    if det <= 0.0:
        warnings.warn(f"face transform determinant {det:.3e} flips orientation",
                      OrientationFlipWarning, stacklevel=2)
    translation = vec_sub(target_tri[0], mat_vec(linear, rest_tri[0]))
    return HomAffine3(linear, translation)


def blend_shapes(cset: CompatibleSet, weights: Sequence[float]) -> TriMesh:
    """Blend the targets at the given weights into one consistent mesh.

    Every face map of every target is pulled back to parameter space in one
    batch, the weights combine them face by face, and the blends are mapped
    forward in one batch. The patching least squares then finds the vertex
    positions (and per-face normal tips) whose face maps match those blends
    best. Zero weights reproduce the rest mesh and a one-hot weight vector
    reproduces that target (up to solver tolerance), because in both cases
    the blended face maps are already coherent and the least squares is
    exactly consistent.

    The normal tips are eliminated face by face, and the normal equations
    left on the vertices are solved by conjugate gradients with a Jacobi
    (diagonal) preconditioner, the three coordinates side by side and
    warm-started from the rest positions. A coordinate stops once its
    residual reaches ||r|| <= 1e-10 ||b||; one still above that after 20
    iterations per unknown raises SolverNotConvergedError.

    Lengths are divided by the rest mesh's largest coordinate extent (1
    if it is 0), so a set scaled by 2^k blends to the result scaled by 2^k
    bit for bit, and by any other factor up to roundoff. Raises
    NonFiniteInputError for a NaN or infinite vertex or weight, and
    DegenerateTriangleError for a face area of at most 1e-12 extent^2;
    both name the mesh (rest or target k) and the index.
    """
    if len(weights) != len(cset.targets):
        raise ValueError(f"{len(cset.targets)} targets but {len(weights)} weights")
    w = np.array([float(x) for x in weights])
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NonFiniteInputError(f"weight {bad[0]} is not finite ({float(w[bad[0]])!r})")
    rest = _vertex_array(cset.rest, "rest mesh")
    nv = len(rest)
    targets = np.array([_vertex_array(t, f"target {k}") for k, t in enumerate(cset.targets)],
                       dtype=float).reshape(len(cset.targets), nv, 3)
    faces = _face_array(cset.rest.faces, nv)
    nf = len(faces)
    unit = (float(np.ptp(rest, axis=0).max()) if nv else 0.0) or 1.0
    rest, targets = rest / unit, targets / unit

    frames_inv = _inverse(_face_frames(rest[None], faces, ["rest mesh"], unit)[0])
    names = [f"target {k}" for k in range(len(targets))]
    linear = _face_frames(targets, faces, names, unit) @ frames_inv
    p0 = rest[faces[:, 0]]
    translation = targets[:, faces[:, 0]] - (linear @ p0[:, :, None])[..., 0]
    params = _transforms_to_params(linear.reshape(-1, 3, 3), translation.reshape(-1, 3), _NUMPY)
    blended = np.tensordot(w, params.reshape(len(w), nf, 12), axes=1)

    coef, rhs = _face_residuals(rest, faces, frames_inv, *_params_to_transforms(blended, _NUMPY))
    solved = _solve_vertices(coef, rhs, faces, rest) * unit
    return TriMesh([Vec3._make(v) for v in solved.tolist()], list(cset.rest.faces))


def _vertex_array(mesh: TriMesh, name: str) -> np.ndarray:
    v = np.fromiter(chain.from_iterable(mesh.vertices), dtype=float,
                    count=3 * len(mesh.vertices)).reshape(-1, 3)
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        raise NonFiniteInputError(f"{name} vertex {bad[0]} is not finite: {v[bad[0]].tolist()}")
    return v


def _face_array(faces: list[tuple[int, int, int]], nv: int) -> np.ndarray:
    f = np.array(faces, dtype=np.intp).reshape(-1, 3)
    bad = np.flatnonzero(((f < 0) | (f >= nv)).any(axis=1))
    if bad.size:
        raise ValueError(f"face {bad[0]} {tuple(faces[bad[0]])} indexes outside the "
                         f"{nv} rest vertices")
    return f


def _face_frames(vertices: np.ndarray, faces: np.ndarray, names: list[str],
                 unit: float) -> np.ndarray:
    """Frames [p1-p0, p2-p0, unit normal] of every face of a stack of meshes.

    vertices is (n_meshes, nv, 3), in lengths of unit, and the result
    (n_meshes, nf, 3, 3); names label the meshes in the
    DegenerateTriangleError of a face below the minimum area.
    """
    p = vertices[:, faces]
    e1 = p[:, :, 1] - p[:, :, 0]
    e2 = p[:, :, 2] - p[:, :, 0]
    n = np.cross(e1, e2)
    area = 0.5 * np.sqrt(np.einsum("mfi,mfi->mf", n, n))
    bad = np.flatnonzero(area <= _MIN_AREA)
    if bad.size:
        k, j = divmod(int(bad[0]), len(faces))
        raise DegenerateTriangleError(f"{names[k]} face {j}: triangle area "
                                      f"{area[k, j] * unit**2:.3e} below {_MIN_AREA * unit**2:g}")
    return np.stack((e1, e2, n / (2.0 * area)[:, :, None]), axis=-1)


def _inverse(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 3x3 matrices by the closed-form adjugate.

    With columns a, b, c the rows of the inverse are b x c, c x a and
    a x b over the determinant a . (b x c).
    """
    a, b, c = m[..., 0], m[..., 1], m[..., 2]
    bc = np.cross(b, c)
    det = np.einsum("...i,...i->...", a, bc)
    return np.stack((bc, np.cross(c, a), np.cross(a, b)), axis=-2) / det[..., None, None]


def _face_residuals(rest: np.ndarray, faces: np.ndarray, frames_inv: np.ndarray,
                    linear: np.ndarray, translation: np.ndarray):
    """Residual blocks of the patching least squares, one per face.

    Face j's unknowns are its deformed corners q0, q1, q2 and its normal
    tip, and coef[j] @ [q0, q1, q2, tip] - rhs[j] stacks its four residual
    rows: three compare the columns of the deformed frame
    [q1-q0, q2-q0, tip-q0] times the inverse rest frame with those of the
    blended linear part, one compares q0 - M p0 with the blended
    translation. The energy sums their squares over faces and coordinates.
    """
    w_cols = np.swapaxes(frames_inv, 1, 2)
    wp = (frames_inv @ rest[faces[:, 0], :, None])[..., 0]
    coef = np.empty((len(faces), 4, 4))
    coef[:, :3, 0] = -w_cols.sum(axis=2)
    coef[:, :3, 1:] = w_cols
    coef[:, 3, 0] = 1.0 + wp.sum(axis=1)
    coef[:, 3, 1:] = -wp
    rhs = np.concatenate((np.swapaxes(linear, 1, 2), translation[:, None]), axis=1)
    return coef, rhs


def _solve_vertices(coef: np.ndarray, rhs: np.ndarray, faces: np.ndarray,
                    rest: np.ndarray) -> np.ndarray:
    """Deformed vertex positions minimising the patching energy.

    Each normal tip enters only its own face's rows, so its block of the
    normal equations is a scalar and the tips drop out face by face (a
    Schur complement), leaving one sparse system on the vertices that the
    three coordinates share. Vertices no face references keep their rest
    position.
    """
    nv = len(rest)
    m = np.einsum("fri,frj->fij", coef, coef)
    mb = np.einsum("fri,frk->fik", coef, rhs)
    elim = m[:, :3, 3] / m[:, 3, 3, None]
    reduced = m[:, :3, :3] - elim[:, :, None] * m[:, None, 3, :3]
    b_faces = mb[:, :3] - elim[:, :, None] * mb[:, None, 3]
    unused = np.flatnonzero(np.bincount(faces.ravel(), minlength=nv) == 0)
    # COO entries keyed row * nv + col (an unused vertex gets a unit
    # diagonal), summed into one entry per vertex pair
    keys = np.concatenate((np.repeat(faces, 3, axis=1).ravel() * nv + np.tile(faces, 3).ravel(),
                           unused * (nv + 1)))
    pairs, slot = np.unique(keys, return_inverse=True)
    vals = np.bincount(slot, weights=np.concatenate((reduced.ravel(), np.ones(len(unused)))))
    rows, cols = np.divmod(pairs, nv)
    b = np.zeros((nv, 3))
    np.add.at(b, faces, b_faces)
    b[unused] = rest[unused]
    on_diag = rows == cols
    diag = np.zeros(nv)
    diag[rows[on_diag]] = vals[on_diag]
    return _block_pcg(_coordinate_matmul(rows, cols, vals, nv), diag, b, rest)


def _coordinate_matmul(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int):
    """x -> A @ x on (n, 3) arrays, for the n x n matrix with entries (rows, cols, vals).

    The three columns of x are interleaved in its flat form, so one gather
    and one bincount apply A to all of them.
    """
    rows3 = (3 * rows[:, None] + np.arange(3)).ravel()
    cols3 = (3 * cols[:, None] + np.arange(3)).ravel()
    vals3 = np.repeat(vals, 3)

    def matmul(x: np.ndarray) -> np.ndarray:
        return np.bincount(rows3, weights=vals3 * x.ravel()[cols3],
                           minlength=3 * n).reshape(n, 3)

    return matmul


def _block_pcg(matmul, diag: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Jacobi-preconditioned CG on normal equations with one column per coordinate.

    matmul applies the symmetric positive definite matrix, whose diagonal
    is diag, to an (n, 3) array. The columns share each product, but every
    column keeps its own step lengths and stops on its own once ||r|| <=
    1e-10 ||b||; a zero right-hand side gives the zero column. A column
    still above tolerance after 20 iterations per unknown, or whose search
    direction loses positive curvature, raises SolverNotConvergedError.
    """
    bb = np.vecdot(b, b, axis=0)
    tol2 = _CG_RTOL * _CG_RTOL * bb
    x = np.where(tol2 > 0.0, x0, 0.0)
    d_inv = (1.0 / np.where(diag > 0.0, diag, 1.0))[:, None]
    r = b - matmul(x)
    z = d_inv * r
    p = z
    rz = np.vecdot(r, z, axis=0)
    rr = np.vecdot(r, r, axis=0)
    active = rr > tol2
    for _ in range(20 * len(b)):
        if not active.any():
            break
        ap = matmul(p)
        pap = np.vecdot(p, ap, axis=0)
        active &= pap > 0.0
        alpha = np.divide(rz, pap, out=np.zeros(3), where=active)
        x += alpha * p
        r -= alpha * ap
        z = d_inv * r
        rz_new = np.vecdot(r, z, axis=0)
        rr = np.vecdot(r, r, axis=0)
        active &= rr > tol2
        p = z + np.divide(rz_new, rz, out=np.zeros(3), where=active) * p
        rz = rz_new
    if not np.all(rr <= tol2):
        residual = np.sqrt(rr / np.where(bb > 0.0, bb, 1.0))
        raise SolverNotConvergedError("mesh patching least squares stalled",
                                      float(np.max(residual)))
    return x


# -- Wavefront OBJ (triangles only) ------------------------------------------

def load_obj(path: str) -> TriMesh:
    """Read `v`/`f` records; 1-based indices, triangles only.

    Face fields may carry `v/vt/vn` slashes (only the vertex index is
    kept). Unknown record types are skipped; malformed records raise
    FileFormatError with the offending line.
    """
    vertices: list[Vec3] = []
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) not in (4, 5):
                    raise FileFormatError(
                        f"{path}:{ln}: vertex record needs 3 coordinates, got {len(parts) - 1}")
                try:
                    coords = [float(s) for s in parts[1:4]]
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{ln}: bad vertex coordinate: {exc}") from None
                if not all(math.isfinite(c) for c in coords):
                    raise FileFormatError(f"{path}:{ln}: vertex coordinate is not finite")
                vertices.append(Vec3(*coords))
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise FileFormatError(
                        f"{path}:{ln}: only triangle faces are supported, got "
                        f"{len(parts) - 1} indices")
                idx = []
                for fieldstr in parts[1:]:
                    head = fieldstr.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise FileFormatError(
                            f"{path}:{ln}: bad face index {fieldstr!r}") from None
                    if i < 1:
                        raise FileFormatError(
                            f"{path}:{ln}: face index {i} must be positive (1-based)")
                    idx.append(i - 1)
                faces.append((idx[0], idx[1], idx[2]))
                face_lines.append(ln)
    for (f, ln) in zip(faces, face_lines):
        for i in f:
            if i >= len(vertices):
                raise FileFormatError(
                    f"{path}:{ln}: face index {i + 1} exceeds vertex count {len(vertices)}")
    return TriMesh(vertices, faces)


def save_obj(path: str, mesh: TriMesh) -> None:
    """Write `v`/`f` records; floats keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        write_obj(fh, mesh)


def write_obj(fh, mesh: TriMesh) -> None:
    for v in mesh.vertices:
        fh.write(f"v {v.x!r} {v.y!r} {v.z!r}\n")
    for f in mesh.faces:
        fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")

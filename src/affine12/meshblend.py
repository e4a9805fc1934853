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
maps and one batched pull-back (affine12.batch) of the targets the query
weights (a target at weight 0 adds nothing to the blend, so its face maps
are not formed), the weighted sum, one batched forward map, a vectorised
least squares with the normal tips eliminated face by face, and a test of
the linear vertex blend's residual, face by face: only when a coordinate
fails it is the sparse vertex system built and solved by preconditioned
conjugate gradients (zero and one-hot weights pass, as that start is their
answer). Every target is still checked as input, whatever its weight.

The face map is written once, on corner coordinates: the same lines run
on floats in the single-face forms face_frame and per_face_affine and on
(..., nf) arrays in blend_shapes. The frame [e1, e2, u] (edges, u = n/|n|,
n = e1 x e2) has determinant |n|, so its inverse is read off its own cross
products. Lengths are taken in the extent of the rest vertices the faces
use (a set's, or the rest triangle's), so results do not depend on the
caller's scale, and one area rule holds: area <= 1e-12 extent^2 is a
DegenerateTriangleError. A NaN or infinite corner is a NonFiniteInputError
naming it, checked before the area rule; the single-face forms test only
the extent and |n| they compute, and look at the corners once that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .batch import _NUMPY, _named_rows, _params_to_transforms, _transforms_to_params
from .errors import (
    DegenerateTriangleError,
    FileFormatError,
    NonFiniteInputError,
    SolverNotConvergedError,
)
from .linalg3 import Mat3, Vec3, _new, mat_mul, mat_vec
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


def face_frame(p0: Vec3, p1: Vec3, p2: Vec3) -> Mat3:
    """Columns [p1-p0, p2-p0, unit normal], the normal following the index
    order (counterclockwise) and taken in the triangle's extent, under the
    area rule (see the module). A non-finite corner is named ("corner i")."""
    unit = _extent((p0, p1, p2))
    _, _, n, ln = _triangle(*_scaled((p0, p1, p2), unit), math.sqrt)
    if not math.isfinite(unit + ln):
        _check_corners(("", (p0, p1, p2)))
    if _degenerate(ln):
        raise _area_error(ln, unit)
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = p0, p1, p2
    return _frame((x1 - x0, y1 - y0, z1 - z0), (x2 - x0, y2 - y0, z2 - z0), n, ln)


def per_face_affine(rest_tri: Sequence[Vec3], target_tri: Sequence[Vec3]) -> HomAffine3:
    """The unique affine map sending one triangle-with-normal onto another.

    The linear part carries the rest edge frame and unit normal onto the
    target's; the translation pins the first vertex. Both triangles are
    taken in the rest triangle's extent, so the linear part is bit for bit
    the one blend_shapes pulls back for the one-face set, under the same
    area rule (rest first; see the module), after the corner check, which
    names a non-finite corner ("rest corner i", "target corner i"). Both
    normals follow the index order, so the determinant is positive in
    exact arithmetic; rounding may leave a thin target's map at det <= 0,
    which is returned as it is, and which transform_to_params rejects with
    the NotOrientationPreservingError that blend_shapes raises for the face.
    """
    unit = _extent(rest_tri)
    p, q = _scaled(rest_tri, unit), _scaled(target_tri, unit)
    rest, target = _triangle(*p, math.sqrt), _triangle(*q, math.sqrt)
    if not math.isfinite(unit + rest[3] + target[3]):
        _check_corners(("rest ", rest_tri), ("target ", target_tri))
    for ln in (rest[3], target[3]):
        if _degenerate(ln):
            raise _area_error(ln, unit)
    linear, (tx, ty, tz) = _face_map(_frame(*target), _frame_inverse(*rest), p[0], q[0])
    return HomAffine3(linear, _new(Vec3, (tx * unit, ty * unit, tz * unit)))


# -- the face map, once, on corner coordinates: floats in the single-face
# forms, arrays in blend_shapes (see the module)

def _extent(tri: Sequence[Vec3]) -> float:
    """The largest coordinate extent of a triangle's corners, 1 if it is 0."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = tri
    return max(max(x0, x1, x2) - min(x0, x1, x2), max(y0, y1, y2) - min(y0, y1, y2),
               max(z0, z1, z2) - min(z0, z1, z2)) or 1.0


def _check_corners(*named: tuple[str, Sequence[Vec3]]) -> None:
    """NonFiniteInputError for the first NaN or infinite corner of the
    (name prefix, triangle) pairs; nothing if every corner is finite."""
    for name, tri in named:
        for i, corner in enumerate(tri):
            if not all(map(math.isfinite, corner)):
                raise NonFiniteInputError(
                    f"{name}corner {i} is not finite: {[float(c) for c in corner]}")


def _scaled(tri: Sequence[Vec3], unit: float) -> list[tuple]:
    return [(x / unit, y / unit, z / unit) for x, y, z in tri]


def _triangle(p0, p1, p2, sqrt):
    """Edges e1 = p1 - p0, e2 = p2 - p0, the normal n = e1 x e2 and |n|."""
    x0, y0, z0 = p0
    ax, ay, az = p1[0] - x0, p1[1] - y0, p1[2] - z0
    bx, by, bz = p2[0] - x0, p2[1] - y0, p2[2] - z0
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return (ax, ay, az), (bx, by, bz), (nx, ny, nz), sqrt(nx * nx + ny * ny + nz * nz)


def _degenerate(ln):
    """The area rule on |n| in lengths of the extent: area |n|/2 <= 1e-12."""
    return 0.5 * ln <= _MIN_AREA


def _area_error(ln, unit: float, where: str = "") -> DegenerateTriangleError:
    return DegenerateTriangleError(f"{where}triangle area {0.5 * ln * unit * unit:.3e} "
                                   f"below {_MIN_AREA * unit * unit:g}")


def _frame(e1, e2, n, ln) -> Mat3:
    """The frame [e1, e2, u], u = n/|n|."""
    (ax, ay, az), (bx, by, bz), (nx, ny, nz) = e1, e2, n
    return _new(Mat3, (ax, bx, nx / ln, ay, by, ny / ln, az, bz, nz / ln))


def _frame_inverse(e1, e2, n, ln) -> Mat3:
    """The inverse of [e1, e2, u]: its determinant is u . (e1 x e2) = |n|,
    so its rows are (e2 x u)/|n|, (u x e1)/|n| and u."""
    (ax, ay, az), (bx, by, bz) = e1, e2
    ux, uy, uz = n[0] / ln, n[1] / ln, n[2] / ln
    return _new(Mat3, ((by * uz - bz * uy) / ln, (bz * ux - bx * uz) / ln, (bx * uy - by * ux) / ln,
                       (uy * az - uz * ay) / ln, (uz * ax - ux * az) / ln, (ux * ay - uy * ax) / ln,
                       ux, uy, uz))


def _face_map(target_frame: Mat3, rest_inverse: Mat3, p0, q0) -> tuple[Mat3, tuple]:
    """The map x -> M x + t carrying the rest frame onto the target frame
    and the rest corner p0 onto the target corner q0."""
    linear = mat_mul(target_frame, rest_inverse)
    mx, my, mz = mat_vec(linear, p0)
    return linear, (q0[0] - mx, q0[1] - my, q0[2] - mz)


def blend_shapes(cset: CompatibleSet, weights: Sequence[float]) -> TriMesh:
    """Blend the targets at the given weights into one consistent mesh.

    The face maps of every target with a non-zero weight are pulled back
    to parameter space in one batch, the weights combine them face by face
    over all targets (an unweighted target's rows are zeros), and the
    blends are mapped forward in one batch. The patching least squares
    then finds the vertex positions (and per-face normal tips) whose face
    maps match those blends best. Zero weights reproduce the rest mesh
    and a one-hot weight vector reproduces that target (up to solver
    tolerance), because in both cases the blended face maps are already
    coherent and the least squares is exactly consistent.

    The normal tips are eliminated face by face, and the normal equations
    left on the vertices are solved by conjugate gradients with a Jacobi
    (diagonal) preconditioner, the three coordinates side by side and
    warm-started at the linear vertex blend rest + sum_k w_k (target_k -
    rest) (vertices no face references start at rest). A coordinate stops
    once its residual reaches ||r|| <= 1e-10 ||b||; one still above that
    after 20 iterations per unknown raises SolverNotConvergedError. The
    start is tested face by face, and the system is built only if a
    coordinate fails there, which zero and one-hot weights never do.

    Lengths are divided by the largest coordinate extent of the rest
    vertices that some face uses (1 if it is 0), so a set scaled by 2^k
    blends to the result scaled by 2^k bit for bit, and by any other
    factor up to roundoff, and a vertex no face uses changes no other
    vertex. Raises
    NonFiniteInputError for a NaN or infinite vertex or weight, and
    DegenerateTriangleError for a face area of at most 1e-12 extent^2;
    both name the mesh (rest or target k) and the index, and hold for a
    target at weight 0 too. A face map that transform_to_params cannot
    pull back raises its error named "target k face j: " when target k's
    weight is not 0 (at weight 0 it is not pulled back), and a blend that
    params_to_transform cannot map forward raises its error named "face j: ".
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
    used = np.bincount(faces.ravel(), minlength=nv) > 0
    unit = (float(np.ptp(rest[used], axis=0).max()) if nf else 0.0) or 1.0
    rest, targets = rest / unit, targets / unit

    p, q = _corners(rest, faces), _corners(targets, faces)
    rest_tri, target_tri = _triangle(*p, np.sqrt), _triangle(*q, np.sqrt)
    _check_areas(rest_tri[3], ["rest mesh"], unit)
    _check_areas(target_tri[3], [f"target {k}" for k in range(len(targets))], unit)
    frames_inv = _frame_inverse(*rest_tri)
    # only the weighted targets are pulled back; the others keep zero rows,
    # since a sum over the weighted targets alone would round differently
    live = np.flatnonzero(w)
    params = np.zeros((len(w), nf, 12))
    if live.size:
        e1, e2, n = ([c[live] for c in v] for v in target_tri[:3])
        linear, translation = _face_map(_frame(e1, e2, n, target_tri[3][live]), frames_inv,
                                        p[0], q[0][:, live])
        with _named_rows(lambda i: f"target {live[i // nf]} face {i % nf}"):
            params[live] = _transforms_to_params(
                np.stack(linear, axis=-1).reshape(-1, 3, 3),
                np.stack(translation, axis=-1).reshape(-1, 3), _NUMPY).reshape(len(live), nf, 12)
    blended = np.tensordot(w, params, axes=1)
    with _named_rows(lambda j: f"face {j}"):
        maps = _params_to_transforms(blended, _NUMPY)

    coef, rhs = _face_residuals(rest, faces, np.stack(frames_inv, axis=-1).reshape(nf, 3, 3),
                                *maps)
    start = rest + np.tensordot(w, targets - rest, axes=1)
    solved = _solve_vertices(coef, rhs, faces, rest, start, np.flatnonzero(~used)) * unit
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


def _corners(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Corner, coordinate and face (3, 3, ..., nf) of (..., nv, 3) vertices."""
    return np.ascontiguousarray(np.moveaxis(vertices[..., faces, :], (-2, -1), (0, 1)))


def _check_areas(ln: np.ndarray, names: list[str], unit: float) -> None:
    """The area rule on (n_meshes, nf) or (nf,) |n|, naming a face "{names[k]} face j"."""
    bad = np.flatnonzero(_degenerate(ln))
    if bad.size:
        k, j = divmod(int(bad[0]), ln.shape[-1])
        raise _area_error(ln.flat[bad[0]], unit, f"{names[k]} face {j}: ")


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
                    rest: np.ndarray, start: np.ndarray, unused: np.ndarray) -> np.ndarray:
    """Deformed vertex positions minimising the patching energy.

    Each normal tip enters only its own face's rows, so its block of the
    normal equations is a scalar and the tips drop out face by face (a
    Schur complement), leaving one sparse system on the vertices that the
    three coordinates share, built only if a coordinate fails the start
    test (run face by face) at start (nv, 3). The vertices in unused, which
    no face references, keep their rest position, whatever their start.
    """
    nv = len(rest)
    m = np.einsum("fri,frj->fij", coef, coef)
    mb = np.einsum("fri,frk->fik", coef, rhs)
    elim = m[:, :3, 3] / m[:, 3, 3, None]
    reduced = m[:, :3, :3] - elim[:, :, None] * m[:, None, 3, :3]
    b_faces = mb[:, :3] - elim[:, :, None] * mb[:, None, 3]
    b = _scatter(faces, b_faces, nv)
    b[unused] = rest[unused]
    x0 = start.copy()
    x0[unused] = rest[unused]
    x, met = _warm_start(reduced, b_faces, faces, b, x0)
    if met.all():
        return x
    return _block_pcg(*_vertex_matrix(reduced, faces, unused, nv), b, x0)


def _scatter(faces: np.ndarray, corner_rows: np.ndarray, nv: int) -> np.ndarray:
    """Sum (nf, 3, 3) rows, one per face corner, into (nv, 3) vertex rows."""
    return np.column_stack([np.bincount(faces.ravel(), weights=corner_rows[..., c].ravel(),
                                        minlength=nv) for c in range(3)])


def _warm_start(reduced: np.ndarray, b_faces: np.ndarray, faces: np.ndarray,
                b: np.ndarray, x0: np.ndarray):
    """_block_pcg's start x and, per coordinate, whether r = b - M x there,
    summed face by face (0 on unused vertices), meets its tolerance."""
    _, tol2, x = _start(b, x0)
    r = _scatter(faces, b_faces - reduced @ np.take(x, faces, axis=0), len(b))
    return x, np.vecdot(r, r, axis=0) <= tol2


def _start(b: np.ndarray, x0: np.ndarray):
    """Per coordinate b.b, the tolerance tol2 on r.r, and the start: x0, or 0 where tol2 is 0."""
    bb = np.vecdot(b, b, axis=0)
    tol2 = _CG_RTOL * _CG_RTOL * bb
    return bb, tol2, np.where(tol2 > 0.0, x0, 0.0)


def _vertex_matrix(reduced: np.ndarray, faces: np.ndarray, unused: np.ndarray, nv: int):
    """x -> M x and M's diagonal, M summed from reduced (and 1 per unused vertex)."""
    keys = np.concatenate((np.repeat(faces, 3, axis=1).ravel() * nv + np.tile(faces, 3).ravel(),
                           unused * (nv + 1)))
    pairs, slot = np.unique(keys, return_inverse=True)
    vals = np.bincount(slot, weights=np.concatenate((reduced.ravel(), np.ones(len(unused)))))
    rows, cols = np.divmod(pairs, nv)
    on_diag = rows == cols
    diag = np.zeros(nv)
    diag[rows[on_diag]] = vals[on_diag]
    return _coordinate_matmul(rows, cols, vals, nv), diag


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
    bb, tol2, x = _start(b, x0)
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
    FileFormatError with the offending line, and a file that is not UTF-8
    text one naming the file.
    """
    vertices: list[Vec3] = []
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    for ln, raw in enumerate(lines, start=1):
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
    """Write the `v`/`f` records of save_obj to an open text file, in one write."""
    fh.write("".join(chain((f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices),
                           (f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces))))

"""Blending, pose interpolation, and point deformation in parameter space.

All three operations follow the same pattern: pull transforms back to the
12-dimensional parameter space, combine there with ordinary vector-space
arithmetic, and map the result forward again. Whatever the weights, the
result is a valid orientation-preserving transform, and combinations of
members of one transform class stay in that class because each class is a
linear subspace of the parameter space.

Weights are taken as-is: nothing here normalises them, so extrapolation
(weights outside [0, 1], sums away from 1) is available by construction.
Callers who want interpolation semantics supply a partition of unity.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from .errors import OutOfRangeError
from .linalg3 import Vec3
from .param import (
    AffineParam12,
    HomAffine3,
    params_to_transform,
    transform_to_params,
    weighted_param_sum,
)

CURVE_KINDS = ("linear", "hermite", "bspline")


@dataclass(frozen=True)
class WeightedTransforms:
    """Transforms paired with arbitrary real weights (same length, n >= 1)."""

    transforms: tuple[HomAffine3, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.transforms) < 1:
            raise ValueError("need at least one transform")
        if len(self.transforms) != len(self.weights):
            raise ValueError(
                f"{len(self.transforms)} transforms but {len(self.weights)} weights")


def blend(wt: WeightedTransforms,
          refs: Sequence[AffineParam12] | None = None) -> HomAffine3:
    """Weighted combination of transforms through the parameter space.

    With `refs` given (one reference parameter point per transform), each
    pull-back takes the rotation-log branch closest to its reference, which
    keeps blends of motion tracks with large rotations coherent; the
    default uses the principal branch.
    """
    if refs is None:
        params = [transform_to_params(a) for a in wt.transforms]
    else:
        if len(refs) != len(wt.transforms):
            raise ValueError(f"{len(wt.transforms)} transforms but {len(refs)} references")
        params = [transform_to_params(a, ref=r) for a, r in zip(wt.transforms, refs)]
    return params_to_transform(weighted_param_sum(params, wt.weights))


def deform_point(point: Vec3,
                 probes: Sequence[HomAffine3],
                 weights_at_point: Sequence[float],
                 refs: Sequence[AffineParam12] | None = None) -> Vec3:
    """Move a point by the blend of probe transforms at its local weights."""
    blended = blend(WeightedTransforms(tuple(probes), tuple(weights_at_point)), refs=refs)
    return blended.apply(point)


@dataclass(frozen=True)
class PoseTrack:
    """Key poses in parameter form at strictly increasing times."""

    knots: tuple[AffineParam12, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(self.knots))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")
        if len(self.knots) != len(self.times):
            raise ValueError(f"{len(self.knots)} knots but {len(self.times)} times")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError(f"times must be strictly increasing, got {a} then {b}")


def interpolate_pose(track: PoseTrack, t: float, curve: str = "hermite") -> HomAffine3:
    """Evaluate an interpolation curve through the track at time t.

    Modes: `linear` and `hermite` (Catmull-Rom tangents) pass through every
    knot at its time; `bspline` is a clamped uniform cubic B-spline on the
    knot points, so it attains the endpoints but only approximates interior
    knots. All modes stay inside [first time, last time]; outside raises
    OutOfRangeError.
    """
    times = track.times
    if not times[0] <= t <= times[-1]:
        raise OutOfRangeError(f"t = {t!r} outside [{times[0]!r}, {times[-1]!r}]")
    vectors = [k.to_vector() for k in track.knots]
    if curve == "linear":
        out = _eval_linear(vectors, times, t)
    elif curve == "hermite":
        out = _eval_hermite(vectors, times, t)
    elif curve == "bspline":
        out = _eval_bspline(vectors, times, t)
    else:
        raise ValueError(f"unknown curve {curve!r}; expected one of {CURVE_KINDS}")
    return params_to_transform(AffineParam12.from_vector(out))


def _segment(times, t) -> int:
    i = bisect.bisect_right(times, t) - 1
    return min(max(i, 0), len(times) - 2)


def _eval_linear(vectors, times, t):
    i = _segment(times, t)
    s = (t - times[i]) / (times[i + 1] - times[i])
    a, b = vectors[i], vectors[i + 1]
    return [av + s * (bv - av) for av, bv in zip(a, b)]


def _eval_hermite(vectors, times, t):
    i = _segment(times, t)
    dt = times[i + 1] - times[i]
    s = (t - times[i]) / dt
    p0, p1 = vectors[i], vectors[i + 1]
    m0 = _tangent(vectors, times, i)
    m1 = _tangent(vectors, times, i + 1)
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return [h00 * a + h10 * dt * ma + h01 * b + h11 * dt * mb
            for a, ma, b, mb in zip(p0, m0, p1, m1)]


def _tangent(vectors, times, i):
    # central finite difference, one-sided at the ends
    lo = max(i - 1, 0)
    hi = min(i + 1, len(vectors) - 1)
    dt = times[hi] - times[lo]
    return [(b - a) / dt for a, b in zip(vectors[lo], vectors[hi])]


def _eval_bspline(vectors, times, t):
    n = len(vectors)
    degree = min(3, n - 1)
    # clamped uniform knot vector on [0, 1]
    interior = n - degree - 1
    knots = ([0.0] * (degree + 1)
             + [j / (interior + 1) for j in range(1, interior + 1)]
             + [1.0] * (degree + 1))
    u = (t - times[0]) / (times[-1] - times[0])
    # locate the knot span [knots[k], knots[k+1]) containing u
    k = degree
    last = len(knots) - degree - 2
    while k < last and u >= knots[k + 1]:
        k += 1
    # de Boor's algorithm on the 12-vector control points
    pts = [list(vectors[k - degree + j]) for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            lo = knots[k - degree + j]
            hi = knots[k + 1 + j - r]
            alpha = 0.0 if hi == lo else (u - lo) / (hi - lo)
            pts[j] = [(1.0 - alpha) * a + alpha * b for a, b in zip(pts[j - 1], pts[j])]
    return pts[degree]

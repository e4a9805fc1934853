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
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NonFiniteInputError, OutOfRangeError
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
    """Key poses in parameter form at strictly increasing, finite times.

    Construction prepares what every evaluation reuses: each knot flattened
    to its 12-vector, each knot's Catmull-Rom tangent (a central difference,
    one-sided at the ends) and the clamped B-spline knot vector. These
    derived fields take no part in repr, equality or hashing, so a track is
    still equal to any track with the same knots and times.

    Raises ValueError for fewer than two knots, mismatched lengths or times
    that do not increase, and NonFiniteInputError naming the first time or
    knot that holds a NaN or an infinity.
    """

    knots: tuple[AffineParam12, ...]
    times: tuple[float, ...]
    _rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _tangents: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _spline_knots: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(self.knots))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        n = len(self.knots)
        if n < 2:
            raise ValueError("need at least two knots")
        times = self.times
        if n != len(times):
            raise ValueError(f"{n} knots but {len(times)} times")
        for i, t in enumerate(times):
            if not math.isfinite(t):
                raise NonFiniteInputError(f"time {i} is not finite ({t!r})")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"times must be strictly increasing, got {a} then {b}")
        rows = tuple(k.to_vector() for k in self.knots)
        for i, row in enumerate(rows):
            if not all(map(math.isfinite, row)):
                raise NonFiniteInputError(f"knot {i} is not finite: {list(row)}")
        tangents = []
        for i in range(n):
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            dt = times[hi] - times[lo]
            tangents.append(tuple((b - a) / dt for a, b in zip(rows[lo], rows[hi])))
        degree = min(3, n - 1)
        interior = n - degree - 1
        spline_knots = ((0.0,) * (degree + 1)
                        + tuple(j / (interior + 1) for j in range(1, interior + 1))
                        + (1.0,) * (degree + 1))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_tangents", tuple(tangents))
        object.__setattr__(self, "_spline_knots", spline_knots)


def interpolate_pose(track: PoseTrack, t: float, curve: str = "hermite") -> HomAffine3:
    """Evaluate an interpolation curve through the track at time t.

    Modes: `linear` and `hermite` (Catmull-Rom tangents) pass through every
    knot at its time; `bspline` is a clamped uniform cubic B-spline on the
    knot points (degree n - 1 below four knots), so it attains the
    endpoints but only approximates interior knots. All modes stay inside
    [first time, last time]; outside raises OutOfRangeError.

    Each call reads the rows, tangents and knot vector the track prepared,
    so it costs one segment lookup, one combination of at most four
    12-vectors and the forward map.
    """
    times = track.times
    if not times[0] <= t <= times[-1]:
        raise OutOfRangeError(f"t = {t!r} outside [{times[0]!r}, {times[-1]!r}]")
    if curve == "linear":
        out = _eval_linear(track, t)
    elif curve == "hermite":
        out = _eval_hermite(track, t)
    elif curve == "bspline":
        out = _eval_bspline(track, t)
    else:
        raise ValueError(f"unknown curve {curve!r}; expected one of {CURVE_KINDS}")
    return params_to_transform(AffineParam12.from_vector(out))


def _segment(times, t) -> int:
    i = bisect.bisect_right(times, t) - 1
    return min(max(i, 0), len(times) - 2)


def _eval_linear(track, t):
    times = track.times
    i = _segment(times, t)
    s = (t - times[i]) / (times[i + 1] - times[i])
    a, b = track._rows[i], track._rows[i + 1]
    return [av + s * (bv - av) for av, bv in zip(a, b)]


def _eval_hermite(track, t):
    times = track.times
    i = _segment(times, t)
    dt = times[i + 1] - times[i]
    s = (t - times[i]) / dt
    s2 = s * s
    s3 = s2 * s
    w00 = 2.0 * s3 - 3.0 * s2 + 1.0
    w10 = (s3 - 2.0 * s2 + s) * dt
    w01 = -2.0 * s3 + 3.0 * s2
    w11 = (s3 - s2) * dt
    p0, p1 = track._rows[i], track._rows[i + 1]
    m0, m1 = track._tangents[i], track._tangents[i + 1]
    return [w00 * a + w10 * ma + w01 * b + w11 * mb
            for a, ma, b, mb in zip(p0, m0, p1, m1)]


def _eval_bspline(track, t):
    times = track.times
    knots = track._spline_knots
    n = len(times)
    degree = min(3, n - 1)
    u = (t - times[0]) / (times[-1] - times[0])
    # the knot span [knots[k], knots[k+1]) holding u; u = 1 takes the last one
    k = min(max(bisect.bisect_right(knots, u) - 1, degree), n - 1)
    # Cox-de Boor in its convex form: with u on a span end, every ratio is
    # exactly 0 or 1, so both track endpoints come out exact
    weights = [1.0]
    for r in range(1, degree + 1):
        nxt = [0.0] * (r + 1)
        for i, w in enumerate(weights):
            lo = knots[k - r + 1 + i]
            alpha = (u - lo) / (knots[k + 1 + i] - lo)
            nxt[i] += (1.0 - alpha) * w
            nxt[i + 1] += alpha * w
        weights = nxt
    rows = track._rows[k - degree:k + 1]
    out = [weights[0] * x for x in rows[0]]
    for w, row in zip(weights[1:], rows[1:]):
        out = [o + w * x for o, x in zip(out, row)]
    return out

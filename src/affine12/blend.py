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

Pose curves are prepared once per track (PoseTrack) and evaluated per call
(interpolate_pose). Every B-spline is cubic: tracks of two or three knots
are degree-elevated to cubic control rows that trace the same linear or
quadratic curve, so one unrolled Cox-de Boor evaluator serves all tracks.
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
    """Transforms paired with arbitrary finite real weights (same length, n >= 1).

    Raises ValueError for no transforms or mismatched lengths, and
    NonFiniteInputError naming the first weight that is NaN or infinite.
    """

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
        for i, w in enumerate(self.weights):
            if not math.isfinite(w):
                raise NonFiniteInputError(f"weight {i} is not finite ({w!r})")


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
    one-sided at the ends), and the cubic B-spline's control rows with their
    clamped uniform knot vector. The control rows are the knot rows for
    four or more knots; two knots P0, P1 become (P0, (2P0+P1)/3,
    (P0+2P1)/3, P1) and three knots P0, P1, P2 become (P0, (P0+2P1)/3,
    (2P1+P2)/3, P2), the degree elevation of the line and of the quadratic
    through them, on the knot vector (0, 0, 0, 0, 1, 1, 1, 1). These derived
    fields take no part in repr, equality or hashing, so a track is still
    equal to any track with the same knots and times.

    Raises ValueError for fewer than two knots, mismatched lengths or times
    that do not increase, and NonFiniteInputError naming the first time or
    knot that holds a NaN or an infinity, or for finite first and last
    times whose difference overflows.
    """

    knots: tuple[AffineParam12, ...]
    times: tuple[float, ...]
    _rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _tangents: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _spline_knots: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _spline_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

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
        # every curve divides by time differences, none wider than this one
        if not math.isfinite(times[-1] - times[0]):
            raise NonFiniteInputError(
                f"time span {times[0]!r} to {times[-1]!r} is not finite")
        rows = tuple(k.to_vector() for k in self.knots)
        for i, row in enumerate(rows):
            if not all(map(math.isfinite, row)):
                raise NonFiniteInputError(f"knot {i} is not finite: {list(row)}")
        tangents = []
        for i in range(n):
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            dt = times[hi] - times[lo]
            tangents.append(tuple((b - a) / dt for a, b in zip(rows[lo], rows[hi])))
        # short tracks become the same curve of degree 3 (degree elevation)
        if n == 2:
            p0, p1 = rows
            spline_rows = (p0, tuple((2.0 * a + b) / 3.0 for a, b in zip(p0, p1)),
                           tuple((a + 2.0 * b) / 3.0 for a, b in zip(p0, p1)), p1)
        elif n == 3:
            p0, p1, p2 = rows
            spline_rows = (p0, tuple((a + 2.0 * b) / 3.0 for a, b in zip(p0, p1)),
                           tuple((2.0 * b + c) / 3.0 for b, c in zip(p1, p2)), p2)
        else:
            spline_rows = rows
        interior = len(spline_rows) - 4
        spline_knots = ((0.0,) * 4
                        + tuple(j / (interior + 1) for j in range(1, interior + 1))
                        + (1.0,) * 4)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_tangents", tuple(tangents))
        object.__setattr__(self, "_spline_knots", spline_knots)
        object.__setattr__(self, "_spline_rows", spline_rows)


def interpolate_pose(track: PoseTrack, t: float, curve: str = "hermite") -> HomAffine3:
    """Evaluate an interpolation curve through the track at time t.

    Modes: `linear` and `hermite` (Catmull-Rom tangents) pass through every
    knot at its time; `bspline` is a clamped uniform cubic B-spline on the
    knot points (for two or three knots, the line or quadratic through them,
    evaluated as its cubic elevation), so it attains the endpoints exactly
    but only approximates interior knots. All modes stay inside
    [first time, last time]; outside raises OutOfRangeError.

    Each call reads the rows, tangents and control rows the track prepared,
    so it costs one segment lookup, at most nine basis ratios, one fused
    combination of at most four 12-vectors and the forward map. Whichever
    the mode, the curve part costs about half as much as the forward map
    (about 3 against 6.5 µs with CPython 3.11 on a 2-vCPU Intel Xeon).
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
    rows = track._spline_rows
    u = (t - times[0]) / (times[-1] - times[0])
    # the knot span [knots[k], knots[k+1]) holding u (k >= 3, as u >= 0);
    # u = 1 takes the last one
    k = min(bisect.bisect_right(knots, u) - 1, len(rows) - 1)
    km2, km1, k0, k1, k2, k3 = knots[k - 2:k + 4]
    # Cox-de Boor in its convex form, unrolled for degree 3: with u on a span
    # end, every ratio is exactly 0 or 1, so both track endpoints come out exact
    d0, d1 = u - k0, u - km1
    a = d0 / (k1 - k0)
    w0, w1 = 1.0 - a, a
    a = d1 / (k1 - km1)
    b = d0 / (k2 - k0)
    v0, v1, v2 = (1.0 - a) * w0, a * w0 + (1.0 - b) * w1, b * w1
    a = (u - km2) / (k1 - km2)
    b = d1 / (k2 - km1)
    c = d0 / (k3 - k0)
    w0, w1, w2, w3 = (1.0 - a) * v0, a * v0 + (1.0 - b) * v1, b * v1 + (1.0 - c) * v2, c * v2
    return [w0 * p + w1 * q + w2 * r + w3 * s
            for p, q, r, s in zip(*rows[k - 3:k + 1])]

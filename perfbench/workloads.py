"""The four workloads, the envelope probe, and the check of each output.

Each workload is built from a seed and drives the package's public API the
way a caller does. `op(i)` runs operation i and returns what the program
returned (an exception counts as a returned value); `check(i, out)` then
decides, outside the timed region, which of the operation's items failed.
Operations repeat with period `cycle`: op(i) and op(i + cycle) do the same
work on the same inputs. A workload whose unit of work spans several
operations says so in `ops_per_pass` (1 for the others).
An item fails when the program raised, returned a non-finite number, or
returned a result over tolerance on a valid input.

The envelope probe round-trips valid inputs far outside the protocol's
scale range once per run, outside the timed loop. Many of them fail today
(ROADMAP item 5); the probe reports them in the record line and in the
per-layer metric `param.envelope_ok_frac` instead of in the workloads'
failure counts, so every timed operation is one that must succeed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from affine12 import (
    CompatibleSet,
    HomAffine3,
    PoseTrack,
    TriMesh,
    Vec3,
    WeightedTransforms,
    blend,
    blend_shapes,
    cli,
    interpolate_pose,
    params_to_transform,
    transform_to_params,
)

from . import inputs

ROUNDTRIP_TOL = 1e-20      # criterion 1: squared Frobenius round-trip error
ENVELOPE_REL_TOL = 1e-8    # relative Frobenius round-trip error, envelope inputs
ENVELOPE_ITEMS = 1000      # envelope probe size; a tenth are the fixed ENVELOPE_CASES
MESH_DEFECT_TOL = 1e-6     # criterion 6: relative vertex defect
KNOT_TOL = 1e-20           # squared Frobenius, sample at a knot time vs its keyframe
# Frame-to-frame jump (3x4 Frobenius) of the blended pose allowed per time
# unit of the step. Smooth motion stayed at or below 1.5 on 16 seeds; a
# 2*pi branch flip of the lightest blend input jumped by 5.5 or more.
JUMP_PER_UNIT = 4.0


@dataclass
class Outcome:
    """Check result of one operation."""

    items: int
    failed: int = 0
    errs: list[float] = field(default_factory=list)  # relative errors of checked items


def sq_dist(a, b) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def rel_dist(want, got) -> float:
    """Relative Frobenius distance, scaled first so no square over- or underflows."""
    scale = max(abs(v) for v in want) or 1.0
    num = math.sqrt(sum(((g - w) / scale) ** 2 for w, g in zip(want, got)))
    return num / math.sqrt(sum((w / scale) ** 2 for w in want))


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _params_chain(transforms):
    """Parameter points on consecutive consistent branches (ref = previous knot)."""
    out, prev = [], None
    for a in transforms:
        prev = transform_to_params(a) if prev is None else transform_to_params(a, ref=prev)
        out.append(prev)
    return out


class Convert:
    """A stream of transforms sent through the forward map of the inverse map."""

    name = "convert"
    ops_per_pass = 1

    def __init__(self, seed: int, small: bool = False, workdir: str | None = None):
        n, self.chunk = (800, 100) if small else (10000, 500)
        stream = inputs.transform_stream(seed, n)
        self.rows = [r for r, _ in stream]
        self.kinds = [k for _, k in stream]
        self.transforms = [HomAffine3.from_rows(r) for r in self.rows]
        self.cycle = n // self.chunk
        self.failures: Counter = Counter()

    def items(self, i: int) -> range:
        lo = (i % self.cycle) * self.chunk
        return range(lo, lo + self.chunk)

    def op(self, i: int):
        lo = (i % self.cycle) * self.chunk
        out = []
        for a in self.transforms[lo:lo + self.chunk]:
            try:
                out.append(params_to_transform(transform_to_params(a)))
            except Exception as exc:  # an item result; check() counts it failed
                out.append(exc)
        return out

    def check(self, i: int, out) -> Outcome:
        res = Outcome(items=len(out))
        for k, got in zip(self.items(i), out):
            want, kind = self.rows[k], self.kinds[k]
            reason = None
            if isinstance(got, Exception):
                reason = type(got).__name__
            else:
                rows = got.to_rows()
                if not finite(rows):
                    reason = "non-finite"
                else:
                    res.errs.append(rel_dist(want, rows))
                    if not sq_dist(want, rows) <= ROUNDTRIP_TOL:
                        reason = "over-tolerance"
            if reason is not None:
                res.failed += 1
                self.failures[f"{kind}/{reason}"] += 1
        return res

    def close(self) -> None:
        pass


def envelope_probe(seed: int, n: int = ENVELOPE_ITEMS) -> dict:
    """Round-trip n envelope inputs once each: attempted, failed, and why by case."""
    cases = inputs.envelope_inputs(np.random.default_rng(seed + 3), n)
    failures: Counter = Counter()
    for rows, case in cases:
        try:
            got = params_to_transform(transform_to_params(HomAffine3.from_rows(rows))).to_rows()
        except Exception as exc:  # an item result, counted below
            failures[f"{case}/{type(exc).__name__}"] += 1
            continue
        if not finite(got):
            failures[f"{case}/non-finite"] += 1
        elif not rel_dist(rows, got) <= ENVELOPE_REL_TOL:
            failures[f"{case}/over-tolerance"] += 1
    return {"attempted": len(cases), "failed": sum(failures.values()),
            "failures": dict(sorted(failures.items()))}


class Animate:
    """Pose tracks sampled frame by frame, plus one 4-way blend per frame."""

    name = "animate"
    ops_per_pass = 1
    CURVES = ("linear", "hermite", "bspline")
    WEIGHTS = (0.3, 0.25, 0.25, 0.2)

    def __init__(self, seed: int, small: bool = False, workdir: str | None = None):
        n_tracks, self.steps = (6 if small else 32), 16
        data = inputs.pose_tracks(seed, n_tracks)
        self.keyframes = [d["keyframes"] for d in data]
        self.knot_index = [{t: k for k, t in enumerate(d["times"])} for d in data]
        self.curves = [self.CURVES[j % 3] for j in range(n_tracks)]
        self.tracks = [
            PoseTrack(tuple(_params_chain([HomAffine3.from_rows(r) for r in d["keyframes"]])),
                      d["times"])
            for d in data]
        self.cycle = inputs.TRACK_SPAN * self.steps + 1
        # The blend references follow each sampled pose from frame to frame
        # on its consistent branch, as a caller tracking the curve would.
        refs = [tr.knots[0] for tr in self.tracks[:4]]
        self.refs = []
        for f in range(self.cycle):
            t = self.time(f)
            refs = [transform_to_params(interpolate_pose(tr, t, c), ref=r)
                    for tr, c, r in zip(self.tracks[:4], self.curves, refs)]
            self.refs.append(tuple(refs))
        self.prev: tuple[int, tuple] | None = None
        self.failures: Counter = Counter()
        self.max_jump_per_unit = 0.0

    def time(self, i: int) -> float:
        return (i % self.cycle) / self.steps

    def op(self, i: int):
        t = self.time(i)
        try:
            samples = [interpolate_pose(tr, t, c) for tr, c in zip(self.tracks, self.curves)]
            pose = blend(WeightedTransforms(tuple(samples[:4]), self.WEIGHTS),
                         refs=self.refs[i % self.cycle])
        except Exception as exc:  # the frame fails; check() counts it
            return exc
        return samples, pose

    def check(self, i: int, out) -> Outcome:
        res = Outcome(items=1)
        prev, self.prev = self.prev, None
        reason = None
        if isinstance(out, Exception):
            reason = type(out).__name__
        else:
            samples, pose = out
            rows = [s.to_rows() for s in samples]
            pose_rows = pose.to_rows()
            if not all(finite(r) for r in rows) or not finite(pose_rows):
                reason = "non-finite"
            else:
                t = self.time(i)
                for j, r in enumerate(rows):
                    k = self.knot_index[j].get(t)
                    if k is None or self.curves[j] == "bspline":
                        continue
                    want = self.keyframes[j][k]
                    if sq_dist(want, r) > KNOT_TOL:
                        reason = "knot-mismatch"
                    res.errs.append(rel_dist(want, r))
                if prev is not None and prev[0] == i - 1 and i % self.cycle:
                    jump = math.sqrt(sq_dist(prev[1], pose_rows)) * self.steps
                    self.max_jump_per_unit = max(self.max_jump_per_unit, jump)
                    if jump > JUMP_PER_UNIT:
                        reason = reason or "jump"
                self.prev = (i, pose_rows)
        if reason is not None:
            res.failed = 1
            self.failures[reason] += 1
        return res

    def close(self) -> None:
        pass


class Meshblend:
    """One compatible set queried with a fixed cycle of weight vectors."""

    name = "meshblend"
    ops_per_pass = 1

    def __init__(self, seed: int, small: bool = False, workdir: str | None = None):
        grid = (16, 16) if small else (20, 20)
        vertices, faces = inputs.warped_grid(seed, *grid)
        targets = inputs.mesh_targets(seed, vertices)
        self.expected = [vertices] + targets
        self.rest = TriMesh([Vec3(*v) for v in vertices.tolist()], faces)
        self.cset = CompatibleSet(self.rest, [
            TriMesh([Vec3(*v) for v in t.tolist()], list(faces)) for t in targets])
        self.weights = inputs.weight_sequence(seed, len(targets))
        self.cycle = len(self.weights)
        self.failures: Counter = Counter()

    def reference(self, w) -> np.ndarray | None:
        """Expected vertices for the zero and one-hot queries, else None."""
        nonzero = [k for k, x in enumerate(w) if x != 0.0]
        if not nonzero:
            return self.expected[0]
        if len(nonzero) == 1 and w[nonzero[0]] == 1.0:
            return self.expected[1 + nonzero[0]]
        return None

    def op(self, i: int):
        try:
            return blend_shapes(self.cset, self.weights[i % len(self.weights)])
        except Exception as exc:  # the query fails; check() counts it
            return exc

    def check(self, i: int, out) -> Outcome:
        res = Outcome(items=1)
        reason = None
        if isinstance(out, Exception):
            reason = type(out).__name__
        else:
            got = np.array(out.vertices, dtype=float)
            want = self.reference(self.weights[i % len(self.weights)])
            if not np.isfinite(got).all():
                reason = "non-finite"
            elif want is not None:
                scale = np.maximum(1.0, np.linalg.norm(want, axis=1))
                defect = np.linalg.norm(got - want, axis=1) / scale
                res.errs = defect.tolist()
                if not defect.max() <= MESH_DEFECT_TOL:
                    reason = "over-tolerance"
        if reason is not None:
            res.failed = 1
            self.failures[reason] += 1
        return res

    def close(self) -> None:
        pass


class CliBatch:
    """`param`, `unparam`, `blend` and `interp` run in-process on documents.

    Operation i runs command i % 4, so four consecutive operations make one
    pass; `unparam` reads the document `param` wrote.
    """

    name = "cli_batch"
    cycle = ops_per_pass = 4
    MIX = (("ordinary", 0.94), ("near_pi", 0.02), ("small_angle", 0.02), ("confluent", 0.02))
    WEIGHTS = "0.4,0.3,0.2,0.1"
    CURVE = "hermite"

    def __init__(self, seed: int, small: bool = False, workdir: str | None = None):
        n, samples = (50, 20) if small else (400, 100)
        self.dir = tempfile.mkdtemp(prefix="cli_batch-", dir=workdir)
        self.rows = [r for r, _ in inputs.transform_stream(seed, n, mix=self.MIX)]
        self.transforms = transforms = [HomAffine3.from_rows(r) for r in self.rows]
        track_data = inputs.pose_tracks(seed + 7, 1)[0]
        knots = _params_chain([HomAffine3.from_rows(r) for r in track_data["keyframes"]])
        self.track = PoseTrack(tuple(knots), track_data["times"])
        path = {k: os.path.join(self.dir, f"{k}.json")
                for k in ("doc", "group", "track", "param", "unparam", "blend", "interp")}
        self.path = path
        _dump(path["doc"], {"transforms": [{"matrix": list(r)} for r in self.rows]})
        _dump(path["group"], {"transforms": [{"matrix": list(r)} for r in self.rows[:4]]})
        _dump(path["track"], {"knots": [{"time": t, "param": list(p.to_vector())}
                                        for t, p in zip(self.track.times, knots)]})
        self.argvs = [
            ["param", path["doc"], "-o", path["param"]],
            ["unparam", path["param"], "-o", path["unparam"]],
            ["blend", path["group"], "--weights", self.WEIGHTS, "-o", path["blend"]],
            ["interp", path["track"], "--samples", str(samples), "--curve", self.CURVE,
             "-o", path["interp"]],
        ]
        # Library results for the same conversions: the check wants them bit for bit.
        self.params = [transform_to_params(a) for a in transforms]
        self.group = transforms[:4]
        self.weights = tuple(float(w) for w in self.WEIGHTS.split(","))
        t0, t1 = self.track.times[0], self.track.times[-1]
        self.sample_times = [t0 + (t1 - t0) * k / (samples - 1) for k in range(samples)]
        self.expected = {
            "param": [("param", list(p.to_vector())) for p in self.params],
            "unparam": [("matrix", list(params_to_transform(p).to_rows())) for p in self.params],
            "blend": [("matrix", list(blend(WeightedTransforms(tuple(self.group),
                                                               self.weights)).to_rows()))],
            "interp": [("matrix", list(interpolate_pose(self.track, t, self.CURVE).to_rows()))
                       for t in self.sample_times],
        }
        self.failures: Counter = Counter()

    def op(self, i: int):
        try:
            return cli.main(self.argvs[i % self.cycle])
        except Exception as exc:  # the command fails; check() counts it
            return exc

    def check(self, i: int, out) -> Outcome:
        res = Outcome(items=1)
        key = self.argvs[i % self.cycle][0]
        reason = None
        if out != 0:
            reason = f"{key}:{out if isinstance(out, int) else type(out).__name__}"
        elif not os.path.exists(self.path[key]):
            reason = f"{key}:no-output"
        else:
            got = _load_entries(self.path[key])
            if got != self.expected[key]:
                reason = f"{key}:mismatch"
            if key == "unparam":
                res.errs = [rel_dist(w, g) for w, (_, g) in zip(self.rows, got)]
        # Checked outputs are removed, so a command that writes nothing is
        # caught; param's output stays until unparam has read it.
        for stale in {"param": (), "unparam": ("param", "unparam")}.get(key, (key,)):
            if os.path.exists(self.path[stale]):
                os.remove(self.path[stale])
        if reason is not None:
            res.failed = 1
            self.failures[reason] += 1
        return res

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _dump(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _load_entries(path: str) -> list[tuple[str, list[float]]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [next(iter(e.items())) for e in doc["transforms"]]


WORKLOADS = {w.name: w for w in (Convert, Animate, Meshblend, CliBatch)}

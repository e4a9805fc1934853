"""Traced run: spans around the benchmark's calls into each layer.

A span is (name, parent, start, end) in nanoseconds; spans stay in memory
and are written out when the run ends. Stage timings come from replaying
each layer's public stage functions, on the same inputs, in the order the
pipeline calls them. The part of an end-to-end call that no public stage
covers is reported as that layer's glue.

Per-call times have the cost of an empty timer pair subtracted.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

import numpy as np

from affine12 import (
    Affine12Error,
    HomAffine3,
    WeightedTransforms,
    blend,
    blend_shapes,
    cli,
    interpolate_pose,
    params_to_transform,
    polar_decompose,
    transform_to_params,
)
from affine12.expmap import exp_so3, exp_sym3_with_eig
from affine12.linalg3 import gram, mat_mul_sym, sym_eigenvalues
from affine12.logmap import consistent_log_so3, inv_sqrt_from_log, log_so3, log_spd_half_gram
from affine12.meshblend import face_frame, per_face_affine
from affine12.oracle import matfun_diag

from . import inputs

now = time.perf_counter_ns

# Stages of the inverse map, in pipeline order; their sum is what the
# public stages cover of transform_to_params.
INVERSE_STAGES = ("inv/linalg3.gram", "inv/linalg3.sym_eigenvalues", "inv/logmap.log_spd_half_gram",
                  "inv/logmap.inv_sqrt_from_log", "inv/linalg3.mat_mul_sym", "inv/logmap.log_so3")
FORWARD_STAGES = ("fwd/linalg3.sym_eigenvalues", "fwd/expmap.exp_sym3_with_eig",
                  "fwd/expmap.exp_so3", "fwd/linalg3.mat_mul_sym")

# Errors a replayed stage may raise on an input the full call handles (or
# fails on) differently; the item is then left out of the stage timings.
_REPLAY_ERRORS = (Affine12Error, ArithmeticError, ValueError)


class Tracer:
    """In-memory span store with integer name ids."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, nid: int, t0: int, t1: int, parent: int = -1) -> int:
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        return len(self.name) - 1

    def open(self, name: str, parent: int = -1) -> int:
        return self.add(self.nid(name), now(), 0, parent)

    def close(self, idx: int) -> None:
        self.end[idx] = now()

    def durations(self) -> dict[str, np.ndarray]:
        """Span durations (ns) grouped by name."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return {n: dur[names == i] for i, n in enumerate(self.names)}

    def self_times(self) -> dict[str, float]:
        """Mean self time per name: duration minus the time its children cover."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        return {n: float(own[names == i].mean()) for i, n in enumerate(self.names)
                if (names == i).any()}

    def dump(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, np.int32),
                            parent=np.frombuffer(self.parent, np.int32),
                            start=np.frombuffer(self.start, np.int64),
                            end=np.frombuffer(self.end, np.int64))


def timer_cost_ns(reps: int = 20000) -> float:
    """Median cost of an empty `t0 = now(); t1 = now()` pair."""
    costs = []
    for _ in range(reps):
        t0 = now()
        t1 = now()
        costs.append(t1 - t0)
    costs.sort()
    return float(costs[len(costs) // 2])


def _angle(x) -> float:
    """Principal rotation angle of a rotation-log generator (any branch)."""
    theta = math.sqrt(sum(v * v for v in x)) % (2.0 * math.pi)
    return min(theta, 2.0 * math.pi - theta)


def _nearest_knot(track, t: float):
    return track.knots[min(range(len(track.times)), key=lambda k: abs(track.times[k] - t))]


def _orth_defect(r) -> float:
    """||R^T R - I||_F of a row-major 3x3 tuple."""
    m = np.array(r, dtype=float).reshape(3, 3)
    return float(np.linalg.norm(m.T @ m - np.eye(3)))


class Probe:
    """Traced versions of each workload's operation plus the stage replays."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.ids = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.orth_defect_max = 0.0
        self.strain_max = 0.0

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = self.tr.nid(name)
        return nid

    # -- param, linalg3, logmap, expmap ----------------------------------------

    def core(self, transforms, refs=None, parent: int = -1) -> list:
        """transform_to_params then params_to_transform per item, with stage replays.

        Returns what the forward map returned (or the exception raised) per
        item, for the workload's check.
        """
        add, t2p_id, p2t_id = self.tr.add, self._id("param.transform_to_params"), \
            self._id("param.params_to_transform")
        out = []
        for k, a in enumerate(transforms):
            ref = None if refs is None else refs[k]
            try:
                t0 = now()
                p = transform_to_params(a) if ref is None else transform_to_params(a, ref=ref)
                t1 = now()
                add(t2p_id, t0, t1, parent)
                t0 = now()
                b = params_to_transform(p)
                t1 = now()
                add(p2t_id, t0, t1, parent)
            except Exception as exc:  # an item result; the workload's check counts it
                out.append(exc)
                continue
            out.append(b)
            self._replay(a.linear, p, parent)
            c = self.counts
            c["core.items"] += 1
            angle = _angle(p.rotation)
            c["core.near_pi"] += math.pi - angle < inputs.NEAR_PI_GAP
            c["core.small_angle"] += angle < inputs.SMALL_ANGLE
        return out

    def _replay(self, lin, p, parent: int) -> None:
        add, i = self.tr.add, self._id
        try:
            t0 = now()
            g = gram(lin)
            t1 = now()
            eig = sym_eigenvalues(g)
            t2 = now()
            half_log = log_spd_half_gram(g, eig)
            t3 = now()
            s_inv = inv_sqrt_from_log(half_log, eig)
            t4 = now()
            mat_mul_sym(lin, s_inv)
            t5 = now()
            rot, _ = polar_decompose(lin)
            t6 = now()
            log_so3(rot)
            t7 = now()
        except _REPLAY_ERRORS:
            self.counts["core.replay_skipped"] += 1
            return
        for name, u0, u1 in zip(INVERSE_STAGES, (t0, t1, t2, t3, t4, t6), (t1, t2, t3, t4, t5, t7)):
            add(i(name), u0, u1, parent)
        self.orth_defect_max = max(self.orth_defect_max, _orth_defect(rot))
        y = p.stretch
        t0 = now()
        e = sym_eigenvalues(y)
        t1 = now()
        s = exp_sym3_with_eig(y, e)
        t2 = now()
        q = exp_so3(p.rotation)
        t3 = now()
        mat_mul_sym(q, s)
        t4 = now()
        for name, u0, u1 in zip(FORWARD_STAGES, (t0, t1, t2, t3), (t1, t2, t3, t4)):
            add(i(name), u0, u1, parent)
        self.counts["core.confluent"] += e[0] - e[2] < inputs.CONFLUENT_SPREAD

    # -- workloads ----------------------------------------------------------------

    def convert_op(self, wl, i: int):
        op = self.tr.open("convert.op")
        out = self.core([wl.transforms[k] for k in wl.items(i)], parent=op)
        self.tr.close(op)
        return out

    def animate_op(self, wl, i: int):
        tr, add, ids = self.tr, self.tr.add, self._id
        op = tr.open("animate.op")
        t = wl.time(i)
        try:
            samples = []
            for track, curve in zip(wl.tracks, wl.curves):
                t0 = now()
                samples.append(interpolate_pose(track, t, curve))
                t1 = now()
                add(ids(f"blend.interpolate_pose.{curve}"), t0, t1, op)
            refs = list(wl.refs[i % wl.cycle])
            group = WeightedTransforms(tuple(samples[:4]), wl.WEIGHTS)
            t0 = now()
            pose = blend(group, refs=refs)
            t1 = now()
            add(ids("blend.blend"), t0, t1, op)
        except Exception as exc:  # the frame fails; the workload's check counts it
            tr.close(op)
            return exc
        tr.close(op)
        replay = tr.open("animate.replay")
        # forward map alone, on the parameter point each curve evaluated
        p2t_id = ids("curve/param.params_to_transform")
        for j, (track, s) in enumerate(zip(wl.tracks, samples)):
            p = transform_to_params(s, ref=refs[j] if j < 4 else _nearest_knot(track, t))
            t0 = now()
            params_to_transform(p)
            t1 = now()
            add(p2t_id, t0, t1, replay)
        cons_id = ids("logmap.consistent_log_so3")
        for s, ref in zip(samples[:4], refs):
            rot, _ = polar_decompose(s.linear)
            t0 = now()
            x = consistent_log_so3(rot, ref.rotation)
            t1 = now()
            add(cons_id, t0, t1, replay)
            principal = log_so3(rot)
            self.counts["blend.pullbacks"] += 1
            shift = max(abs(u - v) for u, v in zip(x, principal))
            self.counts["blend.branch_shifts"] += shift > 1e-9
        self.core(samples[:4], refs=refs, parent=replay)
        tr.close(replay)
        return samples, pose

    def meshblend_op(self, wl, i: int):
        tr, add, ids = self.tr, self.tr.add, self._id
        weights = wl.weights[i % len(wl.weights)]
        op = tr.open("meshblend.blend_shapes")
        try:
            out = blend_shapes(wl.cset, weights)
        except Exception as exc:  # the query fails; the workload's check counts it
            tr.close(op)
            return exc
        tr.close(op)
        replay = tr.open("meshblend.replay")
        rest, targets = wl.cset.rest, wl.cset.targets
        frame_id, pfa_id = ids("meshblend.face_frame"), ids("meshblend.per_face_affine")
        pull_id, blend_id = ids("meshblend.pullback"), ids("meshblend.face_blend")
        face_maps_sample = []
        for j in range(len(rest.faces)):
            rest_tri = rest.face_points(j)
            t0 = now()
            face_frame(*rest_tri)
            t1 = now()
            add(frame_id, t0, t1, replay)
            maps = []
            for tgt in targets:
                t0 = now()
                maps.append(per_face_affine(rest_tri, tgt.face_points(j)))
                t1 = now()
                add(pfa_id, t0, t1, replay)
            for a in maps:
                t0 = now()
                transform_to_params(a)
                t1 = now()
                add(pull_id, t0, t1, replay)
            t0 = now()
            target = blend(WeightedTransforms(tuple(maps), weights))
            t1 = now()
            add(blend_id, t0, t1, replay)
            got = per_face_affine(rest_tri, out.face_points(j))
            self.strain_max = max(self.strain_max, math.sqrt(
                sum((u - v) ** 2 for u, v in zip(got.to_rows(), target.to_rows()))))
            if len(face_maps_sample) < 300:
                face_maps_sample.extend(maps)
        self.core(face_maps_sample, parent=replay)
        tr.close(replay)
        self.counts["meshblend.queries"] += 1
        return out

    def cli_op(self, wl, i: int):
        tr, add, ids = self.tr, self.tr.add, self._id
        key = wl.argvs[i % wl.cycle][0]
        op = tr.open("cli.op")
        t0 = now()
        try:
            code = cli.main(wl.argvs[i % wl.cycle])
        except Exception as exc:  # the command fails; the workload's check counts it
            code = exc
        t1 = now()
        add(ids(f"cli.{key}"), t0, t1, op)
        tr.close(op)
        # the library calls behind the same command, on the same inputs
        replay = tr.open("cli.replay")
        if key == "param":
            t0 = now()
            entries = cli.load_transforms(wl.path["doc"])
            t1 = now()
            add(ids("cli.load_transforms"), t0, t1, replay)
            t0 = now()
            [transform_to_params(a) for a in entries]
        elif key == "unparam":
            t0 = now()
            [params_to_transform(p) for p in wl.params]
        elif key == "blend":
            t0 = now()
            blend(WeightedTransforms(tuple(wl.group), wl.weights))
        else:
            t0 = now()
            [interpolate_pose(wl.track, t, wl.CURVE) for t in wl.sample_times]
        t1 = now()
        add(ids(f"cli.library.{key}"), t0, t1, replay)
        if key == "param":
            self.core(wl.transforms[:200], parent=replay)
        tr.close(replay)
        return code

    # -- baselines ------------------------------------------------------------

    def baselines(self, seed: int, n: int = 1000) -> dict[str, float]:
        """Diagonalisation and library baselines on convert-protocol inputs (ns)."""
        from scipy.linalg import polar
        from scipy.spatial.transform import Rotation

        rows = inputs.criterion1(np.random.default_rng(seed), n)
        transforms = [HomAffine3.from_rows(r) for r in rows]
        stretch_logs = [transform_to_params(a).stretch for a in transforms]
        grams = [gram(a.linear) for a in transforms]
        lin = np.array(rows).reshape(n, 3, 4)[:, :, :3]
        gram_stack = np.transpose(lin, (0, 2, 1)) @ lin
        rot_stack = np.array([polar_decompose(a.linear)[0] for a in transforms]).reshape(n, 3, 3)

        def per_call(fn, args, reps=3):
            best = []
            for _ in range(reps):
                t0 = now()
                for x in args:
                    fn(x)
                best.append((now() - t0) / len(args))
            return float(np.median(best))

        def per_elem(fn, reps=5):
            runs = []
            for _ in range(reps):
                t0 = now()
                fn()
                runs.append((now() - t0) / n)
            return float(np.median(runs))

        return {
            "baseline.jacobi_exp.ns": per_call(lambda y: matfun_diag(y, "exp"), stretch_logs),
            "baseline.jacobi_log.ns": per_call(lambda g: matfun_diag(g, "log"), grams),
            "baseline.numpy_eigh.ns_per_elem": per_elem(lambda: np.linalg.eigh(gram_stack)),
            "baseline.scipy_rotvec.ns_per_elem": per_elem(
                lambda: Rotation.from_matrix(rot_stack).as_rotvec()),
            "baseline.scipy_polar.ns": per_call(polar, list(lin[:200])),
        }

"""Print every output of one input cycle of the benchmark workloads, bit for bit.

    PYTHONPATH=src python tools/digest.py > digest.txt

For seeds 5 and 23 it runs one cycle of each `perfbench.workloads` class
(convert, animate, meshblend, cli_batch), queries the meshblend set at
four more weight vectors that mix zero and non-zero weights, samples each
animate track at all of the cycle's frame times in one `sample_poses` call
(`sample_poses`, whose lines must equal the animate section's `frame i
sample j` lines; an older library without it gets one ImportError line a
seed), takes the single-face forms `face_frame` of every rest face and
`per_face_affine` of every (target, face) pair of the meshblend set
(`faces`), round-trips the envelope inputs of the probe, and sends each
of them through `affine12.batch` as a one-row batch, inverse map then
forward map. Then the convert cycle's 10 000 transforms go through both
batch maps as one batch (`batch_cycle`, whose lines have the labels of
the convert section's). Last, the same transforms get seeded branch
references (multi-turn, log-uniform up to 1e7 rad, gaps of exactly +pi
and -pi, zero, and every thousandth one out of range: 1e17, inf, NaN or
just above 1e7); their parameters go through the scalar
`transform_to_params(ref=)` (`convert_refs`) and through the batch
inverse map (`batch_refs`), called once over the cycle and once more
past each row that raises. The two sections' lines after the section
name must be equal. The first line is the `affine12.__file__` in use
(PYTHONPATH decides it; without one, the checkout's `src`). Then each
output is one line: its float values as `float.hex`, the SHA-256 of a
CLI document followed by one line per document entry, or the error's
type and message. So

    diff <(PYTHONPATH=<other checkout>/src python tools/digest.py) \\
         <(PYTHONPATH=src python tools/digest.py)

lists exactly the outputs that differ between two versions of the library.
The CLI documents are written to a temporary directory that is removed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (5, 23)

# after PYTHONPATH, so a library given there is the one measured
sys.path += [ROOT, os.path.join(ROOT, "src")]

from perfbench import THREAD_VARS  # noqa: E402  (no numpy import)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import affine12  # noqa: E402
from affine12 import (  # noqa: E402
    AffineParam12,
    HomAffine3,
    params_to_transform,
    transform_to_params,
)
from affine12.batch import params_to_transforms, transforms_to_params  # noqa: E402
from affine12.logmap import _AXIS_FLOOR  # noqa: E402
from affine12.meshblend import blend_shapes, face_frame, per_face_affine  # noqa: E402
from perfbench import inputs  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ENVELOPE_ITEMS,
    Animate,
    CliBatch,
    Convert,
    Meshblend,
)


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def convert(seed: int):
    wl = Convert(seed)
    for i in range(wl.cycle):
        for k, out in zip(wl.items(i), wl.op(i)):
            yield f"item {k}", _error(out) if isinstance(out, Exception) else _hex(out.to_rows())


def animate(seed: int):
    wl = Animate(seed)
    for i in range(wl.cycle):
        out = wl.op(i)
        if isinstance(out, Exception):
            yield f"frame {i}", _error(out)
            continue
        samples, pose = out
        for j, s in enumerate(samples):
            yield f"frame {i} sample {j}", _hex(s.to_rows())
        yield f"frame {i} blend", _hex(pose.to_rows())


def animate_batch(seed: int):
    """The animate cycle's samples again, each track sampled at every frame
    time in one sample_poses call, in the animate section's order."""
    try:
        from affine12 import sample_poses
    except ImportError as exc:   # a library from before sample_poses
        yield "import", _error(exc)
        return
    wl = Animate(seed)
    times = [wl.time(i) for i in range(wl.cycle)]
    rows = []
    for j, (track, curve) in enumerate(zip(wl.tracks, wl.curves)):
        try:
            rows.append(np.dstack(sample_poses(track, times, curve)).reshape(-1, 12))
        except Exception as exc:  # an output like any other
            yield f"sample {j}", _error(exc)
            return
    for i in range(wl.cycle):
        for j, r in enumerate(rows):
            yield f"frame {i} sample {j}", _hex(r[i])


# meshblend weights beyond the workload's cycle, each with a zero weight
MIXED_WEIGHTS = ((0.5, 0.5, 0.0), (0.0, 0.3, 0.7), (1.4, 0.0, -0.4), (0.0, -0.0, 0.0))


def meshblend(seed: int):
    wl = Meshblend(seed)
    queries = [(f"query {i}", w) for i, w in enumerate(wl.weights)]
    for label, w in queries + [(f"weights {w}", w) for w in MIXED_WEIGHTS]:
        try:
            out = blend_shapes(wl.cset, w)
        except Exception as exc:  # an output like any other
            yield label, _error(exc)
            continue
        for v, p in enumerate(out.vertices):
            yield f"{label} vertex {v}", _hex(p)


def faces(seed: int):
    """The single-face forms on the meshblend set, face by face."""
    cset = Meshblend(seed).cset
    rest = cset.rest
    for j in range(len(rest.faces)):
        try:
            yield f"face {j} frame", _hex(face_frame(*rest.face_points(j)))
        except Exception as exc:  # an output like any other
            yield f"face {j} frame", _error(exc)
        for k, target in enumerate(cset.targets):
            try:
                a = per_face_affine(rest.face_points(j), target.face_points(j))
                yield f"target {k} face {j}", _hex(a.to_rows())
            except Exception as exc:  # an output like any other
                yield f"target {k} face {j}", _error(exc)


def cli_batch(seed: int, workdir: str):
    wl = CliBatch(seed, workdir=workdir)
    try:
        for i in range(wl.cycle):
            key = wl.argvs[i][0]
            code = wl.op(i)
            if code != 0:
                yield key, _error(code) if isinstance(code, Exception) else f"exit {code}"
                continue
            with open(wl.path[key], "rb") as fh:
                data = fh.read()
            yield key, "sha256 " + hashlib.sha256(data).hexdigest()
            for k, entry in enumerate(json.loads(data)["transforms"]):
                kind, values = next(iter(entry.items()))
                yield f"{key} entry {k}", f"{kind} {_hex(values)}"
    finally:
        wl.close()


def envelope(seed: int):
    cases = inputs.envelope_inputs(np.random.default_rng(seed + 3), ENVELOPE_ITEMS)
    for k, (rows, case) in enumerate(cases):
        try:
            p = transform_to_params(HomAffine3.from_rows(rows))
            yield f"item {k} {case} param", _hex(p.to_vector())
            yield f"item {k} {case} transform", _hex(params_to_transform(p).to_rows())
        except Exception as exc:  # an output like any other
            yield f"item {k} {case}", _error(exc)


def batch(seed: int):
    """The envelope inputs as one-row batches through both batch maps."""
    cases = inputs.envelope_inputs(np.random.default_rng(seed + 3), ENVELOPE_ITEMS)
    for k, (rows, case) in enumerate(cases):
        a = np.array(rows, dtype=float).reshape(1, 3, 4)
        try:
            p = transforms_to_params(a[:, :, :3], a[:, :, 3])
            yield f"item {k} {case} param", _hex(p[0])
            linear, translation = params_to_transforms(p)
            yield f"item {k} {case} transform", _hex(np.dstack((linear, translation)).ravel())
        except Exception as exc:  # an output like any other
            yield f"item {k} {case}", _error(exc)


def batch_cycle(seed: int):
    """The convert workload's whole cycle as one batch, inverse map then forward map."""
    a = np.array(Convert(seed).rows, dtype=float).reshape(-1, 3, 4)
    try:
        linear, translation = params_to_transforms(transforms_to_params(a[:, :, :3], a[:, :, 3]))
    except Exception as exc:  # an output like any other
        yield "cycle", _error(exc)
        return
    for k, rows in enumerate(np.dstack((linear, translation)).reshape(-1, 12)):
        yield f"item {k}", _hex(rows)


def _tie_reference(x, sign: float) -> list[float]:
    """A rotation log on sign * (the axis of the principal log x) whose gap
    to x is sign * pi exactly as consistent_log_so3 measures it, if one of
    the 17 angles nearest pi + sign * t gives it; else that angle's."""
    theta = math.sqrt(sum(v * v for v in x))
    if theta <= _AXIS_FLOOR:   # the branch axis is the reference's own
        return [math.pi, 0.0, 0.0]
    k = [sign * v / theta for v in x]
    angles = [math.pi + sign * theta]
    up = down = angles[0]
    for _ in range(8):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        angles += [up, down]
    for c in angles:
        ref = [c * v for v in k]
        if sign * math.sqrt(sum(v * v for v in ref)) - theta == sign * math.pi:
            return ref
    return [angles[0] * v for v in k]


def cycle_refs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The convert cycle's transforms (N, 3, 4) and seeded references (N, 12)."""
    rng = np.random.default_rng(seed + 11)
    a = np.array(Convert(seed).rows, dtype=float).reshape(-1, 3, 4)
    refs = np.zeros((len(a), 12))
    refs[:, :3] = rng.uniform(-1.0, 1.0, (len(a), 3))   # never read
    out_of_range = (1e17, math.inf, math.nan, 1.0000001e7)
    for k, rows in enumerate(a.reshape(-1, 12).tolist()):
        x = transform_to_params(HomAffine3.from_rows(rows)).rotation
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if k % 1000 == 999:
            ref = axis * out_of_range[k // 1000 % 4]
        elif k % 5 == 0:   # near the principal axis, up to two turns either way
            direction = np.array(x) / max(np.linalg.norm(x), 1e-300) + 0.3 * axis
            ref = direction * (rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
                               / np.linalg.norm(direction))
        elif k % 5 == 1:
            ref = axis * 10.0 ** rng.uniform(-3.0, 7.0)
        elif k % 5 in (2, 3):
            ref = _tie_reference(x, 1.0 if k % 5 == 2 else -1.0)
        else:
            ref = (0.0, 0.0, 0.0)
        refs[k, 3:6] = ref
    return a, refs


def convert_refs(seed: int):
    """The convert cycle on its seeded references, transform by transform."""
    a, refs = cycle_refs(seed)
    for k, (rows, ref) in enumerate(zip(a.reshape(-1, 12).tolist(), refs.tolist())):
        try:
            p = transform_to_params(HomAffine3.from_rows(rows), ref=AffineParam12.from_vector(ref))
            yield f"item {k}", _hex(p.to_vector())
        except Exception as exc:  # an output like any other
            yield f"item {k}", _error(exc)


def batch_refs(seed: int):
    """The convert cycle on its seeded references through the batch inverse map."""
    a, refs = cycle_refs(seed)
    lo = 0
    while lo < len(a):
        try:
            params, failed = transforms_to_params(a[lo:, :, :3], a[lo:, :, 3], refs[lo:]), None
        except Exception as exc:  # the rows before it go through once more
            failed, hi = exc, lo + exc.row
            params = transforms_to_params(a[lo:hi, :, :3], a[lo:hi, :, 3], refs[lo:hi])
        for k, p in enumerate(params, start=lo):
            yield f"item {k}", _hex(p)
        if failed is None:
            return
        message = str(failed).removeprefix(f"row {failed.row}: ")
        yield f"item {hi}", f"{type(failed).__name__}: {message}"
        lo = hi + 1


def main() -> int:
    # an older library given by PYTHONPATH warns on near-singular inputs
    warnings.simplefilter("ignore")
    print(affine12.__file__)
    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        for seed in SEEDS:
            for name, outputs in (("convert", convert(seed)), ("animate", animate(seed)),
                                  ("sample_poses", animate_batch(seed)),
                                  ("meshblend", meshblend(seed)), ("faces", faces(seed)),
                                  ("cli_batch", cli_batch(seed, workdir)),
                                  ("envelope", envelope(seed)), ("batch", batch(seed)),
                                  ("batch_cycle", batch_cycle(seed)),
                                  ("convert_refs", convert_refs(seed)),
                                  ("batch_refs", batch_refs(seed))):
                for label, line in outputs:
                    print(f"{name} seed {seed} {label}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

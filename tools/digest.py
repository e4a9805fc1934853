"""Print every output of one input cycle of the benchmark workloads, bit for bit.

    PYTHONPATH=src python tools/digest.py > digest.txt

For seeds 5 and 23 it runs one cycle of each `perfbench.workloads` class
(convert, animate, meshblend, cli_batch), round-trips the envelope inputs
of the probe, and sends each of them through `affine12.batch` as a one-row
batch, inverse map then forward map. Last, the convert cycle's 10 000
transforms go through both batch maps as one batch (`batch_cycle`, whose
lines have the labels of the convert section's). The first line is the
`affine12.__file__` in use (PYTHONPATH decides it; without one, the
checkout's `src`). Then each output is one line: its float values as
`float.hex`, the SHA-256 of a CLI document followed by one line per
document entry, or the error's type and message. So

    diff <(PYTHONPATH=<other checkout>/src python tools/digest.py) \\
         <(PYTHONPATH=src python tools/digest.py)

lists exactly the outputs that differ between two versions of the library.
The CLI documents are written to a temporary directory that is removed.
"""

from __future__ import annotations

import hashlib
import json
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
from affine12 import HomAffine3, params_to_transform, transform_to_params  # noqa: E402
from affine12.batch import params_to_transforms, transforms_to_params  # noqa: E402
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


def meshblend(seed: int):
    wl = Meshblend(seed)
    for i in range(wl.cycle):
        out = wl.op(i)
        if isinstance(out, Exception):
            yield f"query {i}", _error(out)
            continue
        for v, p in enumerate(out.vertices):
            yield f"query {i} vertex {v}", _hex(p)


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


def main() -> int:
    warnings.simplefilter("ignore")   # near-singular inputs warn on purpose
    print(affine12.__file__)
    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        for seed in SEEDS:
            for name, outputs in (("convert", convert(seed)), ("animate", animate(seed)),
                                  ("meshblend", meshblend(seed)),
                                  ("cli_batch", cli_batch(seed, workdir)),
                                  ("envelope", envelope(seed)), ("batch", batch(seed)),
                                  ("batch_cycle", batch_cycle(seed))):
                for label, line in outputs:
                    print(f"{name} seed {seed} {label}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/` of the
same checkout. Workloads: convert, animate, meshblend, cli_batch (see
BENCHMARK.json for why each is there). `--trace 0` measures the end-to-end
metrics; `--trace 1` makes the traced run and reports the per-layer metrics.

Output: a `{"record": ...}` line (machine, threads, seed, input shares,
failure reasons) and, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}`. Trace spans and scratch
documents go to `.perfbench/` in the checkout.

Exit codes: 0 result printed, 2 the package or an argument is unusable,
3 a correctness check could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")
THREADS = "1"   # numpy/scipy/BLAS threads: one caller, one core of the two


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("convert", "animate", "meshblend", "cli_batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    from perfbench import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import affine12
    except ImportError as exc:
        print(f"error: cannot import affine12 from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(affine12.__file__)) != os.path.join(src, "affine12"):
        print(f"error: affine12 resolved to {affine12.__file__}, not to {src}", file=sys.stderr)
        return 2
    import warnings
    from affine12 import IllConditionedWarning, OrientationFlipWarning
    from perfbench.harness import CheckError, run
    # the envelope probe holds near-singular inputs on purpose; its checks decide
    warnings.simplefilter("ignore", IllConditionedWarning)
    warnings.simplefilter("ignore", OrientationFlipWarning)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())

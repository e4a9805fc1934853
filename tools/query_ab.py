"""Time every meshblend query on the committed parent and on the working tree.

    python3 tools/query_ab.py --seed 5 --rounds 10

The queries are the six weight vectors of the meshblend workload at the
seed (zero, the three one-hots, an interior and an extrapolating one),
then the four of the meshblend section of `tools/digest.py`
(`MIXED_WEIGHTS`). The workload's `op_best_ms` is the median of its six
queries' best times, and four of the six are zero or one-hot queries, so
a change in the solve of the interior and extrapolating queries shows
here and not there.

The two sides are exported as `tools/pairs.py` does (`_export`: `HEAD`
with `git archive` as `parent`, the working tree copied as `change`).
Each round runs one fresh process per side, the parent first in odd
rounds and the change first in even ones, so that a drift of the
machine's speed favours neither. A process loads `affine12` and
`perfbench` from its side's root, builds the workload's set, runs every
query once to warm up, then runs the queries in turn `REPEAT` (15) times
(`time.perf_counter`) and keeps each query's best time. It also hashes
each query's output vertices (`float.hex`), so the sides' outputs can be
compared bit for bit. Progress goes to stderr.

Stdout is one JSON object: the parent commit and the settings, then per
query its weights, each side's best time per round in ms with its median,
q1, q3 (as `tools/pairs.py` summarises) and minimum, `change_frac`
(change median / parent median - 1), `change_wins` (rounds in which the
change's best was lower) and `same_output` (every round of both sides
hashed the same output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pairs

ROOT = pairs.ROOT
sys.path.append(ROOT)
from perfbench import THREAD_VARS  # noqa: E402  (no numpy import)

REPEAT = 15  # timed passes over the queries per process; each query keeps its best


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--side-root", help=argparse.SUPPRESS)  # the per-process timing run
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def _time_queries(root: str, seed: int) -> dict:
    """Best time in ms and output hash of every query, on the library and
    benchmark under root (which must come first on the path)."""
    import affine12
    from affine12.meshblend import blend_shapes
    from digest import MIXED_WEIGHTS
    from perfbench.workloads import Meshblend

    if not os.path.abspath(affine12.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"error: affine12 loaded from {affine12.__file__}, not {root}")
    wl = Meshblend(seed)
    queries = [tuple(w) for w in wl.weights] + list(MIXED_WEIGHTS)
    digests = []
    for w in queries:
        out = blend_shapes(wl.cset, w)
        text = "\n".join(" ".join(map(float.hex, v)) for v in out.vertices)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    best = [math.inf] * len(queries)
    for _ in range(REPEAT):
        for i, w in enumerate(queries):
            t0 = time.perf_counter()
            blend_shapes(wl.cset, w)
            best[i] = min(best[i], time.perf_counter() - t0)
    return {"weights": queries, "best_ms": [1e3 * t for t in best], "sha256": digests}


def _run(side_root: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(side_root, "src"),
                                                       side_root)))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, os.path.abspath(__file__), "--seed", str(seed),
            "--side-root", side_root]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: timing run in {side_root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout)


def compare(weights: list, parent: list[dict], change: list[dict]) -> list[dict]:
    """Per query, both sides' best times over the rounds and how they compare."""
    out = []
    for i, w in enumerate(weights):
        runs = {side: [r["best_ms"][i] for r in results]
                for side, results in (("parent", parent), ("change", change))}
        entry = {"weights": list(w)}
        for side, times in runs.items():
            entry[side] = {**pairs._summary(times), "min": min(times)}
        entry["change_frac"] = round(entry["change"]["median"] / entry["parent"]["median"] - 1.0,
                                     4)
        entry["change_wins"] = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        entry["same_output"] = len({r["sha256"][i] for r in parent + change}) == 1
        out.append(entry)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.side_root:
        print(json.dumps(_time_queries(args.side_root, args.seed)))
        return 0
    results = {"parent": [], "change": []}
    first = []
    with tempfile.TemporaryDirectory(prefix="query-ab-") as tmp:
        commit, roots = pairs._export(ROOT, tmp)
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                res = _run(roots[side], args.seed)
                results[side].append(res)
                line = " ".join(f"{t:.2f}" for t in res["best_ms"])
                print(f"round {k + 1}/{args.rounds} {side}: {line}", file=sys.stderr, flush=True)
    print(json.dumps({"parent_commit": commit, "seed": args.seed, "rounds": args.rounds,
                      "repeat": REPEAT, "first": first,
                      "queries": compare(results["parent"][0]["weights"], results["parent"],
                                         results["change"])}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

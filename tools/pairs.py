"""Run the benchmark in pairs: the committed parent against the working tree.

    python3 tools/pairs.py --workload animate --seed 5 --pairs 5

The parent is `HEAD`, exported with `git archive`, and the change is the
working tree of this checkout (tracked and untracked files, not the ignored
ones), copied. Both go into one temporary directory that is removed when
the script ends, as `parent` and `change`: the two roots differ only in
that name, of the same length, so the sides differ in code alone, not in
where they run from (exports, not a `git worktree`, so an interrupted run
leaves nothing in `.git`). Each pair runs both sides, each as
the `command` of BENCHMARK.json (`perfbench/run.py`) from its own checkout
root, with `--seconds` set to BENCHMARK.json's `run_seconds` and
`--trace 0`. The parent runs first in odd pairs and the change in even
ones, so that a drift of the machine's speed favours neither side.
Progress goes to stderr.

Stdout is one JSON object whose `workloads` block has the shape of the
committed BENCH_*.json files: per workload a list with one entry for the
seed, holding the side that ran first in each pair (`first`), the failed
and attempted counts of every run, the number of pairs in which the change
had the lower `op_best_ms` (`op_best_ms_change_wins`) and, for each
end-to-end metric of BENCHMARK.json, the median, q1, q3 (linear
interpolation) and runs of each side, `change_frac` (change median /
parent median - 1) and `within_bound` (the change is worse than the parent
by at most the metric's bound, as a fraction of the parent median).
`peak_rss_fit` holds, per side, the least-squares line of `peak_rss_mb`
against the attempted ops of its runs (`mb_per_1000_ops`, `mb_at_0_ops`;
null with fewer than two distinct op counts), which is also printed to
stderr. The harness keeps per-op samples, so RSS grows with the op count
alone; the fit separates that growth from a change in the program's own
memory (compare the sides at an equal op count).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("convert", "animate", "meshblend", "cli_batch")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _git(root: str, *args) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def _export(root: str, tmp: str) -> tuple[str, dict[str, str]]:
    """Write the files of root's HEAD into tmp/parent and those of its
    working tree, ignored files left out, into tmp/change; return the
    commit id and the two roots."""
    roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
    commit = _git(root, "rev-parse", "HEAD").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", commit))) as tar:
        tar.extractall(roots["parent"], filter="data")
    names = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in map(os.fsdecode, filter(None, names.split(b"\0"))):
        src = os.path.join(root, name)
        if os.path.isfile(src):   # not a tracked file deleted in the working tree
            dest = os.path.join(roots["change"], name)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copy2(src, dest)
    return commit, roots


def _run(command, root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") \
        if len(runs) > 1 else (runs[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _rss_fit(runs: list[dict]) -> dict | None:
    """Least-squares line of peak_rss_mb against attempted ops over runs."""
    ops = [r["attempted"] for r in runs]
    if len(set(ops)) < 2:
        return None
    slope, intercept = statistics.linear_regression(
        ops, [r["metrics"]["peak_rss_mb"]["value"] for r in runs])
    return {"mb_per_1000_ops": 1000.0 * slope, "mb_at_0_ops": intercept}


def _metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
           "parent": _summary(parent), "change": _summary(change)}
    base = out["parent"]["median"]
    frac = out["change"]["median"] / base - 1.0 if base else 0.0
    worse = frac if spec["better"] == "lower" else -frac
    out["change_frac"] = round(frac, 4)
    out["within_bound"] = worse <= spec["bound"]
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    results = {"parent": [], "change": []}
    first = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        commit, roots = _export(ROOT, tmp)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                res = _run(bench["command"], roots[side], args.workload, args.seed, seconds)
                results[side].append(res)
                best = res["metrics"]["op_best_ms"]["value"]
                print(f"pair {k + 1}/{args.pairs} {side}: op_best_ms {best}",
                      file=sys.stderr, flush=True)
    best_ms = {s: [r["metrics"]["op_best_ms"]["value"] for r in results[s]] for s in results}
    rss_fit = {s: _rss_fit(results[s]) for s in results}
    for side, fit in rss_fit.items():
        line = ("fewer than two distinct op counts" if fit is None else
                f"{fit['mb_per_1000_ops']:.3f} MB per 1000 ops, {fit['mb_at_0_ops']:.2f} MB at 0")
        print(f"{side} peak_rss_mb fit: {line}", file=sys.stderr, flush=True)
    entry = {
        "seed": args.seed, "seconds": seconds, "trace": 0, "pairs": args.pairs,
        "first": first,
        "failed": {s: [r["failed"] for r in results[s]] for s in results},
        "attempted": {s: [r["attempted"] for r in results[s]] for s in results},
        "op_best_ms_change_wins": sum(c < p for p, c in zip(best_ms["parent"],
                                                           best_ms["change"])),
        "correct": all(r["correct"] for s in results for r in results[s]),
        "peak_rss_fit": rss_fit,
        "metrics": {m["name"]: _metric(m, *([r["metrics"][m["name"]]["value"] for r in results[s]]
                                            for s in ("parent", "change")))
                    for m in bench["end_to_end"]},
    }
    print(json.dumps({"parent_commit": commit,
                      "command": [*bench["command"], "--workload", args.workload,
                                  "--seed", str(args.seed), "--seconds", repr(seconds),
                                  "--trace", "0"],
                      "workloads": {args.workload: [entry]}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

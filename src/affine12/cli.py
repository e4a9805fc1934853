"""Command-line interface for batch pipelines.

Transforms travel in JSON documents: {"transforms": [entry, ...]} where an
entry is {"matrix": [12 reals]} (row-major 3x4, translation in the fourth
column) or {"param": [12 reals]} (parameter order: translation, rotation
log, stretch log). Tracks add a time per knot: {"knots": [{"time": t,
"matrix"|"param": [...]}, ...]}. JSON booleans are not numbers here, and a
number that does not fit a finite double is an error naming its entry, as
is an entry the library cannot convert ("{path}: transforms[i]: ...").
`blend` sums entries in parameter space: param entries are blended as
given, on their own branch, and only matrix entries are pulled back (on
the --consistent-with branch if one is given); a blend the library cannot
map forward names the file and weights ("{path}: blend with weights
w1,w2,...: ..."). A reference rotation log longer than 1e7 rad, in a
--consistent-with file or reached by chaining matrix knots, is a domain
error naming the entry it was used for. `interp` samples the track at n
evenly spaced times, t0 + (t1 - t0) * i / (n - 1), each rounded as if the
exponent range had no end, so a span whose products overflow still gets
them; a sample the library cannot map names itself ("{path}: sample i
(t = ...): ..."). Meshes are Wavefront OBJ.

A document is checked and decoded in one pass: list comprehensions check
each entry's field and list length, one exact-type test covers all its
numbers (JSON integers load as the doubles they round to), and one
(N, 12) array is checked finite and its determinants checked together.
`param`, `unparam` and `blend` then convert it in one pass of the
affine12.batch maps, which equal the scalar maps bit for bit; the
--consistent-with references go into that pass too, one row per entry
(a param entry's reference is not used, so it is not checked). An error
still names the lowest entry that has one, with its own message, or the
scalar map's. `interp` samples in one pass too, through
affine12.blend.sample_poses, equal to interpolate_pose bit for bit. Only a
track's matrix knots are converted one by one, each on the branch of the
knot before it.

Output documents have the layout of `json.dump(doc, fh, indent=2)` plus a
newline, byte for byte, and are written with one write. Numbers are written
as shortest round-trip decimals (up to 17 significant digits), so a
convert/unconvert cycle is bit-faithful. Every result is checked finite
before the output is opened, and named as the errors above are: a failed
command creates or truncates no file.

Exit codes: 0 success, 1 usage, 2 domain error (bad file, non-positive
determinant, degenerate triangle, ...: an Affine12Error, ValueError or
ArithmeticError, as for the batch maps), 3 solver failure. Exit 2 also
covers a file that cannot be opened (read or written) or is not UTF-8
text; the message names it ("error: {path}: ...").
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .batch import _named_rows, params_to_transforms, transforms_to_params
from .bench import (
    DEFAULT_SEED,
    roundtrip_error_stats,
    timing_run,
    write_csv,
)
from .blend import CURVE_KINDS, PoseTrack, sample_poses
from .errors import (
    _DOMAIN_ERRORS,
    FileFormatError,
    NonFiniteInputError,
    SolverNotConvergedError,
)
from .linalg3 import Mat3, mat_det
from .meshblend import CompatibleSet, blend_shapes, load_obj, write_obj
from .param import (
    AffineParam12,
    HomAffine3,
    params_to_transform,
    transform_to_params,
    weighted_param_sum,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# -- JSON documents -----------------------------------------------------------

def _reject_constant(token: str):
    raise FileFormatError(f"non-finite number {token!r} is not allowed")


def _int_as_float(token: str) -> float:
    """An integer literal as the double it rounds to, inf beyond the double
    range; "-0" is the integer 0."""
    return float(token) + 0.0


def _load_json(path: str):
    """The document at path, every number a float (see _int_as_float)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_int_as_float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


_KINDS = ("matrix", "param")
_LINEAR_COLUMNS = [0, 1, 2, 4, 5, 6, 8, 9, 10]   # of a row-major 3x4 block


def _all_numbers(values) -> bool:
    """Whether every value is a JSON number: a float, as _load_json loads
    them, by exact type, since JSON true/false load as bool."""
    return {float}.issuperset(map(type, values))


def _entry_values(path: str, field: str, i: int, entry) -> tuple[str, list[float]]:
    """Kind and floats of entry `field[i]`; the label is only built for an error."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise FileFormatError(
            f"{path}: {field}[{i}] must be an object with exactly one of 'matrix'/'param'")
    (kind, values), = entry.items()
    if kind not in _KINDS:
        raise FileFormatError(f"{path}: {field}[{i}] has unknown field {kind!r}")
    if not isinstance(values, list) or len(values) != 12 or not _all_numbers(values):
        raise FileFormatError(f"{path}: {field}[{i}].{kind} must be a list of 12 numbers")
    if not all(map(math.isfinite, values)):
        raise FileFormatError(f"{path}: {field}[{i}].{kind} contains a non-finite number")
    return kind, values


def load_array(path: str) -> tuple[np.ndarray, np.ndarray]:
    """A transform document as its matrix mask (N,) and its values (N, 12).

    Row i holds entry i's 12 numbers, the 3x4 block row-major for a matrix
    entry. The document is checked in one pass: the entries' fields and
    list lengths, then the types of all their numbers together, one array
    and its finiteness, then the determinants. The lowest entry that fails
    any check raises its own error.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("transforms"), list):
        raise FileFormatError(f"{path}: expected an object with a 'transforms' list")
    items = doc["transforms"]
    if not items:
        raise FileFormatError(f"{path}: 'transforms' list is empty")
    kinds = [next(iter(e)) if isinstance(e, dict) and len(e) == 1 else None for e in items]
    lists = [e[k] if k in _KINDS else None for e, k in zip(items, kinds)]
    shaped = [isinstance(v, list) and len(v) == 12 for v in lists]
    # entries [0, n) pass every check so far; entry n (if any) fails one
    n = shaped.index(False) if False in shaped else len(items)
    flat = [x for v in lists[:n] for x in v]
    if not _all_numbers(flat):
        n = next(k for k, x in enumerate(flat) if type(x) is not float) // 12
    values = np.array(flat[:12 * n], dtype=float).reshape(-1, 12)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        n = int(np.argmin(finite))
        values = values[:n]
    is_matrix = np.array([k == "matrix" for k in kinds[:n]], dtype=bool)
    with np.errstate(all="ignore"):
        det = mat_det(Mat3(*values[:, _LINEAR_COLUMNS].T))
    bad = np.flatnonzero(is_matrix & (det <= 0.0))
    if bad.size:
        i = int(bad[0])
        raise FileFormatError(f"{path}: transforms[{i}]: linear part has non-positive "
                              f"determinant ({float(det[i])!r})")
    if n < len(items):
        _entry_values(path, "transforms", n, items[n])   # raises entry n's own error
    return is_matrix, values


def load_transforms(path: str) -> list:
    """Entries of a transform document, each HomAffine3 or AffineParam12."""
    is_matrix, values = load_array(path)
    return [HomAffine3.from_rows(v) if m else AffineParam12.from_vector(v)
            for m, v in zip(is_matrix.tolist(), values.tolist())]


def load_track(path: str) -> PoseTrack:
    """A track document as a PoseTrack, each matrix knot pulled back on the
    branch nearest the knot before it. A knot the library cannot convert
    raises transform_to_params's error named `{path}: knots[i]`, so a
    det <= 0 matrix knot raises NotOrientationPreservingError."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("knots"), list):
        raise FileFormatError(f"{path}: expected an object with a 'knots' list")
    knots = []
    times = []
    for i, item in enumerate(doc["knots"]):
        if not isinstance(item, dict) or "time" not in item:
            raise FileFormatError(f"{path}: knots[{i}] needs a 'time' field")
        t = item["time"]
        if not (_all_numbers([t]) and math.isfinite(t)):
            raise FileFormatError(f"{path}: knots[{i}].time must be a finite number")
        entry = {k: v for k, v in item.items() if k != "time"}
        kind, values = _entry_values(path, "knots", i, entry)
        if kind == "param":
            knots.append(AffineParam12.from_vector(values))
        else:
            # chain each matrix knot to the previous knot's branch, so a
            # track may wind past pi between knots
            try:
                knots.append(transform_to_params(HomAffine3.from_rows(values),
                                                 ref=knots[-1] if knots else None))
            except _DOMAIN_ERRORS as exc:
                exc.args = (f"{path}: knots[{i}]: {exc}",)
                raise
        times.append(t)
    try:
        return PoseTrack(tuple(knots), tuple(times))
    except (ValueError, NonFiniteInputError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _pull_back(path: str, is_matrix: np.ndarray, values: np.ndarray, refs=None) -> np.ndarray:
    """Parameter rows of a document: param rows as given, matrix rows pulled
    back in one batch, on the branch nearest the rotation log of refs[i] if
    refs (N, 12) is given. An error is that of transform_to_params on the
    lowest entry that has one, and then a row beyond the double range, named
    after the entry.
    """
    block = values.reshape(-1, 3, 4)
    # a param row goes through as the identity, on a zero reference that is
    # never out of range, and its result is dropped
    linear = np.where(is_matrix[:, None, None], block[:, :, :3], np.eye(3))
    if refs is not None:
        refs = np.where(is_matrix[:, None], refs, 0.0)
    with _named_rows(lambda i: f"{path}: transforms[{i}]"):
        params = transforms_to_params(linear, block[:, :, 3], refs)
    return _finite("param", np.where(is_matrix[:, None], params, values),
                   lambda i: f"{path}: transforms[{i}]")


@contextlib.contextmanager
def _output(path: str | None):
    """The named file opened for writing, or stdout for None and "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _finite(kind: str, rows, name) -> np.ndarray:
    """rows as a float array; OverflowError, named name(i), if row i is not finite."""
    rows = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise OverflowError(
            f"{name(int(bad[0]))}: the {kind} result is not finite (out of the double range)")
    return rows


def _write_transforms(kind: str, rows, output: str | None, name) -> None:
    """Write {"transforms": [{kind: row}, ...]} in one write.

    The text is that of json.dump(doc, fh, indent=2) and a newline, byte for
    byte. Every row is checked finite (row i named name(i)) before the output
    is opened, so a result out of the double range fails the command and
    leaves no file.
    """
    rows = _finite(kind, rows, name)
    head = '    {\n      "' + kind + '": [\n        '
    text = ("{\n  \"transforms\": [\n"
            + ",\n".join(head + ",\n        ".join(map(repr, row))
                         + "\n      ]\n    }" for row in rows.tolist())
            + "\n  ]\n}\n")
    with _output(output) as fh:
        fh.write(text)


def _load_refs(path: str | None, count: int) -> np.ndarray | None:
    """Parameter rows of a --consistent-with file, broadcast to count; None without one."""
    if not path:
        return None
    refs = _pull_back(path, *load_array(path))
    if len(refs) == 1:
        return np.broadcast_to(refs, (count, 12))
    if len(refs) != count:
        raise FileFormatError(
            f"{path}: {len(refs)} references for {count} transforms "
            "(need a matching count or a single broadcast entry)")
    return refs


# -- commands -----------------------------------------------------------------

def _cmd_param(args) -> int:
    is_matrix, values = load_array(args.input)
    refs = _load_refs(args.consistent_with, len(values))
    _write_transforms("param", _pull_back(args.input, is_matrix, values, refs), args.output,
                      lambda i: f"{args.input}: transforms[{i}]")
    return 0


def _cmd_unparam(args) -> int:
    is_matrix, values = load_array(args.input)
    # a matrix row goes through as zero parameters, and its result is dropped
    with _named_rows(lambda i: f"{args.input}: transforms[{i}]"):
        rows = _matrix_rows(*params_to_transforms(np.where(is_matrix[:, None], 0.0, values)))
    _write_transforms("matrix", np.where(is_matrix[:, None], values, rows), args.output,
                      lambda i: f"{args.input}: transforms[{i}]")
    return 0


def _cmd_blend(args) -> int:
    is_matrix, values = load_array(args.input)
    if len(args.weights) != len(values):
        raise FileFormatError(
            f"{args.input}: {len(values)} transforms but {len(args.weights)} weights")
    refs = _load_refs(args.consistent_with, len(values))
    params = _pull_back(args.input, is_matrix, values, refs)
    where = f"{args.input}: blend with weights {','.join(map(repr, args.weights))}"
    try:
        result = params_to_transform(weighted_param_sum(
            map(AffineParam12.from_vector, params.tolist()), args.weights))
    except _DOMAIN_ERRORS as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    _write_transforms("matrix", [result.to_rows()], args.output, lambda i: where)
    return 0


def _cmd_interp(args) -> int:
    if args.samples < 2:
        raise _UsageError("interp: --samples must be at least 2")
    track = load_track(args.track)
    times = _sample_times(track.times[0], track.times[-1], args.samples)

    def name(i):
        return f"{args.track}: sample {i} (t = {times[i]!r})"
    with _named_rows(name):
        rows = _matrix_rows(*sample_poses(track, times, args.curve))
    _write_transforms("matrix", rows, args.output, name)
    return 0


def _sample_times(t0: float, t1: float, n: int) -> list[float]:
    """n evenly spaced times from t0 to t1: t0 + (t1 - t0) * i / (n - 1).

    On a span so wide that (t1 - t0) * (n - 1) overflows, the span is
    scaled down by 2^k before the product and up by 2^k after the
    quotient, with 2^k > n - 1. Both are exact, so each time is the
    formula's, rounded as if the exponent range had no end. Rounding may
    carry the last time one ulp past t1; it is clamped to t1.
    """
    span, last = t1 - t0, n - 1
    k = last.bit_length() if math.isinf(span * last) else 0
    down, up = 2.0 ** -k, 2.0 ** k
    return [min(t0 + span * down * i / last * up, t1) for i in range(n)]


def _matrix_rows(linear: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Row-major 3x4 rows (N, 12) of linear parts (N, 3, 3) and translations (N, 3)."""
    return np.concatenate((linear, translation[:, :, None]), axis=2).reshape(-1, 12)


def _cmd_meshblend(args) -> int:
    rest = load_obj(args.rest)
    targets = [load_obj(p) for p in args.targets]
    if len(args.weights) != len(targets):
        raise FileFormatError(f"{len(targets)} target meshes but {len(args.weights)} weights")
    result = blend_shapes(CompatibleSet(rest, targets), args.weights)
    with _output(args.output) as fh:
        write_obj(fh, result)
    return 0


def _cmd_bench(args) -> int:
    reports = []
    try:
        if args.kind in ("roundtrip", "both"):
            reports.append(roundtrip_error_stats(args.n, det_floor=args.det_floor,
                                                 seed=args.seed))
        if args.kind in ("timing", "both"):
            reports.append(timing_run(args.n, seed=args.seed, det_floor=args.det_floor))
    except ValueError as exc:   # the bench functions check their own arguments
        raise _UsageError(f"bench: {exc}") from None
    with _output(args.output) as fh:
        for r in reports:
            write_csv(r, fh)
    return 0


def _weights(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}") from None
    if not values or not all(math.isfinite(w) for w in values):
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affine12",
                     description="12-parameter affine transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("param", help="convert transforms to parameter form")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--consistent-with", default=None, metavar="FILE",
                   help="parameter file of reference branches for rotation tracking")
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("unparam", help="convert parameter form back to matrices")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_unparam)

    p = sub.add_parser("blend", help="weighted blend of transforms")
    p.add_argument("input")
    p.add_argument("--weights", type=_weights, required=True,
                   help="comma-separated, one per transform; not normalised")
    p.add_argument("--consistent-with", default=None, metavar="FILE",
                   help="parameter file of reference branches for rotation tracking")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_blend)

    p = sub.add_parser("interp", help="sample an interpolation curve through a track")
    p.add_argument("track")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--curve", choices=CURVE_KINDS, default="hermite")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("meshblend", help="blend compatible meshes")
    p.add_argument("rest")
    p.add_argument("targets", nargs="+")
    p.add_argument("--weights", type=_weights, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_meshblend)

    p = sub.add_parser("bench", help="error statistics and timing CSV")
    p.add_argument("--kind", choices=("roundtrip", "timing", "both"), default="both")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--det-floor", type=float, default=1e-3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; no command raises it
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverNotConvergedError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
error naming the entry it was used for. An `interp` sample the library
cannot map names itself ("{path}: sample i (t = ...): ...").
Meshes are Wavefront OBJ.

Output documents have the layout of `json.dump(doc, fh, indent=2)` plus a
newline, byte for byte, and are written with one write. Numbers are written
as shortest round-trip decimals (up to 17 significant digits), so a
convert/unconvert cycle is bit-faithful. Every result is checked finite
before the output is opened: a failed command creates or truncates no file.

Exit codes: 0 success, 1 usage, 2 domain error (bad file, non-positive
determinant, degenerate triangle, ...), 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .bench import (
    DEFAULT_SEED,
    roundtrip_error_stats,
    timing_run,
    write_csv,
)
from .blend import CURVE_KINDS, PoseTrack, interpolate_pose
from .errors import Affine12Error, FileFormatError, NonFiniteInputError, SolverNotConvergedError
from .linalg3 import mat_det
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


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


_NUMBER_TYPES = {int, float}   # exact types: JSON true/false load as bool


def _entry_values(path: str, field: str, i: int, entry) -> tuple[str, list[float]]:
    """Kind and floats of entry `field[i]`; the label is only built for an error."""
    if not isinstance(entry, dict) or len(entry) != 1:
        raise FileFormatError(
            f"{path}: {field}[{i}] must be an object with exactly one of 'matrix'/'param'")
    (kind, values), = entry.items()
    if kind not in ("matrix", "param"):
        raise FileFormatError(f"{path}: {field}[{i}] has unknown field {kind!r}")
    if (not isinstance(values, list) or len(values) != 12
            or not _NUMBER_TYPES.issuperset(map(type, values))):
        raise FileFormatError(f"{path}: {field}[{i}].{kind} must be a list of 12 numbers")
    try:
        values = list(map(float, values))
    except OverflowError:   # an integer literal beyond the double range
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise FileFormatError(f"{path}: {field}[{i}].{kind} contains a non-finite number")
    return kind, values


# domain errors: what the library raises for an input it cannot take (exit 2)
_DOMAIN_ERRORS = (Affine12Error, OverflowError, ValueError)


def _name_entry(exc: Exception, path: str, field: str, i: int) -> None:
    """Prefix the message of exc, in place, with the entry `{path}: field[i]`."""
    exc.args = (f"{path}: {field}[{i}]: {exc}",)


def _decode_entry(path: str, field: str, i: int, entry):
    kind, values = _entry_values(path, field, i, entry)
    if kind == "param":
        return AffineParam12.from_vector(values)
    transform = HomAffine3.from_rows(values)
    det = mat_det(transform.linear)
    if det <= 0.0:
        raise FileFormatError(
            f"{path}: {field}[{i}]: linear part has non-positive determinant ({det!r})")
    return transform


def load_transforms(path: str) -> list:
    """Entries of a transform document, each HomAffine3 or AffineParam12."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("transforms"), list):
        raise FileFormatError(f"{path}: expected an object with a 'transforms' list")
    items = doc["transforms"]
    if not items:
        raise FileFormatError(f"{path}: 'transforms' list is empty")
    return [_decode_entry(path, "transforms", i, e) for i, e in enumerate(items)]


def load_track(path: str) -> PoseTrack:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("knots"), list):
        raise FileFormatError(f"{path}: expected an object with a 'knots' list")
    knots = []
    times = []
    for i, item in enumerate(doc["knots"]):
        if not isinstance(item, dict) or "time" not in item:
            raise FileFormatError(f"{path}: knots[{i}] needs a 'time' field")
        t = item["time"]
        try:
            finite = type(t) in _NUMBER_TYPES and math.isfinite(t)
        except OverflowError:   # an integer literal beyond the double range
            finite = False
        if not finite:
            raise FileFormatError(f"{path}: knots[{i}].time must be a finite number")
        entry = {k: v for k, v in item.items() if k != "time"}
        decoded = _decode_entry(path, "knots", i, entry)
        if isinstance(decoded, HomAffine3):
            # chain each matrix knot to the previous knot's branch, so a
            # track may wind past pi between knots
            try:
                decoded = transform_to_params(decoded, ref=knots[-1] if knots else None)
            except _DOMAIN_ERRORS as exc:
                _name_entry(exc, path, "knots", i)
                raise
        knots.append(decoded)
        times.append(float(t))
    try:
        return PoseTrack(tuple(knots), tuple(times))
    except (ValueError, NonFiniteInputError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _as_params(path: str, entries, refs=None) -> list[AffineParam12]:
    """Parameter form of each entry; matrices take the branch nearest refs[i] if given."""
    refs = refs or [None] * len(entries)
    out = []
    try:
        for e, r in zip(entries, refs):
            out.append(e if isinstance(e, AffineParam12) else transform_to_params(e, ref=r))
    except _DOMAIN_ERRORS as exc:
        _name_entry(exc, path, "transforms", len(out))
        raise
    return out


def _as_transforms(path: str, entries) -> list[HomAffine3]:
    out = []
    try:
        for e in entries:
            out.append(e if isinstance(e, HomAffine3) else params_to_transform(e))
    except _DOMAIN_ERRORS as exc:
        _name_entry(exc, path, "transforms", len(out))
        raise
    return out


@contextlib.contextmanager
def _output(path: str | None):
    """The named file opened for writing, or stdout for None and "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_transforms(kind: str, rows, output: str | None) -> None:
    """Write {"transforms": [{kind: row}, ...]} in one write.

    The text is that of json.dump(doc, fh, indent=2) and a newline, byte for
    byte. Every row is checked finite before the output is opened, so a
    result out of the double range fails the command and leaves no file.
    """
    for i, row in enumerate(rows):
        if not all(map(math.isfinite, row)):
            raise OverflowError(
                f"transforms[{i}]: the {kind} result is not finite (out of the double range)")
    head = '    {\n      "' + kind + '": [\n        '
    text = ("{\n  \"transforms\": [\n"
            + ",\n".join(head + ",\n        ".join(map(repr, row))
                         + "\n      ]\n    }" for row in rows)
            + "\n  ]\n}\n")
    with _output(output) as fh:
        fh.write(text)


def _load_refs(path: str | None, count: int) -> list[AffineParam12] | None:
    """Reference points from a --consistent-with file, broadcast to count; None without one."""
    if not path:
        return None
    refs = _as_params(path, load_transforms(path))
    if len(refs) == 1:
        return refs * count
    if len(refs) != count:
        raise FileFormatError(
            f"{path}: {len(refs)} references for {count} transforms "
            "(need a matching count or a single broadcast entry)")
    return refs


# -- commands -----------------------------------------------------------------

def _cmd_param(args) -> int:
    entries = load_transforms(args.input)
    refs = _load_refs(args.consistent_with, len(entries))
    _write_transforms("param", [p.to_vector() for p in _as_params(args.input, entries, refs)],
                      args.output)
    return 0


def _cmd_unparam(args) -> int:
    transforms = _as_transforms(args.input, load_transforms(args.input))
    _write_transforms("matrix", [a.to_rows() for a in transforms], args.output)
    return 0


def _cmd_blend(args) -> int:
    entries = load_transforms(args.input)
    if len(args.weights) != len(entries):
        raise FileFormatError(
            f"{len(entries)} transforms but {len(args.weights)} weights")
    refs = _load_refs(args.consistent_with, len(entries))
    params = _as_params(args.input, entries, refs)
    try:
        result = params_to_transform(weighted_param_sum(params, args.weights))
    except _DOMAIN_ERRORS as exc:
        exc.args = (f"{args.input}: blend with weights {','.join(map(repr, args.weights))}: {exc}",)
        raise
    _write_transforms("matrix", [result.to_rows()], args.output)
    return 0


def _cmd_interp(args) -> int:
    if args.samples < 2:
        raise _UsageError("interp: --samples must be at least 2")
    track = load_track(args.track)
    t0, t1 = track.times[0], track.times[-1]
    out = []
    try:
        for i in range(args.samples):
            t = t0 + (t1 - t0) * i / (args.samples - 1)
            out.append(interpolate_pose(track, t, curve=args.curve).to_rows())
    except _DOMAIN_ERRORS as exc:
        exc.args = (f"{args.track}: sample {i} (t = {t!r}): {exc}",)
        raise
    _write_transforms("matrix", out, args.output)
    return 0


def _cmd_meshblend(args) -> int:
    rest = load_obj(args.rest)
    targets = [load_obj(p) for p in args.targets]
    if len(args.weights) != len(targets):
        raise FileFormatError(f"{len(targets)} target meshes but {len(args.weights)} weights")
    try:
        cset = CompatibleSet(rest, targets)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    result = blend_shapes(cset, args.weights)
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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverNotConvergedError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

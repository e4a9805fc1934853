"""Accuracy on both sides of every closed-form switch, against 50-digit mpmath.

    PYTHONPATH=src python tools/switch_audit.py > audit.json

Each row is one switch of the library, named by the constant that sets it
(or, for the rotation log, by the angle it once switched at). Its inputs
sit at the threshold times 1 - e ("below") and 1 + e ("above"), 200
random cases a side, once exact and once with every entry moved by up to
1e-10 (symmetric inputs stay symmetric). e is 1e-8, or 0.3 for the Newton
skip, whose test quantity (a product of gaps to a near-double Gram root)
the cubic solver resolves only to ~15%. The error is the relative
Frobenius distance from the 50-digit result for that same input: exp or
half-log through the eigen-decomposition, and for `transform_to_params`
and the rotation log the log of the polar rotation factor (the nearest
rotation, for a perturbed rotation matrix). Stdout is one JSON object with
the max and median error per row, input kind and side; the library in use
(PYTHONPATH decides it) is named in it. A switch whose two sides differ
by far more than their spread is a jump.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys

import mpmath as mp

# after PYTHONPATH, so a library given there is the one measured
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import affine12  # noqa: E402
from affine12 import expmap, logmap, param  # noqa: E402
from affine12.expmap import exp_so3, exp_sym3  # noqa: E402
from affine12.linalg3 import AntiSymMat3, Mat3, SymMat3, Vec3, sym_eigenvalues  # noqa: E402
from affine12.logmap import log_so3, log_spd_half_gram  # noqa: E402
from affine12.param import HomAffine3, transform_to_params  # noqa: E402

mp.mp.dps = 50
CASES = 200
NUDGE = 1e-10


def _m(rows) -> mp.matrix:
    return mp.matrix([[mp.mpf(x) for x in row] for row in rows])


def _sym_rows(s):
    xx, xy, xz, yy, yz, zz = s
    return [[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]]


def _anti_rows(x):
    m12, m13, m23 = x
    return [[0.0, m12, m13], [-m12, 0.0, m23], [-m13, -m23, 0.0]]


def _mat_rows(a):
    return [list(a[0:3]), list(a[3:6]), list(a[6:9])]


def _fun(s: mp.matrix, f) -> mp.matrix:
    e, q = mp.eigsy(s)
    return q * mp.diag([f(x) for x in e]) * q.T


def _rot_log(r: mp.matrix) -> mp.matrix:
    h = (r - r.T) / 2
    sin_t = mp.sqrt(h[0, 1] ** 2 + h[0, 2] ** 2 + h[1, 2] ** 2)
    return h * (mp.atan2(sin_t, (r[0, 0] + r[1, 1] + r[2, 2] - 1) / 2) / sin_t)


def _polar_logs(a: mp.matrix) -> tuple[mp.matrix, mp.matrix]:
    """Rotation log and stretch log of the polar split of a."""
    g = a.T * a
    return _rot_log(a * _fun(g, lambda x: 1 / mp.sqrt(x))), _fun(g, lambda x: mp.log(x) / 2)


def _rel(got_rows, want: mp.matrix) -> float:
    got = _m(got_rows)
    return float(mp.mnorm(got - want, "f") / mp.mnorm(want, "f"))


def _nudged(values, rng):
    return [v + rng.uniform(-NUDGE, NUDGE) for v in values]


def _rotation(rng) -> Mat3:
    return exp_so3(AntiSymMat3(*(rng.uniform(-2.0, 2.0) for _ in range(3))))


def _conj(q: Mat3, eig) -> SymMat3:
    """Q diag(eig) Q^T, packed."""
    rows = _mat_rows(q)
    return SymMat3(*(sum(rows[i][k] * eig[k] * rows[j][k] for k in range(3))
                     for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))))


def _axis_gen(rng, angle) -> AntiSymMat3:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return AntiSymMat3(*(c / n * angle for c in v))


# each case maker takes (rng, side value d, perturbed) and returns an error
def _exp_case(spectrum):
    def case(rng, d, nudge):
        b = rng.uniform(-0.5, 0.5)
        y = _conj(_rotation(rng), spectrum(b, d))
        if nudge:
            y = SymMat3(*_nudged(y, rng))
        return _rel(_sym_rows(exp_sym3(y)), _fun(_m(_sym_rows(y)), mp.exp))
    return case


def _log_case(spectrum):
    def case(rng, d, nudge):
        g = _conj(_rotation(rng), spectrum(math.exp(rng.uniform(-0.5, 0.5)), d))
        if nudge:
            g = SymMat3(*_nudged(g, rng))
        return _rel(_sym_rows(log_spd_half_gram(g, sym_eigenvalues(g))),
                    _fun(_m(_sym_rows(g)), lambda x: mp.log(x) / 2))
    return case


def _newton_case(rng, d, nudge):
    # A = R S with Gram spectrum (1 + d, 1, 1/2): the top Newton step sees
    # |dp| ~ d/2 against the skip bound
    r = _mat_rows(_rotation(rng))
    s = _sym_rows(_conj(_rotation(rng), (math.sqrt(1.0 + d), 1.0, math.sqrt(0.5))))
    a = Mat3(*(sum(r[i][k] * s[k][j] for k in range(3)) for i in range(3) for j in range(3)))
    if nudge:
        a = Mat3(*_nudged(a, rng))
    p = transform_to_params(HomAffine3(a, Vec3(0.0, 0.0, 0.0)))
    x_ref, s_ref = _polar_logs(_m(_mat_rows(a)))
    num = (mp.mnorm(_m(_anti_rows(p.rotation)) - x_ref, "f") ** 2
           + mp.mnorm(_m(_sym_rows(p.stretch)) - s_ref, "f") ** 2)
    den = mp.mnorm(x_ref, "f") ** 2 + mp.mnorm(s_ref, "f") ** 2
    return float(mp.sqrt(num / den))


def _rot_log_case(angle_of):
    def case(rng, d, nudge):
        r = exp_so3(_axis_gen(rng, angle_of(d)))
        if nudge:
            r = Mat3(*_nudged(r, rng))
        x_ref, _ = _polar_logs(_m(_mat_rows(r)))
        return _rel(_anti_rows(log_so3(r)), x_ref)
    return case


def _exp_so3_case(rng, d, nudge):
    x = _axis_gen(rng, d)
    if nudge:
        x = AntiSymMat3(*(c * (1.0 + rng.uniform(-NUDGE, NUDGE)) for c in x))
    return _rel(_mat_rows(exp_so3(x)), mp.expm(_m(_anti_rows(x))))


ROWS = [
    ("expmap._E2_TAYLOR", expmap._E2_TAYLOR, 1e-8,
     "exp_sym3, spectrum (b + d, b, b - 1/2)",
     _exp_case(lambda b, d: (b + d, b, b - 0.5))),
    ("expmap._SPREAD_TAYLOR", expmap._SPREAD_TAYLOR, 1e-8,
     "exp_sym3, spectrum (b + d/2, b, b - d/2)",
     _exp_case(lambda b, d: (b + 0.5 * d, b, b - 0.5 * d))),
    ("logmap._L2_TAYLOR", logmap._L2_TAYLOR, 1e-8,
     "log_spd_half_gram, spectrum (l(1 + d), l, l/2)",
     _log_case(lambda l, d: (l * (1.0 + d), l, 0.5 * l))),
    ("logmap._SPREAD_TAYLOR", logmap._SPREAD_TAYLOR, 1e-8,
     "log_spd_half_gram, spectrum (l(1 + d/2), l, l(1 - d/2))",
     _log_case(lambda l, d: (l * (1.0 + 0.5 * d), l, l * (1.0 - 0.5 * d)))),
    ("param._NEWTON_SKIP", 2.0 * param._NEWTON_SKIP, 0.3,
     "transform_to_params, Gram spectrum (1 + d, 1, 1/2)", _newton_case),
    ("exp_so3 at the angle 1e-4 (former sinc series)", 1e-4, 1e-8,
     "exp_so3, angle d; generator entries nudged relatively", _exp_so3_case),
    ("log_so3 at the angle 1e-4 (former small-angle series)", 1e-4, 1e-8,
     "log_so3, angle d", _rot_log_case(lambda d: d)),
    ("log_so3 at pi - 1e-3 (former near-pi switch)", 1e-3, 1e-8,
     "log_so3, angle pi - d", _rot_log_case(lambda d: math.pi - d)),
    ("log_so3 at pi/2 (cos t = 0)", 0.5 * math.pi, 1e-8,
     "log_so3, angle d", _rot_log_case(lambda d: d)),
]


def main() -> int:
    out = {"library": affine12.__file__, "dps": mp.mp.dps, "cases_per_side": CASES,
           "nudge": NUDGE, "rows": {}}
    for name, threshold, eps, what, case in ROWS:
        row = {"threshold": threshold, "straddle": eps, "input": what}
        for kind, nudge in (("exact", False), ("perturbed", True)):
            row[kind] = {}
            for side, d in (("below", threshold * (1.0 - eps)),
                            ("above", threshold * (1.0 + eps))):
                rng = random.Random(f"{name} {kind}")
                errs = [case(rng, d, nudge) for _ in range(CASES)]
                row[kind][side] = {"max": float(f"{max(errs):.3g}"),
                                   "median": float(f"{statistics.median(errs):.3g}")}
        out["rows"][name] = row
        print(name, json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

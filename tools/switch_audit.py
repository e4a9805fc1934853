"""Accuracy on both sides of every closed-form switch, against 50-digit mpmath.

    PYTHONPATH=src python tools/switch_audit.py > audit.json

Each row is one switch of the library, named by the constant that sets it
or, where the switch is gone, by the value it once sat at ("former"). Its
inputs sit at the threshold times 1 - e ("below") and 1 + e ("above"), 200
random cases a side, once exact and once with every entry moved by up to
1e-10 (symmetric inputs stay symmetric). e is 1e-8, or 0.3 for the Newton
skip, whose test quantity (a product of gaps to a near-double Gram root)
the cubic solver resolves only to ~15%. The error is the relative
Frobenius distance from the 50-digit result for that same input: exp or
half-log through the eigen-decomposition, and for `transform_to_params`
and the rotation log the log of the polar rotation factor (the nearest
rotation, for a perturbed rotation matrix). A switch whose two sides differ
by far more than their spread is a jump.

The four former series rows of the symmetric exp and the SPD log also get
`bands`: gaps d drawn log-uniformly within each band below the former
threshold (exp 1e-300 to 1e-4, log ratio gaps 1e-16 to 1e-3), 200 cases a
band, exact and perturbed as above. Every other case is centred at 0 for
the exp and at 1 for the log, so that the smallest gaps are representable;
the rest have the random centre of the straddle cases. Each band reports
the scalar kernel and the `affine12.batch` kernel on the same inputs. Their
error is the largest entry of |got - reference|, over the largest
reference entry for exp and over max(1, largest reference entry) for the
half-log (the half-log of a near-identity is near 0).

Stdout is one JSON object with the max and median error per row, input
kind and side (and band and path); the library in use (PYTHONPATH decides
it) is named in it.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys

import mpmath as mp
import numpy as np

# after PYTHONPATH, so a library given there is the one measured
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import affine12  # noqa: E402
from affine12 import batch, param  # noqa: E402
from affine12.expmap import exp_so3, exp_sym3  # noqa: E402
from affine12.linalg3 import AntiSymMat3, Mat3, SymMat3, Vec3, sym_eigenvalues  # noqa: E402
from affine12.logmap import log_so3, log_spd_half_gram  # noqa: E402
from affine12.param import HomAffine3, transform_to_params  # noqa: E402

mp.mp.dps = 50
CASES = 200
NUDGE = 1e-10
_PACKED = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


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
                     for i, j in _PACKED))


def _axis_gen(rng, angle) -> AntiSymMat3:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return AntiSymMat3(*(c / n * angle for c in v))


def _exp_input(spectrum):
    """Input maker (rng, gap d, perturbed, centred at 0) -> symmetric Y."""
    def make(rng, d, nudge, centred=False):
        b = 0.0 if centred else rng.uniform(-0.5, 0.5)
        y = _conj(_rotation(rng), spectrum(b, d))
        return SymMat3(*_nudged(y, rng)) if nudge else y
    return make


def _log_input(spectrum):
    """Input maker (rng, ratio gap d, perturbed, centred at 1) -> SPD G."""
    def make(rng, d, nudge, centred=False):
        l2 = 1.0 if centred else math.exp(rng.uniform(-0.5, 0.5))
        g = _conj(_rotation(rng), spectrum(l2, d))
        return SymMat3(*_nudged(g, rng)) if nudge else g
    return make


def _exp_ref(y) -> mp.matrix:
    return _fun(_m(_sym_rows(y)), mp.exp)


def _half_log_ref(g) -> mp.matrix:
    return _fun(_m(_sym_rows(g)), lambda x: mp.log(x) / 2)


def _scalar_half_log(g):
    return log_spd_half_gram(g, sym_eigenvalues(g))


def _batch_exp(ys):
    y = SymMat3(*np.array(ys).T)
    return np.array(batch._exp_sym3_with_eig(y, batch._sym_eigenvalues(y))).T


def _batch_half_log(gs):
    g = SymMat3(*np.array(gs).T)
    return np.array(batch._log_spd_half_gram(g, batch._sym_eigenvalues(g))).T


# (scalar kernel, batch kernel, reference, floor of the band error's scale)
_EXP = (exp_sym3, _batch_exp, _exp_ref, 0.0)
_LOG = (_scalar_half_log, _batch_half_log, _half_log_ref, 1.0)


def _kernel_case(make, kernel):
    """A straddle case maker: (rng, side value d, perturbed) -> relative error."""
    scalar, _, ref, _ = kernel

    def case(rng, d, nudge):
        s = make(rng, d, nudge)
        return _rel(_sym_rows(scalar(s)), ref(s))
    return case


def _scaled(got, want: mp.matrix, floor: float) -> float:
    """Largest entry of |got - want| over max(floor, largest entry of want)."""
    ref = [want[i, j] for i, j in _PACKED]
    err = max(abs(mp.mpf(float(x)) - w) for x, w in zip(got, ref))
    return float(err / max(mp.mpf(floor), max(abs(w) for w in ref)))


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


_EXP_OUTER = _exp_input(lambda b, d: (b + d, b, b - 0.5))
_EXP_SPREAD = _exp_input(lambda b, d: (b + 0.5 * d, b, b - 0.5 * d))
_LOG_RATIO = _log_input(lambda l, d: (l * (1.0 + d), l, 0.5 * l))
_LOG_SPREAD = _log_input(lambda l, d: (l * (1.0 + 0.5 * d), l, l * (1.0 - 0.5 * d)))

ROWS = [
    ("exp_sym3 at the outer gap 1e-4 (former e2 series)", 1e-4, 1e-8,
     "exp_sym3, spectrum (b + d, b, b - 1/2)", _kernel_case(_EXP_OUTER, _EXP)),
    ("exp_sym3 at the spread 1e-4 (former confluent series)", 1e-4, 1e-8,
     "exp_sym3, spectrum (b + d/2, b, b - d/2)", _kernel_case(_EXP_SPREAD, _EXP)),
    ("log_spd_half_gram at the ratio gap 1e-3 (former L2 series)", 1e-3, 1e-8,
     "log_spd_half_gram, spectrum (l(1 + d), l, l/2)", _kernel_case(_LOG_RATIO, _LOG)),
    ("log_spd_half_gram at the spread 1e-4 (former confluent series)", 1e-4, 1e-8,
     "log_spd_half_gram, spectrum (l(1 + d/2), l, l(1 - d/2))", _kernel_case(_LOG_SPREAD, _LOG)),
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

_EXP_BAND_EDGES = (1e-300, 1e-200, 1e-100, 1e-50, 1e-24, 1e-16, 1e-12, 1e-8, 1e-6, 1e-4)
_LOG_BAND_EDGES = (1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3)

# the former series rows: their input maker, kernel and band edges
BANDS = {
    ROWS[0][0]: (_EXP_OUTER, _EXP, _EXP_BAND_EDGES),
    ROWS[1][0]: (_EXP_SPREAD, _EXP, _EXP_BAND_EDGES),
    ROWS[2][0]: (_LOG_RATIO, _LOG, _LOG_BAND_EDGES),
    ROWS[3][0]: (_LOG_SPREAD, _LOG, _LOG_BAND_EDGES),
}


def _summary(errs) -> dict:
    return {"max": float(f"{max(errs):.3g}"), "median": float(f"{statistics.median(errs):.3g}")}


def _bands(name: str) -> dict:
    make, (scalar, batched, ref, floor), edges = BANDS[name]
    out = {}
    for kind, nudge in (("exact", False), ("perturbed", True)):
        out[kind] = {}
        for lo, hi in zip(edges, edges[1:]):
            rng = random.Random(f"{name} {kind} {lo:g}")
            inputs = [make(rng, math.exp(rng.uniform(math.log(lo), math.log(hi))), nudge, k % 2 == 0)
                      for k in range(CASES)]
            refs = [ref(s) for s in inputs]
            out[kind][f"{lo:g}..{hi:g}"] = {
                "scalar": _summary([_scaled(scalar(s), w, floor) for s, w in zip(inputs, refs)]),
                "batch": _summary([_scaled(row, w, floor)
                                   for row, w in zip(batched(inputs), refs)]),
            }
    return out


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
                row[kind][side] = _summary([case(rng, d, nudge) for _ in range(CASES)])
        if name in BANDS:
            row["bands"] = _bands(name)
        out["rows"][name] = row
        print(name, json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

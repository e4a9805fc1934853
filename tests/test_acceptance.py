"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines while
the suite runs; plain `pytest` shows them for failures only. The whole
module takes a minute or two: several criteria run at 10^5 samples.
"""

import math
import random
import time

from affine12.bench import roundtrip_error_stats, timing_run
from affine12.blend import WeightedTransforms, blend
from affine12.expmap import exp_so3, exp_sym3
from affine12.linalg3 import (
    MAT3_IDENTITY,
    AntiSymMat3,
    SymMat3,
    Vec3,
    antisym_angle,
    gram,
    mat_det,
    sym_eigenvalues,
    sym_scale,
)
from affine12.logmap import log_so3, log_spd_half_gram
from affine12.oracle import jacobi_eig, matfun_diag
from affine12.linalg3 import sym_poly2
from affine12.meshblend import CompatibleSet, blend_shapes
from affine12.param import (
    AffineParam12,
    HomAffine3,
    TransformClass,
    params_to_transform,
    project_to_class,
    transform_to_params,
)
from conftest import (
    axis_angle_rotation,
    conjugate_spectrum,
    exp_antisym_series,
    generator_for,
    mat_dist,
    rand_antisym,
    rand_unit_axis,
    sym_dist,
    sym_norm,
    sym_to_mat3,
    vandermonde_coeffs,
)
from test_meshblend import grid_mesh, warp_mesh

SEED = 20250809


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_roundtrip_fidelity():
    t0 = time.perf_counter()
    report = roundtrip_error_stats(100000, det_floor=1e-3, seed=SEED)
    elapsed = time.perf_counter() - t0
    err = report.max_sq_frobenius_error
    ok = err <= 1e-20 and elapsed < 10.0
    _verdict(1, "round-trip fidelity",
             ok, f"max |A - fwd(inv(A))|^2_F = {err:.3e} (<= 1e-20), {elapsed:.1f}s (< 10s)")


def test_criterion_2_symmetric_exp_log_fidelity():
    rng = random.Random(SEED + 1)
    worst_rt = 0.0
    worst_disc = 0.0
    bound = 5.0 / math.sqrt(9.0)  # entry bound keeping ||Y||_F <= 5
    for _ in range(100000):
        y = SymMat3(*(rng.uniform(-bound, bound) for _ in range(6)))
        s = exp_sym3(y)
        back = sym_scale(log_spd_half_gram(s, sym_eigenvalues(s)), 2.0)
        d = sym_dist(y, back)
        worst_rt = max(worst_rt, d * d)
        ref = matfun_diag(y, "exp")
        disc = sym_dist(s, ref) / max(1.0, sym_norm(ref))
        worst_disc = max(worst_disc, disc)
    ok = worst_rt <= 1e-22 and worst_disc <= 1e-12
    _verdict(2, "symmetric exp/log fidelity", ok,
             f"max round-trip err^2 = {worst_rt:.3e} (<= 1e-22), "
             f"max rel oracle discrepancy = {worst_disc:.3e} (<= 1e-12)")


def test_criterion_3_relative_speed():
    report = timing_run(100000, seed=SEED + 2)
    exp_ratio = report.speed_ratio["exp_sym3"]
    log_ratio = report.speed_ratio["log_spd"]
    ok = exp_ratio >= 1.3 and log_ratio >= 1.3
    _verdict(3, "relative speed vs diagonalisation", ok,
             f"exp ratio = {exp_ratio:.2f}x, log ratio = {log_ratio:.2f}x (both >= 1.3x)")


def test_criterion_4_large_rotation_tracking():
    axis = (1.0 / math.sqrt(3.0),) * 3
    steps = 126  # 4*pi / 126 ~ 0.0997 rad per step
    prev = AffineParam12.zero()
    angles = []
    principal_angles = []
    for k in range(1, steps + 1):
        angle = 4.0 * math.pi * k / steps
        a = HomAffine3(axis_angle_rotation(axis, angle), Vec3(0.0, 0.0, 0.0))
        prev = transform_to_params(a, ref=prev)
        angles.append(antisym_angle(prev.rotation))
        principal_angles.append(antisym_angle(transform_to_params(a).rotation))
    increasing = all(b > a for a, b in zip([0.0] + angles, angles))
    final_ok = abs(angles[-1] - 4.0 * math.pi) <= 1e-6
    principal_capped = max(principal_angles) <= math.pi + 1e-12
    ok = increasing and final_ok and principal_capped
    _verdict(4, "large-rotation tracking", ok,
             f"strictly increasing: {increasing}, final = {angles[-1]:.9f} "
             f"(4*pi +- 1e-6), principal branch max = {max(principal_angles):.6f} <= pi")


_PROPER_CLASSES = [c for c in TransformClass if c is not TransformClass.Affplus3]


def _random_member(rng, cls) -> HomAffine3:
    p = AffineParam12(
        Vec3(*(rng.uniform(-1.0, 1.0) for _ in range(3))),
        generator_for(rand_unit_axis(rng), rng.uniform(0.0, 2.5)),
        SymMat3(*(rng.uniform(-0.5, 0.5) for _ in range(6))),
    )
    return params_to_transform(project_to_class(p, cls))


def _membership_defect(a: HomAffine3, cls) -> float:
    """Distance from the class-defining transform-side invariants, scale-normalised."""
    lin = a.linear
    g = gram(lin)
    t_norm = math.sqrt(a.translation.x ** 2 + a.translation.y ** 2
                       + a.translation.z ** 2)
    c2 = (g.xx + g.yy + g.zz) / 3.0
    scale = max(1.0, c2)
    orth = mat_dist(sym_to_mat3(g), MAT3_IDENTITY)
    conformal = math.sqrt((g.xx - c2) ** 2 + (g.yy - c2) ** 2 + (g.zz - c2) ** 2
                          + 2.0 * (g.xy ** 2 + g.xz ** 2 + g.yz ** 2)) / scale
    sym_defect = math.sqrt((lin.a12 - lin.a21) ** 2 + (lin.a13 - lin.a31) ** 2
                           + (lin.a23 - lin.a32) ** 2) / max(1.0, math.sqrt(c2))
    ident = mat_dist(lin, MAT3_IDENTITY)
    C = TransformClass
    if cls is C.R3:
        return max(ident, 0.0)
    if cls is C.SO3:
        return max(orth, t_norm)
    if cls is C.Rplus:
        return max(conformal, sym_defect, t_norm)
    if cls is C.SE3:
        return orth
    if cls is C.COplus3:
        return max(conformal, t_norm)
    if cls is C.Symplus3:
        return max(sym_defect, t_norm)
    if cls is C.Simplus3:
        return conformal
    if cls is C.GLplus3:
        return t_norm
    raise AssertionError(cls)


def test_criterion_5_class_closure():
    rng = random.Random(SEED + 3)
    worst = 0.0
    all_positive = True
    for cls in _PROPER_CLASSES:
        for _ in range(200):
            members = tuple(_random_member(rng, cls) for _ in range(4))
            weights = tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
            out = blend(WeightedTransforms(members, weights))
            if mat_det(out.linear) <= 0.0:
                all_positive = False
            worst = max(worst, _membership_defect(out, cls))
    ok = worst <= 1e-8 and all_positive
    _verdict(5, "class closure under blending", ok,
             f"max membership defect = {worst:.3e} (<= 1e-8) over "
             f"{len(_PROPER_CLASSES)}x200 trials, all determinants positive: {all_positive}")


def test_criterion_6_mesh_blend_reproduction():
    rest = grid_mesh(10, 10)  # 200 faces
    target = warp_mesh(rest)
    assert len(rest.faces) == 200
    cset = CompatibleSet(rest, [target])
    t0 = time.perf_counter()
    at_rest = blend_shapes(cset, [0.0])
    at_target = blend_shapes(cset, [1.0])
    elapsed = time.perf_counter() - t0
    worst_rest = max(
        math.dist(got, want) / max(1.0, math.dist((0, 0, 0), want))
        for got, want in zip(at_rest.vertices, rest.vertices))
    worst_target = max(
        math.dist(got, want) / max(1.0, math.dist((0, 0, 0), want))
        for got, want in zip(at_target.vertices, target.vertices))
    ok = worst_rest <= 1e-6 and worst_target <= 1e-6 and elapsed < 5.0
    _verdict(6, "mesh blend reproduction", ok,
             f"rest defect = {worst_rest:.3e}, target defect = {worst_target:.3e} "
             f"(<= 1e-6 relative), {elapsed:.2f}s (< 5s)")


def _straddle(scale: float, eps: float = 1e-8):
    return scale * (1.0 - eps), scale * (1.0 + eps)


def test_criterion_7_branch_fallback_continuity():
    rng = random.Random(SEED + 4)
    pairs = 0
    worst = 0.0
    worst_own = 0.0

    def check(d):
        nonlocal worst
        worst = max(worst, d)

    def check_own(x):
        # the rotation log against the generator it was built from
        nonlocal worst_own
        worst_own = max(worst_own, math.sqrt(2) * math.dist(log_so3(exp_so3(x)), x))

    for _ in range(150):  # rotation-angle thresholds of the exponential/log
        axis = rand_unit_axis(rng)
        lo, hi = _straddle(1e-4)  # former small-angle series switch
        a = exp_so3(generator_for(axis, lo))
        b = exp_so3(generator_for(axis, hi))
        check(mat_dist(a, b))
        check(math.sqrt(2) * math.dist(log_so3(a), log_so3(b)))
        gap_lo, gap_hi = _straddle(1e-3)  # former half-turn switch of the log
        ra = axis_angle_rotation(axis, math.pi - gap_hi)
        rb = axis_angle_rotation(axis, math.pi - gap_lo)
        check(math.sqrt(2) * math.dist(log_so3(ra), log_so3(rb)))
        # the branch test of the log, cos t = 0: the two sides differ by
        # 4.4e-8 by construction, so each is held to its own generator
        lo, hi = _straddle(0.5 * math.pi)
        check_own(generator_for(axis, lo))
        check_own(generator_for(axis, hi))
        pairs += 4

    for _ in range(150):  # former helper-series and confluent-spectrum switches of exp
        q = exp_so3(rand_antisym(rng, 2.0))
        base = rng.uniform(-0.5, 0.5)
        lo, hi = _straddle(1e-4)
        ya = conjugate_spectrum(q, (base + lo, base, base - 0.5))
        yb = conjugate_spectrum(q, (base + hi, base, base - 0.5))
        check(sym_dist(exp_sym3(ya), exp_sym3(yb)))
        ya = conjugate_spectrum(q, (base + lo / 2, base, base - lo / 2))
        yb = conjugate_spectrum(q, (base + hi / 2, base, base - hi / 2))
        check(sym_dist(exp_sym3(ya), exp_sym3(yb)))
        pairs += 2

    for _ in range(150):  # former helper-series and confluent switches of the SPD log
        q = exp_so3(rand_antisym(rng, 2.0))
        l2 = math.exp(rng.uniform(-0.5, 0.5))
        lo, hi = _straddle(1e-3)
        ga = conjugate_spectrum(q, (l2 * (1 + lo), l2, 0.5 * l2))
        gb = conjugate_spectrum(q, (l2 * (1 + hi), l2, 0.5 * l2))
        check(sym_dist(log_spd_half_gram(ga, sym_eigenvalues(ga)),
                       log_spd_half_gram(gb, sym_eigenvalues(gb))))
        lo, hi = _straddle(1e-4)
        ga = conjugate_spectrum(q, (l2 * (1 + lo / 2), l2, l2 * (1 - lo / 2)))
        gb = conjugate_spectrum(q, (l2 * (1 + hi / 2), l2, l2 * (1 - hi / 2)))
        check(sym_dist(log_spd_half_gram(ga, sym_eigenvalues(ga)),
                       log_spd_half_gram(gb, sym_eigenvalues(gb))))
        pairs += 2

    ok = worst <= 1e-10 and worst_own <= 1e-14 and pairs >= 1000
    _verdict(7, "branch-fallback continuity", ok,
             f"max output jump = {worst:.3e} (<= 1e-10), max rotation-log error at "
             f"cos t = 0 = {worst_own:.3e} (<= 1e-14) over {pairs} straddling pairs")


def test_criterion_8_oracle_agreement():
    rng = random.Random(SEED + 5)
    worst_rot = 0.0
    for _ in range(10000):
        angle = math.exp(rng.uniform(math.log(1e-6), math.log(10.0)))
        x = generator_for(rand_unit_axis(rng), angle)
        worst_rot = max(worst_rot, mat_dist(exp_so3(x), exp_antisym_series(x)))

    worst_eig = 0.0
    for _ in range(10000):
        y = SymMat3(*(rng.uniform(-2.0, 2.0) for _ in range(6)))
        ours = sym_eigenvalues(y)
        ref, _ = jacobi_eig(y)
        worst_eig = max(worst_eig, max(abs(a - b) for a, b in zip(ours, ref)))

    worst_exp = 0.0
    worst_log = 0.0
    done = 0
    while done < 10000:
        lams = sorted((rng.uniform(-2.0, 2.0) for _ in range(3)), reverse=True)
        if lams[0] - lams[1] < 1e-2 or lams[1] - lams[2] < 1e-2:
            continue
        done += 1
        y = conjugate_spectrum(exp_so3(rand_antisym(rng, 2.0)), lams)
        eig = sym_eigenvalues(y)
        a, b, c = vandermonde_coeffs(tuple(math.exp(v) for v in eig), tuple(eig))
        worst_exp = max(worst_exp, sym_dist(sym_poly2(a, b, c, y), exp_sym3(y)))
        g = exp_sym3(y)  # SPD with well-separated spectrum
        geig = sym_eigenvalues(g)
        a, b, c = vandermonde_coeffs(tuple(0.5 * math.log(v) for v in geig),
                                     tuple(geig))
        worst_log = max(worst_log,
                        sym_dist(sym_poly2(a, b, c, g),
                                 log_spd_half_gram(g, geig)))

    ok = max(worst_rot, worst_eig, worst_exp, worst_log) <= 1e-11
    _verdict(8, "oracle agreement", ok,
             f"rotation-exp vs series = {worst_rot:.3e}, cubic vs Jacobi = "
             f"{worst_eig:.3e}, interpolation-coefficient exp = {worst_exp:.3e}, "
             f"log = {worst_log:.3e} (all <= 1e-11)")

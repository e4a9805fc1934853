"""Seeded input generators for the benchmark workloads.

Everything here is plain data -- 3x4 row lists, vertex arrays, weight
tuples -- drawn from numpy's PCG64 generator, so one seed always gives the
same inputs. The generators deliberately do not use the package's own
sampling helpers or test fixtures: a later change that shrinks those must
not change what the benchmark feeds the program.

A transform is a 12-tuple in row-major 3x4 order, linear part first in
each row and the translation in the fourth column.
"""

from __future__ import annotations

import math

import numpy as np

# Criterion-1 protocol: uniform [-1, 1] entries, rejection-sampled to det > 1e-3.
DET_FLOOR = 1e-3

# Switch points of the closed forms, used to aim the regime inputs at their
# fallback branches and to classify pull-backs from outside the program.
NEAR_PI_GAP = 1e-3      # rotation log: axis extraction within this of pi
SMALL_ANGLE = 1e-4      # sinc / rotation-log Taylor forms below this angle
CONFLUENT_SPREAD = 1e-4  # exp/log confluent-spectrum series below this spread

# Share of each input kind in the convert stream.
CONVERT_MIX = (
    ("ordinary", 0.94),
    ("near_pi", 0.02),
    ("small_angle", 0.02),
    ("confluent", 0.02),
)

_SHEAR = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]])

# Fixed envelope cases: name -> linear part (translation zero).
ENVELOPE_CASES = (
    ("diag(1,1,1e-9)", np.diag([1.0, 1.0, 1e-9])),
    ("1e-150*I", 1e-150 * np.eye(3)),
    ("1e100*shear", 1e100 * _SHEAR),
    ("diag(1e6,1,1e-6)", np.diag([1e6, 1.0, 1e-6])),
)

# Envelope ranges: log-uniform scale and condition number.
ENVELOPE_LOG10_SCALE = (-150.0, 150.0)
ENVELOPE_LOG10_COND = (0.0, 6.0)


def _rows(linear: np.ndarray, translation: np.ndarray) -> list[tuple[float, ...]]:
    """Stack (n,3,3) linear parts and (n,3) translations into 12-tuples."""
    block = np.concatenate([linear, translation[:, :, None]], axis=2)
    return [tuple(r) for r in block.reshape(len(block), 12).tolist()]


def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rotations(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for (n,3) unit axes and (n,) angles."""
    k = np.zeros((len(axes), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -axes[:, 2], axes[:, 1], -axes[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = axes[:, 2], -axes[:, 1], axes[:, 0]
    s = np.sin(angles)[:, None, None]
    c = (1.0 - np.cos(angles))[:, None, None]
    return np.eye(3) + s * k + c * (k @ k)


def spd_from_spectrum(frames: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Q diag(spectrum) Q^T for (n,3,3) orthogonal frames and (n,3) spectra."""
    return (frames * spectra[:, None, :]) @ np.transpose(frames, (0, 2, 1))


def random_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    return rotations(unit_vectors(rng, n), rng.uniform(0.0, math.pi, n))


def criterion1(rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
    """Uniform [-1, 1] entries, rejection-sampled to det(linear) > DET_FLOOR."""
    out = np.empty((0, 12))
    while len(out) < n:
        draw = rng.uniform(-1.0, 1.0, size=(2 * n + 16, 12))
        det = np.linalg.det(draw[:, :9].reshape(-1, 3, 3))
        out = np.concatenate([out, draw[det > DET_FLOOR]])
    out = out[:n]
    return _rows(out[:, :9].reshape(-1, 3, 3), out[:, 9:])


def _stretched(rng, rot: np.ndarray, spectra: np.ndarray) -> list[tuple[float, ...]]:
    n = len(rot)
    stretch = spd_from_spectrum(random_frames(rng, n), spectra)
    return _rows(rot @ stretch, rng.uniform(-1.0, 1.0, size=(n, 3)))


def _moderate_spectra(rng, n: int) -> np.ndarray:
    return np.exp(rng.uniform(-0.5, 0.5, size=(n, 3)))


def regime_inputs(rng: np.random.Generator, kind: str, n: int) -> list[tuple[float, ...]]:
    """Inputs aimed at one closed-form fallback regime.

    near_pi: rotation angle within NEAR_PI_GAP of pi (a tenth exactly pi);
    small_angle: angle below SMALL_ANGLE (a tenth exactly zero);
    confluent: stretch spectrum spread below CONFLUENT_SPREAD (a third
    exactly scalar).
    """
    axes = unit_vectors(rng, n)
    if kind == "near_pi":
        gap = 10.0 ** rng.uniform(-9.0, math.log10(NEAR_PI_GAP), n)
        gap[rng.uniform(size=n) < 0.1] = 0.0
        return _stretched(rng, rotations(axes, math.pi - gap), _moderate_spectra(rng, n))
    if kind == "small_angle":
        angle = 10.0 ** rng.uniform(-12.0, math.log10(SMALL_ANGLE), n)
        angle[rng.uniform(size=n) < 0.1] = 0.0
        return _stretched(rng, rotations(axes, angle), _moderate_spectra(rng, n))
    if kind == "confluent":
        base = np.exp(rng.uniform(-0.5, 0.5, size=(n, 1)))
        spread = 10.0 ** rng.uniform(-10.0, math.log10(CONFLUENT_SPREAD) - 0.5, size=(n, 1))
        spread[rng.uniform(size=n) < 1.0 / 3.0] = 0.0
        spectra = base * np.exp(spread * rng.uniform(-0.5, 0.5, size=(n, 3)))
        return _stretched(rng, rotations(axes, rng.uniform(0.0, math.pi, n)), spectra)
    raise ValueError(f"unknown regime {kind!r}")


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi), shuffled."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * rng.permutation(u)


def envelope_inputs(rng: np.random.Generator, n: int) -> list[tuple[tuple[float, ...], str]]:
    """Valid inputs outside the protocol's range, as (rows, case) pairs.

    A tenth of the slice (at least one of each) cycles through the fixed
    ENVELOPE_CASES, named by case; the rest, named "random", draw a
    log-uniform scale over ENVELOPE_LOG10_SCALE and a log-uniform
    condition number over ENVELOPE_LOG10_COND. Stratified draws keep the
    share of each sub-range the same from seed to seed.
    """
    n_fixed = min(n, max(len(ENVELOPE_CASES), n // 10))
    cases = [ENVELOPE_CASES[i % len(ENVELOPE_CASES)] for i in range(n_fixed)]
    fixed = _rows(np.array([c[1] for c in cases]).reshape(-1, 3, 3), np.zeros((n_fixed, 3)))
    out = [(r, c[0]) for r, c in zip(fixed, cases)]
    m = n - n_fixed
    if m <= 0:
        return out
    scale = 10.0 ** _stratified(rng, *ENVELOPE_LOG10_SCALE, m)
    log_cond = _stratified(rng, *ENVELOPE_LOG10_COND, m)
    middle = rng.uniform(-0.5, 0.5, m)
    spectra = 10.0 ** np.stack([0.5 * log_cond, middle * log_cond, -0.5 * log_cond], axis=1)
    rot = random_frames(rng, m)
    linear = scale[:, None, None] * (rot @ spd_from_spectrum(random_frames(rng, m), spectra))
    translation = scale[:, None] * rng.uniform(-1.0, 1.0, size=(m, 3))
    return out + [(r, "random") for r in _rows(linear, translation)]


def transform_stream(seed: int, n: int, mix=CONVERT_MIX) -> list[tuple[tuple[float, ...], str]]:
    """n (rows, kind) pairs in the given mix, shuffled."""
    rng = np.random.default_rng(seed)
    counts = {kind: round(n * share) for kind, share in mix if kind != "ordinary"}
    counts["ordinary"] = n - sum(counts.values())
    items: list[tuple[tuple[float, ...], str]] = []
    for kind, _ in mix:
        count = counts[kind]
        if count <= 0:
            continue
        if kind == "ordinary":
            items.extend((r, kind) for r in criterion1(rng, count))
        else:
            items.extend((r, kind) for r in regime_inputs(rng, kind, count))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# -- pose tracks --------------------------------------------------------------

# Knot gaps (time units) of every track, permuted per track: all tracks
# span [0, 22] with 12 knots at integer times.
TRACK_GAPS = (1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3)
TRACK_SPAN = sum(TRACK_GAPS)
# Angular speed (rad per time unit): at most 2.7 rad per segment, below pi,
# so chaining the consistent log from knot to knot recovers the winding;
# over the span the rotation winds 2.5 to 3.2 turns.
TRACK_OMEGA = (0.7, 0.9)


def pose_tracks(seed: int, n_tracks: int) -> list[dict]:
    """Keyframed pose tracks whose rotations wind through several turns.

    Each track: `times` (12 increasing integers from 0 to TRACK_SPAN) and
    `keyframes` (12 rows). The rotation angle grows linearly in time about
    a slowly drifting axis; stretch and translation drift smoothly.
    """
    rng = np.random.default_rng(seed)
    tracks = []
    for _ in range(n_tracks):
        gaps = rng.permutation(TRACK_GAPS)
        times = np.concatenate([[0], np.cumsum(gaps)]).astype(float)
        u = times / TRACK_SPAN
        k = len(times)
        axis0 = unit_vectors(rng, 1)[0]
        drift = unit_vectors(rng, 1)[0]
        axes = axis0[None, :] + 0.2 * u[:, None] * drift[None, :]
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        omega = rng.uniform(*TRACK_OMEGA)
        angles = rng.uniform(0.0, math.pi) + omega * times
        y0 = rng.uniform(-0.2, 0.2, size=6)
        dy = rng.uniform(-0.2, 0.2, size=6)
        ys = y0[None, :] + u[:, None] * dy[None, :] + rng.uniform(-0.03, 0.03, size=(k, 6))
        sym = np.empty((k, 3, 3))
        for (i, j), col in zip(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)), range(6)):
            sym[:, i, j] = sym[:, j, i] = ys[:, col]
        evals, evecs = np.linalg.eigh(sym)
        stretch = spd_from_spectrum(evecs, np.exp(evals))
        t0 = rng.uniform(-1.0, 1.0, size=3)
        v = rng.uniform(-0.1, 0.1, size=3)
        trans = t0[None, :] + times[:, None] * v[None, :] + rng.uniform(-0.05, 0.05, size=(k, 3))
        tracks.append({
            "times": tuple(times.tolist()),
            "keyframes": _rows(rotations(axes, angles) @ stretch, trans),
        })
    return tracks


# -- meshes -------------------------------------------------------------------

def warped_grid(seed: int, m: int, n: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """(m+1)x(n+1) grid on the unit square, 2*m*n faces, jittered and lifted."""
    rng = np.random.default_rng(seed)
    jx, jy = np.meshgrid(np.arange(m + 1) / m, np.arange(n + 1) / n)
    xy = np.stack([jx.ravel(), jy.ravel()], axis=1)
    xy += rng.uniform(-0.15, 0.15, size=xy.shape) * np.array([1.0 / m, 1.0 / n])
    fx, fy, phase = rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0), rng.uniform(0.0, math.pi)
    z = 0.08 * np.sin(fx * math.pi * xy[:, 0] + phase) * np.cos(fy * math.pi * xy[:, 1])
    vertices = np.column_stack([xy, z])
    faces = []
    for j in range(n):
        for i in range(m):
            v00 = j * (m + 1) + i
            v10, v01 = v00 + 1, v00 + m + 1
            faces.append((v00, v10, v01 + 1))
            faces.append((v00, v01 + 1, v01))
    return vertices, faces


def mesh_targets(seed: int, vertices: np.ndarray) -> list[np.ndarray]:
    """Bend, twist and bulge of the rest vertices (smooth, orientation-preserving)."""
    rng = np.random.default_rng(seed + 1)
    x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    # bend: wrap the sheet around a cylinder parallel to the y axis
    radius = rng.uniform(0.8, 1.2)
    phi = (x - 0.5) / radius
    bend = np.column_stack([0.5 + (radius + z) * np.sin(phi), y,
                            (radius + z) * np.cos(phi) - radius])
    # twist: rotate about the x axis by an angle proportional to x
    tau = rng.uniform(0.8, 1.5) * (x - 0.5)
    yc = y - 0.5
    twist = np.column_stack([x, 0.5 + yc * np.cos(tau) - z * np.sin(tau),
                             yc * np.sin(tau) + z * np.cos(tau)])
    # bulge: a Gaussian bump with a matching radial swell
    cx, cy = rng.uniform(0.3, 0.7, size=2)
    height = rng.uniform(0.1, 0.3)
    bump = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.05)
    swell = 1.0 + 0.15 * bump
    bulge = np.column_stack([cx + (x - cx) * swell, cy + (y - cy) * swell, z + height * bump])
    return [bend, twist, bulge]


def weight_sequence(seed: int, n_targets: int) -> list[tuple[float, ...]]:
    """Query weights: zero, each one-hot, one interior, one extrapolating."""
    rng = np.random.default_rng(seed + 2)
    seq = [tuple([0.0] * n_targets)]
    seq += [tuple(1.0 if k == j else 0.0 for k in range(n_targets)) for j in range(n_targets)]
    w = rng.uniform(0.05, 1.0, n_targets)
    seq.append(tuple((w / w.sum() * rng.uniform(0.6, 1.0)).tolist()))
    w = rng.uniform(-0.4, 1.4, n_targets)
    w[0] = rng.uniform(1.2, 1.5)
    w[-1] = -rng.uniform(0.2, 0.4)
    seq.append(tuple(w.tolist()))
    return seq

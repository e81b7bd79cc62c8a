"""Deterministic rendering of dynamical and parameter planes.

Pixels sample cell centers; the top row carries the largest imaginary part.
Orbits are checked before each application of the map: a point within
conv_radius of 0 ends as root-0, within conv_radius of a known finite
attractor as strange-attractor, and at modulus >= infinity_radius as
root-inf.  Points still undecided after max_iter applications are "none"
and render black.  The grid is processed in fixed 32-row bands so output
bytes do not depend on the worker count.

Parameter planes follow the orbit of one free critical point per pixel.
A family's pixel is its normal form sign * z^n * P / P-hat, read as the
coefficients a(t) = (a_1, ..., a_k) and turned into num/den rows in one
place.  When a(t) is affine in t (stability.affine_fit, certified at three
probes around the window center), a band's coefficients are A + t B;
otherwise the family is called once per pixel and its forms are stacked.
Either way each band then goes through one batched path: the derivative
numerator, analytic removal of the anchored factors, companion-matrix root
solves, seed selection and orbit iteration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NdynError
# poly_roots is unused here but stays bound: bench/test_bench.py checks that
# the tracer patches and restores it through this module
from .poly import RationalMap, is_inf, poly_roots  # noqa: F401
from .stability import affine_fit

OUTCOME_NONE = 0
OUTCOME_ROOT0 = 1
OUTCOME_ROOTINF = 2
OUTCOME_STRANGE = 3
OUTCOME_NAMES = {
    OUTCOME_NONE: "none",
    OUTCOME_ROOT0: "root-0",
    OUTCOME_ROOTINF: "root-inf",
    OUTCOME_STRANGE: "strange-attractor",
}

CHUNK_ROWS = 32
ANCHOR_TOL = 1e-6      # critical points this close to +-1 are not free seeds
ORIGIN_TOL = 1e-9

_SPEED_STOPS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_SPEED_COLORS = np.array([
    [255.0, 0.0, 0.0],
    [255.0, 255.0, 0.0],
    [0.0, 255.0, 0.0],
    [0.0, 0.0, 255.0],
    [128.0, 128.0, 128.0],
])


@dataclass(frozen=True)
class RenderConfig:
    window: tuple                 # (x_min, x_max, y_min, y_max)
    resolution: tuple             # (width, height)
    max_iter: int = 150
    conv_radius: float = 1e-4
    infinity_radius: float = 1e8
    mode: str = "speed"           # speed | attractor
    workers: Optional[int] = None

    def __post_init__(self):
        x0, x1, y0, y1 = self.window
        if not (x0 < x1 and y0 < y1):
            raise ValueError("window must satisfy x_min < x_max, y_min < y_max")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError("resolution must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.conv_radius <= 0:
            raise ValueError("conv_radius must be positive")
        if self.mode not in ("speed", "attractor"):
            raise ValueError("mode must be 'speed' or 'attractor'")

    @property
    def width(self) -> int:
        return self.resolution[0]

    @property
    def height(self) -> int:
        return self.resolution[1]

    def x_centers(self) -> np.ndarray:
        x0, x1, _, _ = self.window
        dx = (x1 - x0) / self.width
        return x0 + (np.arange(self.width) + 0.5) * dx

    def y_centers(self) -> np.ndarray:
        """Row coordinates, top row first (largest imaginary part)."""
        _, _, y0, y1 = self.window
        dy = (y1 - y0) / self.height
        return y1 - (np.arange(self.height) + 0.5) * dy


@dataclass
class PlaneImage:
    width: int
    height: int
    outcome: np.ndarray           # (h, w) int8 codes
    iterations: np.ndarray        # (h, w) int32
    config: RenderConfig
    diagnostics: dict = field(default_factory=dict)

    def counts(self) -> dict:
        flat = self.outcome.ravel()
        return {name: int(np.count_nonzero(flat == code))
                for code, name in OUTCOME_NAMES.items()}

    @property
    def rgb(self) -> np.ndarray:
        return colorize(self, self.config.mode)


def resolve_workers(cfg: RenderConfig) -> int:
    if cfg.workers:
        return max(1, int(cfg.workers))
    env = os.environ.get("NDYN_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _flatten_attractors(known) -> np.ndarray:
    points = []
    for item in known or ():
        if isinstance(item, (tuple, list)):
            points.extend(item)
        else:
            points.append(item)
    finite = [complex(p) for p in points if not is_inf(p)]
    return np.asarray(finite, dtype=np.complex128)


def _horner_shared(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, c[-1], dtype=np.complex128)
    for k in range(c.size - 2, -1, -1):
        acc = acc * z + c[k]
    return acc


def _horner_rows(C: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = C[:, -1].copy()
    for k in range(C.shape[1] - 2, -1, -1):
        acc = acc * z + C[:, k]
    return acc


def _iterate(z0: np.ndarray, num_c, den_c, cfg: RenderConfig,
             attractors: np.ndarray, per_pixel: bool,
             dead: Optional[np.ndarray] = None):
    """Orbit classification for a flat batch of seeds.

    `dead` marks seeds that never run (no usable critical point); they end
    as outcome none with max_iter iterations.
    """
    P = z0.size
    out = np.zeros(P, np.int8)
    its = np.full(P, cfg.max_iter, np.int32)
    if dead is not None:
        act = np.where(~dead)[0]
    else:
        act = np.arange(P)
    z = z0.astype(np.complex128, copy=True)
    conv = cfg.conv_radius
    esc = cfg.infinity_radius
    for t in range(cfg.max_iter):
        if act.size == 0:
            break
        za = z[act]
        r = np.abs(za)
        hit0 = r < conv
        hit_s = np.zeros(act.size, dtype=bool)
        for a in attractors:
            hit_s |= np.abs(za - a) < conv
        hit_s &= ~hit0
        hit_i = (r >= esc) & ~hit0 & ~hit_s
        done = hit0 | hit_s | hit_i
        if done.any():
            out[act[hit0]] = OUTCOME_ROOT0
            out[act[hit_s]] = OUTCOME_STRANGE
            out[act[hit_i]] = OUTCOME_ROOTINF
            its[act[done]] = t
            act = act[~done]
            if act.size == 0:
                break
            za = z[act]
        with np.errstate(all="ignore"):
            if per_pixel:
                nv = _horner_rows(num_c[act], za)
                dv = _horner_rows(den_c[act], za)
            else:
                nv = _horner_shared(num_c, za)
                dv = _horner_shared(den_c, za)
            z[act] = nv / dv
    return out, its


def _run_chunks(cfg: RenderConfig, work: Callable[[int, int], None]) -> None:
    bands = [(r, min(r + CHUNK_ROWS, cfg.height))
             for r in range(0, cfg.height, CHUNK_ROWS)]
    workers = resolve_workers(cfg)
    if workers <= 1 or len(bands) == 1:
        for r0, r1 in bands:
            work(r0, r1)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda b: work(*b), bands))


def orbit_outcome(R: RationalMap, z0: complex, cfg: RenderConfig,
                  known_attractors=()) -> tuple:
    """(outcome name, iterations) of one seed, same rule as the grid."""
    attr = _flatten_attractors(known_attractors)
    out, its = _iterate(np.array([z0], np.complex128),
                        R.num.coeffs, R.den.coeffs, cfg, attr, False)
    return OUTCOME_NAMES[int(out[0])], int(its[0])


def dynamical_plane(R: RationalMap, cfg: RenderConfig,
                    known_attractors=()) -> PlaneImage:
    attr = _flatten_attractors(known_attractors)
    xs = cfg.x_centers()
    ys = cfg.y_centers()
    outcome = np.zeros((cfg.height, cfg.width), np.int8)
    iters = np.zeros((cfg.height, cfg.width), np.int32)
    num_c = R.num.coeffs
    den_c = R.den.coeffs

    def work(r0, r1):
        zz = (xs[None, :] + 1j * ys[r0:r1, None]).ravel()
        o, it = _iterate(zz, num_c, den_c, cfg, attr, False)
        outcome[r0:r1] = o.reshape(r1 - r0, cfg.width)
        iters[r0:r1] = it.reshape(r1 - r0, cfg.width)

    _run_chunks(cfg, work)
    return PlaneImage(cfg.width, cfg.height, outcome, iters, cfg)


# --------------------------------------------------------------------------
# parameter planes
# --------------------------------------------------------------------------


def _rows(n, sign, a: np.ndarray) -> tuple:
    """(num, den) coefficient rows of sign * z^n * P / P-hat, one per row of
    `a` (a_1..a_k); `n` and `sign` are scalars or per-row arrays."""
    P, k = a.shape
    den = np.ones((P, k + 1), np.complex128)
    den[:, 1:] = a
    p = den[:, ::-1]
    p = np.where(np.reshape(sign, (-1, 1)) < 0, -p, p)
    n = np.broadcast_to(n, (P,))
    num = np.zeros((P, n.max() + k + 1), np.complex128)
    for m in np.unique(n):
        num[n == m, m:m + k + 1] = p[n == m]
    return num, den


def _form_rows(family, ts) -> tuple:
    """Rows of the family's form at each t, a zero-padded to the largest k
    (a padded a_k = 0 moves one power of z from P into z^n)."""
    forms = [family(complex(t)) for t in ts]
    k = max(f.k for f in forms)
    a = np.zeros((len(forms), k), np.complex128)
    for i, f in enumerate(forms):
        a[i, :f.k] = f.a
    return _rows(np.array([f.n - (k - f.k) for f in forms]),
                 np.array([f.sign for f in forms]), a)


def _syndiv_rows(C: np.ndarray, r: float) -> np.ndarray:
    """Row-wise synthetic division of ascending coefficients by (z - r)."""
    P, D = C.shape
    Q = np.empty((P, D - 1), np.complex128)
    Q[:, D - 2] = C[:, D - 1]
    for j in range(D - 3, -1, -1):
        Q[:, j] = C[:, j + 1] + r * Q[:, j + 1]
    return Q


def _strip_origin_rows(C: np.ndarray) -> np.ndarray:
    """Remove the z^s factor of each row in place (criticals parked at 0).

    Doing this before any synthetic division keeps the bottom coefficients
    structurally zero instead of cancellation dust, which would otherwise
    scatter the origin root cluster under the batched eigensolve.
    """
    P, D = C.shape
    scale = np.abs(C).max(axis=1)
    nz = np.abs(C) > 1e-12 * np.maximum(scale, 1e-300)[:, None]
    first = np.where(nz.any(axis=1), nz.argmax(axis=1), 0)
    for s in np.unique(first):
        if s == 0:
            continue
        rows = np.where(first == s)[0]
        C[rows, :D - s] = C[rows, s:]
        C[rows, D - s:] = 0.0
    return C


def _deflate_anchored_rows(C: np.ndarray) -> np.ndarray:
    """Divide out every structural factor (z - 1) and (z + 1), per row.

    Multiple roots parked exactly at the anchored points +-1 scatter badly
    under batched eigensolves (radius ~ eps^(1/m)), so they are removed
    analytically first; a residual vanishing within 1e-8 relative counts
    as structural.
    """
    C = C.copy()
    P, D = C.shape
    if D < 2:
        return C
    _strip_origin_rows(C)
    for r in (1.0, -1.0):
        powers = (r ** np.arange(D))[None, :]
        for _ in range(D - 1):
            vals = (C * powers).sum(axis=1)
            scale = np.abs(C).sum(axis=1)
            mask = (scale > 0) & (np.abs(vals) <= 1e-8 * scale)
            mask &= np.abs(C[:, 1:]).sum(axis=1) > 0
            if not mask.any():
                break
            C[mask, :D - 1] = _syndiv_rows(C[mask], r)
            C[mask, D - 1] = 0.0
    return C


def _roots_rows(C: np.ndarray) -> np.ndarray:
    """Roots of each row's ascending-coefficient polynomial, nan-padded."""
    P, D = C.shape
    out = np.full((P, max(D - 1, 1)), np.nan + 0.0j, np.complex128)
    if D <= 1:
        return out
    scale = np.abs(C).max(axis=1)
    deg = np.full(P, -1)
    for k in range(D - 1, -1, -1):
        undecided = deg < 0
        hit = undecided & (np.abs(C[:, k]) >
                           1e-12 * np.maximum(scale, 1e-300))
        deg[hit] = k
    for m in np.unique(deg):
        if m < 1:
            continue
        rows = np.where(deg == m)[0]
        monic = C[rows, :m + 1] / C[rows, m][:, None]
        comp = np.zeros((rows.size, m, m), np.complex128)
        if m > 1:
            idx = np.arange(m - 1)
            comp[:, idx + 1, idx] = 1.0
        comp[:, :, m - 1] = -monic[:, :m]
        ev = np.linalg.eigvals(comp)
        out[rows, :m] = ev
    return out


def _select_seed_rows(roots: np.ndarray, index: Optional[int] = None) -> tuple:
    """Free-critical selection, vectorized over pixels.

    Drops roots at 0 and the anchored points +-1 and counts the estimates
    of a multiple root once.  The candidates are the survivors with modulus
    <= 1 (all survivors when rounding pushed every one above 1), ordered by
    argument mod 2 pi.  With index None the default rule requires exactly
    one iota pair and picks the first candidate; an integer index picks that
    candidate whatever the pair count, and a pixel with no such candidate
    counts as having no free critical point.
    Returns (seed, dead_mask, no_free_mask, multi_mask).
    """
    P, D = roots.shape
    usable = np.isfinite(roots)
    mod = np.abs(roots)
    usable &= mod > ORIGIN_TOL
    usable &= np.abs(roots - 1.0) > ANCHOR_TOL
    usable &= np.abs(roots + 1.0) > ANCHOR_TOL
    # Free critical points come in kappa <-> 1/kappa pairs, so a row with
    # more than two usable roots holds several pairs or a multiple root
    # (os3's free pair is double), which comes back as m scattered
    # estimates.  Fold each estimate into the first one within the
    # tolerance of poly._clusters and use their mean, far closer to the
    # root than any one estimate.  Column by column: memory stays O(P * D).
    rows = np.where(usable.sum(axis=1) > 2)[0]
    if rows.size:
        R, U = roots[rows], usable[rows]
        total, size = R.copy(), np.ones(R.shape)
        for j in range(1, D):
            near = (np.abs(R[:, :j] - R[:, j, None])
                    <= 1e-4 * (1.0 + np.abs(R[:, j, None]))) & U[:, :j]
            dup = np.where(U[:, j] & near.any(axis=1))[0]
            first = near[dup].argmax(axis=1)
            total[dup, first] += R[dup, j]
            size[dup, first] += 1.0
            U[dup, j] = False
        roots = roots.copy()
        roots[rows] = total / size
        usable[rows] = U
        mod = np.abs(roots)
    count = usable.sum(axis=1)
    no_free = count == 0
    candidate = usable & (mod <= 1.0 + 1e-9)
    # fall back to any usable root when rounding pushed both members above 1
    none_cand = ~candidate.any(axis=1) & ~no_free
    if none_cand.any():
        candidate[none_cand] = usable[none_cand]
    angle = np.angle(roots)
    angle = np.where(angle < 0, angle + 2.0 * np.pi, angle)
    key = np.where(candidate, angle, np.inf)
    if index is None:
        multi = (count + 1) // 2 > 1
        pick = np.argmin(key, axis=1)
    else:
        multi = np.zeros(P, bool)
        no_free |= candidate.sum(axis=1) <= index
        pick = np.argsort(key, axis=1, kind="stable")[:, min(index, D - 1)]
    seed = roots[np.arange(P), pick]
    dead = no_free | multi
    seed = np.where(dead, 0.0 + 0.0j, seed)
    return seed, dead, no_free, multi


def parameter_plane(family, cfg: RenderConfig, selector=None,
                    known_attractors=()) -> PlaneImage:
    """Render the plane of a one-parameter family of operators.

    `family` maps a complex parameter to an OperatorForm.  When its
    coefficients a(t) pass the affine fit at three probes around the window
    center, every band's rows come from a = A + t B; otherwise the family
    is called once per pixel.  `selector` is None for the default
    free-critical rule or an integer index into a pixel's free critical
    points of modulus <= 1, ordered by argument.
    """
    if selector is not None and selector < 0:
        raise ValueError("selector must be a nonnegative pair index")
    attr = _flatten_attractors(known_attractors)
    xs = cfg.x_centers()
    ys = cfg.y_centers()
    outcome = np.zeros((cfg.height, cfg.width), np.int8)
    iters = np.zeros((cfg.height, cfg.width), np.int32)
    no_free_count = np.zeros(cfg.height, np.int64)
    multi_count = np.zeros(cfg.height, np.int64)
    x0, x1, y0, y1 = cfg.window
    center = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    probes = (center, center + (x1 - x0) / 3.0,
              center + 1j * (y1 - y0) / 3.0)
    try:
        n, _, A, B = affine_fit(family, probes)
    except NdynError:
        n = None

    def rows_at(ts):
        if n is None:
            return _form_rows(family, ts)
        return _rows(n, 1, A + ts[:, None] * B)

    def work(r0, r1):
        ts = (xs[None, :] + 1j * ys[r0:r1, None]).ravel()
        num, den = rows_at(ts)
        roots = _roots_rows(_deflate_anchored_rows(_crit_rows(num, den)))
        seed, dead, no_free, multi = _select_seed_rows(roots, selector)
        o, it = _iterate(seed, num, den, cfg, attr, True, dead=dead)
        outcome[r0:r1] = o.reshape(r1 - r0, cfg.width)
        iters[r0:r1] = it.reshape(r1 - r0, cfg.width)
        no_free_count[r0] += int(no_free.sum())
        multi_count[r0] += int(multi.sum())

    _run_chunks(cfg, work)
    diagnostics = {
        "no_free_critical": int(no_free_count.sum()),
        "multiple_free_pairs": int(multi_count.sum()),
        "vectorized": n is not None,
    }
    return PlaneImage(cfg.width, cfg.height, outcome, iters, cfg,
                      diagnostics=diagnostics)


def _conv_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise polynomial product of ascending coefficient arrays."""
    P, da = A.shape
    _, db = B.shape
    out = np.zeros((P, da + db - 1), np.complex128)
    for i in range(da):
        out[:, i:i + db] += A[:, i][:, None] * B
    return out


def _crit_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Numerator of the derivative, num' den - num den', per pixel row."""
    P = num.shape[0]
    if num.shape[1] > 1:
        dn = num[:, 1:] * np.arange(1, num.shape[1])[None, :]
    else:
        dn = np.zeros((P, 1), np.complex128)
    a = _conv_rows(dn, den)
    if den.shape[1] > 1:
        dd = den[:, 1:] * np.arange(1, den.shape[1])[None, :]
        b = _conv_rows(num, dd)
        width = max(a.shape[1], b.shape[1])
        out = np.zeros((P, width), np.complex128)
        out[:, :a.shape[1]] += a
        out[:, :b.shape[1]] -= b
        return out
    return a


# --------------------------------------------------------------------------
# color and output
# --------------------------------------------------------------------------


def _speed_rgb(t: np.ndarray) -> np.ndarray:
    rgb = np.empty(t.shape + (3,), np.float64)
    for ch in range(3):
        rgb[..., ch] = np.interp(t, _SPEED_STOPS, _SPEED_COLORS[:, ch])
    return rgb


def colorize(img: PlaneImage, mode: Optional[str] = None) -> np.ndarray:
    """Pure per-pixel record -> RGB mapping; uint8 (h, w, 3).

    Each color is a function of the outcome and the iteration count alone,
    so it is computed once per (outcome, count) into a table and gathered.
    """
    mode = mode or img.config.mode
    max_iter = img.config.max_iter
    t = np.clip(np.arange(max_iter + 1, dtype=np.float64) / float(max_iter),
                0.0, 1.0)
    speed = np.rint(_speed_rgb(t)).astype(np.uint8)
    table = np.zeros((len(OUTCOME_NAMES), max_iter + 1, 3), np.uint8)
    table[[OUTCOME_ROOT0, OUTCOME_ROOTINF, OUTCOME_STRANGE]] = speed
    if mode != "speed":
        table[OUTCOME_STRANGE] = 0
        table[OUTCOME_STRANGE, :, 1] = np.rint(
            np.interp(t, [0.0, 1.0], [255.0, 96.0]))
    return table[img.outcome, img.iterations]


def write_image(img: PlaneImage, path: str, fmt: str = "ppm",
                mode: Optional[str] = None) -> None:
    if fmt != "ppm":
        raise ValueError("only the ppm format is supported")
    rgb = colorize(img, mode)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())


def write_metadata(img: PlaneImage, path: str, extra: Optional[dict] = None) -> None:
    """key=value sidecar: config echo, outcome counts, diagnostics."""
    cfg = img.config
    lines = [
        f"width={img.width}",
        f"height={img.height}",
        f"x_min={cfg.window[0]!r}",
        f"x_max={cfg.window[1]!r}",
        f"y_min={cfg.window[2]!r}",
        f"y_max={cfg.window[3]!r}",
        f"max_iter={cfg.max_iter}",
        f"conv_radius={cfg.conv_radius!r}",
        f"infinity_radius={cfg.infinity_radius!r}",
        f"mode={cfg.mode}",
    ]
    for name, count in img.counts().items():
        lines.append(f"count_{name.replace('-', '_')}={count}")
    for key in sorted(img.diagnostics):
        lines.append(f"diag_{key}={img.diagnostics[key]}")
    for key in sorted(extra or {}):
        lines.append(f"{key}={extra[key]}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

"""Deterministic rendering of dynamical and parameter planes.

Pixels sample cell centers; the top row carries the largest imaginary part.
Orbits are checked before each application of the map: a point within
conv_radius of 0 ends as root-0, within conv_radius of a known finite
attractor as strange-attractor, and at modulus >= infinity_radius as
root-inf.  Points still undecided after max_iter applications are "none"
and render black.  The grid is processed in fixed 32-row bands so output
bytes do not depend on the worker count.

Parameter planes follow the orbit of one free critical point per pixel.
A family's pixel is its normal form z^n * P / P-hat, read as (n, a(t))
with a = (a_1, ..., a_k) in the family's common shape
(conjugate.common_shape: sign -1 members lifted to sign +1, k zero-padded),
so every row has sign +1.  When a(t) is affine in t (stability.affine_fit,
certified at three probes around the window center), a band's coefficients
are A + t B; otherwise the family is called once per pixel and its forms
are stacked.  The operator commutes with z -> 1/z, so its free critical
points come in pairs kappa <-> 1/kappa: each band solves one degree-k
equation Q(w) in w = z + 1/z straight from (n, a), divides out the anchored
points w = +-2 (z = +-1), takes one seed per pair from the companion-matrix
roots, and iterates the num/den rows of the forms.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .conjugate import common_shape
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
ORIGIN_TOL = 1e-9      # nor this close to 0 (or to infinity)

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


def _horner_rows(C: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Ascending coefficients at z: one shared row (1-D C) or one row per
    point (2-D C)."""
    acc = C[..., -1]
    for k in range(C.shape[-1] - 2, -1, -1):
        acc = acc * z + C[..., k]
    return acc


def _iterate(z0: np.ndarray, num_c, den_c, cfg: RenderConfig,
             attractors: np.ndarray, dead: Optional[np.ndarray] = None):
    """Orbit classification for a flat batch of seeds.

    `num_c` and `den_c` are one shared coefficient row or one row per seed.
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
            nc, dc = ((num_c[act], den_c[act]) if num_c.ndim > 1
                      else (num_c, den_c))
            z[act] = _horner_rows(nc, za) / _horner_rows(dc, za)
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
                        R.num.coeffs, R.den.coeffs, cfg, attr)
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
        o, it = _iterate(zz, num_c, den_c, cfg, attr)
        outcome[r0:r1] = o.reshape(r1 - r0, cfg.width)
        iters[r0:r1] = it.reshape(r1 - r0, cfg.width)

    _run_chunks(cfg, work)
    return PlaneImage(cfg.width, cfg.height, outcome, iters, cfg)


# --------------------------------------------------------------------------
# parameter planes
# --------------------------------------------------------------------------


def _rows(n, a: np.ndarray) -> tuple:
    """(num, den) coefficient rows of z^n * P / P-hat, one per row of `a`
    (a_1..a_k); `n` is a scalar or a per-row array."""
    P, k = a.shape
    den = np.ones((P, k + 1), np.complex128)
    den[:, 1:] = a
    n = np.broadcast_to(n, (P,))
    num = np.zeros((P, n.max() + k + 1), np.complex128)
    for m in np.unique(n):
        num[n == m, m:m + k + 1] = den[n == m, ::-1]
    return num, den


def _form_coeffs(family, ts) -> tuple:
    """(n, a) of the family's forms at each t, in their common shape."""
    return common_shape([family(complex(t)) for t in ts])


def _conv_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise polynomial product of ascending coefficient arrays."""
    P, da = A.shape
    _, db = B.shape
    out = np.zeros((P, da + db - 1), np.complex128)
    for i in range(da):
        out[:, i:i + db] += A[:, i][:, None] * B
    return out


def _pair_rows(n, a: np.ndarray) -> np.ndarray:
    """Q(w) per row, ascending: the free critical pairs of z^n P / P-hat.

    The derivative numerator without its z^(n-1) is
    C = n P P-hat + z (P' P-hat - P P-hat'), self-reciprocal of degree 2k,
    so C(z) = z^k Q(z + 1/z) with Q = C_k + sum_m C_(k+m) D_m(w) and the
    Dickson polynomials D_m(z + 1/z) = z^m + z^-m.  Each root w of Q is
    one pair kappa <-> 1/kappa; z = 0 and a padded a_k = 0 sit at w = inf.
    """
    P, k = a.shape
    q = np.ones((P, k + 1), np.complex128)
    q[:, 1:] = a
    p = q[:, ::-1]
    j = np.arange(k + 1)
    C = (_conv_rows((np.reshape(n, (-1, 1)) + j) * p, q)
         - _conv_rows(p, j * q))
    # row m: ascending coefficients of D_m, except row 0, which is 1
    dickson = np.zeros((k + 1, k + 1))
    dickson[0, 0] = 2.0
    if k:
        dickson[1, 1] = 1.0
    for m in range(2, k + 1):
        dickson[m, 1:] = dickson[m - 1, :-1]
        dickson[m] -= dickson[m - 2]
    dickson[0, 0] = 1.0           # the middle coefficient C_k stands alone
    return C[:, k:] @ dickson


def _syndiv_rows(C: np.ndarray, r: float) -> np.ndarray:
    """Row-wise synthetic division of ascending coefficients by (w - r)."""
    P, D = C.shape
    Q = np.empty((P, D - 1), np.complex128)
    Q[:, D - 2] = C[:, D - 1]
    for j in range(D - 3, -1, -1):
        Q[:, j] = C[:, j + 1] + r * Q[:, j + 1]
    return Q


def _deflate_anchored_rows(Q: np.ndarray) -> np.ndarray:
    """Divide out every structural factor (w - 2) and (w + 2), per row.

    These are the anchored points z = +-1.  Multiple roots parked there
    scatter badly under batched eigensolves (radius ~ eps^(1/m)), so they
    are removed analytically first; a residual vanishing within 1e-8 of
    sum |Q_j| |r|^j counts as structural.
    """
    Q = Q.copy()
    P, D = Q.shape
    if D < 2:
        return Q
    for r in (2.0, -2.0):
        powers = (r ** np.arange(D))[None, :]
        for _ in range(D - 1):
            vals = (Q * powers).sum(axis=1)
            scale = (np.abs(Q) * np.abs(powers)).sum(axis=1)
            mask = (scale > 0) & (np.abs(vals) <= 1e-8 * scale)
            mask &= np.abs(Q[:, 1:]).sum(axis=1) > 0
            if not mask.any():
                break
            Q[mask, :D - 1] = _syndiv_rows(Q[mask], r)
            Q[mask, D - 1] = 0.0
    return Q


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


def _arg(z: np.ndarray) -> np.ndarray:
    """Argument in [0, 2 pi)."""
    angle = np.angle(z)
    return np.where(angle < 0, angle + 2.0 * np.pi, angle)


def _select_seed_rows(w: np.ndarray, index: Optional[int] = None) -> tuple:
    """Free-critical selection from the pair roots w, vectorized over pixels.

    Each usable w (off the anchored points w = +-2 and the origin's w = inf)
    is one kappa <-> 1/kappa pair, and the estimates of a multiple root
    count once.  A pair's seed is the root of z^2 - w z + 1 in the unit
    disc, or the one with the smaller argument in [0, 2 pi) when both lie
    on the circle.  With index None the default rule requires exactly one
    pair; an integer index picks that pair in the order of the seeds'
    arguments, and a pixel with no such pair counts as having no free
    critical point.
    Returns (seed, dead_mask, no_free_mask, multi_mask).
    """
    P, D = w.shape
    # |z| > ORIGIN_TOL <=> |w| < 1 / ORIGIN_TOL, and since
    # w - 2 = (z - 1)^2 / z, |z - 1| > ANCHOR_TOL <=> |w - 2| > ANCHOR_TOL^2
    usable = np.isfinite(w) & (np.abs(w) < 1.0 / ORIGIN_TOL)
    usable &= np.abs(w - 2.0) > ANCHOR_TOL ** 2
    usable &= np.abs(w + 2.0) > ANCHOR_TOL ** 2
    # A row with more than one usable root holds several pairs or a
    # multiple root (os3's free pair is double), which comes back as m
    # scattered estimates.  Fold each estimate into the first one within
    # the tolerance of poly._clusters and use their mean, far closer to the
    # root than any one estimate.  Column by column: memory stays O(P * D).
    rows = np.where(usable.sum(axis=1) > 1)[0]
    if rows.size:
        R, U = w[rows], usable[rows]
        total, size = R.copy(), np.ones(R.shape)
        for j in range(1, D):
            near = (np.abs(R[:, :j] - R[:, j, None])
                    <= 1e-4 * (1.0 + np.abs(R[:, j, None]))) & U[:, :j]
            dup = np.where(U[:, j] & near.any(axis=1))[0]
            first = near[dup].argmax(axis=1)
            total[dup, first] += R[dup, j]
            size[dup, first] += 1.0
            U[dup, j] = False
        w = w.copy()
        w[rows] = total / size
        usable[rows] = U
    count = usable.sum(axis=1)
    with np.errstate(invalid="ignore"):       # the nan padding of w
        root = np.sqrt(w * w - 4.0)
        outer = np.where(np.abs(w + root) >= np.abs(w - root),
                         w + root, w - root) / 2.0
        inner = 1.0 / outer
    swap = (np.abs(outer) <= 1.0 + 1e-9) & (_arg(outer) < _arg(inner))
    seeds = np.where(swap, outer, inner)
    key = np.where(usable, _arg(seeds), np.inf)
    if index is None:
        no_free = count == 0
        multi = count > 1
        pick = np.argmin(key, axis=1)
    else:
        no_free = count <= index
        multi = np.zeros(P, bool)
        pick = np.argsort(key, axis=1, kind="stable")[:, min(index, D - 1)]
    seed = seeds[np.arange(P), pick]
    dead = no_free | multi
    seed = np.where(dead, 0.0 + 0.0j, seed)
    return seed, dead, no_free, multi


def parameter_plane(family, cfg: RenderConfig, selector=None,
                    known_attractors=()) -> PlaneImage:
    """Render the plane of a one-parameter family of operators.

    `family` maps a complex parameter to an OperatorForm.  When its
    coefficients a(t) pass the affine fit at three probes around the window
    center, every band's coefficients are a = A + t B; otherwise the family
    is called once per pixel.  The seeds come from the pair roots w of
    _pair_rows (see _select_seed_rows).  `selector` is None for the default
    rule (exactly one free pair) or an integer index into a pixel's free
    pairs, ordered by the argument of their seeds.
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

    def coeffs_at(ts):
        if n is None:
            return _form_coeffs(family, ts)
        return n, A + ts[:, None] * B

    def work(r0, r1):
        ts = (xs[None, :] + 1j * ys[r0:r1, None]).ravel()
        n_t, a = coeffs_at(ts)
        w = _roots_rows(_deflate_anchored_rows(_pair_rows(n_t, a)))
        seed, dead, no_free, multi = _select_seed_rows(w, selector)
        num, den = _rows(n_t, a)
        o, it = _iterate(seed, num, den, cfg, attr, dead=dead)
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


def write_image(img: PlaneImage, path: str) -> None:
    rgb = colorize(img)
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

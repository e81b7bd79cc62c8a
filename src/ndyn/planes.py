"""Deterministic rendering of dynamical and parameter planes.

Pixels sample cell centers; the top row carries the largest imaginary part.
Orbits are checked before each application of the map: a point within
CONV_RADIUS of 0 ends as root-0, within CONV_RADIUS of a known finite
attractor as strange-attractor, and at modulus >= INFINITY_RADIUS as
root-inf.  Points still undecided after max_iter applications are "none"
and render black.  The grid is processed in fixed 32-row bands so output
bytes do not depend on the worker count.

Parameter planes follow the orbit of one free critical point per pixel.
A family's pixel is its normal form z^n * P / P-hat, read as (n, a(t))
with a = (a_1, ..., a_k) in the family's common shape
(conjugate.common_shape: sign -1 members lifted to sign +1, k zero-padded),
so every row has sign +1.  When a(t) is affine in t (stability.affine_fit
at the fixed generic PROBES, so no window puts a probe on a special member),
a band's coefficients are A + t B; otherwise the family is called once per
pixel and its forms are stacked.  The operator commutes with z -> 1/z, so
its free critical points come in pairs kappa <-> 1/kappa, the roots of one
degree-k equation Q(w) in w = z + 1/z built from (n, a).  Q is bilinear in
the coefficients, so an affine family's Q(w; t) = T0 + t T1 + t^2 T2 is
built once per render, and the anchored factors (w -+ 2) (z = +-1) that it
has at every t are divided out of it once.  Each band evaluates Q at its
t (or builds it per pixel), divides out the anchored factors that only
special members have, and takes one seed per pair from the roots: -c0/c1
for a linear row, the companion-matrix eigenvalues otherwise.

Every orbit runs through one loop, _orbit, whose state stays compacted.  A
seed whose orbit sits on an exact fixed point of its map can never be
captured, so it leaves the loop early and still ends as none with max_iter
iterations: outputs are the same as running it out.  A parameter-plane
pixel is evaluated straight from (n, a): Horner passes over 1, a_1..a_k
give P-hat and P, then n multiplications by z; a column equal at every
pixel of a band is carried as one scalar.  A dynamical plane reads its
map's exactly zero low numerator coefficients (a normal form's z^n) as n
the same way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .conjugate import common_shape
from .errors import NdynError
# poly_roots is unused here but stays bound: bench/test_bench.py checks that
# the tracer patches and restores it through this module
from .poly import (CLUSTER_REL, RationalMap, _divide_rows,  # noqa: F401
                   _horner, deflate_anchored, is_inf, poly_roots)
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
CONV_RADIUS = 1e-4     # an orbit this close to 0 or an attractor is captured
INFINITY_RADIUS = 1e8  # and one this far out has escaped
ANCHOR_TOL = 1e-6      # critical points this close to +-1 are not free seeds
ORIGIN_TOL = 1e-9      # nor this close to 0 (or to infinity)
FIXED_CHECK_EVERY = 8  # steps between the tests for an exact fixed point
_ANCHORS = (2.0, -2.0)  # w = z + 1/z at the anchored points z = +-1

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
    mode: str = "speed"           # speed | attractor
    workers: Optional[int] = None

    def __post_init__(self):
        x0, x1, y0, y1 = map(float, self.window)
        if not np.all(np.isfinite((x0, x1, y0, y1, x1 - x0, y1 - y0))):
            raise ValueError("window bounds and extents must be finite")
        if not (x0 < x1 and y0 < y1):
            raise ValueError("window must satisfy x_min < x_max, y_min < y_max")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError("resolution must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mode not in ("speed", "attractor"):
            raise ValueError("mode must be 'speed' or 'attractor'")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

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
    """cfg.workers, else NDYN_THREADS when set, else the CPU count."""
    if cfg.workers is not None:
        return cfg.workers
    env = os.environ.get("NDYN_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"NDYN_THREADS must be a positive integer, "
                         f"got {env!r}")
    return int(env)


def _flatten_attractors(known) -> np.ndarray:
    points = []
    for item in () if known is None else known:
        if isinstance(item, (tuple, list)):
            points.extend(item)
        else:
            points.append(item)
    finite = [complex(p) for p in points if not is_inf(p)]
    return np.asarray(finite, dtype=np.complex128)


def _column(v):
    """A coefficient column, as one scalar when every seed shares it."""
    v = np.asarray(v)
    return v.flat[0] if np.all(v == v.flat[0]) else v


class _OrbitMap(NamedTuple):
    """z -> z^n num(z) / den(z), one step of every seed's orbit.

    `num` and `den` are coefficient columns, lowest power first, each one
    scalar shared by every seed or one value per seed; `n` is an int or one
    per seed.
    """
    num: list
    den: list
    n: object = 0

    def take(self, keep) -> "_OrbitMap":
        """The map of the seeds that `keep` (indices or a mask) selects."""
        def pick(v):
            return v[keep] if isinstance(v, np.ndarray) else v
        return _OrbitMap([pick(c) for c in self.num],
                         [pick(c) for c in self.den], pick(self.n))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        num, n = _horner(self.num, z), self.n
        per_seed = isinstance(n, np.ndarray)
        for m in range(n.max(initial=0) if per_seed else n):
            num = np.where(n > m, num * z, num) if per_seed else num * z
        # out= keeps one value per seed when both polynomials are constant
        return np.divide(num, _horner(self.den, z), out=np.empty_like(z))


def _rational_map(R: RationalMap) -> _OrbitMap:
    """R's columns, its exactly zero low numerator coefficients read as n;
    the zero map gets the single numerator column 0."""
    num = R.num.coeffs
    n = int(np.argmax(num != 0)) if num.any() else 0
    return _OrbitMap(list(num[n:]) or [0.0], list(R.den.coeffs), n)


def _form_map(n, a: np.ndarray) -> _OrbitMap:
    """z^n * P / P-hat for each row of `a` (a_1..a_k) and `n` (a scalar or
    one per row): P-hat's columns are 1, a_1..a_k, P's the same reversed."""
    cols = [np.complex128(1.0)] + [_column(col) for col in a.T]
    return _OrbitMap(cols[::-1], cols, _column(n))


def _orbit(z0: np.ndarray, f: _OrbitMap, cfg: RenderConfig,
           attractors: np.ndarray, live: Optional[np.ndarray] = None):
    """Orbit classification for a flat batch of seeds under the map `f`.

    The live seeds' indices, their z and the per-seed columns of `f` shrink
    together when seeds finish.  Seeds outside `live` (no usable critical
    point) never run; they end as outcome none with max_iter iterations.
    Every FIXED_CHECK_EVERY steps, after the capture tests, a seed whose z
    equals its previous z exactly leaves the loop too: that previous z was
    not captured, so z is an exact fixed point of f that never will be, and
    the seed keeps outcome none with max_iter iterations, as if it had run.
    """
    out = np.zeros(z0.size, np.int8)
    its = np.full(z0.size, cfg.max_iter, np.int32)
    idx = np.arange(z0.size) if live is None else np.flatnonzero(live)
    z, f = np.asarray(z0, np.complex128)[idx], f.take(idx)
    with np.errstate(all="ignore"):
        for t in range(cfg.max_iter):
            if idx.size == 0:
                break
            r = np.abs(z)
            hit0 = r < CONV_RADIUS
            hit_s = np.zeros_like(hit0)
            for a in attractors:
                hit_s |= np.abs(z - a) < CONV_RADIUS
            done = hit0 | hit_s | (r >= INFINITY_RADIUS)
            if done.any():
                # the origin wins over an attractor, which wins over infinity
                code = np.where(hit0, OUTCOME_ROOT0, np.where(
                    hit_s, OUTCOME_STRANGE, OUTCOME_ROOTINF))
                out[idx[done]], its[idx[done]] = code[done], t
            if t and t % FIXED_CHECK_EVERY == 0:
                done |= z == prev       # NaN never equals itself: it runs on
            if done.any():
                keep = ~done
                idx, z, f = idx[keep], z[keep], f.take(keep)
            prev, z = z, f(z)
    return out, its


def _run_bands(cfg: RenderConfig, work: Callable) -> tuple:
    """Images of the grid, computed in fixed bands of CHUNK_ROWS rows:
    `work` maps a band's points, flattened, to one flat array per image."""
    xs, ys = cfg.x_centers(), cfg.y_centers()

    def band(r0):
        return work((xs[None, :] + 1j * ys[r0:r0 + CHUNK_ROWS, None]).ravel())

    starts = range(0, cfg.height, CHUNK_ROWS)
    workers = resolve_workers(cfg)
    if workers <= 1 or len(starts) == 1:
        done = [band(r0) for r0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(band, starts))
    return tuple(np.concatenate(parts).reshape(cfg.height, cfg.width)
                 for parts in zip(*done))


def orbit_outcome(R: RationalMap, z0: complex, cfg: RenderConfig,
                  known_attractors=()) -> tuple:
    """(outcome name, iterations) of one seed, same rule as the grid."""
    out, its = _orbit(np.array([z0], np.complex128), _rational_map(R), cfg,
                      _flatten_attractors(known_attractors))
    return OUTCOME_NAMES[int(out[0])], int(its[0])


def dynamical_plane(R: RationalMap, cfg: RenderConfig,
                    known_attractors=()) -> PlaneImage:
    attr = _flatten_attractors(known_attractors)
    f = _rational_map(R)
    outcome, iters = _run_bands(cfg, lambda zz: _orbit(zz, f, cfg, attr))
    return PlaneImage(cfg.width, cfg.height, outcome, iters, cfg)


# --------------------------------------------------------------------------
# parameter planes
# --------------------------------------------------------------------------


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


def _pair_terms(n, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q(w) per row, ascending, of the pair equation as a bilinear form.

    With p the coefficients of P and q those of P-hat (ascending, one row
    each), C(p, q) = conv((n + j) p, q) - conv(p, j q) is the derivative
    numerator without its z^(n-1), C = n P P-hat + z (P' P-hat - P P-hat').
    When q is the reversal of p, C is self-reciprocal of degree 2k, so
    C(z) = z^k Q(z + 1/z) with Q = C_k + sum_m C_(k+m) D_m(w) and the
    Dickson polynomials D_m(z + 1/z) = z^m + z^-m.  Both steps are linear,
    so Q is bilinear in (p, q) too.
    """
    k = q.shape[1] - 1
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


def _pair_rows(n, a: np.ndarray) -> np.ndarray:
    """Q(w) per row, ascending: the free critical pairs of z^n P / P-hat.

    Each root w of Q is one pair kappa <-> 1/kappa; z = 0 and a padded
    a_k = 0 sit at w = inf (see _pair_terms).
    """
    P, k = a.shape
    q = np.ones((P, k + 1), np.complex128)
    q[:, 1:] = a
    return _pair_terms(n, q[:, ::-1], q)


def _family_terms(n, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows T0, T1, T2 with Q(w; t) = T0 + t T1 + t^2 T2 for a = A + t B.

    q = qA + t qB with qA = (1, A) and qB = (0, B), so the bilinear
    _pair_terms splits exactly into Q0 = C(pA, qA), Q1 = C(pA, qB) +
    C(pB, qA) and Q2 = C(pB, qB).
    """
    qA = np.r_[1.0, A].astype(np.complex128)[None, :]
    qB = np.r_[0.0, B].astype(np.complex128)[None, :]
    pA, pB = qA[:, ::-1], qB[:, ::-1]
    return np.concatenate([_pair_terms(n, pA, qA),
                           _pair_terms(n, pA, qB) + _pair_terms(n, pB, qA),
                           _pair_terms(n, pB, qB)])


def _deflate_shared(T: np.ndarray) -> tuple:
    """Divide the anchored factors (w -+ 2) that every nonzero row of T has
    out of all rows, once; each factor drops the top column.  Returns the
    rows and the number of factors of each anchor."""
    nonzero = np.abs(T).sum(axis=1) > 0
    if not nonzero.any():
        return T, np.zeros(len(_ANCHORS), int)
    shared = deflate_anchored(T, _ANCHORS)[1][nonzero].min(axis=0)
    for r, m in zip(_ANCHORS, shared):
        for _ in range(m):
            T = _divide_rows(T, r)
    return T, shared


def _roots_rows(C: np.ndarray) -> np.ndarray:
    """Roots of each row's ascending-coefficient polynomial, nan-padded."""
    P, D = C.shape
    out = np.full((P, max(D - 1, 1)), np.nan + 0.0j, np.complex128)
    if D <= 1:
        return out
    scale = np.abs(C).max(axis=1)
    big = np.abs(C) > 1e-12 * np.maximum(scale, 1e-300)[:, None]
    deg = np.where(big.any(axis=1), D - 1 - big[:, ::-1].argmax(axis=1), -1)
    for m in np.unique(deg):
        if m < 1:
            continue
        rows = np.where(deg == m)[0]
        monic = C[rows, :m + 1] / C[rows, m][:, None]
        if m == 1:
            # the eigenvalue of the 1x1 companion, bit for bit
            out[rows, 0] = -monic[:, 0]
            continue
        comp = np.zeros((rows.size, m, m), np.complex128)
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, :, m - 1] = -monic[:, :m]
        out[rows, :m] = np.linalg.eigvals(comp)
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
    # CLUSTER_REL (the rule of poly.root_clusters) and use their mean, far
    # closer to the root than any one estimate.  Column by column: memory
    # stays O(P * D).
    rows = np.where(usable.sum(axis=1) > 1)[0]
    if rows.size:
        R, U = w[rows], usable[rows]
        total, size = R.copy(), np.ones(R.shape)
        for j in range(1, D):
            near = (np.abs(R[:, :j] - R[:, j, None])
                    <= CLUSTER_REL * (1.0 + np.abs(R[:, j, None]))) & U[:, :j]
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
    # the default rule is index 0 that also demands exactly one pair
    i = index or 0
    no_free = count <= i
    multi = (count > 1) & (index is None)
    pick = np.argsort(key, axis=1, kind="stable")[:, min(i, D - 1)]
    seed = seeds[np.arange(P), pick]
    dead = no_free | multi
    seed = np.where(dead, 0.0 + 0.0j, seed)
    return seed, dead, no_free, multi


def parameter_plane(family, cfg: RenderConfig, selector=None,
                    known_attractors=()) -> PlaneImage:
    """Render the plane of a one-parameter family of operators.

    `family` maps a complex parameter to an OperatorForm.  When its
    coefficients a(t) pass the affine fit at the fixed generic PROBES, every
    band's coefficients are a = A + t B, whatever the window, and the pair
    equation is the quadratic in t of _family_terms, built and stripped of
    its shared anchored factors once; otherwise the family is called once
    per pixel and _pair_rows builds each pixel's equation.  The seeds come
    from the pair roots w (see _select_seed_rows), and _orbit follows each
    under its pixel's (n, a) (_form_map).  `selector` is None for the default
    rule (exactly one free pair) or an integer index into a pixel's free
    pairs, ordered by the argument of their seeds.
    """
    if selector is not None and selector < 0:
        raise ValueError("selector must be a nonnegative pair index")
    attr = _flatten_attractors(known_attractors)
    try:
        n, _, A, B = affine_fit(family)
    except NdynError:
        n = None

    if n is not None:
        # shared by every t, so divided out of the terms once per render
        T, _ = _deflate_shared(_family_terms(n, A, B))

    def work(ts):
        if n is None:
            n_t, a = _form_coeffs(family, ts)
            Q = _pair_rows(n_t, a)
        else:
            t = ts[:, None]
            n_t, a = n, A + t * B
            Q = T[0] + t * (T[1] + t * T[2])
        w = _roots_rows(deflate_anchored(Q, _ANCHORS)[0])
        seed, dead, no_free, multi = _select_seed_rows(w, selector)
        o, it = _orbit(seed, _form_map(n_t, a), cfg, attr, live=~dead)
        return o, it, no_free, multi

    outcome, iters, no_free, multi = _run_bands(cfg, work)
    diagnostics = {
        "no_free_critical": int(no_free.sum()),
        "multiple_free_pairs": int(multi.sum()),
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
        f"conv_radius={CONV_RADIUS!r}",
        f"infinity_radius={INFINITY_RADIUS!r}",
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

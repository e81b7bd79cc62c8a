"""Deterministic rendering of dynamical and parameter planes.

Pixels sample cell centers; the top row carries the largest imaginary part.
Orbits are checked before each application of the map: a point within
CONV_RADIUS of 0 ends as root-0, within CONV_RADIUS of a known finite
attractor as strange-attractor, and at modulus >= INFINITY_RADIUS as
root-inf.  Points still undecided after max_iter applications are "none"
and render black.  The grid is processed in bands of whole rows, each of
at most BAND_PIXELS pixels (or one row, when a row is wider), fixed by the
grid alone so output bytes do not depend on the worker count.

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
for a linear equation, the companion-matrix eigenvalues otherwise.  Every
seed-phase array is coefficient-major, (D, P): a band takes O(D) passes.

Every orbit runs through one loop, _orbit.  It allocates its work arrays
once per call, sized to the batch, and every step and capture test writes
into them, so a step allocates no batch-sized array; they stay local to the
call because bands run on worker threads.  No product writes over one of
its operands (two buffers take turns): numpy's complex multiply rounds a
one-element array without FMA when its output aliases an input, so a lone
seed (orbit_outcome, a band's last live seed) would step differently from
the same seed in a batch.  Adds and the divide run in place, which is
exact.  A finished seed is masked out and stepped on, unread, until
COMPACT_FRACTION of the batch has finished; then the live seeds' indices,
z and per-seed columns shrink together and the work arrays are sliced to
the live count.  A seed whose orbit sits on an exact fixed point of its
map can never be captured, so it leaves the loop early and still ends as
none with max_iter iterations: outputs are the same as running it out.  A
parameter-plane pixel is evaluated straight from (n, a): Horner passes
over 1, a_1..a_k give P-hat and P, then n multiplications by z; a column
equal at every pixel of a band is carried as one scalar.  A dynamical
plane reads its map's exactly zero low numerator coefficients (a normal
form's z^n) as n the same way.
"""

from __future__ import annotations

import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .conjugate import common_shape
from .errors import NdynError
from .poly import (CLUSTER_REL, RationalMap, _divide_rows, deflate_anchored,
                   is_inf)
# poly_roots is unused here but stays bound: bench/test_bench.py checks that
# the tracer patches and restores it through this module
from .poly import poly_roots  # noqa: F401
from .stability import LINEAR_CERT_TOL, affine_fit

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

# pixels per band: large enough that numpy calls on worker threads outrun
# their contention for the GIL, small enough that a band's work arrays stay
# within what a 600-wide band of 32 rows used
BAND_PIXELS = 16384
CONV_RADIUS = 1e-4     # an orbit this close to 0 or an attractor is captured
INFINITY_RADIUS = 1e8  # and one this far out has escaped
ORIGIN_TOL = 1e-9      # critical points this close to 0 (or inf) are not seeds
FIXED_CHECK_EVERY = 8  # steps between the tests for an exact fixed point
COMPACT_FRACTION = 1 / 8  # share of finished seeds that triggers compaction
MAX_ITER = int(np.iinfo(np.int32).max)  # iteration counts are int32
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
        # stored as floats, so the .meta echo does not depend on their type
        object.__setattr__(self, "window", (x0, x1, y0, y1))
        w, h = self.resolution
        if not all(isinstance(v, numbers.Integral)
                   for v in (w, h, self.max_iter, self.workers or 1)):
            raise ValueError("resolution, max_iter, workers must be integers")
        if w < 1 or h < 1:
            raise ValueError("resolution must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.max_iter > MAX_ITER:
            raise ValueError(f"max_iter must be <= {MAX_ITER}")
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
    """Per-pixel outcomes and counts; `config` fixes size and palette."""
    outcome: np.ndarray           # (h, w) int8 codes
    iterations: np.ndarray        # (h, w) int32
    config: RenderConfig
    diagnostics: dict = field(default_factory=dict)

    def counts(self) -> dict:
        flat = self.outcome.ravel()
        return {name: int(np.count_nonzero(flat == code))
                for code, name in OUTCOME_NAMES.items()}


def resolve_workers(cfg: RenderConfig) -> int:
    """cfg.workers, else the number of CPUs this process may run on (its
    affinity mask, which taskset or a cpuset narrows; the machine's CPU
    count where the OS has no such mask)."""
    if cfg.workers is not None:
        return cfg.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


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
    n: object

    def take(self, keep) -> "_OrbitMap":
        """The map of the seeds that `keep` (indices or a mask) selects."""
        def pick(v):
            return v[keep] if isinstance(v, np.ndarray) else v
        return _OrbitMap([pick(c) for c in self.num],
                         [pick(c) for c in self.den], pick(self.n))

    def __call__(self, z: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """f(z) into `out`, with the intermediates in `work` (three complex
        arrays and a mask, each of z.size).

        Bit for bit the out-of-place poly._horner formula.  No product
        writes over one of its operands: numpy's complex multiply rounds a
        one-element array without FMA when its output aliases an input, so
        a lone seed would step differently from the same seed in a batch.
        Adds and the divide are exact in place.
        """
        a, b, c, mask = work
        num, n = _horner_into(self.num, z, a, b), self.n
        per_seed = isinstance(n, np.ndarray)
        for m in range(n.max(initial=0) if per_seed else n):
            dst = _other(num, a, b)
            np.multiply(num, z, out=dst)
            if per_seed:        # seeds with n <= m keep num
                np.copyto(dst, num, where=np.less_equal(n, m, out=mask))
            num = dst
        den = _horner_into(self.den, z, _other(num, a, b), c)
        # out= keeps one value per seed when both polynomials are constant
        return np.divide(num, den, out=out)


def _one_block(size: int, dtypes) -> list:
    """One array of `size` values per dtype (widest first, so each stays
    aligned), all cut from one allocation.  glibc frees a block this size
    back to its heap and hands it out again on the next call; separate
    arrays are mapped, faulted in and unmapped on every call until a larger
    block has been freed (its mmap threshold adapts to the largest)."""
    dtypes = [np.dtype(d) for d in dtypes]
    block = np.empty(size * sum(d.itemsize for d in dtypes), np.uint8)
    arrays, at = [], 0
    for d in dtypes:
        arrays.append(block[at:at + size * d.itemsize].view(d))
        at += size * d.itemsize
    return arrays


def _other(v, a, b):
    """Whichever of the buffers a, b does not hold v."""
    return b if v is a else a


def _horner_into(c, x, a, b):
    """poly._horner(c, x), bit for bit, computed in the buffers a and b.

    Each product writes to the buffer that does not hold its operand and
    each add runs in place.  The result is a or b, or c[0] itself when c
    has one column.
    """
    acc = c[-1]
    for cj in c[-2::-1]:
        dst = _other(acc, a, b)
        np.multiply(acc, x, out=dst)
        np.add(dst, cj, out=dst)
        acc = dst
    return acc


def _rational_map(R: RationalMap) -> _OrbitMap:
    """R's columns, its exactly zero low numerator coefficients read as n;
    the zero map gets the single numerator column 0."""
    num = R.num.coeffs
    n = int(np.argmax(num != 0)) if num.any() else 0
    return _OrbitMap(list(num[n:]) or [0.0], list(R.den.coeffs), n)


def _form_map(n, a) -> _OrbitMap:
    """z^n * P / P-hat for each seed, from the columns a_1..a_k of `a` (a
    sequence of k arrays, one value per seed) and `n` (a scalar or one per
    seed): P-hat's columns are 1, a_1..a_k, P's the same reversed."""
    cols = [np.complex128(1.0)] + [_column(col) for col in a]
    return _OrbitMap(cols[::-1], cols, _column(n))


def _orbit(z0: np.ndarray, f: _OrbitMap, cfg: RenderConfig,
           attractors: np.ndarray, live: Optional[np.ndarray] = None):
    """Orbit classification for a flat batch of seeds under the map `f`.

    Seeds outside `live` (no usable critical point) never run; they end as
    outcome none with max_iter iterations.  Every FIXED_CHECK_EVERY steps,
    after the capture tests, a seed whose z equals its previous z exactly
    leaves the loop too: that previous z was not captured, so z is an exact
    fixed point of f that never will be, and the seed keeps outcome none
    with max_iter iterations, as if it had run.

    The work arrays are allocated once per call, in one block sized to the
    batch, and every step and capture test writes into them (they stay
    local: bands run on worker threads).  A finished seed is masked out of `alive` and
    stepped on until a COMPACT_FRACTION of the seeds has finished; then the
    live seeds' indices, their z and the per-seed columns of `f` shrink
    together and the work arrays are sliced to the live count.
    """
    out = np.zeros(z0.size, np.int8)
    its = np.full(z0.size, cfg.max_iter, np.int32)
    idx = np.arange(z0.size) if live is None else np.flatnonzero(live)
    z, f = np.asarray(z0, np.complex128)[idx], f.take(idx)
    arrays = _one_block(idx.size, 5 * [np.complex128] + [np.float64]
                        + 6 * [bool])

    def cut(m):
        """The work arrays sliced to the first m seeds, all of them alive."""
        z1, z2, a, b, c, r, alive, hit0, hit_s, done, spare, mask = (
            v[:m] for v in arrays)
        alive[:] = True
        return (z1, z2), r, alive, hit0, hit_s, done, spare, (a, b, c, mask)

    zs, r, alive, hit0, hit_s, done, spare, work = cut(idx.size)
    finished = 0        # seeds masked out of alive since the last compaction
    with np.errstate(all="ignore"):
        for t in range(cfg.max_iter):
            if idx.size == 0:
                break
            np.abs(z, out=r)
            np.less(r, CONV_RADIUS, out=hit0)
            np.greater_equal(r, INFINITY_RADIUS, out=done)
            done |= hit0
            for j, a in enumerate(attractors):
                np.abs(np.subtract(z, a, out=work[0]), out=r)
                np.less(r, CONV_RADIUS, out=spare if j else hit_s)
                if j:
                    hit_s |= spare
            if attractors.size:
                done |= hit_s
            done &= alive
            if done.any():
                # the origin wins over an attractor, which wins over infinity
                sel = np.flatnonzero(done)
                code = (np.where(hit_s[sel], OUTCOME_STRANGE, OUTCOME_ROOTINF)
                        if attractors.size else OUTCOME_ROOTINF)
                out[idx[sel]] = np.where(hit0[sel], OUTCOME_ROOT0, code)
                its[idx[sel]] = t
            if t and t % FIXED_CHECK_EVERY == 0:
                # NaN never equals itself: it runs on
                np.equal(z, prev, out=spare)
                spare &= alive
                done |= spare
            if done.any():
                alive ^= done
                finished += int(np.count_nonzero(done))
                if finished >= COMPACT_FRACTION * idx.size:
                    idx, z, f = idx[alive], z[alive], f.take(alive)
                    zs, r, alive, hit0, hit_s, done, spare, work = cut(idx.size)
                    finished = 0
            prev, z = z, f(z, zs[t % 2], work)
    return out, its


def _bands(width: int, height: int) -> list:
    """Row ranges (r0, r1) of the bands of a width x height grid, top to
    bottom: as many rows as fit in BAND_PIXELS pixels (at least one), the
    last band taking what is left."""
    rows = max(1, BAND_PIXELS // width)
    return [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]


def _run_bands(cfg: RenderConfig, work: Callable, dtypes) -> list:
    """Images of the grid, one (height, width) array per dtype, computed in
    the bands of _bands: `work` maps a band's points, flattened, to one
    flat array per image, which fills the band's rows of that image.  The
    bands run on resolve_workers(cfg) threads, or in this thread when there
    is one worker or one band; an error in a band is raised here."""
    xs, ys = cfg.x_centers(), cfg.y_centers()
    images = [np.empty((cfg.height, cfg.width), d) for d in dtypes]

    def band(rows):
        r0, r1 = rows
        parts = work((xs[None, :] + 1j * ys[r0:r1, None]).ravel())
        for image, part in zip(images, parts):
            image[r0:r1] = part.reshape(r1 - r0, cfg.width)

    bands = _bands(cfg.width, cfg.height)
    workers = resolve_workers(cfg)
    if workers <= 1 or len(bands) == 1:
        for rows in bands:
            band(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(band, bands))     # raises the first band's error
    return images


def orbit_outcome(R: RationalMap, z0: complex, cfg: RenderConfig,
                  known_attractors=()) -> tuple:
    """(outcome name, iterations) of one seed, same rule as the grid; the
    seed INF is complex infinity, which has escaped."""
    z0 = complex(np.inf) if is_inf(z0) else z0
    out, its = _orbit(np.array([z0], np.complex128), _rational_map(R), cfg,
                      _flatten_attractors(known_attractors))
    return OUTCOME_NAMES[int(out[0])], int(its[0])


def dynamical_plane(R: RationalMap, cfg: RenderConfig,
                    known_attractors=()) -> PlaneImage:
    attr = _flatten_attractors(known_attractors)
    f = _rational_map(R)
    outcome, iters = _run_bands(cfg, lambda zz: _orbit(zz, f, cfg, attr),
                                (np.int8, np.int32))
    return PlaneImage(outcome, iters, cfg)


# --------------------------------------------------------------------------
# parameter planes
# --------------------------------------------------------------------------


def _form_coeffs(family, ts) -> tuple:
    """(n, a, built) of the family's forms at each t, in their common shape;
    a is coefficient-major, (k, len(ts)).

    A member the family cannot build (NdynError) is False in `built` and
    gets a NaN column of a, so its pair equation has no root and its pixel
    is dead, counted as having no free critical point (a is one NaN row
    when no member is built).
    """
    forms = []
    for t in ts:
        try:
            forms.append(family(complex(t)))
        except NdynError:
            forms.append(None)
    built = np.array([f is not None for f in forms])
    n_built, a_built = (common_shape([f for f in forms if f is not None])
                        if built.any() else ([], np.empty((0, 1))))
    n = np.zeros(len(forms), int)
    a = np.full((a_built.shape[1], len(forms)), np.nan, np.complex128)
    n[built], a[:, built] = n_built, a_built.T
    return n, a, built


def _conv_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise polynomial product of ascending coefficients, one
    coefficient per row."""
    out = np.zeros((len(A) + len(B) - 1, A.shape[1]), np.complex128)
    for i in range(len(A)):
        out[i:i + len(B)] += A[i] * B
    return out


def _pair_terms(n, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q(w) per column, ascending, of the pair equation as a bilinear form.

    With p the coefficients of P and q those of P-hat (ascending, one column
    each), C(p, q) = conv((n + j) p, q) - conv(p, j q) is the derivative
    numerator without its z^(n-1), C = n P P-hat + z (P' P-hat - P P-hat').
    When q is the reversal of p, C is self-reciprocal of degree 2k, so
    C(z) = z^k Q(z + 1/z) with Q = C_k + sum_m C_(k+m) D_m(w) and the
    Dickson polynomials D_m(z + 1/z) = z^m + z^-m.  Both steps are linear,
    so Q is bilinear in (p, q) too.
    """
    k = len(q) - 1
    j = np.arange(k + 1)[:, None]
    C = _conv_rows((n + j) * p, q) - _conv_rows(p, j * q)
    # row m: ascending coefficients of D_m, except row 0, which is 1
    dickson = np.zeros((k + 1, k + 1))
    dickson[0, 0] = 2.0
    if k:
        dickson[1, 1] = 1.0
    for m in range(2, k + 1):
        dickson[m, 1:] = dickson[m - 1, :-1]
        dickson[m] -= dickson[m - 2]
    dickson[0, 0] = 1.0           # the middle coefficient C_k stands alone
    # the product is taken pixel-major, the operand order BLAS saw when the
    # pixels were rows, so every sum in it keeps its order
    return (np.ascontiguousarray(C[k:].T) @ dickson).T


def _pair_rows(n, a: np.ndarray) -> np.ndarray:
    """Q(w) per column, ascending: the free critical pairs of z^n P / P-hat
    for each column of a (a_1..a_k, coefficient-major).

    Each root w of Q is one pair kappa <-> 1/kappa; z = 0 and a padded
    a_k = 0 sit at w = inf (see _pair_terms).
    """
    k, P = a.shape
    q = np.ones((k + 1, P), np.complex128)
    q[1:] = a
    return _pair_terms(n, q[::-1], q)


def _family_terms(n, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Columns T0, T1, T2 with Q(w; t) = T0 + t T1 + t^2 T2 for a = A + t B.

    q = qA + t qB with qA = (1, A) and qB = (0, B), so the bilinear
    _pair_terms splits exactly into Q0 = C(pA, qA), Q1 = C(pA, qB) +
    C(pB, qA) and Q2 = C(pB, qB).
    """
    qA = np.r_[1.0, A].astype(np.complex128)[:, None]
    qB = np.r_[0.0, B].astype(np.complex128)[:, None]
    pA, pB = qA[::-1], qB[::-1]
    return np.concatenate([_pair_terms(n, pA, qA),
                           _pair_terms(n, pA, qB) + _pair_terms(n, pB, qA),
                           _pair_terms(n, pB, qB)], axis=1)


def _deflate_shared(T: np.ndarray) -> np.ndarray:
    """Divide the anchored factors (w -+ 2) that every nonzero column of T
    has out of all columns, once; each factor drops the top row."""
    nonzero = np.abs(T).sum(axis=0) > 0
    if not nonzero.any():
        return T
    shared = deflate_anchored(T, _ANCHORS)[1][:, nonzero].min(axis=1)
    for r, m in zip(_ANCHORS, shared):
        for _ in range(m):
            T = _divide_rows(T, r)
    return T


def _roots_rows(C: np.ndarray) -> np.ndarray:
    """Roots of each column's ascending-coefficient polynomial (one
    coefficient per row), nan-padded: (max(D - 1, 1), P)."""
    D, P = C.shape
    out = np.full((max(D - 1, 1), P), np.nan + 0.0j, np.complex128)
    mag = np.abs(C)
    big = mag > 1e-12 * np.maximum(mag.max(axis=0), 1e-300)
    deg = np.full(P, -1)
    for m in range(D):          # the last big row is the degree
        deg[big[m]] = m
    for m in range(1, D):
        cols = np.flatnonzero(deg == m)
        if not cols.size:
            continue
        lead = C[m, cols]
        if m == 1:
            # the eigenvalue of the 1x1 companion, bit for bit
            out[0, cols] = -(C[0, cols] / lead)
            continue
        comp = np.zeros((cols.size, m, m), np.complex128)
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, :, m - 1] = -(C[:m, cols] / lead).T
        out[:m, cols] = np.linalg.eigvals(comp).T
    return out


def _arg(z: np.ndarray) -> np.ndarray:
    """Argument in [0, 2 pi)."""
    angle = np.angle(z)
    return np.where(angle < 0, angle + 2.0 * np.pi, angle)


def _even_rows(n, a: np.ndarray) -> np.ndarray:
    """Whether each column's z^n P / P-hat (a is (k, P)) is even, O(-z) =
    O(z): n + k is even and every odd-index a_j (a_1, a_3, ...) is zero
    within LINEAR_CERT_TOL of 1 + the largest |a_j|.  Its free critical
    points then come as +-kappa, whose orbits meet after one step."""
    scale = 1.0 + np.abs(a).max(axis=0, initial=0.0)
    odd = np.abs(a[::2]).max(axis=0, initial=0.0)
    return ((np.add(n, a.shape[0]) % 2 == 0)
            & (odd <= LINEAR_CERT_TOL * scale))


def _select_seed_rows(w: np.ndarray, index: Optional[int] = None,
                      even=False) -> tuple:
    """Free-critical selection from the pair roots w, (D, P): root j of
    pixel p in w[j, p]; one root per pixel needs no sort.

    Each usable w (off the origin's w = inf) is one kappa <-> 1/kappa
    pair, and the estimates of a multiple root count once; deflate_anchored
    has already divided out the anchored points w = +-2 (z = +-1).  A
    pair's seed is the root of z^2 - w z + 1 in the unit disc, or the one
    with the smaller argument in [0, 2 pi) when both lie on the circle.
    With index None the default rule requires exactly one pair, counting
    a usable w and -w as one on the pixels that `even` (a scalar or one per
    pixel, see _even_rows) marks; an integer index picks that pair in the
    order of the seeds' arguments, and a pixel with no such pair counts as
    having no free critical point.  Either rule follows the seed of the
    smallest argument when it picks index 0.
    Returns (seed, dead, no_free, multi masks); seed is undefined where dead.
    """
    D, P = w.shape
    # |z| > ORIGIN_TOL <=> |w| < 1 / ORIGIN_TOL
    usable = np.isfinite(w) & (np.abs(w) < 1.0 / ORIGIN_TOL)
    # A pixel with more than one usable root holds several pairs or a
    # multiple root (os3's free pair is double), which comes back as m
    # scattered estimates.  Fold each estimate into the first unfolded one
    # within CLUSTER_REL and use their mean, far closer to the root than
    # any one estimate.  Unlike poly._clusters this never joins through a
    # folded member nor merges two groups: os3's one double pair is two
    # estimates, and a bridge needs three.  Root by root: memory stays
    # O(P * D).
    cols = np.flatnonzero(usable.sum(axis=0) > 1)
    if cols.size:
        R, U = w[:, cols], usable[:, cols]
        total, size = R.copy(), np.ones(R.shape)
        for j in range(1, D):
            near = (np.abs(R[:j] - R[j])
                    <= CLUSTER_REL * (1.0 + np.abs(R[j]))) & U[:j]
            dup = np.flatnonzero(U[j] & near.any(axis=0))
            first = near[:, dup].argmax(axis=0)
            total[first, dup] += R[j, dup]
            size[first, dup] += 1.0
            U[j, dup] = False
        w = w.copy()
        w[:, cols] = total / size
        usable[:, cols] = U
    count = pairs = usable.sum(axis=0)
    if index is None and np.any(even):
        # on an even pixel, a root within CLUSTER_REL of minus an earlier
        # unmatched one is its mirror pair -kappa
        mirror = np.zeros(w.shape, bool)
        for j in range(1, D):
            mirror[j] = even & usable[j] & (
                (np.abs(w[:j] + w[j]) <= CLUSTER_REL * (1.0 + np.abs(w[j])))
                & usable[:j] & ~mirror[:j]).any(axis=0)
        pairs = count - mirror.sum(axis=0)
    with np.errstate(invalid="ignore"):       # the nan padding of w
        root = np.sqrt(w * w - 4.0)
        plus, minus = w + root, w - root
        outer = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
        inner = 1.0 / outer
    # both members on the circle: the smaller argument is the seed
    swap = np.zeros(w.shape, bool)
    circle = np.flatnonzero(np.abs(outer) <= 1.0 + 1e-9)
    swap.flat[circle] = _arg(outer.flat[circle]) < _arg(inner.flat[circle])
    seeds = np.where(swap, outer, inner)
    # the default rule is index 0 that also demands exactly one pair
    i = index or 0
    no_free = count <= i
    multi = (pairs > 1) & (index is None)
    if D == 1:                  # one root per pixel: no sort
        return seeds[0], no_free | multi, no_free, multi
    key = np.where(usable, _arg(seeds), np.inf)
    pick = np.argsort(key, axis=0, kind="stable")[min(i, D - 1)]
    return seeds[pick, np.arange(P)], no_free | multi, no_free, multi


def parameter_plane(family, cfg: RenderConfig, selector=None,
                    known_attractors=()) -> PlaneImage:
    """Render the plane of a one-parameter family of operators.

    `family` maps a complex parameter to an OperatorForm.  When its
    coefficients a(t) pass the affine fit at the fixed generic PROBES, every
    band's coefficients are a = A + t B, whatever the window, and the pair
    equation is the quadratic in t of _family_terms, built and stripped of
    its shared anchored factors once; a band evaluates each of its
    coefficients and each a_j as one array over its t.  Otherwise the
    family is called once per pixel and _pair_rows builds each pixel's
    equation.  Both store coefficients coefficient-major, (D, P).  The seeds
    come from the pair roots w (see _select_seed_rows), and _orbit follows
    each under its pixel's (n, a) (_form_map).  `selector` is None for the
    default rule (exactly one free pair, +-kappa counted as one for an even
    form, read by _even_rows off A and B or per pixel) or an integer index
    into a pixel's free pairs, ordered by the argument of their seeds.  A
    member the family cannot build is a dead pixel (_form_coeffs), whatever
    band holds it; a family that builds no member of the plane refuses it
    with the first pixel's error.
    """
    if selector is not None and selector < 0:
        raise ValueError("selector must be a nonnegative pair index")
    attr = _flatten_attractors(known_attractors)
    try:
        fit = affine_fit(family)
    except NdynError:
        fit = None

    if fit is not None:
        # shared by every t, so divided out of the terms once per render
        T = _deflate_shared(_family_terms(fit.n, fit.A, fit.B))
        fit_even = _even_rows(fit.n, np.stack([fit.A, fit.B], axis=1)).all()

    def work(ts):
        if fit is None:
            n_t, a, built = _form_coeffs(family, ts)
            Q, even = _pair_rows(n_t, a), _even_rows(n_t, a)
        else:
            a = [A_j + ts * B_j for A_j, B_j in zip(fit.A, fit.B)]
            Q = np.array([T0 + ts * (T1 + ts * T2) for T0, T1, T2 in T])
            n_t, built, even = fit.n, np.ones(ts.size, bool), fit_even
        w = _roots_rows(deflate_anchored(Q, _ANCHORS)[0])
        seed, dead, no_free, multi = _select_seed_rows(w, selector, even)
        o, it = _orbit(seed, _form_map(n_t, a), cfg, attr, live=~dead)
        return o, it, no_free, multi, built

    outcome, iters, no_free, multi, built = _run_bands(
        cfg, work, (np.int8, np.int32, bool, bool, bool))
    if not built.any():
        # no member anywhere: the first pixel's member raises its error
        family(complex(cfg.x_centers()[0], cfg.y_centers()[0]))
    diagnostics = {
        "no_free_critical": int(no_free.sum()),
        "multiple_free_pairs": int(multi.sum()),
        "vectorized": fit is not None,
    }
    return PlaneImage(outcome, iters, cfg, diagnostics=diagnostics)


# --------------------------------------------------------------------------
# color and output
# --------------------------------------------------------------------------


def _speed_rgb(t: np.ndarray) -> np.ndarray:
    rgb = np.empty(t.shape + (3,), np.float64)
    for ch in range(3):
        rgb[..., ch] = np.interp(t, _SPEED_STOPS, _SPEED_COLORS[:, ch])
    return rgb


def colorize(img: PlaneImage) -> np.ndarray:
    """Per-pixel record -> uint8 (h, w, 3) RGB, in img.config.mode's palette.

    Each color is a function of the outcome and the iteration count alone,
    so it is computed once per (outcome, count) into a table and gathered.
    The table stops at the largest count of a resolved pixel: a none pixel
    is black at every count, so it is read at count 0.
    """
    cfg = img.config
    counts = np.where(img.outcome != OUTCOME_NONE, img.iterations, 0)
    top = int(counts.max(initial=0))
    t = np.clip(np.arange(top + 1, dtype=np.float64) / float(cfg.max_iter),
                0.0, 1.0)
    speed = np.rint(_speed_rgb(t)).astype(np.uint8)
    table = np.zeros((len(OUTCOME_NAMES), top + 1, 3), np.uint8)
    table[[OUTCOME_ROOT0, OUTCOME_ROOTINF, OUTCOME_STRANGE]] = speed
    if cfg.mode != "speed":
        table[OUTCOME_STRANGE] = 0
        table[OUTCOME_STRANGE, :, 1] = np.rint(
            np.interp(t, [0.0, 1.0], [255.0, 96.0]))
    return table[img.outcome, counts]


def write_image(img: PlaneImage, path: str) -> None:
    rgb = colorize(img)
    header = b"P6\n%d %d\n255\n" % img.config.resolution
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())


def _ascii(text: str) -> str:
    """text with each character outside printable ASCII escaped as JSON
    escapes it (\\n, \\u00f6, a surrogate pair above U+FFFF); printable
    ASCII, quotes and backslashes included, is kept as it is."""
    return "".join(c if " " <= c <= "~" else json.dumps(c)[1:-1]
                   for c in text)


def write_metadata(img: PlaneImage, path: str, extra: Optional[dict] = None) -> None:
    """key=value sidecar: config echo, outcome counts, diagnostics."""
    cfg = img.config
    lines = [
        f"width={cfg.width}",
        f"height={cfg.height}",
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
        lines.append(f"{key}={_ascii(str(extra[key]))}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

"""The seed phase with one pixel per row, (P, D): the oracle for the
coefficient-major (D, P) helpers of ndyn.poly and ndyn.planes.

These are the row-major `_pair_rows`, `deflate_anchored`, `_divide_rows`,
`_roots_rows` and `_select_seed_rows` as the parameter plane ran them
before it stored coefficients coefficient-major.  Their arithmetic per
element is the same, so the outputs must agree byte for byte; only the
sums that the anchored 1e-8 rule compares run in another order (numpy's
pairwise row sum here).
"""

import numpy as np

from ndyn.planes import ORIGIN_TOL, _arg
from ndyn.poly import CLUSTER_REL


def conv_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise polynomial product of ascending coefficient arrays."""
    P, da = A.shape
    _, db = B.shape
    out = np.zeros((P, da + db - 1), np.complex128)
    for i in range(da):
        out[:, i:i + db] += A[:, i][:, None] * B
    return out


def pair_rows(n, a: np.ndarray) -> np.ndarray:
    """Q(w) per row, ascending: the pair equation of z^n P / P-hat for each
    row of a (a_1..a_k), through the Dickson polynomials."""
    P, k = a.shape
    q = np.ones((P, k + 1), np.complex128)
    q[:, 1:] = a
    p = q[:, ::-1]
    j = np.arange(k + 1)
    C = (conv_rows((np.reshape(n, (-1, 1)) + j) * p, q)
         - conv_rows(p, j * q))
    dickson = np.zeros((k + 1, k + 1))
    dickson[0, 0] = 2.0
    if k:
        dickson[1, 1] = 1.0
    for m in range(2, k + 1):
        dickson[m, 1:] = dickson[m - 1, :-1]
        dickson[m] -= dickson[m - 2]
    dickson[0, 0] = 1.0
    return C[:, k:] @ dickson


def divide_rows(C: np.ndarray, r) -> np.ndarray:
    """Row-wise synthetic division of ascending coefficients by (z - r),
    from the top down; the remainder is dropped."""
    P, D = C.shape
    Q = np.empty((P, D - 1), np.complex128)
    Q[:, D - 2] = C[:, D - 1]
    for j in range(D - 3, -1, -1):
        Q[:, j] = C[:, j + 1] + r * Q[:, j + 1]
    return Q


def deflate_anchored(C: np.ndarray, anchors) -> tuple:
    """Divide every factor (z - r), r in anchors, out of each row of C:
    (quotient rows, the width of C, zero at the top; counts, (rows,
    anchors))."""
    Q = np.array(C, np.complex128)
    P, D = Q.shape
    counts = np.zeros((P, len(anchors)), int)
    for i, r in enumerate(anchors):
        powers = (r ** np.arange(D))[None, :]
        while True:
            vals = (Q * powers).sum(axis=1)
            scale = (np.abs(Q) * np.abs(powers)).sum(axis=1)
            mask = (scale > 0) & (np.abs(vals) <= 1e-8 * scale)
            mask &= np.abs(Q[:, 1:]).sum(axis=1) > 0
            if not mask.any():
                break
            Q[mask, :D - 1] = divide_rows(Q[mask], r)
            Q[mask, D - 1] = 0.0
            counts[mask, i] += 1
    return Q, counts


def roots_rows(C: np.ndarray) -> np.ndarray:
    """Roots of each row's ascending-coefficient polynomial, nan-padded."""
    P, D = C.shape
    out = np.full((P, max(D - 1, 1)), np.nan + 0.0j, np.complex128)
    scale = np.abs(C).max(axis=1)
    big = np.abs(C) > 1e-12 * np.maximum(scale, 1e-300)[:, None]
    deg = np.where(big.any(axis=1), D - 1 - big[:, ::-1].argmax(axis=1), -1)
    for m in np.unique(deg):
        if m < 1:
            continue
        rows = np.where(deg == m)[0]
        monic = C[rows, :m + 1] / C[rows, m][:, None]
        if m == 1:
            out[rows, 0] = -monic[:, 0]
            continue
        comp = np.zeros((rows.size, m, m), np.complex128)
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, :, m - 1] = -monic[:, :m]
        out[rows, :m] = np.linalg.eigvals(comp)
    return out


def select_seed_rows(w: np.ndarray, index=None, even=False) -> tuple:
    """(seed, dead, no_free, multi) from the pair roots w, one pixel per
    row; seed is undefined where dead."""
    P, D = w.shape
    usable = np.isfinite(w) & (np.abs(w) < 1.0 / ORIGIN_TOL)
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
    count = pairs = usable.sum(axis=1)
    if index is None and np.any(even):
        mirror = np.zeros(w.shape, bool)
        for j in range(1, D):
            mirror[:, j] = even & usable[:, j] & (
                (np.abs(w[:, :j] + w[:, j, None])
                 <= CLUSTER_REL * (1.0 + np.abs(w[:, j, None])))
                & usable[:, :j] & ~mirror[:, :j]).any(axis=1)
        pairs = count - mirror.sum(axis=1)
    with np.errstate(invalid="ignore"):
        root = np.sqrt(w * w - 4.0)
        outer = np.where(np.abs(w + root) >= np.abs(w - root),
                         w + root, w - root) / 2.0
        inner = 1.0 / outer
    swap = (np.abs(outer) <= 1.0 + 1e-9) & (_arg(outer) < _arg(inner))
    seeds = np.where(swap, outer, inner)
    key = np.where(usable, _arg(seeds), np.inf)
    i = index or 0
    no_free = count <= i
    multi = (pairs > 1) & (index is None)
    pick = np.argsort(key, axis=1, kind="stable")[:, min(i, D - 1)]
    seed = seeds[np.arange(P), pick]
    return seed, no_free | multi, no_free, multi

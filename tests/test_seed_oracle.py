"""The coefficient-major seed phase against its row-major oracle.

`_pair_rows`, `deflate_anchored`, `_roots_rows` and `_select_seed_rows`
take (D, P) arrays, coefficient index first and pixel last;
tests/row_major.py keeps the same steps with one pixel per row.  The two
must give the same bytes: the pair equations of seeded forms, and on a
seeded corpus of pair equations the quotients and counts, the roots, and
the seed (where live), dead, no_free and multi masks.
"""

import cmath
import math

import numpy as np
import pytest

import row_major
from ndyn.planes import _ANCHORS, _pair_rows, _roots_rows, _select_seed_rows
from ndyn.poly import Polynomial, deflate_anchored


def _circle(rng, radius):
    return radius * cmath.exp(2j * math.pi * rng.uniform())


def _roots(rng, degree):
    """`degree` pair roots w, drawn to reach every branch of the seed
    phase: planted single and double factors at the anchors +-2 (exact or
    within 1e-11), double roots that the fold joins, +-w pairs that the
    mirror rule joins, real w in (-2, 2) whose seeds lie on the unit
    circle, real w beyond +-2 whose seeds share the argument 0 or pi (a tie
    that the lower root index wins), and roots past 1 / ORIGIN_TOL that are
    no seed."""
    roots = []
    while len(roots) < degree:
        kind = rng.integers(0, 8)
        if kind == 0:
            anchor = _ANCHORS[rng.integers(0, 2)]
            near = anchor + rng.choice([0.0, 1e-11]) * _circle(rng, 1.0)
            roots += [near] * int(rng.integers(1, 3))
        elif kind == 1:
            roots += [_circle(rng, rng.uniform(0.1, 6.0))] * 2
        elif kind == 2:
            w = _circle(rng, rng.uniform(0.1, 6.0))
            roots += [w, -w]
        elif kind == 3:
            roots.append(rng.uniform(-1.99, 1.99) + rng.choice([0.0, 1e-15j]))
        elif kind == 4:
            roots.append(_circle(rng, 1e10))
        elif kind == 5:
            roots.append(rng.choice([-1.0, 1.0]) * rng.uniform(2.5, 6.0))
        else:
            roots.append(_circle(rng, rng.uniform(0.0, 6.0)))
    return roots[:degree]


def _corpus(width, size=400, seed=0):
    """(rows, even): `size` pair equations of `width` coefficients, one per
    row, and a per-row even mask that marks the rows built from +-w pairs
    (and some others, which the mirror rule must leave alone)."""
    rng = np.random.default_rng([seed, width])
    rows = np.zeros((size, width), np.complex128)
    even = rng.random(size) < 0.3
    for i in range(size):
        kind = rng.integers(0, 10)
        if kind == 0:
            continue                            # the zero row
        if kind == 1:
            rows[i] = np.nan                    # a member not built
            continue
        if kind == 2:
            rows[i] = (10.0 ** rng.uniform(-12, 12, width)
                       * np.exp(2j * np.pi * rng.uniform(size=width)))
            if rng.random() < 0.3:
                rows[i, rng.integers(0, width)] = np.nan
            continue
        degree = int(rng.integers(0, width))
        if kind == 3 and width > 1:
            w = [_circle(rng, rng.uniform(0.1, 6.0))
                 for _ in range(degree // 2)]
            roots = w + [-v for v in w]
            even[i] = True
        else:
            roots = _roots(rng, degree)
        lead = _circle(rng, 10.0 ** rng.uniform(-3, 3))
        c = Polynomial.from_roots(roots, lead=lead).coeffs
        rows[i, :c.size] = c
        if kind == 4 and c.size < width:
            # a top coefficient below 1e-12 of the largest: degree drops
            rows[i, c.size] = 1e-14 * np.abs(c).max()
    return rows, even


def _same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", range(1, 8))
def test_seed_phase_matches_the_row_major_oracle(width):
    rows, even = _corpus(width)
    Q, counts = deflate_anchored(rows.T, _ANCHORS)
    Q_row, counts_row = row_major.deflate_anchored(rows, _ANCHORS)
    assert _same(np.ascontiguousarray(Q.T), Q_row)
    assert _same(np.ascontiguousarray(counts.T), counts_row)
    if width > 2:
        assert counts.any(axis=1).all()     # both anchors were divided
    w = _roots_rows(Q)
    w_row = row_major.roots_rows(Q_row)
    assert _same(np.ascontiguousarray(w.T), w_row)
    for index in (None, 0, 1, 2, 3):
        for mask in (False, even):
            got = _select_seed_rows(w, index, mask)
            want = row_major.select_seed_rows(w_row, index, mask)
            for name, g, v in zip(("dead", "no_free", "multi"),
                                  got[1:], want[1:]):
                assert _same(g, v), (name, index)
            live = ~want[1]
            assert _same(got[0][live], want[0][live]), index
    if width > 2:
        # the corpus reaches the fold, the mirror rule and live seeds
        _, dead, _, multi = _select_seed_rows(w, None, even)
        assert multi.any() and (~dead).any()
        assert _select_seed_rows(w, None, False)[3].sum() > multi.sum()
        pairs = sum(~_select_seed_rows(w, i)[2] for i in range(width - 1))
        assert (pairs < (np.isfinite(w) & (np.abs(w) < 1e9)).sum(axis=0)).any()


@pytest.mark.parametrize("k", range(7))
def test_pair_rows_match_the_row_major_oracle(k):
    # at 16384 pixels the Dickson product runs through BLAS's blocked
    # kernel, whose sums keep their order only in the pixel-major operand
    rng = np.random.default_rng([1, k])
    for P in (1, 5, 16384):
        a = rng.normal(size=(P, k)) + 1j * rng.normal(size=(P, k))
        for n in (3, rng.integers(0, 6, P)):
            got = np.ascontiguousarray(_pair_rows(n, a.T).T)
            assert _same(got, row_major.pair_rows(n, a)), (P, n)

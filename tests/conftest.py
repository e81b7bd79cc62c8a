import numpy as np
import pytest

from ndyn.conjugate import make_form
from ndyn.poly import Polynomial, RationalMap


def poly_map(p: Polynomial) -> RationalMap:
    return RationalMap(p, Polynomial.one())


def maps_close(R1: RationalMap, R2: RationalMap, rel: float = 1e-9) -> bool:
    """Coefficient-wise comparison of two reduced maps up to joint scaling."""
    a, b = R1.num.coeffs, R2.num.coeffs
    c, d = R1.den.coeffs, R2.den.coeffs
    if a.size != b.size or c.size != d.size:
        return False
    scale = max(np.abs(b).max(initial=0.0), np.abs(d).max(initial=0.0), 1.0)
    return bool(np.all(np.abs(a - b) <= rel * scale)
                and np.all(np.abs(c - d) <= rel * scale))


def random_form(rng, n_lo=2, n_hi=6, k_hi=5, box=3.0):
    """A random normal form kept away from the degenerate sum and from a
    vanishing bottom coefficient."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        k = int(rng.integers(0, k_hi + 1))
        a = tuple(complex(rng.uniform(-box, box), rng.uniform(-box, box))
                  for _ in range(k))
        if k and abs(a[-1]) < 1e-2:
            continue
        if abs(1 + sum(a)) < 1e-2:
            continue
        return make_form(n, a)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)

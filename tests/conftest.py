import numpy as np
import pytest

from ndyn.poly import Polynomial, RationalMap
from ndyn.verify import random_form  # noqa: F401  (imported by the tests)


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


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)

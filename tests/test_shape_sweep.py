"""Pinned shapes of every catalog scheme's normal form.

Every scheme runs at c = 1 and c = 2 - i; a scheme with a parameter runs at
0, 1 and eight seeded complex values of it (112 cases).  Each case records
the (n, k, sign) of `conjugated_form` or the class of the error it raises,
and one digest covers all of them, so a change to the cancellation of
common factors that moves a degree shows up here.
`PYTHONPATH=src python tests/test_shape_sweep.py` prints the cases and the
current digest.
"""

import hashlib

import numpy as np

from ndyn import catalog_entry, catalog_names, conjugated_form
from ndyn.errors import NdynError

SEED = 20130101
C_VALUES = (1.0, 2.0 - 1.0j)

PIN = "ddf51e1a5ec24da3af7141ce41c1afd66afd45692d110be9a1daeeffad92de01"


def _parameters():
    rng = np.random.default_rng(SEED)
    draws = rng.uniform(-3.0, 3.0, (8, 2))
    return (0.0, 1.0) + tuple(complex(x, y) for x, y in draws)


def cases():
    """(scheme, parameter binding, c) of every case, in catalog order."""
    out = []
    for name in catalog_names():
        entry = catalog_entry(name)
        if entry.ast is None:
            continue
        bindings = ([{entry.params[0]: t} for t in _parameters()]
                    if entry.params else [{}])
        out += [(name, b, c) for c in C_VALUES for b in bindings]
    return out


def shape(name, bindings, c):
    """(n, k, sign) of the normal form, or the error class name."""
    try:
        form = conjugated_form(name, bindings, c=c)
    except NdynError as e:
        return type(e).__name__
    return form.n, form.k, form.sign


def sweep():
    return [(name, shape(name, b, c)) for name, b, c in cases()]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_sweep_covers_every_scheme():
    assert len(cases()) == 112


def test_shapes_match_pin():
    assert digest(sweep()) == PIN


if __name__ == "__main__":
    rows = sweep()
    for (name, b, c), (_, s) in zip(cases(), rows):
        print(f"{name:18s} {b} c={c}: {s}")
    print(digest(rows))

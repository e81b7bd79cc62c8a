"""Seeded inputs for the three workloads.

A workload is an endless sequence of rounds; each round is a list of
operations drawn from the workload's own random stream, so a seed fixes
every input of every round.  The benchmark runs one operation at a time
(a closed loop with one client); renders use at most ``nproc`` threads.

Every workload reports every end-to-end metric, so each carries a primary
part (the path it was chosen to stress) and a small secondary part that
keeps the other metrics measured:

- forms: primary = a stratified mix of ``ndyn build`` / ``analyze`` /
  ``stability`` requests over the whole catalog, including expected
  refusals; secondary = thumbnail renders.
- planes-vectorized: primary = chebyshev-halley and m4 parameter planes
  (batched seed solve and orbit iteration) and the king dynamical plane at
  beta = -4; secondary = one request round.
- planes-scalar: primary = the os3 parameter plane, whose last coefficient
  is rational in the parameter and so takes the per-pixel path, plus an
  os3 dynamical plane; secondary = one request round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

WORKLOADS = ("forms", "planes-vectorized", "planes-scalar")

# catalog methods with a normal form: name -> (parameter, values to avoid).
# The avoided values are poles or shape collapses (k drops) of the family.
FORM_METHODS = {
    "newton": (None, ()),
    "traub": (None, ()),
    "ostrowski": (None, ()),
    "king": ("beta", (-10.0 / 3.0, -2.5)),
    "jarratt": (None, ()),
    "wang": (None, ()),
    "amat": ("beta", (1.0, 3.0 / 8.0)),
    "chun": ("alpha", None),             # only alpha = 0 has a normal form
    "chebyshev-halley": ("alpha", (0.5, 1.0, 1.5)),
    "c-family": ("c", (0.5,)),
    "m4": ("beta", (0.0, 0.2)),
    "os2": ("a", (-2.8,)),
    "os3": ("a", (-2.8, complex(-76.0, 35.777) / 18.0,
                  complex(-76.0, -35.777) / 18.0)),
    "os4": ("b", (0.75,)),
    "os5": ("a", (-2.8, -3.5)),
}

# one-parameter families: name -> expected outcome of `ndyn stability`
STABILITY = {
    "king": None,
    "amat": None,
    "chebyshev-halley": None,
    "c-family": None,
    "m4": None,
    "os2": None,
    "os3": "NonlinearDependence",        # a_4 is rational in a
    "os4": None,
    "os5": "DegenerateFamily",           # z = 1 is never fixed
}

# schemes without a normal form: name -> (parameter, values to avoid)
REFUSALS = {
    "steffensen": (None, ()),
    "traub-steffensen": ("gamma", (0.0,)),
    "chun": ("alpha", (0.0,)),
}
# Both classes mean "this operator is not z^n P/P^"; which one the
# extractor raises first depends on c for traub-steffensen.
NOT_NORMAL_FORM = ("NotPalindromic", "NotFixingOneZeroInfinity")

CLEARANCE = 0.05


@dataclass
class Request:
    kind: str                 # build | analyze | stability
    method: str
    argv: list
    expect: tuple = ()        # error class names of an expected refusal
    bindings: dict = field(default_factory=dict)
    c: complex = 1.0


@dataclass
class Render:
    kind: str                 # paramplane | dynplane
    method: str
    window: tuple
    res: int
    workers: int
    mode: str = "speed"
    attractors: tuple = ()
    bindings: dict = field(default_factory=dict)
    max_iter: int = 150
    probe: bool = False       # max_iter = 1 twin used to time the seed phase


def literal(z: complex) -> str:
    """Six-decimal complex literal in the CLI grammar (e.g. 1.5-0.25i)."""
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _rounded(rng, half: float, avoid=(), clearance=CLEARANCE) -> complex:
    while True:
        z = complex(round(rng.uniform(-half, half), 6),
                    round(rng.uniform(-half, half), 6))
        if all(abs(z - bad) > clearance for bad in avoid):
            return z


def _c(rng) -> complex:
    return _rounded(rng, 3.0, (0.0,), clearance=0.2)


def _request(kind, method, pname, value, c, expect=()) -> Request:
    argv = [kind, "--method", method]
    bindings = {}
    if pname is not None and kind != "stability":
        argv += ["--param", f"{pname}={literal(value)}"]
        bindings = {pname: value}
    if kind != "stability":
        argv += ["--c", literal(c)]
    return Request(kind, method, argv, tuple(expect), bindings, c)


def request_round(rng, methods=None) -> list:
    """One stratified round: build + analyze of every normal-form method,
    stability of every one-parameter family, and the refusals."""
    ops = []
    for method, (pname, avoid) in FORM_METHODS.items():
        if methods and method not in methods:
            continue
        for kind in ("build", "analyze"):
            value = (0j if avoid is None
                     else _rounded(rng, 2.0, avoid) if pname else None)
            ops.append(_request(kind, method, pname, value, _c(rng)))
    for method, refusal in STABILITY.items():
        if methods and method not in methods:
            continue
        ops.append(_request("stability", method, None, None, 1.0,
                            (refusal,) if refusal else ()))
    for method, (pname, avoid) in REFUSALS.items():
        if methods and method not in methods:
            continue
        for kind in ("build", "analyze"):
            value = _rounded(rng, 2.0, avoid, clearance=0.2) if pname else None
            ops.append(_request(kind, method, pname, value, _c(rng),
                                NOT_NORMAL_FORM))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _shifted(rng, window, share=0.02) -> tuple:
    x0, x1, y0, y1 = window
    dx = rng.uniform(-share, share) * (x1 - x0)
    dy = rng.uniform(-share, share) * (y1 - y0)
    return (x0 + dx, x1 + dx, y0 + dy, y1 + dy)


# gallery windows (scripts/render_figures.py)
CH_WINDOW = (-1.0, 5.0, -3.0, 3.0)
M4_WINDOW = (-180.0, 120.0, -150.0, 150.0)
OS3_WINDOW = (-6.5, 3.5, -5.0, 5.0)
DYN_WINDOW = (-3.0, 3.0, -3.0, 3.0)


def _pair(render: Render, nproc: int) -> list:
    """The render at one worker and again at nproc workers."""
    return [render, replace(render, workers=nproc)]


def render_set(rng, workload: str, size: dict, nproc: int) -> list:
    specs = []
    if workload in ("forms", "planes-vectorized"):
        px, dyn = size["vector_px"], size["dyn_px"]
        specs.append(Render("paramplane", "chebyshev-halley",
                            _shifted(rng, CH_WINDOW), px, 1))
        specs.append(Render("paramplane", "m4", _shifted(rng, M4_WINDOW), px,
                            1, mode="attractor", attractors=(1.0,)))
        specs.append(Render("dynplane", "king", _shifted(rng, DYN_WINDOW),
                            dyn, 1, bindings={"beta": -4.0 + 0j}))
    else:
        specs.append(Render("paramplane", "os3", _shifted(rng, OS3_WINDOW),
                            size["scalar_px"], 1))
        specs.append(Render("dynplane", "os3", _shifted(rng, DYN_WINDOW),
                            size["dyn_px"], 1, bindings={"a": 0.9 + 0j}))
    return [r for spec in specs for r in _pair(spec, nproc)]


# Sizes per workload.  "full" is what the benchmark measures; "tiny" keeps
# the smoke test quick.  round_s is the rough cost of one round, used only
# to choose how many rounds a traced run replays.
SIZES = {
    "full": {
        "forms": {"vector_px": 48, "dyn_px": 96, "oracle_px": 4,
                  "round_s": 1.3},
        "planes-vectorized": {"vector_px": 240, "dyn_px": 400,
                              "oracle_px": 12, "round_s": 3.5},
        "planes-scalar": {"scalar_px": 20, "dyn_px": 600, "oracle_px": 12,
                          "round_s": 4.5},
    },
    "tiny": {
        "forms": {"vector_px": 12, "dyn_px": 16, "oracle_px": 2,
                  "round_s": 60.0},
        "planes-vectorized": {"vector_px": 16, "dyn_px": 24, "oracle_px": 2,
                              "round_s": 60.0},
        "planes-scalar": {"scalar_px": 3, "dyn_px": 16, "oracle_px": 2,
                          "round_s": 60.0},
    },
}
TINY_METHODS = ("king", "chebyshev-halley", "amat", "m4", "os3",
                "steffensen")


def rounds(workload: str, seed: int, size_name: str, nproc: int):
    """Endless generator of rounds for one workload and seed."""
    size = SIZES[size_name][workload]
    methods = TINY_METHODS if size_name == "tiny" else None
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        requests = request_round(rng, methods)
        renders = render_set(rng, workload, size, nproc)
        if workload == "forms":
            yield requests + renders
        else:
            yield renders + requests


def warm_up_ops(nproc: int) -> list:
    """One small operation of each kind, run before anything is timed."""
    ops = [_request("build", "king", "beta", 1.0 + 0j, 1.0 + 0j),
           _request("analyze", "king", "beta", 1.0 + 0j, 1.0 + 0j),
           _request("stability", "chebyshev-halley", None, None, 1.0),
           _request("build", "steffensen", None, None, 1.0 + 0j,
                    NOT_NORMAL_FORM)]
    ops += _pair(Render("paramplane", "chebyshev-halley", CH_WINDOW, 16, 1),
                 nproc)
    ops += _pair(Render("dynplane", "king", DYN_WINDOW, 32, 1,
                        bindings={"beta": -4.0 + 0j}), nproc)
    ops.append(Render("paramplane", "os3", OS3_WINDOW, 4, 1))
    return ops

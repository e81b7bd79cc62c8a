"""Pinned pixels of the gallery in scripts/render_figures.py.

Every figure is rendered at 64x64 with max_iter 150 from the script's own
table and renderer, at one worker and at two.  The digest covers the
outcome and iteration arrays, so any change to seeds, rows or orbits that
moves a pixel shows up here.  The pinned arrays themselves are kept
in figure_pins.npz (outcomes as int8, iterations as uint8), so a failing pin
says how many pixels moved and where.  The chebyshev-halley and king
parameter planes also pin their exact outcome counts at 300x300, and every
vectorized parameter plane renders the same bytes at one and two workers
when its grid is four bands.

`PYTHONPATH=src python tests/test_figures.py` prints the current digests in
the order of PINS; `PYTHONPATH=src python tests/test_figures.py PATH` also
writes the arrays to PATH and rewrites PINS in this file (a re-pin, with
PATH tests/figure_pins.npz).
"""

import dataclasses
import hashlib
import os
import re
import sys

import numpy as np
import pytest

from ndyn import RenderConfig, catalog_entry, parameter_plane
from ndyn.planes import _bands

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
from render_figures import FIGURES, render, render_all  # noqa: E402

RESOLUTION = (64, 64)
MAX_ITER = 150
PIN_ARRAYS = os.path.join(os.path.dirname(__file__), "figure_pins.npz")

PINS = {
    "param_chebyshev_halley":
        "fa20f0a6e5e2c9bdf06d8eab59d66f8347be6d337248e54f9a30d8b6c0f86994",
    "param_king":
        "ccf92ad552c649e275956dd37d50482f8874f8fab2fdf5af26bf86524af5f4e6",
    "param_amat":
        "0a218afcd7fe1071fd33b6dfb34d8399061aac7b72dbd47ae1cb006245133435",
    "param_os2":
        "ff28474b9cc40c610e980c63a45ab5658c638cbaecf5121ad6f5bcca08ad98ff",
    "param_os3":
        "95d319eea65fd1cb1374ca20dbb199df8b94f36f7d467e79b5603bd1076e1dc9",
    "param_os4":
        "1dad3fca7d866fdf27ba1d099987f4df8a588c0353ffd6a51b183ae62cabce74",
    "param_os5":
        "41ddae2c8de760ba22cf2309586c5150c00a1778fb0bcf1c35b77f5093345aa6",
    "param_c_family":
        "91c19c1e251c420c1351824bd225b91b80c09b1663cce79196f5bf38109f1d1c",
    "param_m4":
        "8b13aa5c1e0fcb102bea5ef07359121a680a1f38d47a26602815c36fd787c830",
    "dyn_os5_a0":
        "4426001a35c087dc52032c30c914a906e5bdbb08f8bfeb652d6e4534420b3c81",
    "dyn_os5_a2_m9_3i":
        "b6dafd587f26868b96d67b7a4dbe2cf302a4e28428d953535a1f053de89ffd95",
    "dyn_king_beta_m4":
        "ca3803de0dbbac7ba31a4840549182d87677886a806e146ff2dba9d352d99f4f",
    "dyn_ch_alpha_2":
        "6f54bacb217bf528975b2db6b76ba583b7b82b43a7900c5cda3640cf50be3e2c",
}


# exact outcome counts of three parameter planes at 300x300
COUNTS_300 = {
    "param_c_family": {"none": 21034, "root-0": 16210, "root-inf": 7910,
                       "strange-attractor": 44846},
    "param_chebyshev_halley": {"none": 3426, "root-0": 77232,
                               "root-inf": 9342, "strange-attractor": 0},
    "param_king": {"none": 536, "root-0": 79824, "root-inf": 9640,
                   "strange-attractor": 0},
}


def _render(name, workers, resolution=RESOLUTION):
    figure = next(f for f in FIGURES if f[0] == name)
    return render(figure, resolution, MAX_ITER, workers)


def _digest(img):
    return _array_digest(img.outcome, img.iterations)


def _array_digest(outcome, iterations):
    return hashlib.sha256(outcome.tobytes() + iterations.tobytes()).hexdigest()


def _pinned(name):
    """The stored arrays of one figure, read back in the render's dtypes."""
    with np.load(PIN_ARRAYS) as pins:
        return (pins[f"{name}_outcome"].astype(np.int8),
                pins[f"{name}_iterations"].astype(np.int32))


def _moved(name, img, workers, shown=5):
    """Which pixels of a render moved against the stored arrays."""
    outcome, iterations = _pinned(name)
    o_moved = img.outcome != outcome
    i_moved = img.iterations != iterations
    moved = np.argwhere(o_moved | i_moved)[:shown]
    first = [tuple(map(int, p)) for p in moved]
    return (f"{name} at {workers} worker(s): {int(o_moved.sum())} outcomes "
            f"and {int(i_moved.sum())} iteration counts moved, first at "
            f"(row, col) {first}")


def test_every_figure_is_pinned():
    assert sorted(PINS) == sorted(f[0] for f in FIGURES)


def test_stored_arrays_hash_to_the_pins():
    for name in PINS:
        outcome, iterations = _pinned(name)
        assert outcome.shape == iterations.shape == RESOLUTION[::-1], name
        assert _array_digest(outcome, iterations) == PINS[name], name


def test_a_moved_pixel_is_named():
    img = _render("dyn_king_beta_m4", 1)
    outcome, iterations = img.outcome.copy(), img.iterations.copy()
    outcome[3, 4] ^= 1
    iterations[[3, 10], [4, 2]] += 1
    moved = dataclasses.replace(img, outcome=outcome, iterations=iterations)
    assert _moved("dyn_king_beta_m4", moved, 2) == (
        "dyn_king_beta_m4 at 2 worker(s): 1 outcomes and 2 iteration counts "
        "moved, first at (row, col) [(3, 4), (10, 2)]")


@pytest.mark.parametrize("name", sorted(PINS))
def test_figure_pixels_match_pin(name):
    for workers in (1, 2):
        img = _render(name, workers)
        assert _digest(img) == PINS[name], _moved(name, img, workers)


@pytest.mark.parametrize("name", sorted(COUNTS_300))
def test_parameter_plane_counts_at_300(name):
    for workers in (1, 2):
        img = _render(name, workers, resolution=(300, 300))
        assert img.counts() == COUNTS_300[name], workers


# four bands of 68, 68, 68 and 36 rows
BANDED = (240, 240)
# m4 at alpha = -35, where its pair equation gains a factor (w - 2), is the
# center pixel (120, 120): the pixel pitch 2^-10 makes every center exact
PITCH = 2.0 ** -10
M4_AT_MINUS_35 = ("m4_at_minus_35", "m4", None,
                  (-35.0 - 120.5 * PITCH, -35.0 + 119.5 * PITCH,
                   -119.5 * PITCH, 120.5 * PITCH), (1.0,))
BANDED_FIGURES = [f for f in FIGURES
                  if f[2] is None and f[1] != "os3"] + [M4_AT_MINUS_35]


def test_banded_figures_are_the_vectorized_gallery_in_four_bands():
    assert len(_bands(*BANDED)) == 4
    assert len(BANDED_FIGURES) == 9
    cfg = RenderConfig(window=M4_AT_MINUS_35[3], resolution=BANDED)
    assert (cfg.x_centers()[120], cfg.y_centers()[120]) == (-35.0, 0.0)


@pytest.mark.parametrize("figure", BANDED_FIGURES, ids=lambda f: f[0])
def test_banded_parameter_plane_bytes_do_not_depend_on_the_workers(figure):
    _, method, _, window, attractors = figure
    producer = catalog_entry(method).stability_producer
    for selector in (None, 0, 1):
        one, two = (parameter_plane(
            producer, RenderConfig(window=window, resolution=BANDED,
                                   max_iter=40, workers=workers),
            selector=selector, known_attractors=attractors)
            for workers in (1, 2))
        assert one.diagnostics["vectorized"], method
        assert one.diagnostics == two.diagnostics, selector
        assert one.outcome.tobytes() == two.outcome.tobytes(), selector
        assert one.iterations.tobytes() == two.iterations.tobytes(), selector


def test_render_all_writes_every_figure(tmp_path):
    render_all(tmp_path, (8, 8), 20, 1)
    assert len(list(tmp_path.iterdir())) == 2 * len(FIGURES)
    parameters = {}
    for name, method, *_ in FIGURES:
        ppm = (tmp_path / f"{name}.ppm").read_bytes()
        assert ppm.startswith(b"P6\n8 8\n255\n") and len(ppm) == 11 + 192
        meta = (tmp_path / f"{name}.ppm.meta").read_text().splitlines()
        assert f"subject={method}" in meta
        parameters.update((name, line[len("parameter="):]) for line in meta
                          if line.startswith("parameter="))
    assert sorted(parameters) == sorted(f[0] for f in FIGURES
                                        if f[2] is None)
    assert parameters["param_m4"] == "alpha"


def _repin(path, images):
    """Write the arrays of `images` to path and their digests into PINS."""
    assert MAX_ITER <= np.iinfo(np.uint8).max
    arrays = {}
    for name, img in images.items():
        arrays[f"{name}_outcome"] = img.outcome.astype(np.int8)
        arrays[f"{name}_iterations"] = img.iterations.astype(np.uint8)
    np.savez_compressed(path, **arrays)
    with open(__file__) as f:
        text = f.read()
    for name, img in images.items():
        text = re.sub(rf'("{name}":\s*")[0-9a-f]{{64}}"',
                      rf'\g<1>{_digest(img)}"', text)
    with open(__file__, "w") as f:
        f.write(text)


if __name__ == "__main__":
    # the current digest of every figure, in PINS order, at one worker
    images = {name: _render(name, 1) for name in PINS}
    for name, img in images.items():
        print(name, _digest(img))
    if len(sys.argv) > 1:
        _repin(sys.argv[1], images)

"""Rendering pipeline: geometry, orbit classification, color, determinism."""

import cmath
import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndyn import (
    Polynomial,
    RationalMap,
    RenderConfig,
    catalog_entry,
    catalog_names,
    colorize,
    dynamical_plane,
    free_critical_points,
    orbit_outcome,
    parameter_plane,
    resolve_workers,
    write_image,
    write_metadata,
)
from ndyn.builder import _scheme_member, conjugated_form, parse_scheme
from ndyn.conjugate import make_form
from ndyn.errors import NdynError, ZeroDenominator
from ndyn.planes import (BAND_PIXELS, CONV_RADIUS, INFINITY_RADIUS,
                         OUTCOME_NAMES, OUTCOME_ROOT0, OUTCOME_ROOTINF,
                         OUTCOME_STRANGE, PlaneImage, _bands,
                         _deflate_shared, _even_rows, _family_terms,
                         _flatten_attractors, _form_coeffs, _form_map,
                         _one_block, _orbit, _OrbitMap, _pair_rows,
                         _rational_map, _roots_rows, _select_seed_rows)
from ndyn.poly import INF, _horner, deflate_anchored, rat_eval, rat_make
from ndyn.stability import PROBES, affine_fit

from conftest import random_form

Z_SQUARED = rat_make(Polynomial((0.0, 0.0, 1.0)), Polynomial((1.0,)))


def _step(f, z):
    """f(z), its output and intermediates cut from one block as _orbit
    cuts its work arrays."""
    out, *work = _one_block(z.size, 4 * [np.complex128] + [bool])
    return f(z, out, work)


def small_cfg(**kw):
    base = dict(window=(-2.0, 2.0, -2.0, 2.0), resolution=(16, 16),
                max_iter=60)
    base.update(kw)
    return RenderConfig(**base)


@pytest.mark.parametrize("bad", [
    dict(window=(1.0, 1.0, 0.0, 2.0)),
    dict(window=(0.0, 2.0, 3.0, 1.0)),
    dict(window=(0.0, 1.0, 0.0, math.inf)),
    dict(window=(-math.inf, 1.0, 0.0, 1.0)),
    dict(window=(math.nan, 1.0, 0.0, 1.0)),
    dict(window=(0.0, 1.0, -1e308, 1e308)),     # the extent overflows
    dict(window=(-1e308, 1e308, 0.0, 1.0)),
    dict(resolution=(0, 10)),
    dict(max_iter=0),
    dict(mode="glow"),
    dict(workers=0),
    dict(workers=-2),
    dict(resolution=(4.5, 4)),                  # not integers
    dict(resolution=(4, 4.0)),
    dict(max_iter=2.5),
    dict(workers=1.5),
    dict(max_iter=2 ** 31),                     # counts are int32
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        small_cfg(**bad)


def test_pixel_centers_sample_cell_midpoints():
    cfg = RenderConfig(window=(0.0, 1.0, 0.0, 1.0), resolution=(4, 2))
    assert np.allclose(cfg.x_centers(), [0.125, 0.375, 0.625, 0.875])
    # top row first: largest imaginary part leads
    assert np.allclose(cfg.y_centers(), [0.75, 0.25])


def test_orbit_counts_applications_before_capture():
    cfg = small_cfg()
    # 0.5 -> .25 -> .0625 -> .0039 -> 1.5e-5, inside 1e-4 after 4 steps
    name, its = orbit_outcome(Z_SQUARED, 0.5, cfg)
    assert (name, its) == ("root-0", 4)
    name, its = orbit_outcome(Z_SQUARED, 2.0, cfg)
    assert name == "root-inf" and its == 5
    # the point at infinity has escaped before the first step
    assert orbit_outcome(Z_SQUARED, INF, cfg) == ("root-inf", 0)


def test_zero_map_sends_every_seed_to_zero():
    # rat_make returns 0 / 1 for a zero numerator
    zero = rat_make(Polynomial(()), Polynomial((1.0,)))
    cfg = small_cfg(resolution=(4, 4))
    assert orbit_outcome(zero, 0.5 + 0.2j, cfg) == ("root-0", 1)
    img = dynamical_plane(zero, cfg)
    assert img.counts()["root-0"] == 16
    assert np.all(img.iterations == 1)


def test_orbit_none_means_full_budget():
    cfg = small_cfg(max_iter=25)
    # the unit circle is invariant for z -> z^2, so |z0| = 1 never resolves
    name, its = orbit_outcome(Z_SQUARED, complex(np.cos(1.0), np.sin(1.0)),
                              cfg)
    assert name == "none"
    assert its == cfg.max_iter


def test_orbit_attractor_capture_and_origin_precedence():
    cfg = small_cfg()
    name, its = orbit_outcome(Z_SQUARED, 0.5, cfg, known_attractors=(0.5,))
    assert (name, its) == ("strange-attractor", 0)
    # a declared attractor sitting on the origin must not shadow root-0
    name, _ = orbit_outcome(Z_SQUARED, 0.5, cfg, known_attractors=(0.0,))
    assert name == "root-0"


def test_plane_separates_basins_of_the_power_map():
    cfg = small_cfg(resolution=(32, 32))
    img = dynamical_plane(Z_SQUARED, cfg)
    xs = cfg.x_centers()
    ys = cfg.y_centers()
    mod = np.abs(xs[None, :] + 1j * ys[:, None])
    codes = img.outcome
    assert np.all(codes[mod < 0.9] == 1)     # root-0
    assert np.all(codes[mod > 1.1] == 2)     # root-inf
    none_mask = codes == 0
    assert np.array_equal(img.iterations[none_mask],
                          np.full(none_mask.sum(), cfg.max_iter))


def test_worker_count_does_not_change_bytes():
    maps = dynamical_plane(
        Z_SQUARED,
        small_cfg(resolution=(40, 48), workers=1))
    multi = dynamical_plane(
        Z_SQUARED,
        small_cfg(resolution=(40, 48), workers=4))
    assert np.array_equal(maps.outcome, multi.outcome)
    assert np.array_equal(maps.iterations, multi.iterations)
    assert colorize(maps).tobytes() == colorize(multi).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3 * BAND_PIXELS), st.integers(1, 5000))
def test_bands_cover_the_rows_in_order_within_the_budget(width, height):
    bands = _bands(width, height)
    assert bands[0][0] == 0 and bands[-1][1] == height
    assert all(r1 == next_r0 for (_, r1), (next_r0, _) in
               zip(bands, bands[1:]))
    rows = [r1 - r0 for r0, r1 in bands]
    assert min(rows) >= 1
    assert all(r * width <= BAND_PIXELS for r in rows) or rows == [1] * height
    # every band but the last is as full as the budget allows
    assert all((r + 1) * width > BAND_PIXELS for r in rows[:-1])


def _recorded_pools(monkeypatch) -> list:
    """The worker counts of the thread pools that renders open from now."""
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("ndyn.planes.ThreadPoolExecutor", Recorded)
    return pools


def test_bands_follow_the_grid_not_the_workers(monkeypatch):
    assert len(_bands(48, 48)) == 1
    assert len(_bands(240, 240)) == 4
    # no band holds more pixels than a 32-row band of a 600-wide grid
    assert max((r1 - r0) * 600 for r0, r1 in _bands(600, 600)) <= 32 * 600
    pools = _recorded_pools(monkeypatch)
    producer = catalog_entry("chebyshev-halley").stability_producer
    parameter_plane(producer, RenderConfig(
        window=(-1.0, 5.0, -3.0, 3.0), resolution=(48, 48), max_iter=20,
        workers=2))
    assert pools == []          # a thumbnail is one band, run in place


def _king_plane(cfg):
    return dynamical_plane(
        conjugated_form("king", {"beta": -4.0}).reconstruct(), cfg)


def _ch_plane(cfg):
    return parameter_plane(catalog_entry("chebyshev-halley")
                           .stability_producer, cfg)


def _os3_plane(cfg):
    return parameter_plane(catalog_entry("os3").stability_producer, cfg)


# a 3x3 window centred on os3's pole a* = (-76 + i sqrt(1280)) / 18, where
# a_4 is so large that the centre member fails the Vieta guard
OS3_POLE_WINDOW = (-4.223722222222222, -4.220722222222222,
                   1.9861159799998132, 1.9891159799998133)


@pytest.mark.parametrize("render, window, resolution, budget", [
    (_king_plane, (-3.0, 3.0, -3.0, 3.0), (40, 48), 200),
    # alpha = 0, 0.5, 1, 1.5 on the middle row: special members die
    (_ch_plane, (-0.625, 2.375, -1.125, 1.125), (12, 9), 24),
    # the centre member cannot be built: a dead pixel
    (_os3_plane, OS3_POLE_WINDOW, (3, 3), 3),
], ids=["dynamical", "affine", "per-pixel"])
def test_small_bands_on_worker_threads_match_the_default_split(
        monkeypatch, render, window, resolution, budget):
    cfg = RenderConfig(window=window, resolution=resolution, max_iter=60)
    whole = render(dataclasses.replace(cfg, workers=1))
    assert len(_bands(*resolution)) == 1
    monkeypatch.setattr("ndyn.planes.BAND_PIXELS", budget)
    assert len(_bands(*resolution)) >= 3
    pools = _recorded_pools(monkeypatch)
    for workers in (1, 2, 3):
        img = render(dataclasses.replace(cfg, workers=workers))
        assert np.array_equal(img.outcome, whole.outcome)
        assert np.array_equal(img.iterations, whole.iterations)
        assert img.diagnostics == whole.diagnostics
    assert pools == [2, 3]


def test_resolve_workers_sources():
    assert resolve_workers(small_cfg(workers=2)) == 2
    assert resolve_workers(small_cfg()) >= 1


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    # taskset or a cpuset leaves fewer CPUs than the machine has
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {2, 5},
                        raising=False)
    assert resolve_workers(small_cfg()) == 2
    # where the OS has no affinity mask, the CPU count
    monkeypatch.delattr("os.sched_getaffinity")
    assert resolve_workers(small_cfg()) == 64


def _hand_image(outcome, iterations, cfg):
    return PlaneImage(np.asarray(outcome, np.int8),
                      np.asarray(iterations, np.int32), cfg)


def test_speed_palette_keyframes():
    cfg = small_cfg(resolution=(6, 1), max_iter=100)
    img = _hand_image([[1, 1, 1, 1, 1, 0]],
                      [[0, 25, 50, 75, 100, 100]], cfg)
    rgb = colorize(img)
    expect = [(255, 0, 0), (255, 255, 0), (0, 255, 0),
              (0, 0, 255), (128, 128, 128), (0, 0, 0)]
    assert [tuple(px) for px in rgb[0]] == expect


def test_attractor_palette_green_ramp():
    cfg = small_cfg(resolution=(4, 1), max_iter=100, mode="attractor")
    img = _hand_image([[3, 3, 1, 0]], [[0, 100, 0, 100]], cfg)
    rgb = colorize(img)
    assert tuple(rgb[0, 0]) == (0, 255, 0)
    assert tuple(rgb[0, 1]) == (0, 96, 0)
    assert tuple(rgb[0, 2]) == (255, 0, 0)   # roots keep the speed ramp
    assert tuple(rgb[0, 3]) == (0, 0, 0)


def _reference_rgb(img, mode):
    """The palette as a float formula evaluated at every pixel."""
    t = np.clip(img.iterations.astype(np.float64) / img.config.max_iter,
                0.0, 1.0)
    stops = [0.0, 0.25, 0.5, 0.75, 1.0]
    colors = [[255, 255, 0, 0, 128], [0, 255, 255, 0, 128],
              [0, 0, 0, 255, 128]]
    speed = np.stack([np.interp(t, stops, c) for c in colors], axis=-1)
    green = np.zeros_like(speed)
    green[..., 1] = np.interp(t, [0.0, 1.0], [255.0, 96.0])
    colored = img.outcome[..., None] != 0
    if mode == "attractor":
        speed = np.where(img.outcome[..., None] == 3, green, speed)
    return np.rint(np.where(colored, speed, 0.0)).astype(np.uint8)


@pytest.mark.parametrize("max_iter", [1, 7, 150])
@pytest.mark.parametrize("mode", ["speed", "attractor"])
def test_colorize_matches_the_float_formula(max_iter, mode):
    rng = np.random.default_rng(max_iter)
    cfg = small_cfg(resolution=(40, 30), max_iter=max_iter, mode=mode)
    img = _hand_image(rng.integers(0, 4, (30, 40)),
                      rng.integers(0, max_iter + 1, (30, 40)), cfg)
    img.iterations[0, :2] = (0, max_iter)
    got = colorize(img)
    assert got.dtype == np.uint8 and got.shape == (30, 40, 3)
    assert np.array_equal(got, _reference_rgb(img, mode))


def test_colorize_memory_follows_the_resolved_counts():
    # the palette table stops at the largest resolved count (3 here), not
    # at max_iter; the none pixel is black at its count 10^6 all the same
    cfg = small_cfg(resolution=(2, 2), max_iter=10 ** 6)
    img = _hand_image([[1, 2], [3, 0]], [[0, 3], [2, 10 ** 6]], cfg)
    tracemalloc.start()
    try:
        rgb = colorize(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert np.array_equal(rgb, _reference_rgb(img, "speed"))


def test_ppm_bytes(tmp_path):
    cfg = RenderConfig(window=(-1.0, 1.0, -1.0, 1.0), resolution=(2, 1),
                       max_iter=10)
    img = _hand_image([[1, 0]], [[0, 10]], cfg)
    path = tmp_path / "tiny.ppm"
    write_image(img, str(path))
    data = path.read_bytes()
    assert data == b"P6\n2 1\n255\n" + bytes((255, 0, 0, 0, 0, 0))


def test_metadata_sidecar(tmp_path):
    cfg = small_cfg(resolution=(8, 8))
    img = dynamical_plane(Z_SQUARED, cfg)
    path = tmp_path / "tiny.meta"
    write_metadata(img, str(path), extra={"subject": "power map"})
    lines = path.read_text().splitlines()
    fields = dict(line.split("=", 1) for line in lines)
    assert fields["width"] == "8" and fields["height"] == "8"
    assert fields["x_min"] == "-2.0"
    assert fields["mode"] == "speed"
    assert fields["subject"] == "power map"
    total = sum(int(fields[f"count_{n}"])
                for n in ("none", "root_0", "root_inf", "strange_attractor"))
    assert total == 64
    # worker count must never leak into reproducible metadata
    assert not any(line.startswith("workers") for line in lines)


def test_metadata_echoes_a_window_of_any_number_type_as_floats(tmp_path):
    img = dynamical_plane(Z_SQUARED, small_cfg(resolution=(4, 4)))
    written = []
    for window in ((-3, 3, -3, 3), (-3.0, 3.0, -3.0, 3.0),
                   tuple(np.float64(v) for v in (-3, 3, -3, 3))):
        cfg = dataclasses.replace(img.config, window=window)
        assert cfg.window == (-3.0, 3.0, -3.0, 3.0)
        path = tmp_path / f"{len(written)}.meta"
        write_metadata(dataclasses.replace(img, config=cfg), str(path))
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]
    assert b"\nx_min=-3.0\n" in written[0]


def test_metadata_escapes_what_is_not_printable_ascii(tmp_path):
    img = dynamical_plane(Z_SQUARED, small_cfg(resolution=(4, 4)))
    path = tmp_path / "odd.meta"
    subject = 'a "b"\\c\tline\nk\u00f6nigs \U0001f600\x7f'
    write_metadata(img, str(path), extra={"subject": subject})
    data = path.read_bytes()
    assert data.isascii()
    # printable ASCII (quotes, backslash) keeps its bytes; the rest is
    # escaped as JSON escapes it, so the subject stays on one line
    want = 'subject=a "b"\\c\\tline\\nk\\u00f6nigs \\ud83d\\ude00\\u007f\n'
    assert data.endswith(want.encode())


def test_affine_family_renders_vectorized():
    entry = catalog_entry("chebyshev-halley")
    cfg = RenderConfig(window=(-1.0, 5.0, -3.0, 3.0), resolution=(24, 24),
                       max_iter=60)
    img = parameter_plane(entry.stability_producer, cfg)
    assert img.diagnostics["vectorized"] is True
    assert img.diagnostics["no_free_critical"] == 0
    assert img.diagnostics["multiple_free_pairs"] == 0
    counts = img.counts()
    assert counts["root-0"] + counts["root-inf"] > 0


def test_collapse_centered_window_renders_vectorized():
    # alpha = 1/2, where chebyshev-halley cancels to z^3, is the center of
    # the window but no probe: the whole window and a corner of it share
    # one affine model, so they agree on every common pixel center
    producer = catalog_entry("chebyshev-halley").stability_producer
    whole = parameter_plane(producer, RenderConfig(
        window=(0.0, 1.0, -0.5, 0.5), resolution=(32, 32), max_iter=60))
    assert whole.diagnostics["vectorized"] is True
    corner = parameter_plane(producer, RenderConfig(
        window=(0.0, 0.5, 0.0, 0.5), resolution=(16, 16), max_iter=60))
    assert np.array_equal(whole.outcome[:16, :16], corner.outcome)
    assert np.array_equal(whole.iterations[:16, :16], corner.iterations)


def test_known_attractors_mark_strange_pixels():
    entry = catalog_entry("os5")
    cfg = RenderConfig(window=(-10.5, 10.5, -10.5, 10.5),
                       resolution=(24, 24), max_iter=150)
    img = parameter_plane(entry.stability_producer, cfg,
                          known_attractors=(1.0, -1.0))
    assert img.counts()["strange-attractor"] > 0


def test_member_the_family_cannot_build_is_a_dead_pixel():
    producer = catalog_entry("os3").stability_producer
    cfg = RenderConfig(window=OS3_POLE_WINDOW, resolution=(3, 3), max_iter=60)
    ys, xs = cfg.y_centers(), cfg.x_centers()
    with pytest.raises(NdynError):
        producer(complex(xs[1], ys[1]))
    for workers in (1, 2):
        img = parameter_plane(producer, dataclasses.replace(cfg,
                                                            workers=workers))
        assert img.diagnostics["no_free_critical"] == 1
        assert img.diagnostics["multiple_free_pairs"] == 0
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                got = (OUTCOME_NAMES[int(img.outcome[i, j])],
                       int(img.iterations[i, j]))
                if (i, j) == (1, 1):
                    assert got == ("none", cfg.max_iter)
                    continue
                R = producer(complex(x, y)).reconstruct()
                assert got == orbit_outcome(R, _default_seed(R), cfg), (i, j)


def test_family_that_builds_no_member_refuses_the_plane():
    def family(t):
        raise ZeroDenominator(f"no member at {t}")

    cfg = RenderConfig(window=(-1.0, 1.0, -1.0, 1.0), resolution=(4, 4),
                       max_iter=20)
    with pytest.raises(ZeroDenominator, match="no member at"):
        parameter_plane(family, cfg)


def test_a_member_that_fails_is_a_dead_pixel_in_any_band(monkeypatch):
    # no member above the real axis: at one row a band, the top bands
    # build nothing, and render as the same dead pixels as in one band
    def family(t):
        if t.imag > 0:
            raise ZeroDenominator(f"no member at {t}")
        return make_form(3, (t * t,))

    base = dict(window=(-1.0, 1.0, -1.0, 1.0), resolution=(4, 4),
                max_iter=20)
    whole = parameter_plane(family, RenderConfig(workers=1, **base))
    assert whole.diagnostics["no_free_critical"] >= 8
    monkeypatch.setattr("ndyn.planes.BAND_PIXELS", 4)
    for workers in (1, 2):
        banded = parameter_plane(family,
                                 RenderConfig(workers=workers, **base))
        assert np.array_equal(banded.outcome, whole.outcome)
        assert np.array_equal(banded.iterations, whole.iterations)
        assert banded.diagnostics == whole.diagnostics
        # a family with no member anywhere refuses with the first pixel's
        with pytest.raises(ZeroDenominator,
                           match=r"no member at \(-0\.75\+2\.75j\)"):
            parameter_plane(lambda t: family(t + 2j),
                            RenderConfig(workers=workers, **base))


def test_every_band_that_builds_nothing_is_counted(monkeypatch):
    # the bands record their failures from worker threads: with 64 bands
    # on 8 workers and a short switch interval, a lost record would let a
    # plane with no member render instead of being refused
    def family(t):
        raise ZeroDenominator(f"no member at {t}")

    monkeypatch.setattr("ndyn.planes.BAND_PIXELS", 4)
    cfg = RenderConfig(window=(-1.0, 1.0, -1.0, 1.0), resolution=(4, 64),
                       max_iter=5, workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with pytest.raises(ZeroDenominator, match="no member at"):
                parameter_plane(family, cfg)
    finally:
        sys.setswitchinterval(interval)


def test_nonaffine_family_uses_scalar_path_deterministically():
    entry = catalog_entry("os3")
    base = dict(window=(-6.5, 3.5, -5.0, 5.0), resolution=(8, 8),
                max_iter=40)
    one = parameter_plane(entry.stability_producer,
                          RenderConfig(workers=1, **base))
    assert one.diagnostics["vectorized"] is False
    few = parameter_plane(entry.stability_producer,
                          RenderConfig(workers=3, **base))
    assert np.array_equal(one.outcome, few.outcome)
    assert np.array_equal(one.iterations, few.iterations)


def _default_seed(R):
    """The default rule on distinct critical points: drop those at 0 and
    +-1, require one kappa <-> 1/kappa pair, take the member with
    |kappa| <= 1 and the smallest argument in [0, 2 pi)."""
    usable = [r.point for r in free_critical_points(R)
              if abs(r.point) > 1e-9 and abs(r.point - 1.0) > 1e-6
              and abs(r.point + 1.0) > 1e-6]
    if not usable or (len(usable) + 1) // 2 > 1:
        return None
    inside = [p for p in usable if abs(p) <= 1.0 + 1e-9] or usable
    return min(inside, key=lambda p: cmath.phase(p) % (2 * math.pi))


def test_os3_plane_counts_its_double_free_pair_once():
    # os3's free critical pair is a double root of the derivative
    # numerator; each pixel must follow it as the single pair it is
    producer = catalog_entry("os3").stability_producer
    cfg = RenderConfig(window=(-6.5, 3.5, -5.0, 5.0), resolution=(8, 8),
                       max_iter=60)
    img = parameter_plane(producer, cfg)
    assert img.diagnostics["multiple_free_pairs"] == 0
    assert img.diagnostics["no_free_critical"] == 0
    for i, y in enumerate(cfg.y_centers()):
        for j, x in enumerate(cfg.x_centers()):
            R = producer(complex(x, y)).reconstruct()
            seed = _default_seed(R)
            assert seed is not None
            got = (OUTCOME_NAMES[int(img.outcome[i, j])],
                   int(img.iterations[i, j]))
            assert got == orbit_outcome(R, seed, cfg), (i, j)


def test_pair_index_selector_agrees_with_default_rule():
    producer = catalog_entry("chebyshev-halley").stability_producer
    cfg = RenderConfig(window=(-1.0, 5.0, -3.0, 3.0), resolution=(16, 16),
                       max_iter=60)
    default = parameter_plane(producer, cfg)
    first = parameter_plane(producer, cfg, selector=0)
    assert np.array_equal(default.outcome, first.outcome)
    assert np.array_equal(default.iterations, first.iterations)
    # os3 has one free pair, so there is no second point to follow
    cfg = RenderConfig(window=(-6.5, 3.5, -5.0, 5.0), resolution=(8, 8),
                       max_iter=40)
    second = parameter_plane(catalog_entry("os3").stability_producer, cfg,
                             selector=1)
    assert second.diagnostics["no_free_critical"] == 64
    assert second.counts()["none"] == 64


# a King step, then a Newton step: two distinct free pairs at each beta
KING_NEWTON = ("y = z - p(z)/p'(z);\n"
               "w = y - p(y)/p'(z)*(p(z)+(beta+2)*p(y))/(p(z)+beta*p(y));\n"
               "next = w - p(w)/p'(w);")


def test_pair_index_selector_follows_either_of_two_free_pairs():
    producer = partial(_scheme_member, parse_scheme(KING_NEWTON), "beta", {},
                       1.0)
    cfg = RenderConfig(window=(-3.0, 3.0, -3.0, 3.0), resolution=(8, 8),
                       max_iter=40)
    default = parameter_plane(producer, cfg)
    assert default.diagnostics["multiple_free_pairs"] == 64
    assert default.counts()["none"] == 64
    first, second = (parameter_plane(producer, cfg, selector=i)
                     for i in (0, 1))
    for img in (first, second):
        assert img.diagnostics["multiple_free_pairs"] == 0
        assert img.diagnostics["no_free_critical"] == 0
        assert img.counts()["none"] == 0
    assert (first.counts()["root-0"], second.counts()["root-0"]) == (2, 44)
    assert int((first.outcome != second.outcome).sum()) == 44


# a Newton step, then a damped one: a = (0, 1 - beta), an even map whose
# two free pairs are +-kappa
EVEN_NEWTON = "y = z - p(z)/p'(z);\nnext = y - beta*p(y)/p'(y);"


def _even_families():
    return {"scheme": partial(_scheme_member, parse_scheme(EVEN_NEWTON),
                              "beta", {}, 1.0),
            "form": lambda t: make_form(2, (0.0, t)),
            "per-pixel": lambda t: make_form(2, (0.0, t * t))}


# 140 rows run as two bands; the per-pixel family builds a form per pixel,
# so it runs at 24 only
@pytest.mark.parametrize("name, size", [("scheme", 24), ("scheme", 140),
                                        ("form", 24), ("form", 140),
                                        ("per-pixel", 24)])
@pytest.mark.parametrize("workers", [1, 2])
def test_default_rule_follows_one_of_an_even_forms_mirror_pairs(
        name, size, workers):
    family = _even_families()[name]
    cfg = RenderConfig(window=(-3.0, 3.0, -3.0, 3.0), resolution=(size, size),
                       max_iter=40, workers=workers)
    default = parameter_plane(family, cfg)
    first = parameter_plane(family, cfg, selector=0)
    assert default.diagnostics == first.diagnostics
    assert default.diagnostics["multiple_free_pairs"] == 0
    assert default.diagnostics["vectorized"] == (name != "per-pixel")
    assert np.array_equal(default.outcome, first.outcome)
    assert np.array_equal(default.iterations, first.iterations)
    counts = default.counts()
    assert counts["none"] < size * size
    want = {("scheme", 24): (200, 300, 76), ("form", 24): (164, 314, 98)}
    if (name, size) in want:
        got = counts["none"], counts["root-0"], counts["root-inf"]
        assert got == want[name, size]


def test_odd_form_keeps_the_one_pair_rule():
    # n + k = 5: O(-z) = -O(z), so -kappa's orbit mirrors kappa's and each
    # pixel still has two free pairs
    cfg = RenderConfig(window=(-3.0, 3.0, -3.0, 3.0), resolution=(24, 24),
                       max_iter=40)
    img = parameter_plane(lambda t: make_form(3, (0.0, t)), cfg)
    assert img.diagnostics["multiple_free_pairs"] == 576
    assert img.counts()["none"] == 576


def test_even_rows_need_even_n_plus_k_and_zero_odd_coefficients():
    a = np.array([[0.0, 0.3], [1e-9, 0.3], [1e-7, 0.3], [0.0, 0.3],
                  [np.nan, 0.3]], np.complex128)
    n = np.array([2, 2, 2, 3, 2])
    assert _even_rows(n, a.T).tolist() == [True, True, False, False, False]
    # a k = 4 form reads a_1 and a_3; a form with k = 0 is even with n
    a4 = np.array([[0.0, 5.0, 0.0, 2.0], [0.0, 5.0, 1.0, 2.0]])
    assert _even_rows(4, a4.T).tolist() == [True, False]
    assert _even_rows(np.array([2, 3]), np.zeros((0, 2))).tolist() == [
        True, False]


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if catalog_entry(n).stability_producer])
def test_no_catalog_family_with_a_free_pair_is_even(name):
    # newton, ostrowski, jarratt and wang are even maps z^n with k = 0,
    # which have no free pair to count
    entry = catalog_entry(name)
    ts = np.array([-2.5, -0.4 + 1.1j, 0.3137 + 0.1171j, 0.9, 3.7 - 2.0j])
    n, a, built = _form_coeffs(entry.stability_producer, ts)
    assert built.all()
    if a.shape[0]:
        assert not _even_rows(n, a).any()
    else:
        assert entry.nk[1] == 0


def test_negative_pair_index_is_rejected():
    cfg = RenderConfig(window=(-6.5, 3.5, -5.0, 5.0), resolution=(8, 8),
                       max_iter=40)
    with pytest.raises(ValueError):
        parameter_plane(catalog_entry("os3").stability_producer, cfg,
                        selector=-1)


def test_family_failing_at_the_probe_renders_from_sampled_rows():
    def family(t):
        if t == PROBES[0]:
            raise ZeroDenominator("a pole at the first affine probe")
        return conjugated_form("chebyshev-halley", {"alpha": t})

    cfg = RenderConfig(window=(-1.0, 1.0, -1.0, 1.0), resolution=(8, 8),
                       max_iter=40)
    img = parameter_plane(family, cfg)
    assert img.diagnostics["vectorized"] is False
    counts = img.counts()
    assert sum(counts.values()) == 64
    assert counts["root-0"] + counts["root-inf"] > 0


def test_form_rows_evaluate_each_form(rng):
    # mixed n, k and sign in one band: k is zero-padded to the largest one
    forms = [random_form(rng) for _ in range(6)]
    forms.append(conjugated_form("os5", {"a": 0.7 - 0.2j}))     # sign -1
    assert forms[-1].sign == -1 and len({f.k for f in forms}) > 1
    n, a, built = _form_coeffs(lambda t: forms[int(t.real)], np.arange(7.0))
    assert built.all()
    step = _form_map(n, a)
    for z in (0.3 + 0.4j, -1.7 + 0.2j, 2.5j):
        got = _step(step, np.full(7, z))
        want = [rat_eval(f.reconstruct(), z) for f in forms]
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _padded_rows(n, a):
    """Ascending num/den rows of z^n P / P-hat: n zeros, then a_k..a_1, 1."""
    den = np.r_[1.0, a]
    return np.r_[np.zeros(n), den[::-1]], den


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.booleans())
def test_orbit_loop_matches_each_seed_alone(seed, k, mixed_n):
    # one band of (n, a) rows against each row's own rational map: padded
    # a_k = 0, shared columns, dead seeds, the fixed point z = 1 declared as
    # an attractor, and a seed on a pole of its map
    rng = np.random.default_rng(seed)
    P = 24
    n = rng.integers(1, 6, P) if mixed_n else np.full(P, 3)
    a = rng.uniform(-2, 2, (P, k)) + 1j * rng.uniform(-2, 2, (P, k))
    if k:
        a[rng.random(P) < 0.3, -1] = 0.0
        if rng.random() < 0.5:
            # one column shared by the whole band, or by all but the pole row
            a[:, 0] = -2.0 + rng.choice([0.0, 1e-3])
        a[1] = 0.0
        a[1, 0] = -2.0          # P-hat = 1 - 2 z vanishes at the seed 0.5
    z0 = rng.uniform(-2, 2, P) + 1j * rng.uniform(-2, 2, P)
    z0[1] = 0.5
    live = rng.random(P) > 0.2
    live[1] = True
    cfg = small_cfg(max_iter=40)
    out, its = _orbit(z0, _form_map(n, a.T), cfg, np.array([1.0 + 0j]),
                      live=live)
    for i in range(P):
        if not live[i]:
            assert (out[i], its[i]) == (0, cfg.max_iter)
            continue
        num, den = _padded_rows(n[i], a[i])
        R = RationalMap(Polynomial(num), Polynomial(den))
        want = orbit_outcome(R, z0[i], cfg, known_attractors=(1.0,))
        assert (OUTCOME_NAMES[int(out[i])], int(its[i])) == want, i
    if k:
        assert (OUTCOME_NAMES[int(out[1])], int(its[1])) == ("root-inf", 1)


def _orbit_reference(z0, f, cfg, attractors, live=None):
    """The orbit loop with no early exit: every live seed runs until it is
    captured or max_iter steps have passed."""
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
                keep = ~done
                idx, z, f = idx[keep], z[keep], f.take(keep)
            z = _step(f, z)
    return out, its


KING_M4 = conjugated_form("king", {"beta": -4.0}).reconstruct()
GALLERY_WINDOW = (-3.0, 3.0, -3.0, 3.0)


def _grid(cfg):
    return (cfg.x_centers()[None, :] + 1j * cfg.y_centers()[:, None]).ravel()


@pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 17, 150])
def test_fixed_point_exit_matches_the_reference_loop(max_iter):
    # king at beta = -4 fixes z = 1 superattracting: undeclared, its basin
    # sits on 1 exactly; with a_2 one ulp off -3 the fixed point is not a
    # float and orbits end in cycles of adjacent floats instead
    cfg = small_cfg(window=GALLERY_WINDOW, resolution=(48, 48),
                    max_iter=max_iter)
    z0 = _grid(cfg)
    perturbed = make_form(4, (0.0, -3.000000000000001)).reconstruct()
    cases = [(z0, _rational_map(R), attractors, None)
             for R, attractors in ((KING_M4, ()), (KING_M4, (1.0,)),
                                   (perturbed, ()))]
    # random bands, z = 1 (fixed by every z^n P / P-hat) left undeclared and
    # seeded on and one or a few ulps beside it, where a repelling orbit
    # moves by less than 1e-12 per step for a while before it leaves
    rng = np.random.default_rng(max_iter)
    near_one = 1.0 + np.r_[0.0, 2.0 ** -52, -(2.0 ** -53), 1e-15, 1e-15j]
    for _ in range(12):
        P, k = 96, int(rng.integers(1, 4))
        n = rng.integers(1, 6, P)
        a = rng.uniform(-2, 2, (P, k)) + 1j * rng.uniform(-2, 2, (P, k))
        z = rng.uniform(-3, 3, P) + 1j * rng.uniform(-3, 3, P)
        z[:40] = np.repeat(near_one, 8)
        cases.append((z, _form_map(n, a.T), (), rng.random(P) > 0.1))
    for z, f, attractors, live in cases:
        attr = _flatten_attractors(attractors)
        got = _orbit(z, f, cfg, attr, live)
        want = _orbit_reference(z, f, cfg, attr, live)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_fixed_point_exit_cuts_the_orbit_steps(monkeypatch):
    stepped = []
    step = _OrbitMap.__call__

    def counted(self, z, *buffers):
        stepped.append(z.size)
        return step(self, z, *buffers)

    monkeypatch.setattr(_OrbitMap, "__call__", counted)
    img = dynamical_plane(KING_M4, small_cfg(window=GALLERY_WINDOW,
                                             resolution=(64, 64),
                                             max_iter=150, workers=1))
    assert sum(stepped) < img.iterations.sum() / 2


def _step_reference(f, z):
    """One step of f by the out-of-place formula: every product and sum in
    a new array."""
    num, n = _horner(f.num, z), f.n
    if isinstance(n, np.ndarray):
        for m in range(n.max(initial=0)):
            num = np.where(n > m, num * z, num)
    else:
        for _ in range(n):
            num = num * z
    return np.divide(num, _horner(f.den, z), out=np.empty_like(z))


def _step_maps(rng, size):
    """Maps of `size` seeds: per-seed columns, shared scalar columns,
    per-seed n, constant polynomials and _rational_map maps."""
    def cx(*shape):
        return rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
    a = cx(size, 3)
    shared = np.repeat(cx(1, 2), size, axis=0)
    return [
        _form_map(3, a.T),
        _form_map(rng.integers(0, 6, size), a.T),
        _form_map(2, shared.T),
        _form_map(rng.integers(1, 4, size), shared.T),
        _form_map(np.full(size, 4), np.c_[shared, a[:, :1]].T),
        _form_map(0, np.zeros((0, size))),
        _rational_map(KING_M4),
        _rational_map(random_form(rng).reconstruct()),
        _rational_map(Z_SQUARED),
    ]


def test_orbit_steps_match_the_out_of_place_formula_bit_for_bit():
    # numpy's complex multiply rounds a one-element array without FMA when
    # its output aliases an input, so a lone seed (orbit_outcome, a band's
    # last live seed) would step differently from the same seed in a batch
    rng = np.random.default_rng(30)
    out, *big = _one_block(80, 4 * [np.complex128] + [bool])
    for size in range(1, 65):
        for _ in range(4):
            z = (rng.uniform(-3, 3, size) + 1j * rng.uniform(-3, 3, size))
            for f in _step_maps(rng, size):
                want = _step_reference(f, z).view(np.uint64)
                work = [w[:size] for w in big]
                for got in (_step(f, z), f(z, out[:size], work)):
                    assert np.array_equal(got.view(np.uint64), want), size


def test_a_lone_seed_steps_as_in_its_band():
    # king at beta = -4, z = 1 declared: the band's last live seed runs on
    # alone for its last steps, and orbit_outcome runs every seed alone
    cfg = small_cfg(window=(-2.0, -1.8, -0.28, -0.08), resolution=(8, 8),
                    max_iter=150)
    img = dynamical_plane(KING_M4, cfg, known_attractors=(1.0,))
    its = np.sort(img.iterations.ravel())
    assert its[-1] >= its[-2] + 3 and its[-1] < cfg.max_iter
    for (i, j), z in np.ndenumerate(_grid(cfg).reshape(8, 8)):
        want = (OUTCOME_NAMES[int(img.outcome[i, j])],
                int(img.iterations[i, j]))
        assert orbit_outcome(KING_M4, z, cfg, (1.0,)) == want, (i, j)


def _derivative_numerator(n, a):
    """n P P-hat + z (P' P-hat - P P-hat'), ascending, by plain products."""
    P = np.polynomial.Polynomial(np.r_[a[::-1], 1.0])
    Ph = np.polynomial.Polynomial(np.r_[1.0, a])
    z = np.polynomial.Polynomial([0.0, 1.0])
    return n * P * Ph + z * (P.deriv() * Ph - P * Ph.deriv())


def test_rational_map_reads_the_zero_low_coefficients_as_n(rng):
    for _ in range(10):
        form = random_form(rng)
        R = form.reconstruct()
        f = _rational_map(R)
        assert f.n == form.n and len(f.num) == form.k + 1
        z = np.array([0.3 + 0.4j, -1.7 + 0.2j, 2.5j])
        want = np.array([rat_eval(R, v) for v in z])
        assert np.allclose(_step(f, z), want, rtol=1e-12, atol=0.0)


def test_pair_rows_fold_the_derivative_numerator(rng):
    rows = []
    for k in range(6):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k)
        rows.append((n, a))
    # k = 2 padded to 4: a padded a_k = 0 moves one power of z into z^n
    n, a = rows[2]
    rows.append((n - 2, np.r_[a, 0.0, 0.0]))
    for n, a in rows:
        k = a.size
        Q = _pair_rows(n, a[:, None])[:, 0]
        C = _derivative_numerator(n, a)
        for z in (0.3 + 0.4j, -1.7 + 0.2j, 2.5j):
            want = C(z)
            scale = np.abs(C.coef) @ np.abs(z) ** np.arange(C.coef.size)
            got = z ** k * np.polynomial.Polynomial(Q)(z + 1 / z)
            assert abs(got - want) <= 1e-10 * scale, (n, k, z)
    # the padding only raises Q's top coefficients, which stay zero
    (n, a), (n_pad, a_pad) = rows[2], rows[-1]
    padded = _pair_rows(n_pad, a_pad[:, None])[:, 0]
    assert np.allclose(padded[:3], _pair_rows(n, a[:, None])[:, 0],
                       rtol=1e-12, atol=0.0)
    assert np.all(padded[3:] == 0)


def test_free_critical_pairs_are_roots_of_the_pair_rows(rng):
    for _ in range(12):
        form = random_form(rng)
        a = np.array(form.a, np.complex128).reshape(-1, 1)
        w = _roots_rows(_pair_rows(form.n, a))[:, 0]
        w = w[np.isfinite(w)]
        for crit in free_critical_points(form.reconstruct()):
            kappa = crit.point
            if min(abs(kappa), abs(kappa - 1), abs(kappa + 1)) <= 1e-6:
                continue
            pair = kappa + 1 / kappa
            assert np.min(np.abs(w - pair)) <= 1e-6 * (1 + abs(pair)), form


@pytest.mark.parametrize("w", [-1.9, -0.3, 0.5, 1.7])
@pytest.mark.parametrize("wobble", [0.0, 1e-15j, -1e-15j])
def test_pair_on_the_circle_seeds_the_upper_member(w, wobble):
    row = np.array([[w + wobble], [np.nan]], np.complex128)
    for index in (None, 0):
        seed, dead, _, _ = _select_seed_rows(row, index)
        assert not dead[0]
        assert abs(abs(seed[0]) - 1) < 1e-12
        assert 0 < cmath.phase(seed[0]) < math.pi
        assert abs(seed[0] + 1 / seed[0] - w) < 1e-12


def test_mirrored_seeds_land_in_mirrored_basins():
    form = catalog_entry("king").stability_producer(1.0)
    R = form.reconstruct()
    cfg = small_cfg(max_iter=500)
    mirror = {"root-0": "root-inf", "root-inf": "root-0",
              "none": "none", "strange-attractor": "strange-attractor"}
    for z in (0.3, 0.3 + 0.2j, 2.0, 5.0j, -0.7 + 0.1j):
        here, _ = orbit_outcome(R, z, cfg)
        there, _ = orbit_outcome(R, 1.0 / z, cfg)
        assert there == mirror[here], f"z={z}: {here} vs {there}"


def test_an_attractor_cycle_given_as_a_tuple_reads_as_its_points():
    # os5 at a = 0 swaps 1 and -1: one 2-cycle, given as one item
    cfg = small_cfg(resolution=(8, 8), max_iter=40)
    R = conjugated_form("os5", {"a": 0.0}).reconstruct()
    want = dynamical_plane(R, cfg, known_attractors=(1.0, -1.0))
    got = dynamical_plane(R, cfg, known_attractors=[(1.0, -1.0)])
    assert got.counts()["strange-attractor"] > 0
    assert np.array_equal(got.outcome, want.outcome)
    assert np.array_equal(got.iterations, want.iterations)


@pytest.mark.parametrize("known", [(1.0, -1.0), ()])
def test_attractors_given_as_an_array_match_the_tuple(known):
    cfg = small_cfg(resolution=(8, 8), max_iter=40)
    R = conjugated_form("os5", {"a": 0.0}).reconstruct()
    producer = catalog_entry("os5").stability_producer
    for render, subject in ((dynamical_plane, R),
                            (parameter_plane, producer)):
        want = render(subject, cfg, known_attractors=known)
        got = render(subject, cfg,
                     known_attractors=np.array(known, np.float64))
        assert np.array_equal(got.outcome, want.outcome)
        assert np.array_equal(got.iterations, want.iterations)
        assert got.diagnostics == want.diagnostics


# anchored factors (w = 2, w = -2) of Q(w; t) at generic t
FAMILY_ANCHORS = {
    "chebyshev-halley": (0, 0), "king": (0, 1), "amat": (0, 1),
    "c-family": (0, 2), "os2": (0, 2), "m4": (0, 3), "os4": (1, 2),
    "os5": (1, 2),
}


@pytest.mark.parametrize("method", sorted(FAMILY_ANCHORS))
def test_family_terms_are_the_pair_rows_as_a_quadratic_in_t(method):
    fit = affine_fit(catalog_entry(method).stability_producer)
    n, A, B = fit.n, fit.A, fit.B
    T = _family_terms(n, A, B)
    rng = np.random.default_rng(sorted(FAMILY_ANCHORS).index(method))
    for t in rng.uniform(-5, 5, 8) + 1j * rng.uniform(-5, 5, 8):
        want = _pair_rows(n, (A + t * B)[:, None])[:, 0]
        got = T[:, 0] + t * (T[:, 1] + t * T[:, 2])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), t
    # multiplied back by its anchored factors, the deflated T is T again
    deflated = _deflate_shared(T)
    assert deflated.shape == (2, 3)
    at_two, at_minus_two = FAMILY_ANCHORS[method]
    factor = np.polynomial.polynomial.polyfromroots([2.0] * at_two
                                                    + [-2.0] * at_minus_two)
    back = np.array([np.convolve(col, factor) for col in deflated.T]).T
    assert np.abs(back - T).max() <= 1e-12 * np.abs(T).max()


def test_constant_family_has_no_free_critical_point():
    # z^0 P / P-hat with P = 1 is the constant map 1: its pair terms are
    # all zero, so there is no anchored factor to divide out and no seed
    cfg = small_cfg(resolution=(4, 4), max_iter=10)
    img = parameter_plane(lambda t: make_form(0, ()), cfg)
    assert img.diagnostics["vectorized"] is True
    assert img.diagnostics["no_free_critical"] == 16
    assert img.counts()["none"] == 16


def test_linear_rows_take_the_companion_eigenvalue_bit_for_bit():
    rng = np.random.default_rng(2024)
    size = 20000
    C = (10.0 ** rng.uniform(-12, 12, (size, 2))
         * np.exp(2j * np.pi * rng.uniform(size=(size, 2))))
    C[:4, 0] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
    got = _roots_rows(C.T)[0]
    linear = np.isfinite(got)
    assert linear.sum() > size // 2
    companion = -(C[linear, 0] / C[linear, 1])[:, None, None]
    want = np.linalg.eigvals(companion)[:, 0]
    np.testing.assert_array_equal(got[linear].view(np.int64),
                                  want.view(np.int64))


# members where extra anchored factors appear or Q drops a degree; the m4
# chart parameter is alpha, whose extra (w - 2) and (w + 2) sit at -35 and 5
SPECIAL_MEMBERS = [("m4", t) for t in (0.0, -5.0, 35.0, -35.0, 5.0)] + \
    [("king", t) for t in (-10.0 / 3.0, -2.5, 0.0)] + \
    [("chebyshev-halley", t) for t in (0.5, 1.0, 1.5)] + \
    [("c-family", t) for t in (0.0, 0.5)]


@pytest.mark.parametrize("h", [1e-3, 1e-9])
@pytest.mark.parametrize("method, t0", SPECIAL_MEMBERS)
def test_special_members_die_as_the_per_pixel_pair_rows_say(
        monkeypatch, method, t0, h):
    producer = catalog_entry(method).stability_producer
    fit = affine_fit(producer)
    n, A, B = fit.n, fit.A, fit.B
    cfg = RenderConfig(window=(t0 - 1.5 * h, t0 + 1.5 * h, -1.5 * h,
                               1.5 * h), resolution=(3, 3), max_iter=20)
    seen = []

    def recorded(w, *args):
        result = _select_seed_rows(w, *args)
        seen.append(result[1])
        return result

    monkeypatch.setattr("ndyn.planes._select_seed_rows", recorded)
    img = parameter_plane(producer, cfg)
    ts = _grid(cfg)
    assert ts[4] == t0
    Q, _ = deflate_anchored(_pair_rows(n, A[:, None] + ts * B[:, None]),
                            (2.0, -2.0))
    _, dead, no_free, multi = _select_seed_rows(_roots_rows(Q))
    assert np.array_equal(np.concatenate(seen), dead)
    assert img.diagnostics["no_free_critical"] == no_free.sum()
    assert img.diagnostics["multiple_free_pairs"] == multi.sum()


def test_no_root_near_an_anchor_survives_deflation():
    # _select_seed_rows keeps every finite pair root, so deflate_anchored is
    # the one rule for w = +-2: a simple or double root planted within 1e-11
    # of each anchor is divided out, exactly once per planted factor, before
    # the eigensolve.  The other roots lie in |w| < 1.5 or 2.5 < |w| < 6,
    # away from both anchors.
    rng = np.random.default_rng(0xA2C402)
    rows = np.zeros((4000, 8), np.complex128)
    planted = rng.integers(0, 3, size=(rows.shape[0], 2))
    for i, counts in enumerate(planted):
        roots = [anchor + 1e-11 * rng.uniform()
                 * cmath.exp(2j * math.pi * rng.uniform())
                 for anchor, m in zip((2.0, -2.0), counts) for _ in range(m)]
        for _ in range(rng.integers(0, 4)):
            radius = rng.choice([rng.uniform(0.0, 1.5), rng.uniform(2.5, 6.0)])
            roots.append(radius * cmath.exp(2j * math.pi * rng.uniform()))
        row = Polynomial.from_roots(roots, lead=rng.uniform(0.1, 10.0)).coeffs
        rows[i, :row.size] = row
    Q, counts = deflate_anchored(rows.T, (2.0, -2.0))
    assert np.array_equal(counts.T, planted)
    w = _roots_rows(Q)
    assert not np.any(np.abs(w - 2.0) <= 1e-9)
    assert not np.any(np.abs(w + 2.0) <= 1e-9)

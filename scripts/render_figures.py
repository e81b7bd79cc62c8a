#!/usr/bin/env python3
"""Render the standard gallery of parameter and dynamical planes.

Each figure follows the free critical orbit of a one-parameter family
(parameter planes) or the full grid of starting points for one operator
(dynamical planes).  Images are written as PPM plus a .meta sidecar and are
byte-reproducible for any thread count.

    python3 scripts/render_figures.py --outdir figures --res 600x600
    python3 scripts/render_figures.py --quick          # 160x160 smoke run
"""

import argparse
import os
import time

from ndyn import (
    RenderConfig,
    catalog_entry,
    conjugated_form,
    dynamical_plane,
    parameter_plane,
    write_image,
    write_metadata,
)

# name, method, bindings (None for a parameter plane), window, known
# attractors; a figure that declares attractors is drawn in the attractor
# palette, any other in the speed palette
FIGURES = [
    ("param_chebyshev_halley", "chebyshev-halley", None,
     (-1.0, 5.0, -3.0, 3.0), ()),
    ("param_king", "king", None, (-6.0, 5.0, -5.5, 5.5), ()),
    ("param_amat", "amat", None, (-5.0, 3.0, -4.0, 4.0), ()),
    ("param_os2", "os2", None, (-5.0, 3.0, -4.0, 4.0), ()),
    ("param_os3", "os3", None, (-6.5, 3.5, -5.0, 5.0), ()),
    # for these three the story is capture by the strange point z = 1,
    # so it is declared as an attractor and drawn in the green ramp
    ("param_os4", "os4", None, (-6.0, 8.0, -7.0, 7.0), (1.0,)),
    ("param_os5", "os5", None, (-10.5, 10.5, -10.5, 10.5), (1.0, -1.0)),
    ("param_c_family", "c-family", None, (-9.0, 13.0, -10.0, 10.0), (1.0,)),
    # the fourth-order family is charted by alpha = (5 beta - 1)/beta,
    # where its circle (center -35, radius 128) lives
    ("param_m4", "m4", None, (-180.0, 120.0, -150.0, 150.0), (1.0,)),
    ("dyn_os5_a0", "os5", {"a": 0.0},
     (-3.0, 3.0, -3.0, 3.0), (1.0, -1.0)),
    ("dyn_os5_a2_m9_3i", "os5", {"a": 2.0 - 9.3j},
     (-3.0, 3.0, -3.0, 3.0), (1.0, -1.0)),
    ("dyn_king_beta_m4", "king", {"beta": -4.0},
     (-3.0, 3.0, -3.0, 3.0), ()),
    ("dyn_ch_alpha_2", "chebyshev-halley", {"alpha": 2.0},
     (-3.0, 3.0, -3.0, 3.0), ()),
]


def render(figure, resolution, max_iter, workers=None):
    """The PlaneImage of one FIGURES row."""
    _, method, bindings, window, attractors = figure
    cfg = RenderConfig(window=window, resolution=resolution,
                       max_iter=max_iter,
                       mode="attractor" if attractors else "speed",
                       workers=workers)
    if bindings is None:
        return parameter_plane(catalog_entry(method).stability_producer, cfg,
                               known_attractors=attractors)
    return dynamical_plane(conjugated_form(method, bindings).reconstruct(),
                           cfg, known_attractors=attractors)


def render_all(outdir, resolution, max_iter, threads):
    os.makedirs(outdir, exist_ok=True)
    total = time.perf_counter()
    for figure in FIGURES:
        name, method, bindings = figure[:3]
        start = time.perf_counter()
        img = render(figure, resolution, max_iter, threads)
        path = os.path.join(outdir, name + ".ppm")
        write_image(img, path)
        extra = {"subject": method}
        if bindings is None:
            extra["parameter"] = catalog_entry(method).stability_param
        write_metadata(img, path + ".meta", extra=extra)
        counts = img.counts()
        print(f"{name:26s} {time.perf_counter() - start:6.1f}s  "
              f"root0={counts['root-0']} rootinf={counts['root-inf']} "
              f"strange={counts['strange-attractor']} none={counts['none']}")
    print(f"total {time.perf_counter() - total:.1f}s -> {outdir}/")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--res", default="600x600", metavar="WxH")
    ap.add_argument("--max-iter", type=int, default=150)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--quick", action="store_true",
                    help="160x160 at 80 iterations, for a fast look")
    args = ap.parse_args()
    w, h = args.res.split("x")
    resolution = (int(w), int(h))
    max_iter = args.max_iter
    if args.quick:
        resolution = (160, 160)
        max_iter = 80
    render_all(args.outdir, resolution, max_iter, args.threads)


if __name__ == "__main__":
    main()

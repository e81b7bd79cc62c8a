#!/usr/bin/env python3
"""ndyn benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload forms --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ndyn is imported from ./src and
nowhere else.  Requests go through ``ndyn.cli.main`` in this process with
stdout captured; renders call ``parameter_plane`` / ``dynamical_plane`` /
``write_image`` / ``write_metadata``.  Every output is checked by the
oracles in ``oracle.py``.

``--trace 0`` runs rounds of the workload until ``--seconds`` of measured
work have passed and reports the end-to-end metrics.  ``--trace 1`` replays
a fixed number of rounds twice, once under the outside-in tracer and once
without it, and reports the per-layer metrics; its counts repeat exactly
for one seed.  A context line (versions, worker counts, sample counts,
failures) precedes the result, and both are also written, with the spans
of a traced run, under ``.bench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts operations that raised unexpectedly or whose output
disagreed with an oracle; ``correct`` is false only for a disagreement, so
a request the program cannot serve is counted without hiding the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
MIN_PIXEL_AGREEMENT = 0.9     # below this share of oracle pixels: incorrect

E2E_UNITS = {
    "setup_s": "s",
    "build_ms_p50": "ms", "build_ms_p90": "ms",
    "analyze_ms_p50": "ms", "analyze_ms_p90": "ms",
    "stability_ms_p50": "ms", "stability_ms_p90": "ms",
    "paramplane_px_per_s": "px/s",
    "paramplane_px_per_s_nw": "px/s",
    "dynplane_px_per_s": "px/s",
    "pixel_agreement": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "poly.roots_calls": "count", "poly.roots_s": "s",
    "poly.roots_failed": "count",
    "poly.rat_make_calls": "count", "poly.rat_make_s": "s",
    "poly.rat_combine_calls": "count",
    "poly.roots_per_pixel": "calls/px",
    "builder.instantiate_calls": "count", "builder.instantiate_s": "s",
    "builder.conjugated_form_s": "s",
    "conjugate.mobius_conjugate_s": "s",
    "conjugate.extract_normal_form_s": "s",
    "conjugate.extract_failed": "count",
    "conjugate.make_form_calls": "count",
    "analysis.critical_points_s": "s", "analysis.fixed_points_s": "s",
    "analysis.classify_operator_s": "s",
    "stability.linearize_s": "s", "stability.linearize_failed": "count",
    "stability.region_s": "s",
    "planes.seed_us_per_pixel": "us/px",
    "planes.orbit_s": "s",
    "planes.orbit_steps": "count", "planes.ns_per_orbit_step": "ns",
    "planes.live_pixel_ratio": "ratio", "planes.vectorized_ratio": "ratio",
    "planes.colorize_s": "s", "planes.write_s": "s",
    "planes.bytes_written": "bytes",
    "planes.scaling_nw": "ratio",
    "cli.main_s": "s",
    "fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "design.src_loc": "lines",
}


def load_ndyn():
    """Import ndyn from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ndyn" / "__init__.py").is_file():
        sys.exit(f"bench: no ndyn source under {src}")
    sys.path.insert(0, str(src))
    import ndyn
    import ndyn.cli
    if Path(ndyn.__file__).resolve().parent != (src / "ndyn").resolve():
        sys.exit(f"bench: imported ndyn from {ndyn.__file__}, not {src}")
    return ndyn


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# executing operations

@dataclasses.dataclass
class Outcome:
    op: object
    seconds: float                      # measured: what the user waits for
    status: str = "ok"      # ok | refused | refused-as-expected | error
    #                         | mismatch
    detail: str = ""
    render_s: float = 0.0               # parameter_plane / dynamical_plane
    pixels: int = 0
    dead: int = 0
    steps: int = 0
    vectorized: bool = False
    data: bytes = b""                   # PPM + .meta bytes (renders)
    stdout: str = ""
    rc: int = 0
    speed_at: int = 0                   # index of the speed sample before it
    img: object = None
    cfg: object = None


def run_request(ndyn, req) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ndyn.cli.main(list(req.argv))
    except Exception:                   # a crash past the CLI's own handlers
        return Outcome(req, time.perf_counter() - t0, "error",
                       traceback.format_exc(limit=2).strip().splitlines()[-1])
    return Outcome(req, time.perf_counter() - t0,
                   "ok" if rc == 0 else "refused", err.getvalue(),
                   stdout=out.getvalue(), rc=rc)


def run_render(ndyn, r, path: Path) -> Outcome:
    cfg = ndyn.RenderConfig(window=r.window, resolution=(r.res, r.res),
                            max_iter=r.max_iter, mode=r.mode,
                            workers=r.workers)
    t0 = time.perf_counter()
    if r.kind == "paramplane":
        entry = ndyn.catalog_entry(r.method)
        t1 = time.perf_counter()
        img = ndyn.parameter_plane(entry.stability_producer, cfg,
                                   known_attractors=r.attractors)
        extra = {"subject": r.method, "parameter": entry.stability_param}
    else:
        R = ndyn.conjugated_form(r.method, r.bindings).reconstruct()
        t1 = time.perf_counter()
        img = ndyn.dynamical_plane(R, cfg, known_attractors=r.attractors)
        extra = {"subject": r.method}
    t2 = time.perf_counter()
    if not r.probe:
        ndyn.write_image(img, str(path))
        ndyn.write_metadata(img, str(path) + ".meta", extra=extra)
    t3 = time.perf_counter()
    diag = img.diagnostics
    dead = diag.get("no_free_critical", 0) + diag.get("multiple_free_pairs", 0)
    res = Outcome(r, t3 - t0, render_s=t2 - t1, pixels=r.res * r.res,
                  dead=dead, vectorized=bool(diag.get("vectorized", True)),
                  steps=int(img.iterations.sum()) - r.max_iter * dead)
    if not r.probe:
        meta = Path(str(path) + ".meta")
        res.data = path.read_bytes() + meta.read_bytes()
        path.unlink()
        meta.unlink()
    res.img, res.cfg = img, cfg
    return res


class Checker:
    """Runs the oracle for each outcome; tallies failures and pixels."""

    def __init__(self, seed: int, pixels_per_render: int):
        import numpy as np
        import oracle               # imports ndyn: only after load_ndyn()
        self.oracle = oracle
        self.rng = np.random.default_rng([seed, 0xC4EC])
        self.pixels_per_render = pixels_per_render
        self.stability_seen: dict = {}
        self.matched = self.sampled = 0
        self.failures: list = []
        self.mismatches = 0
        self.last_render = None

    def check(self, res: Outcome) -> None:
        op = res.op
        if res.status == "error":
            self.fail(res, "error", res.detail)
        elif hasattr(op, "argv"):
            self._check_request(res)
        elif not op.probe:
            self._check_render(res)

    def fail(self, res, status, detail):
        res.status = status
        res.detail = detail
        if status == "mismatch":
            self.mismatches += 1
        op = res.op
        self.failures.append(f"{status}: {op.kind} {op.method}: {detail}")

    def _check_request(self, res) -> None:
        o, req = self.oracle, res.op
        if req.expect:
            problems = o.check_refusal(res.rc, res.detail, req.kind,
                                       req.method, req.bindings, req.c,
                                       req.expect)
            if problems:
                self.fail(res, "mismatch", "; ".join(problems))
            else:
                res.status = "refused-as-expected"
            return
        if res.status != "ok":
            self.fail(res, "error", res.detail.strip())
            return
        payload = json.loads(res.stdout)
        if req.kind == "build":
            problems = o.check_form(payload, req.method, req.bindings, req.c,
                                    self.rng)
        elif req.kind == "analyze":
            problems = o.check_analyze(payload, req.method, req.bindings,
                                       req.c, self.rng)
        else:
            key = (req.method, res.stdout)
            if key not in self.stability_seen:
                self.stability_seen[key] = o.check_stability(
                    payload, req.method, self.rng)
            problems = self.stability_seen[key]
        if problems:
            self.fail(res, "mismatch", "; ".join(problems[:2]))

    def _check_render(self, res) -> None:
        r = res.op
        if r.workers == 1:
            self.last_render = res
            matched, sampled, first = self.oracle.check_pixels(
                r, res.cfg, res.img, self.rng, self.pixels_per_render)
            self.matched += matched
            self.sampled += sampled
            if first:
                self.failures.append(f"pixel: {first}")
            return
        twin = self.last_render
        if twin is None or twin.op.method != r.method or twin.data != res.data:
            self.fail(res, "mismatch", "bytes differ between workers=1 and "
                      f"workers={r.workers}")

    @property
    def pixel_agreement(self) -> float:
        return self.matched / self.sampled if self.sampled else 1.0


def execute(ndyn, op, workdir: Path, index: int) -> Outcome:
    if hasattr(op, "argv"):
        return run_request(ndyn, op)
    path = workdir / f"{index}-{op.method}-w{op.workers}.ppm"
    try:
        return run_render(ndyn, op, path)
    except Exception:
        return Outcome(op, 0.0, "error",
                       traceback.format_exc(limit=2).strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# set-up

def warm_up(ndyn, workdir: Path) -> None:
    import workloads
    for i, op in enumerate(workloads.warm_up_ops(nproc())):
        execute(ndyn, op, workdir, i)


def setup_probe(args) -> None:
    """Child-process body: time a cold import plus one warm-up of each kind."""
    t0 = time.perf_counter()
    ndyn = load_ndyn()
    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    warm_up(ndyn, workdir)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    from speed import Speed
    speed = Speed()
    for _ in range(7):
        speed.sample()
    print(json.dumps({"setup_s": elapsed,
                      "normalised_s": elapsed * speed.median_scale()}))


def measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# metrics

def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): a mean of all
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) law.

    The request mix is stratified, so its latencies form one cluster per
    method and a plain percentile often falls exactly between two clusters,
    where it reads the extreme of each; this estimator reads both sides.
    """
    import numpy as np
    x = np.sort(np.asarray(values, float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    if min(a, b) <= 1.0:                # too few samples for the estimator
        return float(np.percentile(x, 100.0 * q))
    grid = np.linspace(0.0, 1.0, 40 * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def throughput(batches, kind, workers, scale=lambda r: 1.0) -> float:
    """Pixels per second of one render kind: the median over rounds, so one
    round caught by a slow spell of the host does not move it."""
    per_round = []
    for batch in batches:
        sel = [r for r in batch if not hasattr(r.op, "argv")
               and r.op.kind == kind and r.op.workers == workers
               and not r.op.probe and r.status == "ok"]
        seconds = sum(r.seconds * scale(r) for r in sel)
        if seconds:
            per_round.append(sum(r.pixels for r in sel) / seconds)
    return statistics.median(per_round) if per_round else 0.0


def end_to_end(results, setup, checker, workers_n, scale) -> tuple:
    """End-to-end metrics; ``scale(outcome)`` converts a measured time to
    reference speed (1.0 for the raw figures)."""
    flat = [r for batch in results for r in batch]
    latency = {"build": [], "analyze": [], "stability": []}
    for r in flat:
        if hasattr(r.op, "argv") and r.status in ("ok", "refused-as-expected"):
            latency[r.op.kind].append(r.seconds * scale(r) * 1e3)
    metrics = {"setup_s": statistics.median(setup)}
    for kind, vals in latency.items():
        metrics[f"{kind}_ms_p50"] = percentile(vals, 0.5)
        metrics[f"{kind}_ms_p90"] = percentile(vals, 0.9)
    metrics["paramplane_px_per_s"] = throughput(results, "paramplane", 1,
                                                scale)
    metrics["paramplane_px_per_s_nw"] = throughput(results, "paramplane",
                                                   workers_n, scale)
    metrics["dynplane_px_per_s"] = throughput(results, "dynplane", 1, scale)
    metrics["pixel_agreement"] = checker.pixel_agreement
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {k: len(v) for k, v in latency.items()}
    return metrics, samples


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "ndyn").rglob("*.py")))


def per_layer(traced, plain, summary, param_roots, workers_n) -> dict:
    """Per-layer metrics: counts and self times from the traced pass,
    timings derived from public calls from the untraced pass."""
    def s(name, field="self_s"):
        return summary.get(name, {}).get(field, 0)

    renders = [r for r in plain if not hasattr(r.op, "argv")
               and r.status != "error"]
    full1 = [r for r in renders if r.op.workers == 1 and not r.op.probe]
    params1 = [r for r in full1 if r.op.kind == "paramplane"]
    param_px = sum(r.pixels for r in params1)
    # with_probes puts each probe right after its render.  On the per-pixel
    # path the seed phase is nearly the whole render, so the difference can
    # fall below zero by noise; it is clamped there.
    seed_s = orbit_s = 0.0
    for full, probe in zip(plain, plain[1:]):
        if getattr(probe.op, "probe", False):
            seed_s += probe.render_s
            orbit_s += max(0.0, full.render_s - probe.render_s)
    orbit_s += sum(r.render_s for r in full1 if r.op.kind == "dynplane")
    steps = sum(r.steps for r in full1)
    tp1 = throughput([plain], "paramplane", 1)
    tpn = throughput([plain], "paramplane", workers_n)
    attempted = len([r for r in plain if not getattr(r.op, "probe", False)])
    return {
        "poly.roots_calls": s("poly.poly_roots", "calls"),
        "poly.roots_s": s("poly.poly_roots"),
        "poly.roots_failed": s("poly.poly_roots", "failed"),
        "poly.rat_make_calls": s("poly.rat_make", "calls"),
        "poly.rat_make_s": s("poly.rat_make"),
        "poly.rat_combine_calls": s("poly.rat_combine", "calls"),
        "poly.roots_per_pixel": param_roots / param_px if param_px else 0.0,
        "builder.instantiate_calls": s("builder.instantiate", "calls"),
        "builder.instantiate_s": s("builder.instantiate"),
        "builder.conjugated_form_s": s("builder.conjugated_form"),
        "conjugate.mobius_conjugate_s": s("conjugate.mobius_conjugate"),
        "conjugate.extract_normal_form_s": s("conjugate.extract_normal_form"),
        "conjugate.extract_failed": s("conjugate.extract_normal_form",
                                      "failed"),
        "conjugate.make_form_calls": s("conjugate.make_form", "calls"),
        "analysis.critical_points_s": s("analysis.critical_points"),
        "analysis.fixed_points_s": s("analysis.fixed_points"),
        "analysis.classify_operator_s": s("analysis.classify_operator"),
        "stability.linearize_s": s("stability.linearize"),
        "stability.linearize_failed": s("stability.linearize", "failed"),
        "stability.region_s": (s("stability.stability_region_z1")
                               + s("stability.stability_region_zm1")),
        "planes.seed_us_per_pixel": (seed_s / param_px * 1e6
                                     if param_px else 0.0),
        "planes.orbit_s": orbit_s,
        "planes.orbit_steps": steps,
        "planes.ns_per_orbit_step": orbit_s / steps * 1e9 if steps else 0.0,
        "planes.live_pixel_ratio": (1.0 - sum(r.dead for r in params1)
                                    / param_px if param_px else 0.0),
        "planes.vectorized_ratio": (sum(r.pixels for r in params1
                                        if r.vectorized) / param_px
                                    if param_px else 0.0),
        "planes.colorize_s": s("planes.colorize"),
        "planes.write_s": s("planes.write_image") + s("planes.write_metadata"),
        "planes.bytes_written": sum(len(r.data) for r in renders),
        "planes.scaling_nw": tpn / tp1 if tp1 > 0 else 0.0,
        "cli.main_s": s("cli.main"),
        "fail_ratio": (sum(r.status in ("error", "mismatch") for r in traced)
                       / attempted if attempted else 0.0),
        "trace.overhead_ratio": (sum(r.seconds for r in traced)
                                 / sum(r.seconds for r in plain)),
        "design.src_loc": src_loc(),
    }


# ---------------------------------------------------------------------------
# runs

def run_ops(ndyn, ops, workdir, checker, speed) -> list:
    """Run operations in order, sampling machine speed between them."""
    results = []
    at = speed.sample() if not speed.samples else len(speed.samples) - 1
    since = 0.0
    for i, op in enumerate(ops):
        res = execute(ndyn, op, workdir, i)
        res.speed_at = at
        checker.check(res)
        results.append(res)
        since += res.seconds
        if since >= speed.SAMPLE_EVERY_S:
            at, since = speed.sample(), 0.0
    speed.sample()
    return results


def with_probes(ops) -> list:
    """Each workers = 1 parameter plane followed by its max_iter = 1 twin,
    whose time is the seed phase of the render."""
    out = []
    for op in ops:
        out.append(op)
        if getattr(op, "kind", "") == "paramplane" and op.workers == 1:
            out.append(dataclasses.replace(op, max_iter=1, probe=True))
    return out


def measured_run(ndyn, args, workdir, size) -> tuple:
    import workloads
    n = nproc()
    checker = Checker(args.seed,
                      workloads.SIZES[size][args.workload]["oracle_px"])
    setup = measure_setup(args)
    from speed import Speed
    speed = Speed()
    results = []
    measured = 0.0
    wall0 = time.perf_counter()
    gen = workloads.rounds(args.workload, args.seed, size, n)
    while measured < args.seconds or not results:
        if results and time.perf_counter() - wall0 > 3 * args.seconds + 30:
            break
        batch = run_ops(ndyn, next(gen), workdir, checker, speed)
        measured += sum(r.seconds for r in batch)
        results.append(batch)
    metrics, samples = end_to_end(
        results, [s["normalised_s"] for s in setup], checker, n,
        lambda r: speed.scale(r.speed_at))
    raw, _ = end_to_end(results, [s["setup_s"] for s in setup], checker, n,
                        lambda r: 1.0)
    flat = [r for batch in results for r in batch]
    context = {"rounds": len(results), "measured_s": measured,
               "setup_samples": setup, "samples": samples,
               "speed_samples_s": speed.samples, "raw_metrics": raw}
    return metrics, context, flat, checker


def traced_run(ndyn, args, workdir, size) -> tuple:
    """Each operation runs twice, traced and untraced, in alternating order
    so that drift over the run does not bias the overhead ratio."""
    import tracer as tracing
    import workloads
    n = nproc()
    spec = workloads.SIZES[size][args.workload]
    count = max(1, round(args.seconds / 2 / spec["round_s"]))
    gen = workloads.rounds(args.workload, args.seed, size, n)
    ops = with_probes([op for _ in range(count) for op in next(gen)])
    checker = Checker(args.seed, spec["oracle_px"])
    tracer = tracing.Tracer()
    traced, plain = [], []
    for i, op in enumerate(ops):
        for with_tracer in ((True, False) if i % 2 else (False, True)):
            if with_tracer:
                tracer.op = i
                tracer.install()
                try:
                    traced.append(execute(ndyn, op, workdir, i))
                finally:
                    tracer.uninstall()
            else:
                plain.append(execute(ndyn, op, workdir, i))
        checker.check(traced[-1])
        if (traced[-1].stdout, traced[-1].data) != (plain[-1].stdout,
                                                    plain[-1].data):
            checker.fail(traced[-1], "mismatch", "output changed by tracing")
    summary = tracer.summary(i for i, op in enumerate(ops)
                             if not getattr(op, "probe", False))
    param_ops = [i for i, op in enumerate(ops)
                 if getattr(op, "kind", "") == "paramplane" and not op.probe
                 and op.workers == 1]
    param_roots = tracer.summary(param_ops).get(
        "poly.poly_roots", {}).get("calls", 0)
    metrics = per_layer(traced, plain, summary, param_roots, n)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    context = {"rounds": count, "spans": len(tracer.spans()),
               "traced_s": sum(r.seconds for r in traced),
               "untraced_s": sum(r.seconds for r in plain)}
    return metrics, context, traced, checker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    ndyn = load_ndyn()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(ndyn, workdir)
        run = traced_run if args.trace else measured_run
        values, ctx, flat, checker = run(ndyn, args, workdir, args.size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    counted = [r for r in flat if not getattr(r.op, "probe", False)]
    failed = [r for r in counted if r.status in ("error", "mismatch")]
    correct = (checker.mismatches == 0
               and checker.pixel_agreement >= MIN_PIXEL_AGREEMENT)
    n = nproc()
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "nproc": n, "render_workers": [1, n],
        "python": platform.python_version(), "numpy": np.__version__,
        "design.src_loc": src_loc(),
        "attempted": len(counted), "failed": len(failed),
        "fail_ratio": len(failed) / len(counted),
        "pixels_checked": checker.sampled, "pixels_matched": checker.matched,
        "failures": sorted(set(checker.failures)),
        **ctx,
    }
    result = {
        "correct": bool(correct),
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"context": context, **result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

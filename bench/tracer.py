"""Outside-in tracer for ndyn: spans recorded around public functions.

The tracer replaces each listed public function with a timing wrapper in
every ``ndyn`` module that binds it.  Modules import helpers by name
(``from .poly import poly_roots``), so patching the defining module alone
would miss most calls.  Each thread keeps its own span stack, so a span's
parent is the innermost traced call on the same thread; spans opened on a
render worker thread have no parent there.  Spans stay in memory until the
caller asks for a summary or writes them out, and ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# layer (module under ndyn) -> public functions wrapped in it
TARGETS = {
    "poly": ("poly_roots", "rat_make", "rat_combine", "rat_derivative"),
    "conjugate": ("mobius_conjugate", "extract_normal_form", "make_form"),
    "builder": ("parse_scheme", "instantiate", "conjugated_form",
                "check_scheme_lambda_odd"),
    "analysis": ("classify_operator", "fixed_points", "critical_points",
                 "free_critical_points", "multiplier_at"),
    "stability": ("linearize", "stability_region_z1", "stability_region_zm1",
                  "classify_strange_at"),
    "planes": ("parameter_plane", "dynamical_plane", "orbit_outcome",
               "colorize", "write_image", "write_metadata"),
    "cli": ("main",),
}


def ndyn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ndyn" or name.startswith("ndyn."))]


def bindings_snapshot() -> dict:
    """(module, attribute) -> object id for every callable ndyn binds."""
    return {(m.__name__, attr): id(val)
            for m in ndyn_modules() for attr, val in vars(m).items()
            if callable(val)}


class Tracer:
    """Span recorder.  ``op`` tags spans with the operation in flight.
    ``install`` and ``uninstall`` may alternate any number of times; spans
    accumulate across them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list = []
        self._ids = itertools.count(1)
        self._wrappers: dict = {}       # id(original) -> (original, wrapper)
        self._patched: list = []
        self.op = None

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer, names in TARGETS.items():
                home = sys.modules[f"ndyn.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    self._wrappers[id(original)] = (
                        original, self._wrap(f"{layer}.{name}", original))
        for mod in ndyn_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _buffer(self) -> list:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = []
            self._local.stack = []
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _wrap(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = self._local.stack
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            raised = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                buf.append((sid, parent, name, t0, t1, raised, self.op))

        return traced

    # -- results --------------------------------------------------------

    def spans(self) -> list:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def summary(self, ops=None) -> dict:
        """name -> {calls, failed, total_s, self_s}; ``ops`` restricts the
        spans to those tagged with one of the given operations."""
        spans = self.spans()
        if ops is not None:
            ops = set(ops)
            spans = [s for s in spans if s[6] in ops]
        child = defaultdict(float)
        for sid, parent, _n, t0, t1, _r, _o in spans:
            if parent:
                child[parent] += t1 - t0
        out: dict = {}
        for sid, _p, name, t0, t1, raised, _o in spans:
            rec = out.setdefault(name, {"calls": 0, "failed": 0,
                                        "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["failed"] += int(raised)
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, raised, op in self.spans():
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "raised": raised, "op": op}) + "\n")

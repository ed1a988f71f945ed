"""In-process tracer for the benchmark's traced pass.

Wraps the public functions of the library's layers from outside the
program: every public function defined in ``cli``, ``oracle``, ``kernels``,
``serganova``, ``classify``, ``core`` and ``roots``, the ``__post_init__``
of their dataclasses (so ``core.Weight`` counts every weight built and
validated), and the ``scan_*`` functions of each scan backend.  A wrapper is
installed in every module that binds the wrapped object by name, because
``cli`` binds ``forward`` and the predicates, and ``serganova``,
``classify`` and ``_pykernels`` each bind ``congruent_zero``.

Per function it aggregates calls, total time and self time (total minus the
time of wrapped callees).  Coarse spans (command -> oracle check -> kernel
scan) are kept in memory for ``write_spans``.  Inside a kernel scan it also
counts the box weights the scan built and how many of them it ran the
transform on, which is how ``enumerated`` and ``checked`` are measured.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import types

LAYERS = ("cli", "oracle", "kernels", "serganova", "classify", "core", "roots")
# Functions whose calls open a coarse span.
SPAN_PREFIXES = ("cli.main", "oracle.verify_", "kernels.scan_")
# Transform entry points: they mark the current box weight as checked and
# add their step count to serganova.steps.
TRANSFORMS = ("serganova.forward", "serganova.inverse")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.scans: dict[str, list] = {}  # scan name -> [enumerated, checked]
        self.steps = 0
        self.pass_id = 0  # stamped on spans; spans of one pass share it
        self.spans: list[dict] = []
        self._stack: list[list] = []  # frames: [child_s, scan_state or None]
        self._span_stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every ``glmn_weights`` module binding it."""
        from glmn_weights import kernels

        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "glmn_weights" or n.startswith("glmn_weights.")]
        targets = []  # (metric name, home namespace, attribute)
        for layer in LAYERS:
            mod = sys.modules[f"glmn_weights.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    targets.append((f"{layer}.{attr}", mod, attr))
                elif dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
                    targets.append((f"{layer}.{attr}", obj, "__post_init__"))
        backends = [kernels.pure] + ([kernels.compiled] if kernels.compiled_available() else [])
        for be in backends:
            for attr in dir(be):
                if attr.startswith("scan_"):
                    targets.append((f"kernels.{attr}.{be.name}", be, attr))

        for name, home, attr in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            binders = [home] if isinstance(home, type) else [
                m for m in pkg_modules if getattr(m, attr, None) is original
            ]
            for ns in binders:
                self._restore.append((ns, attr, original))
                setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        """Zero the aggregates (the wrappers keep references to the lists)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for counts in self.scans.values():
            counts[:] = [0, 0]
        self.steps = 0

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_span = name.startswith(SPAN_PREFIXES)
        is_scan = name.startswith("kernels.scan_")
        is_weight = name == "core.Weight"
        is_transform = name in TRANSFORMS
        counts = self.scans.setdefault(name, [0, 0]) if is_scan else None
        tracer = self

        def wrapper(*args, **kwargs):
            if is_transform:
                order = args[2] if len(args) > 2 else kwargs["order"]
                tracer.steps += len(order.steps)
                if stack and stack[-1][1] is not None:
                    stack[-1][1][2] = True  # the scan ran the transform on its weight
            frame = [0.0, [0, 0, False] if is_scan else None]
            if is_span:
                span = tracer._open_span(name)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    scan = parent[1]
                    if is_weight and scan is not None:
                        # a weight built directly by a scan is a box weight;
                        # closing the previous one settles whether it was checked
                        scan[0] += 1
                        scan[1] += scan[2]
                        scan[2] = False
                if is_scan:
                    state = frame[1]
                    counts[0] += state[0]
                    counts[1] += state[1] + state[2]
                if is_span:
                    tracer._close_span(span)

        return functools.wraps(fn)(wrapper)

    # -- spans --------------------------------------------------------------

    def _open_span(self, name) -> dict:
        span = {"id": len(self.spans), "pass": self.pass_id,
                "parent": self._span_stack[-1] if self._span_stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._span_stack.append(span["id"])
        return span

    def _close_span(self, span) -> None:
        span["end"] = time.perf_counter()
        self._span_stack.pop()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    # -- reading ------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer) -> float:
        return sum(s[2] for n, s in self.stats.items() if n.startswith(layer + "."))

"""Spans around calls into cwinspect's public functions, recorded from outside.

A layer is one public function of a cwinspect module, named
``<module>.<qualname>``.  Callers reach a function either as a module
attribute (``inspection.update_inspected``) or through a name imported into
their own namespace (``harness`` imports ``filter_control`` by name, ``rta``
imports ``cbf_rows``, ``env`` imports ``step``).  Replacing the attribute of
the defining module alone would miss the second kind, so :meth:`Tracer.bind`
replaces every binding of the function object found in any loaded
``cwinspect`` module, and :meth:`Tracer.unbind` puts the originals back.

Each call records its self time (its duration minus that of the traced calls
made inside it) and an optional tag computed from its arguments and return
value.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "dynamics.step",
    "inspection.update_inspected",
    "inspection.nearest_uninspected_cluster",
    "safety.cbf_rows",
    "safety.h_values",
    "rta.filter_control",
    "rta.solve_qp",
    "rta.infeasible_fallback",
    "control.mlp_act",
    "control.lqr_control",
    "env.build_observation",
    "env.InspectionEnv.step",
    "harness.run",
    "harness.load_config",
    "harness.emit",
    "harness.run_batch",
)


def _qp_tag(args, out):
    _, active, feasible = out
    return f"k{len(active)}" if feasible else "infeasible"


def _emit_tag(args, out):
    return args[1]


def _run_tag(args, out):
    return out[1]["steps"]


def _intervened_tag(args, out):
    return bool(out.intervened)


class _FreshMask:
    """Tags a cluster call True when the sphere's inspected mask differs
    from the one seen on the previous call."""

    def __init__(self):
        self.last = None

    def __call__(self, args, out):
        mask = args[0].inspected.tobytes()
        fresh = mask != self.last
        self.last = mask
        return fresh


def _tags():
    return {
        "rta.solve_qp": _qp_tag,
        "rta.filter_control": _intervened_tag,
        "inspection.nearest_uninspected_cluster": _FreshMask(),
        "harness.emit": _emit_tag,
        "harness.run": _run_tag,
    }


def _resolve(layer: str):
    """(defining namespace, attribute, function) for a layer, or None when
    the package no longer defines it."""
    module, _, qualname = layer.partition(".")
    owner = sys.modules.get(f"cwinspect.{module}")
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    func = getattr(owner, name, None)
    if func is None:
        return None
    return owner, name, func


def bindings(layer: str) -> list:
    """Every (namespace, name) through which callers can reach ``layer``."""
    found = _resolve(layer)
    if found is None:
        return []
    owner, name, func = found
    if isinstance(owner, type):
        return [(owner, name)]
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "cwinspect" and not modname.startswith("cwinspect."):
            continue
        for attr, value in vars(mod).items():
            if value is func:
                out.append((mod, attr))
    return out


class Tracer:
    """Records calls of the bound layers; one instance per traced pass."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        # layer -> list of (self_ns, tag)
        self.records = defaultdict(list)
        self._open = []  # child time accumulated by each open span
        self._saved = []
        self._tags = _tags()

    def _wrap(self, layer, func):
        records = self.records[layer]
        open_spans = self._open
        tag = self._tags.get(layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                total = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += total
            records.append((total - child, tag(args, out) if tag else None))
            return out

        return traced

    def bind(self) -> None:
        for layer in self.layers:
            found = _resolve(layer)
            if found is None:
                continue
            wrapper = self._wrap(layer, found[2])
            for owner, name in bindings(layer):
                self._saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapper)

    def unbind(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def pause(self, ns: int) -> None:
        """Count ``ns`` the benchmark spent inside the innermost open span as
        child time, so that no layer's self time includes it."""
        if self._open:
            self._open[-1] += ns

    def __enter__(self):
        self.bind()
        return self

    def __exit__(self, *exc):
        self.unbind()

    # -- statistics ------------------------------------------------------

    def calls(self, layer: str, tag=None) -> int:
        recs = self.records.get(layer, ())
        if tag is None:
            return len(recs)
        return sum(1 for r in recs if r[1] == tag)

    def self_us(self, layer: str, q: float, tag=None) -> float:
        """Percentile ``q`` of the self time in µs; 0 when never called."""
        vals = [r[0] for r in self.records.get(layer, ())
                if tag is None or r[1] == tag]
        return float(np.percentile(vals, q)) / 1e3 if vals else 0.0

    def self_s(self, layer: str) -> float:
        return sum(r[0] for r in self.records.get(layer, ())) / 1e9

    def tag_frac(self, layer: str, tag) -> float:
        n = self.calls(layer)
        return self.calls(layer, tag) / n if n else 0.0

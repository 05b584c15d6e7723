"""Span tracing for the benchmark's traced run.

The library stays unchanged: :meth:`Tracer.install` wraps each function in
:data:`LAYERS` and rebinds the name, in every loaded ``ruinfair`` module that
holds a reference to it, to the wrapper; :meth:`Tracer.uninstall` restores
the original bindings.  Callers that look a function up through its module
(``_kernels.ruin_mc_count``) and callers that imported it by name
(``from .allocation import water_fill``) are both covered.

Each wrapped call records a span ``(id, name, start, end, parent, root)``;
``root`` is the outermost span of the call tree, so all spans of one
benchmark step share it.  Work counts are taken inside a ``trace.count``
child span, so their cost falls neither on the layer's self time nor on its
caller's.
"""

from __future__ import annotations

import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

COUNT_SPAN = "trace.count"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int


def _arg(args: tuple, kwargs: dict, name: str, index: int):
    return kwargs[name] if name in kwargs else args[index]


def _gammas_key(args, kwargs, result):
    import numpy as np

    gammas = np.asarray(_arg(args, kwargs, "gammas", 2), dtype=float)
    return (
        float(_arg(args, kwargs, "alpha_star", 0)),
        float(_arg(args, kwargs, "bandwidth", 1)),
        gammas.tobytes(),
    )


def _gammas_users(args, kwargs, result):
    import numpy as np

    return int(np.size(_arg(args, kwargs, "gammas", 2)))


@dataclass(frozen=True)
class Layer:
    """One traced library function.

    ``counters`` maps a counter name to ``f(args, kwargs, result) -> int``;
    ``key`` gives a hashable digest of the call's inputs, from which the
    layer's ``distinct_frac`` (distinct inputs / calls) is computed.
    """

    name: str
    module: str
    function: str
    counters: tuple[tuple[str, Callable], ...] = ()
    key: Optional[Callable] = None


LAYERS: tuple[Layer, ...] = (
    Layer(
        "kernels.ruin_mc_count", "ruinfair._kernels", "ruin_mc_count",
        (("trials", lambda a, k, r: int(_arg(a, k, "trials", 4))),),
    ),
    Layer(
        "kernels.chance_mc_count", "ruinfair._kernels", "chance_mc_count",
        (("trials", lambda a, k, r: int(_arg(a, k, "trials", 4))),),
    ),
    Layer(
        "ruin.exact", "ruinfair.ruin", "ruin_probability_exact",
        (("terms", lambda a, k, r: int(_arg(a, k, "params", 0).horizon)),),
    ),
    Layer("duty.from_surplus", "ruinfair.duty", "duty_cycle_from_surplus"),
    Layer("duty.chance_audit", "ruinfair.duty", "verify_chance_constraint"),
    Layer(
        "allocation.water_fill", "ruinfair.allocation", "water_fill",
        (("users", _gammas_users),),
        key=_gammas_key,
    ),
    Layer(
        "sim.sample_collisions", "ruinfair.sim", "sample_collisions",
        (("draws", lambda a, k, r: int(r.count)),),
        key=lambda a, k, r: (
            float(_arg(a, k, "lambda_k", 0)),
            float(_arg(a, k, "mu", 1)),
            int(_arg(a, k, "seed", 2)),
        ),
    ),
    Layer("sim.link_budget", "ruinfair.sim", "link_budget"),
    Layer("sim.simulate_long_frame", "ruinfair.sim", "simulate_long_frame"),
    Layer("sim.generate_topology", "ruinfair.sim", "generate_topology"),
    Layer("experiment.run_sweep", "ruinfair.experiment", "run_sweep"),
    Layer(
        "experiment.emit", "ruinfair.experiment", "emit_csv",
        (("bytes", lambda a, k, r: Path(r).stat().st_size),),
    ),
    Layer(
        "experiment.emit", "ruinfair.experiment", "emit_manifest",
        (("bytes", lambda a, k, r: Path(r).stat().st_size),),
    ),
    Layer("config.parse", "ruinfair.config", "parse_scenario"),
)

# Per-layer metrics a traced run reports: (name, unit, better).  Layers whose
# calls are not listed still record spans (run_sweep's calls are one per
# sweep, a constant of the workload).
_REPORTED = {
    "kernels.ruin_mc_count": ("calls", "self_s", "trials"),
    "kernels.chance_mc_count": ("calls", "self_s", "trials"),
    "ruin.exact": ("calls", "self_s", "terms"),
    "duty.from_surplus": ("calls", "self_s"),
    "duty.chance_audit": ("calls", "self_s"),
    "allocation.water_fill": ("calls", "self_s", "users", "distinct_frac"),
    "sim.sample_collisions": ("calls", "self_s", "draws", "distinct_frac"),
    "sim.link_budget": ("calls", "self_s"),
    "sim.simulate_long_frame": ("calls", "self_s"),
    "sim.generate_topology": ("calls", "self_s"),
    "experiment.run_sweep": ("self_s",),
    "experiment.emit": ("self_s", "bytes"),
    "config.parse": ("self_s",),
}

_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "distinct_frac": ("ratio", "higher"),
    "bytes": ("bytes", "lower"),
}

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")

PER_LAYER_METRICS: tuple[tuple[str, str, str], ...] = tuple(
    (f"{layer}.{stat}",) + _UNITS.get(stat, ("count", "lower"))
    for layer, stats in _REPORTED.items()
    for stat in stats
) + (OVERHEAD_METRIC,)


class Tracer:
    """In-memory span recorder with per-layer work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[tuple[int, int]] = []  # (span id, root id)
        self._next_id = 0
        self._bindings: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, Optional[int], int]:
        sid = self._next_id
        self._next_id += 1
        parent, root = self._stack[-1] if self._stack else (None, sid)
        self._stack.append((sid, root))
        return sid, parent, root

    def _close(self, sid, name, start, parent, root):
        end = self.clock()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, root))

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        sid, parent, root = self._open()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start, parent, root)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, root = tracer._open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                if layer.counters or layer.key:
                    tracer.run(COUNT_SPAN, tracer._count, layer, args, kwargs, result)
                return result
            finally:
                tracer._close(sid, layer.name, start, parent, root)

        traced.__wrapped__ = fn
        return traced

    def _count(self, layer: Layer, args, kwargs, result):
        for counter, fn in layer.counters:
            self.counts[f"{layer.name}.{counter}"] += fn(args, kwargs, result)
        if layer.key:
            self.keys[layer.name].add(layer.key(args, kwargs, result))

    def install(self, layers: tuple[Layer, ...] = LAYERS) -> list[str]:
        """Rebind every traced function; returns the layers not found."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "ruinfair" or n.startswith("ruinfair."))
        ]
        missing = []
        for layer in layers:
            home = sys.modules.get(layer.module)
            original = getattr(home, layer.function, None) if home else None
            if original is None:
                missing.append(f"{layer.module}.{layer.function}")
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time, work counts and distinct-input shares."""
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
        own = self_time_by_name(self.spans)
        metrics: dict[str, float] = {}
        for name, _, _ in PER_LAYER_METRICS:
            layer, stat = name.rsplit(".", 1)
            if stat == "calls":
                metrics[name] = calls[layer]
            elif stat == "self_s":
                metrics[name] = own.get(layer, 0.0)
            elif stat == "distinct_frac":
                n = calls[layer]
                metrics[name] = len(self.keys[layer]) / n if n else 0.0
            elif name != OVERHEAD_METRIC[0]:
                metrics[name] = self.counts[name]
        return metrics


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)

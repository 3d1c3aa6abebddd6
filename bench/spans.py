"""Span tracing installed from outside the library.

A :class:`Tracer` replaces public bikegeo functions with timing wrappers
at the names their callers resolve: module attributes (which are also
the globals a module's own functions look up) and the names other
modules bound with ``from ... import``.  Spans therefore nest, and each
layer gets

* ``busy_s``: time inside its outermost spans,
* ``self_s``: span time minus the time of child spans of any layer,
* work counts, taken when its outermost span returns.

Nothing in the package is edited; :meth:`Tracer.uninstall` restores the
original functions.  Wrappers only record while ``recording`` is set,
so oracle checks that call the library between ops stay out of the
trace.
"""

import functools
import os
import time
from collections import defaultdict

LAYERS = ("integrate.geodesic", "integrate.lift", "analysis", "holonomy",
          "metriclines", "core", "io.csv", "io.svg", "cli")

_ANALYSIS_PATH_FUNCS = ("canonical_orient", "period_and_advance", "front_width",
                        "back_width", "fit_elastica_params", "energy_residual",
                        "find_vertices")
_HOLONOMY_FUNCS = ("fit_mobius", "cross_ratio_angles", "correspondent",
                   "pressurized_fit", "transport", "transport_samples")
_METRICLINES_FUNCS = ("shortcut_analysis", "build_shortcut", "shortcut_threshold")


def _count_geodesic(tracer, stats, args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    stats["state_steps"] += sum(len(p) - 1 for p in paths)
    if tracer.is_open("metriclines"):
        tracer.stats["metriclines"]["integrated_arc"] += sum(
            float(p.t[-1] - p.t[0]) for p in paths)


def _count_fiber(tracer, stats, args, kwargs, result):
    t, theta = result
    stats["fiber_steps"] += (t.size - 1) * max(1, theta[0].size)


def _count_lift_path(tracer, stats, args, kwargs, result):
    stats["fiber_steps"] += len(result) - 1


def _count_samples(tracer, stats, args, kwargs, result):
    stats["samples"] += len(args[0])


def _count_mobius(tracer, stats, args, kwargs, result):
    stats["fit_residual_max"] = max(stats["fit_residual_max"], result[1])


def _count_shortcut(tracer, stats, args, kwargs, result):
    stats["kept_arc"] += result[0].geodesic_length


def _count_rows_written(tracer, stats, args, kwargs, result):
    stats["rows_written"] += len(args[0])


def _count_rows_read(tracer, stats, args, kwargs, result):
    stats["rows_read"] += len(result)


def _count_svg_bytes(tracer, stats, args, kwargs, result):
    stats["bytes"] += os.path.getsize(args[1])


class Tracer:
    """Nested span recorder with per-layer aggregates."""

    def __init__(self):
        self.recording = False
        self.stats = {}
        self._stack = []
        self._open = defaultdict(int)
        self._patched = []
        self.reset()

    def reset(self):
        """Start a fresh set of layer aggregates."""
        self.stats = {layer: defaultdict(int) for layer in LAYERS}

    def is_open(self, layer):
        return self._open[layer] > 0

    def wrap(self, owner, name, layer, count=None):
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            return tracer._call(layer, original, args, kwargs, count)

        setattr(owner, name, traced)
        self._patched.append((owner, name, original))

    def _call(self, layer, fn, args, kwargs, count):
        parent = self._stack[-1] if self._stack else None
        outermost = self._open[layer] == 0
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        self._open[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[layer] -= 1
            duration = end - start
            stats = self.stats[layer]
            stats["self_s"] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if outermost:
                stats["busy_s"] += duration
        if outermost and count is not None:
            count(self, stats, args, kwargs, result)
        return result

    def install(self, bg):
        """Wrap every layer's public names as the callers resolve them;
        bg is the imported bikegeo package, cli submodule included."""
        geo, analysis, holonomy = bg.integrate, bg.analysis, bg.holonomy
        metriclines, core, pathio, cli = bg.metriclines, bg.core, bg.io, bg.cli

        for owner in (geo, metriclines):
            self.wrap(owner, "integrate_geodesic", "integrate.geodesic",
                      _count_geodesic)
        self.wrap(geo, "integrate_geodesics", "integrate.geodesic", _count_geodesic)
        for owner in (geo, holonomy):
            self.wrap(owner, "lift_frame_angles", "integrate.lift", _count_fiber)
            self.wrap(owner, "horizontal_lift", "integrate.lift", _count_lift_path)

        self.wrap(analysis, "classify", "analysis")
        for name in _ANALYSIS_PATH_FUNCS:
            self.wrap(analysis, name, "analysis", _count_samples)
        for name in ("canonical_orient", "period_and_advance"):
            self.wrap(metriclines, name, "analysis", _count_samples)

        for name in _HOLONOMY_FUNCS:
            self.wrap(holonomy, name, "holonomy",
                      _count_mobius if name == "fit_mobius" else None)
        for name in _METRICLINES_FUNCS:
            self.wrap(metriclines, name, "metriclines",
                      _count_shortcut if name == "shortcut_analysis" else None)
        for owner in (core, holonomy, cli):
            self.wrap(owner, "flip_path", "core", _count_samples)

        self.wrap(pathio, "write_path_csv", "io.csv", _count_rows_written)
        self.wrap(pathio, "read_path_csv", "io.csv", _count_rows_read)
        self.wrap(pathio, "write_svg", "io.svg", _count_svg_bytes)
        self.wrap(pathio, "path_scene", "io.svg")
        self.wrap(cli, "main", "cli")

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the aggregates since the last reset;
        shares are self time over the traced pass's op time wall_s."""
        s = self.stats

        def rate(count, busy):
            return count / busy if busy > 0 else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = s[layer]["self_s"] / wall_s if wall_s > 0 else 0.0
        for layer, work in (("integrate.geodesic", "state_steps"),
                            ("integrate.lift", "fiber_steps"),
                            ("analysis", "samples")):
            out[f"{layer}.busy_s"] = s[layer]["busy_s"]
            out[f"{layer}.{work}"] = s[layer][work]
            out[f"{layer}.{'samples_per_s' if work == 'samples' else 'steps_per_s'}"] = (
                rate(s[layer][work], s[layer]["busy_s"]))
        out["holonomy.self_s"] = s["holonomy"]["self_s"]
        out["holonomy.fit_residual_max"] = s["holonomy"]["fit_residual_max"]
        ml = s["metriclines"]
        out["metriclines.self_s"] = ml["self_s"]
        out["metriclines.useful_arc_ratio"] = (
            ml["kept_arc"] / ml["integrated_arc"] if ml["integrated_arc"] > 0 else 0.0)
        out["core.busy_s"] = s["core"]["busy_s"]
        out["core.samples"] = s["core"]["samples"]
        csv = s["io.csv"]
        out["io.csv.busy_s"] = csv["busy_s"]
        out["io.csv.rows_written"] = csv["rows_written"]
        out["io.csv.rows_read"] = csv["rows_read"]
        out["io.csv.rows_per_s"] = rate(csv["rows_written"] + csv["rows_read"],
                                        csv["busy_s"])
        out["io.svg.busy_s"] = s["io.svg"]["busy_s"]
        out["io.svg.bytes"] = s["io.svg"]["bytes"]
        out["cli.self_s"] = s["cli"]["self_s"]
        return out

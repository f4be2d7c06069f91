"""Spans around the calls into each s3flow layer, and the per-layer metrics.

The code under ``src/`` is not edited.  While a traced episode runs, the
public names that the layers look up when they are called are replaced by
wrappers that record a span, and restored afterwards.  A name bound by
``from .x import y`` is wrapped in every module that looks it up.

Per-layer metrics are named ``<module>.<function>.<stat>`` and are given per
traced episode (calls and self time are divided by the number of traced
episodes); percentiles pool every traced call and are reported only where
at least ten samples lie beyond them.
"""

from __future__ import annotations

import statistics
import tracemalloc
from contextlib import contextmanager

from s3flow import cli, flow, gaussmaps, mesh, s2curves, speeds

from spans import by_name, percentile

GENERATORS = ("make_geodesic_sphere", "make_perturbed_sphere", "make_clifford_torus",
              "make_hopf_torus")


def targets():
    """(owner, attribute, span name) for every wrapped name."""
    out = [
        (flow, "flow_step", "flow.flow_step"),
        (flow, "cfl_dt", "flow.cfl_dt"),
        (flow, "pinching_report", "flow.pinching_report"),
        (flow, "estimate_curvature", "mesh.estimate_curvature"),
        (flow, "run_flow", "flow.run_flow"),
        (flow, "log_map", "s3core.log_map"),
        (flow, "geodesic_step", "s3core.geodesic_step"),
        (mesh, "log_map", "s3core.log_map"),
        (mesh.SurfaceMesh, "with_vertices", "mesh.with_vertices"),
        (speeds.SpeedFunction, "eval", "speeds.eval"),
        (speeds.SpeedFunction, "partials", "speeds.partials"),
        (gaussmaps, "gauss_maps", "gaussmaps.gauss_maps"),
        (cli, "gauss_maps", "gaussmaps.gauss_maps"),
        (s2curves, "csf_step", "s2curves.csf_step"),
        (s2curves, "weiner_check", "s2curves.weiner_check"),
        (cli, "export_mesh", "cli.export_mesh"),
        (cli, "export_gauss_csv", "cli.export_gauss_csv"),
        (cli, "run_flow", "flow.run_flow"),
        (cli, "build_surface", "cli.build_surface"),
        (cli, "run_scenario", "cli.run_scenario"),
    ]
    return out + [(mesh, g, "mesh.build") for g in GENERATORS]


class CurvatureProbe:
    """Per call of estimate_curvature: vertices and flagged vertices.  The
    first call for each (vertex count, fit order) also records the peak of
    bytes allocated during the call: array sizes, from tracemalloc, so cache
    traffic is not counted (these bytes are computed, not moved).  The peak
    repeats exactly for a given mesh and order, and tracing allocations on
    every call would slow the fit by about a third."""

    def __init__(self):
        self.calls = []
        self.peak_bytes = {}

    def wrap(self, fn):
        def measured(mesh_, *args, **kwargs):
            key = (mesh_.n_vertices, kwargs.get("order"))
            if key in self.peak_bytes:
                result = fn(mesh_, *args, **kwargs)
            else:
                tracemalloc.start()
                try:
                    result = fn(mesh_, *args, **kwargs)
                    self.peak_bytes[key] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            self.calls.append((len(result.kappa1), int(result.flagged.sum())))
            return result

        return measured


@contextmanager
def traced(tracer, probe):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name in targets():
            fn = owner.__dict__[attr]
            if owner is flow and attr == "estimate_curvature":
                fn = probe.wrap(fn)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer, probe, outcomes, untraced_walls, traced_walls):
    """Every per-layer figure of the traced episodes, as name -> (value, unit).

    ``outcomes`` holds the gate's Outcome of each traced episode.  The benchmark's own
    spans ``bench.setup`` and ``bench.episode`` mark the two phases of each
    traced episode; the self time of ``bench.episode`` is the part of the
    timed phase that no layer span covers.
    """
    stats = by_name(tracer.spans)
    n_ep = len(outcomes)
    out = {}
    for name, st in sorted(stats.items()):
        if name.startswith("bench."):
            continue
        out[f"{name}.calls"] = (len(st["durations"]) / n_ep, "count")
        out[f"{name}.self_s"] = (st["self_s"] / n_ep, "s")
        for q, label in ((0.5, "ms_p50"), (0.9, "ms_p90")):
            got = percentile(st["durations"], q)
            if got is not None:
                out[f"{name}.{label}"] = (1e3 * got[0], "ms")
                out[f"{name}.{label}.samples"] = (got[1], "count")
    for _, _, name in targets():
        out.setdefault(f"{name}.calls", (0, "count"))
        out.setdefault(f"{name}.self_s", (0.0, "s"))
    out["speeds.self_s"] = (out["speeds.eval.self_s"][0] + out["speeds.partials.self_s"][0], "s")

    n_vertices = sum(c[0] for c in probe.calls)
    flagged = sum(c[1] for c in probe.calls)
    out["mesh.estimate_curvature.fit_ok_ratio"] = (
        1.0 - flagged / n_vertices if n_vertices else 1.0, "ratio")
    out["mesh.estimate_curvature.flagged_max"] = (max((c[1] for c in probe.calls), default=0), "count")
    out["mesh.estimate_curvature.bytes_computed"] = (max(probe.peak_bytes.values(), default=0), "B")

    out["flow.steps"] = (sum(o.steps for o in outcomes) / n_ep, "count")
    out["cli.bytes_written"] = (sum(o.bytes_written for o in outcomes) / n_ep, "B")

    episode = stats["bench.episode"]
    out["trace.unaccounted_frac"] = (episode["self_s"] / sum(episode["durations"]), "ratio")
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "ratio")
    return out

"""Runs one workload for a time budget and turns the timings into metrics.

End-to-end metrics (``--trace 0``), the same names for every workload; an
operation is a transport step, a verdict sweep or a probe sample:

  setup_s      median wall time of one set-up (set up ``Sizes.setups`` times)
  peak_rss_mb  peak resident set size of the process after the loop
  op_ms_p50    median latency of one operation
  op_ms_p95    95th percentile of the same latencies
  ops_per_s    operations completed per second of unit wall time

The workload-specific names of these figures (``step_ms_p50``, ``sweep_s_p50``,
``probe_samples_per_s`` and so on) are printed beside them with units and
sample counts.

Per-layer metrics (``--trace 1``) come from spans recorded around calls into
the package's modules, over the traced set-ups and the traced half of the
loop.  Timings in ms are means per call; timings in s and counts are totals
per cycle, one set-up plus one operation (see LAYER_METRICS).  The first half
of the loop runs untraced, and ``trace_overhead_frac`` compares the halves.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback

import numpy as np

from arnoldstab import dynamics, field, functionals, grid, harmonic
from arnoldstab import rearrange, spectra, steady

from spans import CountingLU, Tracer
from workloads import FULL, KNOWN_DEFECTS, WORKLOADS

clock = time.perf_counter

# (metric, span or counter, statistic, unit).  Statistics: 'call' is the mean
# inclusive time per call, 'self' the mean self time per call, 'cycle' the
# total per cycle (one set-up plus one operation), which keeps cached calls
# and set-up work in proportion.  Per-operation hot paths are per call in ms;
# set-up and sweep scale work is per cycle in s.
LAYER_METRICS = (
    ("dynamics.feet_ms", "dynamics._feet", "call", "ms"),
    ("dynamics.interp_ms", "dynamics._bicubic", "call", "ms"),
    ("dynamics.limiter_ms", "dynamics._data_range", "call", "ms"),
    ("dynamics.fill_ms", "dynamics._filled_grid", "call", "ms"),
    ("dynamics.monitor_ms", "dynamics.monitor", "call", "ms"),
    ("field.stream_solve_ms", "field.stream_solve", "call", "ms"),
    ("field.lu_solve_ms", "field.CondensedSystem.solve_stream", "call", "ms"),
    ("field.certificate_ms", "field.stream_solve", "self", "ms"),
    ("field.velocity_ms", "field.velocity", "call", "ms"),
    ("field.p_apply_ms", "field.p_apply", "call", "ms"),
    ("field.factorize_s", "splu", "cycle", "s"),
    ("field.factorizations", "factorizations", "cycle", "count"),
    ("field.solves", "solves", "cycle", "count"),
    ("spectra.lambda_plain_s", "spectra.lambda_plain", "cycle", "s"),
    ("spectra.lambda_big_s", "spectra.lambda_big", "cycle", "s"),
    ("spectra.check_stability_s", "spectra.check_stability", "cycle", "s"),
    ("spectra.dirichlet_ground_s", "spectra.dirichlet_ground", "cycle", "s"),
    ("spectra.eig_iters", "eig_iters", "cycle", "count"),
    ("steady.steady_linear_s", "steady.steady_linear", "self-cycle", "s"),
    ("harmonic.solve_basis_s", "harmonic.solve_basis", "cycle", "s"),
    ("grid.build_ms", "grid.build", "call", "ms"),
    ("functionals.energy_ms", "functionals.energy", "call", "ms"),
    ("functionals.d_hat_ms", "functionals.supporting_d_hat", "call", "ms"),
    ("functionals.solve_mu_ms", "functionals.solve_mu", "call", "ms"),
    ("rearrange.swap_walk_ms", "rearrange.swaps_within_radius", "call", "ms"),
    ("rearrange.hist_ms", "rearrange.histogram_distance", "call", "ms"),
)

_SCALE = {"ms": 1e3, "s": 1.0}


def install(tracer):
    """Wrap every traced name where the package looks it up."""
    tracer.missing.clear()

    def lu(out):
        tracer.count("factorizations")
        return CountingLU(out, tracer)

    def eig(out):
        if isinstance(out, tuple) and len(out) > 2:
            tracer.count("eig_iters", int(out[2]))
        return out

    def big(out):
        tracer.count("eig_iters", int(getattr(out, "iterations", 0)))
        return out

    targets = (
        (dynamics, "_feet", "dynamics._feet", None),
        (dynamics, "_bicubic", "dynamics._bicubic", None),
        (dynamics, "_data_range", "dynamics._data_range", None),
        (dynamics, "_filled_grid", "dynamics._filled_grid", None),
        (field, "stream_solve", "field.stream_solve", None),
        (field, "velocity", "field.velocity", None),
        (field, "p_apply", "field.p_apply", None),
        (field, "splu", "splu", lu),
        (spectra, "lambda_plain", "spectra.lambda_plain", None),
        (spectra, "lambda_big", "spectra.lambda_big", big),
        (spectra, "check_stability", "spectra.check_stability", None),
        (spectra, "dirichlet_ground", "spectra.dirichlet_ground", None),
        (spectra, "_smallest_eig", "spectra._smallest_eig", eig),
        (steady, "steady_linear", "steady.steady_linear", None),
        (harmonic, "solve_basis", "harmonic.solve_basis", None),
        (grid, "build_annulus", "grid.build", None),
        (grid, "label_components", "grid.build", None),
        (functionals, "energy", "functionals.energy", None),
        (functionals, "supporting_d_hat", "functionals.supporting_d_hat", None),
        (functionals, "solve_mu", "functionals.solve_mu", None),
        (rearrange, "swaps_within_radius", "rearrange.swaps_within_radius", None),
        (rearrange, "histogram_distance", "rearrange.histogram_distance", None),
    )
    for owner, attr, name, on_result in targets:
        tracer.wrap_function(owner, attr, name, on_result)
    tracer.wrap_method(
        getattr(field, "CondensedSystem", None),
        "solve_stream",
        "field.CondensedSystem.solve_stream",
    )


class Loop:
    """Accumulates the units of one loop phase."""

    def __init__(self):
        self.latencies = []
        self.units = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, workload, ctx, tracer, seconds):
        deadline = clock() + seconds
        while True:
            try:
                unit = workload.unit(ctx, tracer)
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc(file=sys.stderr)
                tracer.unwind()
                self.attempted += workload.nominal_ops
                self.failed += workload.nominal_ops
                self.failures.append("exception in %s unit" % workload.name)
            else:
                self.units.append(unit)
                self.latencies += unit.latencies
                self.attempted += unit.n_ops
                if unit.failures:
                    self.failed += unit.n_ops
                    self.failures += unit.failures
            # collect the reference cycles of the finished unit outside the
            # timings, so that neither pauses nor peak memory depend on when
            # the collector happens to run
            gc.collect()
            if clock() >= deadline:
                break
        if not self.units:
            raise RuntimeError("no %s unit completed; see the tracebacks above" % workload.name)
        return self

    @property
    def n_ops(self):
        return sum(u.n_ops for u in self.units)

    @property
    def wall(self):
        return sum(u.wall for u in self.units)


def _setups(workload, tracer):
    times, failures, ctx = [], [], None
    for _ in range(workload.sizes.setups):
        if tracer.enabled:
            tracer.begin("setup")
        t0 = clock()
        ctx, fails = workload.setup()
        times.append(clock() - t0)
        if tracer.enabled:
            tracer.end()
        failures += fails
        gc.collect()
    return ctx, times, failures


def _metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def end_to_end(workload, seed, seconds, sizes):
    tracer = Tracer()
    wl = workload(sizes, seed)
    ctx, setup_times, failures = _setups(wl, tracer)
    loop = Loop().run(wl, ctx, tracer, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = loop.latencies
    metrics = {
        "setup_s": _metric(np.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
        "op_ms_p50": _metric(1e3 * np.median(lat), "ms", len(lat)),
        "op_ms_p95": _metric(1e3 * np.percentile(lat, 95), "ms", len(lat)),
        "ops_per_s": _metric(loop.n_ops / loop.wall, "1/s", loop.n_ops),
    }
    return metrics, _aliases(wl.name, metrics, loop), loop, failures


def _aliases(name, m, loop):
    """The workload-specific names of the end-to-end figures."""
    n = len(loop.latencies)
    frac = _metric(loop.failed / max(loop.attempted, 1), "frac", loop.attempted)
    if name == "transport":
        walls = [u.wall for u in loop.units]
        return {
            "step_ms_p50": m["op_ms_p50"],
            "step_ms_p95": m["op_ms_p95"],
            "sim_wall_s": _metric(np.median(walls), "s", len(walls)),
            "ops_failed_frac": frac,
        }
    if name == "verdict":
        ann = [u.extra["annulus_s"] for u in loop.units]
        return {
            "sweep_s_p50": _metric(m["op_ms_p50"]["value"] / 1e3, "s", n),
            "verdict_s_annulus64_p50": _metric(np.median(ann), "s", len(ann)),
            "ops_failed_frac": frac,
        }
    return {
        "probe_samples_per_s": m["ops_per_s"],
        "sample_ms_p50": m["op_ms_p50"],
        "sample_ms_p95": m["op_ms_p95"],
        "ops_failed_frac": frac,
    }


def per_layer(workload, seed, seconds, sizes, spans_path=None):
    tracer = Tracer()
    wl = workload(sizes, seed)
    try:
        install(tracer)
        tracer.enabled = True
        ctx, _, failures = _setups(wl, tracer)
        setup_counts = dict(tracer.counts)
        split = len(tracer.spans)
        tracer.enabled = False
        tracer.restore()
        plain = Loop().run(wl, ctx, tracer, seconds / 2.0)
        tracer.counts.clear()
        install(tracer)
        tracer.enabled = True
        traced = Loop().run(wl, ctx, tracer, seconds / 2.0)
    finally:
        tracer.enabled = False
        tracer.restore()

    setup_stats = tracer.durations(0, split)
    loop_stats = tracer.durations(split)
    all_stats = tracer.durations()
    per_setup = 1.0 / max(wl.sizes.setups, 1)
    per_op = 1.0 / max(traced.n_ops, 1)
    metrics = {}
    absent = []
    for name, key, stat, unit in LAYER_METRICS:
        scale = _SCALE.get(unit, 1.0)
        if unit == "count":
            n = traced.n_ops
            value = setup_counts.get(key, 0) * per_setup + tracer.counts.get(key, 0) * per_op
        elif stat.endswith("cycle"):
            col = 1 if stat.startswith("self") else 0
            s_set = setup_stats.get(key, ([], []))[col]
            s_loop = loop_stats.get(key, ([], []))[col]
            n = len(s_set) + len(s_loop)
            value = scale * (sum(s_set) * per_setup + sum(s_loop) * per_op)
        else:
            incl, excl = all_stats.get(key, ([], []))
            samples = excl if stat == "self" else incl
            n = len(samples)
            value = scale * float(np.mean(samples)) if samples else 0.0
        if n == 0 and unit != "count":
            absent.append(name)
        metrics[name] = _metric(value, unit, n)
    overhead = np.median(traced.latencies) / np.median(plain.latencies) - 1.0
    metrics["trace_overhead_frac"] = _metric(overhead, "frac", len(traced.latencies))
    if spans_path is not None:
        tracer.dump(spans_path, {"workload": wl.name, "seed": seed})
    loop = plain
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.failures += traced.failures
    return metrics, {"missing_spans": sorted(set(tracer.missing)), "not_run": absent}, loop, failures


def run(name, seed, seconds, trace, sizes=FULL, spans_path=None):
    """Measure one workload; returns (result, report) where result is the
    benchmark's final JSON object and report the human-readable extras."""
    workload = WORKLOADS[name]
    if trace:
        metrics, extras, loop, failures = per_layer(workload, seed, seconds, sizes, spans_path)
    else:
        metrics, extras, loop, failures = end_to_end(workload, seed, seconds, sizes)
    defects = []
    for metric, operation, attempt in KNOWN_DEFECTS:
        failed, detail = attempt(sizes)
        defects.append({"operation": operation, "failed": failed, "detail": detail})
        if trace:
            metrics[metric] = _metric(int(failed), "count", 1)
    failures = failures + loop.failures
    result = {
        "correct": not failures and loop.failed == 0,
        "attempted": int(loop.attempted),
        "failed": int(loop.failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    report = {
        "metrics": metrics,
        "extras": extras,
        "failures": failures,
        "known_defects": defects,
    }
    return result, report

"""Traced in-process run of one workload (child process of run.py).

Runs the workload's command sequence in this one process through
``concertq.cli.main(argv)`` with timing wrappers installed on the public
functions and methods of each concertq module.  Every wrapper records one
span (name, start, end, parent span, per-command trace id, work counts);
spans stay in memory and are written out when the run ends.  A second pass
re-runs the simulate steps with only a tracemalloc probe around the sampler,
so the probe's cost never reaches the timed spans.

Usage: python bench/tracer.py WORKLOAD SEED WORKDIR OUT_JSON
(with PYTHONPATH pointing at the source tree under test).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS

import concertq
from concertq import cli, equilibrium, exact_two, fluid, model, poa, serialize, sim

MODULES = (concertq, cli, equilibrium, exact_two, fluid, model, poa, serialize, sim)


def _pruned(a, k, out):
    return {"pruned_queues": len(out[1].pruned_queues)}


def _segments(a, k, out):
    return {"segments": len(out.profile.segments)}


def _reflect(a, k, out):
    x, psi = a[0], out[1]
    key = hashlib.blake2b(x.times.tobytes() + x.values.tobytes(), digest_size=8).hexdigest()
    return {"breakpoints_in": x.times.size, "crossings": psi.times.size - x.times.size, "key": key}


def _sampler(a, k, out):
    replication = k.get("replication", a[3] if len(a) > 3 else 0)
    return {"users": a[1], "queues": len(a[0].queue_ids), "replication": replication}


def _events(a, k, out):
    return {"events": 2 * a[1][0].size}  # one arrival and one departure per user


def _clamps(a, k, out):
    return {"clamp_events": out.clamp_events - a[0].clamp_events}


def _csv(a, k, out):
    return {"rows": out.count("\n") - 1, "bytes": len(out)}


def _json(a, k, out):
    return {"bytes": len(out)}


# (owner, attribute, span name, work counter); "Class.method" names a method
SPANS = (
    (model, "parse_scenario", "model.parse_scenario", None),
    (model, "pruned_scenario", "model.pruned_scenario", _pruned),
    (equilibrium, "solve_single", "equilibrium.solve", _segments),
    (equilibrium, "solve_multi", "equilibrium.solve", _segments),
    (equilibrium, "verify_equilibrium", "equilibrium.verify_equilibrium",
     lambda a, k, out: {"points": out.grid_points}),
    (fluid, "ArrivalProfile.queue_cdf", "fluid.queue_cdf",
     lambda a, k, out: {"segments_scanned": len(a[0].segments)}),
    (fluid, "ArrivalProfile.to_csv", "fluid.ArrivalProfile.to_csv", None),
    (fluid, "ArrivalProfile.from_csv", "fluid.ArrivalProfile.from_csv", None),
    (fluid, "PiecewisePath.integral", "fluid.PiecewisePath.integral", None),
    (fluid, "netflow", "fluid.netflow", None),
    (fluid, "reflect", "fluid.reflect", _reflect),
    (fluid, "fluid_queue", "fluid.fluid_queue", None),
    (fluid, "fluid_busy", "fluid.fluid_busy", None),
    (fluid, "fluid_wait", "fluid.fluid_wait", None),
    (fluid, "fluid_regulator", "fluid.fluid_regulator", None),
    (fluid, "cost_curve", "fluid.cost_curve", None),
    (poa, "social_cost", "poa.social_cost", None),
    (poa, "optimal_profile", "poa.optimal_profile", None),
    (poa, "poa_single", "poa.report", None),
    (poa, "poa_multi", "poa.report", None),
    (sim, "sample_arrivals", "sim.sample_arrivals", _sampler),
    (sim, "run_des", "sim.run_des", _events),
    (sim, "scaled_paths", "sim.scaled_paths", None),
    (sim, "QueueRecord.empty_time_at", "sim.QueueRecord.empty_time_at", None),
    (sim, "fluid_reference", "sim.fluid_reference", None),
    (sim, "convergence_report", "sim.convergence_report", None),
    (exact_two, "two_user_diagnostics", "exact_two.two_user_diagnostics", None),
    (exact_two, "expected_queue_ode_step", "exact_two.expected_queue_ode_step", _clamps),
    (serialize, "csv_rows", "serialize.csv_rows", _csv),
    (serialize, "to_json", "serialize.to_json", _json),
)


class Patches:
    """Replaces functions at every binding site and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value):
        self._saved.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def function(self, module, name, make):
        """Wrap ``module.name`` wherever a concertq module binds it by name."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def method(self, cls, name, make):
        static = inspect.getattr_static(cls, name)
        if isinstance(static, classmethod):
            self._set(cls, name, classmethod(make(static.__func__)))
        else:
            self._set(cls, name, make(static))

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent, trace, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace = -1
        self.constructions: dict[int, int] = {}

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.trace, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        return traced

    def count_constructions(self, fn):
        @functools.wraps(fn)
        def counted(path):
            self.constructions[self.trace] = self.constructions.get(self.trace, 0) + 1
            return fn(path)

        return counted


def install(patches: Patches, rec: SpanRecorder) -> None:
    for owner, attr, name, counter in SPANS:
        make = lambda fn, n=name, c=counter: rec.wrap(n, fn, c)
        if "." in attr:
            cls_name, meth = attr.split(".")
            patches.method(getattr(owner, cls_name), meth, make)
        else:
            patches.function(owner, attr, make)
    patches.method(fluid.PiecewisePath, "__post_init__", rec.count_constructions)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    workload, seed, work, out_path = WORKLOADS[argv[0]], int(argv[1]), Path(argv[2]), Path(argv[3])
    workload.write_inputs(work)

    rec = SpanRecorder()
    patches = Patches()
    install(patches, rec)
    commands = []
    digests = {}
    try:
        for i, step in enumerate(workload.steps):
            rec.trace = i
            rc = rec.wrap(f"cli.{step.command}", cli.main)(step.args(work, seed))
            commands.append({"label": step.label, "command": step.command, "rc": rc})
            if rc == 0:
                digests.update({f"{step.label}/{o}": _sha256(work / o) for o in step.outputs})
    finally:
        patches.restore()

    # memory pass: the sampler alone runs under tracemalloc
    peaks: list[int] = []

    def probe(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    patches.function(sim, "sample_arrivals", probe)
    try:
        for step in workload.steps:
            if step.command == "simulate":
                cli.main(step.args(work, seed))
    finally:
        patches.restore()

    out_path.write_text(
        json.dumps(
            {
                "spans": rec.spans,
                "constructions": rec.constructions,
                "commands": commands,
                "digests": digests,
                "sampler_peak_alloc_bytes": max(peaks, default=0),
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

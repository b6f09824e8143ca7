"""Per-layer metrics derived from the spans a traced run recorded.

A span is [name, start, end, parent index, trace id, counts]; one trace id
covers one CLI command, whose root span is ``cli.<command>``.  A span's self
time is its duration minus the durations of its child spans (the program is
single-threaded, so children never overlap), and the self times of one
trace therefore sum to its root span's duration: whatever no wrapper covers
is attributed to ``cli.<command>.self_s``.

Stdlib only.
"""

from __future__ import annotations

from collections import defaultdict

CLI_COMMANDS = (
    "eq-single", "eq-multi", "verify", "poa", "serve-count", "eq-two", "fluid", "simulate",
)
# commands whose reflect calls get their own useful ratio
REFLECTING_COMMANDS = ("verify", "poa", "fluid", "simulate")

_TIMED = (
    "model.parse_scenario", "model.pruned_scenario", "equilibrium.solve",
    "equilibrium.verify_equilibrium", "fluid.queue_cdf", "fluid.netflow", "fluid.reflect",
    "fluid.fluid_queue", "fluid.fluid_busy", "fluid.fluid_wait", "fluid.fluid_regulator",
    "fluid.cost_curve", "fluid.PiecewisePath.integral", "fluid.ArrivalProfile.to_csv",
    "fluid.ArrivalProfile.from_csv", "poa.social_cost", "poa.optimal_profile", "poa.report",
    "sim.sample_arrivals", "sim.run_des", "sim.scaled_paths", "sim.QueueRecord.empty_time_at",
    "sim.fluid_reference", "sim.convergence_report", "exact_two.two_user_diagnostics",
    "exact_two.expected_queue_ode_step", "serialize.csv_rows", "serialize.to_json",
)
# spans whose call count is a metric (the rest report self time only)
_COUNTED_CALLS = (
    "equilibrium.solve", "fluid.queue_cdf", "fluid.netflow", "fluid.reflect",
    "fluid.fluid_queue", "fluid.fluid_busy", "fluid.fluid_wait", "fluid.fluid_regulator",
    "fluid.cost_curve", "fluid.PiecewisePath.integral", "poa.social_cost",
    "sim.sample_arrivals", "sim.run_des", "sim.scaled_paths", "sim.QueueRecord.empty_time_at",
    "exact_two.expected_queue_ode_step", "serialize.csv_rows", "serialize.to_json",
)
# (span, work counter) pairs summed over calls
_WORK = (
    ("model.pruned_scenario", "pruned_queues"), ("equilibrium.solve", "segments"),
    ("equilibrium.verify_equilibrium", "points"), ("fluid.queue_cdf", "segments_scanned"),
    ("fluid.reflect", "breakpoints_in"), ("fluid.reflect", "crossings"),
    ("sim.sample_arrivals", "users"), ("sim.run_des", "events"),
    ("exact_two.expected_queue_ode_step", "clamp_events"),
    ("serialize.csv_rows", "rows"), ("serialize.csv_rows", "bytes"),
    ("serialize.to_json", "bytes"),
)

MIB = float(1 << 20)


def self_times(spans: list) -> list[float]:
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def trace_walls(spans: list, selfs: list[float]) -> dict[int, tuple[str, float, float]]:
    """Per trace id: (command, root span duration, sum of self times)."""
    sums: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        sums[span[4]] += own
    return {
        trace: (name.removeprefix("cli."), end - start, sums[trace])
        for name, start, end, parent, trace, _ in spans
        if parent < 0
    }


def _under(spans: list, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(doc: dict, untraced_net_s: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced workload run.

    ``untraced_net_s`` maps a CLI command to its untraced subprocess wall
    time minus interpreter set-up, summed over the workload's steps that run
    it; ``trace.overhead_frac.<command>`` compares the traced in-process
    wall time with it.
    """
    spans = doc["spans"]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    work: dict[tuple[str, str], float] = defaultdict(float)
    reflect_keys: dict[int, set] = defaultdict(set)
    reflect_calls: dict[int, int] = defaultdict(int)
    replications: set = set()
    routing_bytes = 0
    verify_curves = 0

    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        name, counts, trace = span[0], span[5], span[4]
        calls[name] += 1
        own[name] += self_s
        for key, value in (counts or {}).items():
            if isinstance(value, (int, float)):
                work[(name, key)] += value
        if name == "fluid.reflect":
            reflect_keys[trace].add(counts["key"])
            reflect_calls[trace] += 1
        elif name == "sim.sample_arrivals":
            replications.add((trace, counts["replication"]))
            routing_bytes = max(routing_bytes, counts["users"] * counts["queues"] * 8)
        elif name == "fluid.cost_curve" and _under(spans, i, "equilibrium.verify_equilibrium"):
            verify_curves += 1

    m: dict[str, float] = {}
    for name in _TIMED:
        m[f"{name}.self_s"] = own[name]
    for name in _COUNTED_CALLS:
        m[f"{name}.calls"] = calls[name]
    for name, key in _WORK:
        m[f"{name}.{key}"] = work[(name, key)]
    m["equilibrium.verify_equilibrium.cost_curve_calls"] = verify_curves
    m["fluid.PiecewisePath.constructions"] = sum(doc["constructions"].values())

    walls = trace_walls(spans, selfs)
    m["fluid.reflect.useful_ratio"] = _ratio(
        sum(len(keys) for keys in reflect_keys.values()), sum(reflect_calls.values())
    )
    for command in REFLECTING_COMMANDS:
        traces = [t for t, (cmd, _, _) in walls.items() if cmd == command]
        m[f"fluid.reflect.useful_ratio.{command}"] = _ratio(
            sum(len(reflect_keys[t]) for t in traces), sum(reflect_calls[t] for t in traces)
        )
    m["sim.sample_arrivals.calls_per_replication"] = _ratio(
        calls["sim.sample_arrivals"], len(replications)
    )
    m["sim.sample_arrivals.peak_alloc_mb"] = doc["sampler_peak_alloc_bytes"] / MIB
    m["sim.sample_arrivals.routing_matrix_mb"] = routing_bytes / MIB

    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = own[f"cli.{command}"]
        traced = sum(wall for cmd, wall, _ in walls.values() if cmd == command)
        net = untraced_net_s.get(command, 0.0)
        m[f"trace.overhead_frac.{command}"] = traced / net - 1.0 if traced and net > 0 else 0.0
    return m

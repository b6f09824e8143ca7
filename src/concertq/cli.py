"""Command-line front door.

Thin adapters over the library: each command parses a scenario, runs one
library operation, writes JSON/CSV artifacts with 17-significant-digit
numbers, and prints a one-line summary.  Exit codes: 0 success, 1 domain or
hypothesis error, 2 I/O or parse error.  All randomness flows from --seed.

Times in emitted artifacts are in the scenario's original coordinates (the
ingestion shift by the earliest opening time is undone on output).

Each command imports the computation modules it runs, numpy included,
inside its handler, so a process compiles and runs only those (README,
"Start-up"): parsing, --help, usage errors and serve-count load no numpy.
A library warning is shown as one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from itertools import count
from pathlib import Path

from .model import DomainError, ParseError, optimal_serve_count, parse_scenario, pruned_scenario
from .serialize import fmt, to_json, write_csv

# largest eq-two trace: 2**16 points, about 70 MB peak RSS at the cap
MAX_TRACE_POINTS = 1 << 16
# largest simulate grid: 2**16 points (its memory at the cap: --help)
MAX_SIM_GRID_POINTS = 1 << 16


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def _load_scenario(args):
    """The scenario at ``args.scenario`` with the command's --seed, --tol and
    --grid-step overrides applied to (and validated by) its options."""
    s = parse_scenario(_read(args.scenario, "scenario"))
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "tol", "grid_step")
        if getattr(args, name, None) is not None
    }
    return replace(s, options=replace(s.options, **overrides))


def _load_pruned(args):
    """``_load_scenario`` without the queues that never open, each noted on stderr."""
    s, report = pruned_scenario(_load_scenario(args))
    for msg in report.messages:
        print(f"note: {msg}", file=sys.stderr)
    return s


@contextmanager
def _opened(path: str | None):
    """A text stream to ``path``, or stdout when it is None.  A file that an
    error interrupts is removed, so a failed command leaves no partial
    artifact."""
    if path is None:
        yield sys.stdout
        return
    f = open(path, "w", encoding="utf-8")
    try:
        with f:
            yield f
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write(path: str | None, text: str) -> None:
    with _opened(path) as out:
        out.write(text)


def _summary(args, text: str) -> None:
    """One-line summary: stderr when the artifact itself goes to stdout."""
    print(text, file=sys.stderr if args.out is None else sys.stdout)


def _cmd_eq(args, multi: bool) -> int:
    from . import equilibrium

    s = _load_pruned(args)
    eq = equilibrium.solve_multi(s) if multi else equilibrium.solve_single(s)
    origin = s.time_origin
    profile_csv = eq.profile.shifted(origin).to_csv()
    if args.format == "csv":
        _write(args.out, profile_csv)
    else:
        payload = eq.to_dict(time_origin=origin)
        payload["profile_csv"] = profile_csv
        _write(args.out, to_json(payload))
    costs = ", ".join(
        f"c[{p}]={fmt(c)}" for p, c in sorted(eq.equilibrium_costs.items())
    )
    _summary(args, f"terminal_time={fmt(eq.terminal_time + origin)}, {costs}")
    return 0


def _load_profile(path: str, s):
    """The profile CSV at ``path`` in the scenario's shifted time, refused if
    it routes mass to a queue the scenario does not have."""
    from . import fluid
    profile = fluid.ArrivalProfile.from_csv(_read(path, "profile")).shifted(-s.time_origin)
    profile.require_queues(s.queues)
    return profile


def _cmd_verify(args) -> int:
    from . import equilibrium

    s = _load_scenario(args)
    profile = _load_profile(args.profile, s)
    report = equilibrium.verify_equilibrium(s, profile)
    _write(args.out, to_json(report.to_dict(time_origin=s.time_origin)))

    def where(witness) -> str:
        pop, queue, t = witness
        return f"({pop}, {queue}, {fmt(t + s.time_origin)})"

    _summary(args, f"is_equilibrium={str(report.is_equilibrium).lower()}, "
                   f"worst_support_deviation_at={where(report.worst_support_deviation_at)}, "
                   f"min_off_support_gap_at={where(report.min_off_support_gap_at)}")
    return 0


def _cmd_poa(args) -> int:
    from . import poa

    s = _load_pruned(args)
    report = poa.poa_multi(s)
    _write(args.out, to_json(report.to_dict(time_origin=s.time_origin)))
    _summary(args, report.summary_line())
    return 0


def _cmd_serve_count(args) -> int:
    result = optimal_serve_count(args.l, args.mu, args.tau, args.k_max)
    _write(args.out, to_json(result.to_dict()))
    _summary(args, f"k_star={result.k_star}, tie={str(result.tie).lower()}")
    return 0


def _cmd_eq_two(args) -> int:
    import numpy as np
    from . import exact_two

    if not 1 <= args.trace_points <= MAX_TRACE_POINTS:
        raise DomainError(
            f"--trace-points must be between 1 and {MAX_TRACE_POINTS}, got {args.trace_points}"
        )
    eq = exact_two.solve_two_user(args.mu1, args.mu2, args.alpha, args.beta)
    diags = exact_two.two_user_diagnostics(eq, ode_dt=args.ode_dt)
    payload = eq.to_dict()
    payload["diagnostics"] = diags.to_dict()
    _write(args.out, to_json(payload))
    if args.trace:
        ts = np.linspace(eq.t_first, eq.t_last, args.trace_points)
        occupied = np.column_stack((eq.queue_occupied_prob(1, ts), eq.queue_occupied_prob(2, ts)))
        columns = [ts, eq.density(ts), eq.routing(1, ts), *occupied.T, eq.expected_cost(occupied, ts)[:, 0]]
        with _opened(args.trace) as out:
            write_csv(out, ["t", "f", "p1", "P11", "P21", "cost"], columns)
    _summary(
        args,
        f"t_first={fmt(eq.t_first)}, t_last={fmt(eq.t_last)}, cost={fmt(eq.cost)}, "
        f"normalization_residual={fmt(diags.normalization_residual)}",
    )
    return 0


def _cmd_fluid(args) -> int:
    import numpy as np
    from . import fluid

    if args.profile:
        s = _load_scenario(args)
        profile = _load_profile(args.profile, s)
    else:
        from . import equilibrium

        s = _load_pruned(args)
        profile = equilibrium.solve_multi(s).profile
    origin = s.time_origin
    horizon = fluid.default_horizon(profile, s.queues)
    table = fluid.fluid_table(profile, s.queues, horizon)
    # the cumulative arrivals are F_k refined with the horizon's ends: the
    # netflow's breakpoints but the openings that are neither
    refined = table.refined
    net, rest = fluid.row_of(table.netflow_bounds), fluid.row_of(table.bounds)
    names, of_queue, times, values = zip(
        ("cumulative_arrivals", net[refined], table.netflow_times[refined], table.arrivals[refined]),
        ("netflow", net, table.netflow_times, table.netflow_values),
        ("queue_length", rest, table.times, table.queue_length),
        ("busy_time", rest, table.times, table.busy),
        ("virtual_wait", rest, table.times, table.wait),
    )
    of_name = np.repeat(np.arange(len(names)), [rows.size for rows in of_queue])
    of_queue = np.concatenate(of_queue)
    # queue by queue, process by process: a stable sort keeps each path's order
    order = np.lexsort((of_name, of_queue))
    columns = [
        np.array([q.id for q in s.queues])[of_queue[order]],
        np.array(names, dtype=object)[of_name[order]],  # shared strings, not one per row
        np.concatenate(times)[order] + origin,
        np.concatenate(values)[order],
    ]
    with _opened(args.out) as out:
        write_csv(out, ["queue", "process", "t", "value"], columns)
    _summary(args, f"queues={s.n_queues}, window=[{fmt(horizon[0] + origin)}, {fmt(horizon[1] + origin)}]")
    return 0


def _cmd_simulate(args) -> int:
    import numpy as np
    from . import equilibrium, sim

    if not 2 <= args.grid_points <= MAX_SIM_GRID_POINTS:
        raise DomainError(
            f"--grid-points must be between 2 and {MAX_SIM_GRID_POINTS}, got {args.grid_points}"
        )
    s = _load_pruned(args)
    profile = equilibrium.solve_multi(s).profile
    grid = sim.default_grid(profile, s, points=args.grid_points)
    cfg = sim.SimConfig(
        n=args.n,
        seed=s.options.seed,
        service_dist=args.service,
        grid=grid,
        replications=args.reps,
    )

    # one row per (replication, queue, grid point), in that nesting order;
    # each replication's table is written, in row blocks, and dropped before
    # the next replication runs
    ids = [q.id for q in s.queues]
    t, queue = np.tile(grid + s.time_origin, len(ids)), np.repeat(ids, grid.size)
    header = ["rep", "t", "queue", "A_scaled", "Q_scaled", "B", "W"]
    with _opened(args.out) as out:
        def written(rep, run):
            values = run.scaled.reshape(len(sim.PROCESSES), -1)
            write_csv(out, header, [np.full(t.size, rep), t, queue, *values], with_header=rep == 0)
            return run

        runs = map(written, count(), sim.replications(s, profile, cfg))
        report = sim.convergence_report(s, profile, cfg, runs=runs)
    if args.out:
        summary_path = str(Path(args.out).with_suffix(".summary.json"))
        _write(summary_path, to_json(report.to_dict(time_origin=s.time_origin)))
    worst = max(p.mean for p in report.processes.values())
    _summary(
        args,
        f"n={cfg.n}, reps={cfg.replications}, "
        f"mean_sup_error_queue_length={fmt(report.processes['queue_length'].mean)}, "
        f"worst_process_mean={fmt(worst)}",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concertq",
        description=(
            "Equilibrium arrival profiles, price of anarchy, fluid paths and "
            "Monte Carlo simulation for strategic arrivals into parallel queues."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="artifact path (default stdout)")

    for kind, multi in (("single", False), ("multi", True)):
        p = sub.add_parser(f"eq-{kind}", help=f"{kind}-population equilibrium")
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(fn=lambda a, multi=multi: _cmd_eq(a, multi))

    p = sub.add_parser("verify", help="best-response check of a profile CSV")
    common(p)
    p.add_argument("--profile", required=True, help="profile CSV path")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("poa", help="price of anarchy report")
    common(p)
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.set_defaults(fn=_cmd_poa)

    p = sub.add_parser("serve-count", help="optimal integer serve count")
    common(p, scenario=False)
    p.add_argument("--l", type=float, required=True, help="population index")
    p.add_argument("--mu", type=float, required=True, help="per-queue service rate")
    p.add_argument("--tau", type=float, required=True, help="opening spacing")
    p.add_argument("--k-max", type=int, default=64, help="largest count searched")
    p.set_defaults(fn=_cmd_serve_count)

    p = sub.add_parser("eq-two", help="exact two-user, two-queue game")
    common(p, scenario=False)
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--mu2", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--ode-dt", type=float, default=1e-4)
    p.add_argument("--trace", default=None, help="CSV trace path")
    p.add_argument("--trace-points", type=int, default=512)
    p.set_defaults(fn=_cmd_eq_two)

    p = sub.add_parser("fluid", help="exact fluid paths for a profile")
    common(p)
    p.add_argument("--profile", default=None, help="profile CSV path (default: solve)")
    p.set_defaults(fn=_cmd_fluid)

    p = sub.add_parser("simulate", help="Monte Carlo convergence run")
    common(p)
    p.add_argument("--n", type=int, required=True,
                   help="number of users: about 32 bytes of peak memory each, at any --reps; "
                        "an n past the machine's memory exits 1 with one error line")
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--reps", type=int, default=1, help="replications")
    p.add_argument("--service", choices=("exponential", "deterministic"), default="exponential")
    p.add_argument("--grid-points", type=int, default=512,
                   help="grid points, 2 to 2**16: at the cap about 54 MB peak RSS on two queues, "
                        "6 MB more per further queue and under 1 MB per queue per replication")
    p.set_defaults(fn=_cmd_simulate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # how warnings are shown, not which: the caller's filters still apply
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

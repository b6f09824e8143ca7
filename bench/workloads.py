"""Workloads of the concertq benchmark: scenario documents, command
sequences and output checks.

A workload is the command sequence a researcher runs one command after
another, each reading the artifact the previous one wrote.  Argument
strings may hold ``{work}`` (the directory holding the scenario and every
artifact) and ``{seed}`` (the workload seed, which reaches the program only
as the simulator's ``--seed``).  Scenario documents are closed-form and
seed-free.

Stdlib only: run.py imports this module without numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Seed whose artifact digests are recorded in digests.json.  A claimed
# speed-up must also hold under HOLDOUT_SEED, a seed not used while the
# change was written.
DEFAULT_SEED = 0
HOLDOUT_SEED = 7919

# verify / poa / eq-two pins, from the paper's worked case and the test suite
WORKED_PAIR_ETA = 12.0 / 7.0
WORKED_PAIR_TERMINAL = 0.75
TWO_USER_NORMALIZATION_RESIDUAL = 1.0  # known defect of the closed form
TWO_USER_COST_FLATNESS = 1.3181072142209871e-05
TWO_USER_PIN_TOL = 1e-6
SERVE_COUNT_K_STAR = 12


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``label`` names the step in digests and reports; ``outputs`` are the
    artifact file names it writes under ``{work}``; ``seeded`` marks
    artifacts that depend on the workload seed, whose digests are only known
    for DEFAULT_SEED.
    """

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    seeded: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def args(self, work: Path, seed: int) -> list[str]:
        return [a.format(work=work, seed=seed) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict
    steps: tuple[Step, ...]
    expect: dict = field(default_factory=dict)

    def write_inputs(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        (work / "scenario.json").write_text(json.dumps(self.scenario), encoding="utf-8")


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """numpy.linspace(lo, hi, num) in plain Python (same float operations)."""
    step = (hi - lo) / (num - 1)
    return [lo + i * step for i in range(num - 1)] + [hi]


def wide_scenario() -> dict:
    """126 unit-rate queues opening every 0.0025 and 20 unit-mass
    populations with beta = 1 and gamma = linspace(0.1, 0.9, 20); the
    terminal time 0.3150 lies past the last opening, so no queue is pruned."""
    gammas = _linspace(0.1, 0.9, 20)
    return {
        "queues": [{"mu": 1.0, "t_start": 0.0025 * k} for k in range(126)],
        "populations": [
            {"alpha": g / (1.0 - g), "beta": 1.0, "mass": 1.0} for g in gammas
        ],
    }


def worked_pair_scenario() -> dict:
    """The paper's worked case: mu = (1, 1), openings (0, 0.5), alpha = beta = 1."""
    return {
        "queues": [{"mu": 1.0, "t_start": 0.0}, {"mu": 1.0, "t_start": 0.5}],
        "populations": [{"alpha": 1.0, "beta": 1.0}],
    }


_SCN = "{work}/scenario.json"
_CSV = "{work}/eq.csv"

VERIFY = Step("verify", ("verify", "--scenario", _SCN, "--profile", _CSV,
                         "--out", "{work}/verify.json"), ("verify.json",))
POA = Step("poa", ("poa", "--scenario", _SCN, "--out", "{work}/poa.json"), ("poa.json",))
FLUID = Step("fluid", ("fluid", "--scenario", _SCN, "--profile", _CSV,
                       "--out", "{work}/fluid.csv"), ("fluid.csv",))
EQ_MULTI_CSV = Step("eq-multi-csv", ("eq-multi", "--scenario", _SCN, "--format", "csv",
                                     "--out", _CSV), ("eq.csv",))


def _simulate(n: int, reps: int) -> Step:
    return Step(
        "simulate",
        ("simulate", "--scenario", _SCN, "--n", str(n), "--reps", str(reps),
         "--seed", "{seed}", "--out", "{work}/sim.csv"),
        ("sim.csv", "sim.summary.json"),
        seeded=True,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wide-analytic",
            "K=126, N=20: the fluid kernel, verifier and social-cost integrals do "
            "nearly all the work; sampler, DES and Euler loop never run",
            wide_scenario(),
            (
                Step("eq-multi", ("eq-multi", "--scenario", _SCN, "--out", "{work}/eq.json"),
                     ("eq.json",)),
                EQ_MULTI_CSV,
                VERIFY,
                POA,
                FLUID,
            ),
        ),
        Workload(
            "wide-montecarlo",
            "same K=126, N=20 scenario simulated at n=2e5: cost is routing across "
            "many queues (n x K sampler matrices), fluid reference and CSV rows",
            wide_scenario(),
            (EQ_MULTI_CSV, _simulate(200_000, 1)),
        ),
        Workload(
            "worked-pair",
            "the paper's two-queue case through every command on small inputs: "
            "n=1e6 sampler and DES, two-user Euler loop; control for fluid changes",
            worked_pair_scenario(),
            (
                Step("eq-single-csv", ("eq-single", "--scenario", _SCN, "--format", "csv",
                                       "--out", _CSV), ("eq.csv",)),
                VERIFY,
                POA,
                FLUID,
                _simulate(1_000_000, 2),
                Step("eq-two", ("eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1",
                                "--beta", "1", "--trace", "{work}/two.csv",
                                "--out", "{work}/two.json"), ("two.json", "two.csv")),
                Step("serve-count", ("serve-count", "--l", "7", "--mu", "1", "--tau", "0.1",
                                     "--out", "{work}/serve.json"), ("serve.json",)),
            ),
            expect={"eta": WORKED_PAIR_ETA, "terminal_time": WORKED_PAIR_TERMINAL},
        ),
    )
}


# -- output checks ------------------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _routed_mass_by_queue(profile_csv: Path) -> dict[int, float]:
    out: dict[int, float] = {}
    for row in profile_csv.read_text(encoding="utf-8").splitlines()[1:]:
        _, queue, a, b, density = row.split(",")
        out[int(queue)] = out.get(int(queue), 0.0) + float(density) * (float(b) - float(a))
    return out


def check_step(workload: Workload, step: Step, work: Path) -> list[str]:
    """Invariants of one step's artifacts; an empty list means it passed."""
    problems: list[str] = []
    cmd = step.command
    if cmd == "verify":
        doc = json.loads((work / "verify.json").read_text(encoding="utf-8"))
        if doc["is_equilibrium"] is not True:
            problems.append("verify: solver profile is not an equilibrium")
    elif cmd == "poa":
        doc = json.loads((work / "poa.json").read_text(encoding="utf-8"))
        details = doc["details"]
        ref = details.get("j_eq_integral_check", details.get("j_eq_closed_form"))
        if ref is None or not _close(doc["j_eq"], ref, 1e-9):
            problems.append(f"poa: j_eq {doc['j_eq']!r} disagrees with its check {ref!r}")
        if "eta" in workload.expect and not _close(doc["eta"], workload.expect["eta"], 1e-12):
            problems.append(f"poa: eta {doc['eta']!r} != {workload.expect['eta']!r}")
        terminal = workload.expect.get("terminal_time")
        if terminal is not None and not _close(details["terminal_time"], terminal, 1e-12):
            problems.append(f"poa: terminal_time {details['terminal_time']!r} != {terminal!r}")
    elif cmd == "fluid":
        final: dict[int, float] = {}
        lines = (work / "fluid.csv").read_text(encoding="utf-8").splitlines()[1:]
        for row in lines:
            queue, process, _, value = row.split(",")
            if process == "queue_length" and float(value) < 0.0:
                problems.append(f"fluid: negative queue length at queue {queue}")
                break
            if process == "cumulative_arrivals":
                final[int(queue)] = float(value)
        for queue, mass in _routed_mass_by_queue(work / "eq.csv").items():
            if not _close(final.get(queue, math.nan), mass, 1e-9):
                problems.append(
                    f"fluid: queue {queue} ends at {final.get(queue)!r} arrivals, routed {mass!r}"
                )
                break
    elif cmd == "simulate":
        doc = json.loads((work / "sim.summary.json").read_text(encoding="utf-8"))
        for name, errs in doc["processes"].items():
            values = [errs["mean"], errs["max"], *errs["per_replication"]]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"simulate: non-finite sup error for {name}")
    elif cmd == "eq-two":
        diags = json.loads((work / "two.json").read_text(encoding="utf-8"))["diagnostics"]
        # the residual is a known defect of the closed form: reported, never hidden
        if abs(diags["normalization_residual"] - TWO_USER_NORMALIZATION_RESIDUAL) > TWO_USER_PIN_TOL:
            problems.append(f"eq-two: normalization_residual {diags['normalization_residual']!r}")
        if abs(diags["cost_flatness"] - TWO_USER_COST_FLATNESS) > TWO_USER_PIN_TOL:
            problems.append(f"eq-two: cost_flatness {diags['cost_flatness']!r}")
    elif cmd == "serve-count":
        doc = json.loads((work / "serve.json").read_text(encoding="utf-8"))
        if doc["k_star"] != SERVE_COUNT_K_STAR:
            problems.append(f"serve-count: k_star {doc['k_star']!r} != {SERVE_COUNT_K_STAR}")
    return problems

"""Strategic arrivals into parallel FIFO queues: exact fluid objects,
closed-form equilibria, price of anarchy, and a Monte Carlo simulator.

``import concertq`` loads only ``model`` and ``fluid`` (and numpy), the types
every command reads.  The modules ``equilibrium``, ``poa``, ``sim`` and
``exact_two`` and their names are served on first access (PEP 562):
``concertq.solve_multi`` imports ``concertq.equilibrium`` and returns its
attribute, so a command pays only for the modules it runs.  Every name is
looked up in its module on each access, so ``concertq.X is
concertq.<module>.X`` holds even after a test patches the module.
"""

import importlib

from .fluid import (
    ArrivalProfile,
    PiecewisePath,
    Segment,
    cost_curve,
    fluid_busy,
    fluid_queue,
    fluid_regulator,
    fluid_wait,
    netflow,
    reflect,
)
from .model import (
    DomainError,
    Options,
    ParseError,
    PopulationSpec,
    QueueSpec,
    Scenario,
    ValidationReport,
    gamma_of,
    parse_scenario,
    pruned_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

__version__ = "0.1.0"

_LAZY = {
    "equilibrium": (
        "EquilibriumProfile", "SolverError", "VerificationReport", "solve_multi",
        "solve_single", "verify_equilibrium",
    ),
    "exact_two": (
        "QueuePairState", "TwoUserDiagnostics", "TwoUserEquilibrium",
        "expected_queue_ode_step", "solve_two_user", "two_user_diagnostics",
    ),
    "poa": (
        "PoaReport", "ServeSetResult", "equal_rate_multi_eta", "optimal_profile",
        "optimal_serve_count", "poa_closed_form", "poa_equal_rate_case", "poa_multi",
        "poa_single", "serve_epoch", "social_cost",
    ),
    "sim": (
        "ConvergenceReport", "SimConfig", "SimPaths", "convergence_report",
        "convergence_study", "default_grid", "run_des", "sample_arrivals", "scaled_paths",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    "ArrivalProfile", "PiecewisePath", "Segment", "cost_curve", "fluid_busy", "fluid_queue",
    "fluid_regulator", "fluid_wait", "netflow", "reflect",
    "DomainError", "Options", "ParseError", "PopulationSpec", "QueueSpec", "Scenario",
    "ValidationReport", "gamma_of", "parse_scenario", "pruned_scenario",
    "scenario_from_dict", "scenario_to_dict", "validate_scenario",
    *_MODULE_OF,
])


def __getattr__(name):
    if name in _LAZY:  # ``concertq.sim`` works without ``import concertq.sim``
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})

"""The benchmark workloads' artifacts are byte-identical to the sha256
recorded in ``bench/digests.json``.

Scenarios and command lines come from ``bench/workloads.py``, imported
read-only; the commands run in-process through ``cli.main``.  Every
analytic artifact is checked, and so are both workloads' seeded
``simulate`` artifacts at the default seed: ``wide-montecarlo`` (n=2e5
users on K=126 queues) and ``worked-pair`` (n=1e6 users on two queues, two
replications), each about half a second, so a change to the sampler's or
the DES's stream fails this suite.  The equilibrium commands, ``eq-two``
(with its trace) and ``serve-count`` also run in child interpreters,
``python -m concertq`` as the benchmark runs them, which must write the
same artifacts without loading numpy or ``concertq.fluid``, and for
``eq-two`` and ``serve-count`` without ``concertq.model``.  So do
``verify``, ``poa`` and ``fluid``, each after the ``eq-* --format csv``
step that writes their profile, without loading numpy.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from concertq.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


def _checked_steps(workloads, name, work, commands):
    """Run the workload's steps whose command is in ``commands`` at the
    default seed, assert each artifact's recorded digest and return the
    labels of the steps checked."""
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[name]
    workload = workloads.WORKLOADS[name]
    workload.write_inputs(work)
    checked = set()
    for step in workload.steps:
        if step.command not in commands:
            continue
        assert main(step.args(work, workloads.DEFAULT_SEED)) == 0, step.label
        for output in step.outputs:
            key = f"{step.label}/{output}"
            digest = hashlib.sha256((work / output).read_bytes()).hexdigest()
            assert digest == recorded[key], key
        checked.add(step.label)
    return checked


_ANALYTIC = {"eq-single", "eq-multi", "verify", "poa", "fluid", "eq-two", "serve-count"}


@pytest.mark.parametrize("name", ["wide-analytic", "worked-pair"])
def test_analytic_artifacts_match_recorded_digests(workloads, name, tmp_path, capsys):
    checked = _checked_steps(workloads, name, tmp_path, _ANALYTIC)
    capsys.readouterr()
    expected = {
        "wide-analytic": {"eq-multi", "eq-multi-csv", "verify", "poa", "fluid"},
        "worked-pair": {"eq-single-csv", "verify", "poa", "fluid", "eq-two", "serve-count"},
    }[name]
    assert checked == expected


def test_wide_montecarlo_simulate_artifacts_match_recorded_digests(workloads, tmp_path, capsys):
    checked = _checked_steps(workloads, "wide-montecarlo", tmp_path, {"simulate"})
    capsys.readouterr()
    assert checked == {"simulate"}


def test_worked_pair_simulate_artifacts_match_recorded_digests(workloads, tmp_path, capsys):
    checked = _checked_steps(workloads, "worked-pair", tmp_path, {"simulate"})
    capsys.readouterr()
    assert checked == {"simulate"}


# the steps that load no numpy, each group run in one child, and the
# modules (numpy with its submodules) that the child must not load
_NUMPY_FREE = [
    ({"wide-analytic": ("eq-multi", "eq-multi-csv"), "worked-pair": ("eq-single-csv",)},
     ("numpy", "concertq.fluid")),
    ({"wide-analytic": ("eq-multi-csv", "verify", "poa", "fluid"),
      "worked-pair": ("eq-single-csv", "verify", "poa", "fluid")}, ("numpy",)),
    ({"worked-pair": ("eq-two",)}, ("numpy", "concertq.model", "concertq.fluid")),
    ({"worked-pair": ("serve-count",)}, ("numpy", "concertq.model")),
]


def test_eq_commands_run_without_numpy_and_match_recorded_digests(workloads, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    for steps, unloaded in _NUMPY_FREE:
        runs, outputs = [], []
        for name, labels in steps.items():
            workload, work = workloads.WORKLOADS[name], tmp_path / name
            workload.write_inputs(work)
            for step in workload.steps:
                if step.label in labels:
                    runs.append(step.args(work, workloads.DEFAULT_SEED))
                    outputs.extend((name, f"{step.label}/{output}", work / output) for output in step.outputs)
        assert len(runs) == sum(map(len, steps.values()))
        # python -m concertq, one command after another in one interpreter
        script = (
            "import runpy, sys\n"
            f"for argv in {runs!r}:\n"
            "    sys.argv = ['concertq', *argv]\n"
            "    try:\n"
            "        runpy.run_module('concertq', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (argv, exc.code)\n"
            f"print('loaded:', *(m for m in sys.modules if {{m, m.partition('.')[0]}} & {set(unloaded)!r}))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1].split() == ["loaded:"], runs
        for name, key, path in outputs:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[name][key], key

"""Every analytic artifact of the benchmark workloads is byte-identical to
the sha256 recorded in ``bench/digests.json``.

Scenarios and command lines come from ``bench/workloads.py``, imported
read-only; the commands run in-process through ``cli.main``.  ``simulate``
is left out: its artifacts are checked by the benchmark itself.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from concertq.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["wide-analytic", "worked-pair"])
def test_analytic_artifacts_match_recorded_digests(workloads, name, tmp_path, capsys):
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[name]
    workload = workloads.WORKLOADS[name]
    workload.write_inputs(tmp_path)
    checked = []
    for step in workload.steps:
        if step.command == "simulate":
            continue
        assert main(step.args(tmp_path, workloads.DEFAULT_SEED)) == 0, step.label
        for output in step.outputs:
            key = f"{step.label}/{output}"
            digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
            assert digest == recorded[key], key
            checked.append(key)
    capsys.readouterr()
    expected = {
        "wide-analytic": {"eq-multi", "eq-multi-csv", "verify", "poa", "fluid"},
        "worked-pair": {"eq-single-csv", "verify", "poa", "fluid", "eq-two", "serve-count"},
    }[name]
    assert {key.split("/")[0] for key in checked} == expected

"""The traced benchmark run wraps concertq names by string; a rename or
deletion must fail here rather than crash ``bench/run.py --trace 1``."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracer`` and ``workloads`` modules, freshly imported."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_resolves(bench):
    tracer, _ = bench
    assert tracer.SPANS
    for owner, attr, span, _ in tracer.SPANS:
        target = owner
        for part in attr.split("."):
            assert hasattr(target, part), f"{span}: {owner.__name__}.{attr} no longer exists"
            target = getattr(target, part)


def test_traced_simulate_sees_each_replication_once(bench, tmp_path):
    # the sampler and DES counters read the call shapes of convergence_report
    tracer, workloads = bench
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(workloads.worked_pair_scenario()), encoding="utf-8")
    owners = list(tracer.MODULES) + [
        getattr(owner, attr.split(".")[0]) for owner, attr, _, _ in tracer.SPANS if "." in attr
    ] + [tracer.fluid.PiecewisePath]
    before = [dict(vars(owner)) for owner in owners]

    patches, rec = tracer.Patches(), tracer.SpanRecorder()
    tracer.install(patches, rec)
    try:
        rc = tracer.cli.main(["simulate", "--scenario", str(scenario), "--n", "1000",
                              "--reps", "2", "--out", str(tmp_path / "sim.csv")])
    finally:
        patches.restore()

    assert rc == 0
    counts = {name: [span[5] for span in rec.spans if span[0] == name]
              for name in ("sim.sample_arrivals", "sim.run_des")}
    assert len(counts["sim.sample_arrivals"]) == 2
    assert {c["replication"] for c in counts["sim.sample_arrivals"]} == {0, 1}
    assert all(c["users"] == 1000 for c in counts["sim.sample_arrivals"])
    assert [c["events"] for c in counts["sim.run_des"]] == [2000, 2000]
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner

"""The traced benchmark run wraps concertq names by string; a rename or
deletion must fail here rather than crash ``bench/run.py --trace 1``."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    assert tracer.SPANS
    for owner, attr, span, _ in tracer.SPANS:
        target = owner
        for part in attr.split("."):
            assert hasattr(target, part), f"{span}: {owner.__name__}.{attr} no longer exists"
            target = getattr(target, part)

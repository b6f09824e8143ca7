"""concertq benchmark: CLI workloads timed end to end, with a traced run for
per-layer self times and counts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record]

Run from the root of a source checkout; every command runs as a subprocess
(``python -m concertq ...``) against that checkout's ``src/`` through
PYTHONPATH, never an installed copy.  The loop is closed with one client:
commands run one at a time, each reading the artifact the previous one
wrote.  Children get OMP/OPENBLAS/MKL_NUM_THREADS=1.  A fixed reference
program (bench/reference.py) runs before the first command of a pass and
after every command; each command's wall time over the geometric mean of the
reference times around it is that command's relative time, which cancels
most of the host's speed drift.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced in-process run (bench/tracer.py) next to the same untraced passes.
Every pass checks its artifacts: exit code, byte identity with the first
pass, the recorded sha256 digests (bench/digests.json; seeded simulator
artifacts only under DEFAULT_SEED) and the invariants in workloads.py.
``--record`` rewrites this workload's digests instead of checking them.

Stdlib only; the benchmark reads and writes only inside the checkout, and
its scratch directory ``.bench_work/`` is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import layers
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, Step, Workload, check_step

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
REFERENCE = BENCH / "reference.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 120.0
SETUP_SAMPLES_PER_PASS = 2
MIN_PASSES = 2
# reported names of the per-command wall times
COMMAND_METRICS = {
    "verify": "verify_s", "poa": "poa_s", "fluid": "fluid_s",
    "simulate": "simulate_s", "eq-two": "eq_two_s",
}


class Child:
    """Spawns processes in the commands' environment and reaps each one."""

    def __init__(self, log: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.log = log

    def run(self, argv: list[str], timeout: float = COMMAND_TIMEOUT_S) -> tuple[float, float, int]:
        """Wall seconds from spawn to exit, max RSS in MB (os.wait4 rusage)
        and exit code; a child killed at the timeout reports -9."""
        with open(self.log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


class Passes:
    """Untraced subprocess passes over a workload, with their checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, child: Child, recorded: dict | None):
        self.workload, self.seed, self.work, self.child = workload, seed, work, child
        self.recorded = recorded  # None while recording digests
        self.setup: list[float] = []
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.rels: dict[str, list[float]] = defaultdict(list)
        self.refs: list[float] = []
        self.pipelines: list[float] = []
        self.peaks: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.digests: dict[str, str] = {}

    def _check(self, step: Step, rc: int) -> list[str]:
        if rc != 0:
            return [f"{step.label}: exit code {rc}"]
        problems = []
        for name in step.outputs:
            path = self.work / name
            if not path.is_file():
                return [f"{step.label}: no artifact {name}"]
            key, digest = f"{step.label}/{name}", _sha256(path)
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(f"{key}: bytes differ from the first pass")
            check_recorded = self.recorded is not None and (not step.seeded or self.seed == DEFAULT_SEED)
            if check_recorded and self.recorded.get(key) != digest:
                problems.append(f"{key}: sha256 {digest[:12]} != recorded {str(self.recorded.get(key))[:12]}")
        try:
            return problems + check_step(self.workload, step, self.work)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return problems + [f"{step.label}: malformed artifact ({exc!r})"]

    def _reference(self) -> float:
        wall, _, rc = self.child.run([sys.executable, str(REFERENCE)])
        if rc != 0:
            raise RuntimeError(f"the reference program failed with exit code {rc}")
        self.refs.append(wall)
        return wall

    def run_pass(self) -> None:
        python = sys.executable
        for _ in range(SETUP_SAMPLES_PER_PASS):
            wall, _, rc = self.child.run([python, "-c", "import concertq"])
            if rc != 0:
                raise RuntimeError(f"importing concertq failed with exit code {rc}")
            self.setup.append(wall)
        total = peak = 0.0
        before = self._reference()
        for step in self.workload.steps:
            wall, rss_mb, rc = self.child.run([python, "-m", "concertq", *step.args(self.work, self.seed)])
            after = self._reference()
            self.attempted += 1
            total += wall
            peak = max(peak, rss_mb)
            self.walls[step.label].append(wall)
            self.rels[step.label].append(wall / math.sqrt(before * after))
            before = after
            problems = self._check(step, rc)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        self.pipelines.append(total)
        self.peaks.append(peak)

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        last = 0.0
        while len(self.pipelines) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            self.run_pass()
            last = time.perf_counter() - began

    def pipeline_rel(self) -> float:
        """Sum over the workload's steps of each step's median relative time."""
        return sum(_median(self.rels[step.label]) for step in self.workload.steps)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": _median(self.setup),
            "pipeline_rel": self.pipeline_rel(),
            "peak_rss_mb": _median(self.peaks),
        }


def traced_run(passes: Passes, work: Path) -> tuple[dict[str, float], dict[str, list[str]]]:
    """Per-layer metrics of one traced in-process run, and the problems
    found in it keyed by step label."""
    out = work / "trace.json"
    steps = passes.workload.steps
    _, _, rc = passes.child.run(
        [sys.executable, str(BENCH / "tracer.py"), passes.workload.name, str(passes.seed),
         str(work / "traced"), str(out)],
        timeout=TRACE_TIMEOUT_S,
    )
    if rc != 0:
        return {}, {step.label: [f"traced run: exit code {rc}"] for step in steps}
    doc = json.loads(out.read_text(encoding="utf-8"))
    problems: dict[str, list[str]] = defaultdict(list)
    for c in doc["commands"]:
        if c["rc"] != 0:
            problems[c["label"]].append(f"traced {c['label']}: exit code {c['rc']}")
    for key, digest in doc["digests"].items():
        if passes.digests.get(key) != digest:
            problems[key.split("/")[0]].append(f"traced {key}: bytes differ from the untraced run")
    selfs = layers.self_times(doc["spans"])
    for trace, (_, wall, self_sum) in layers.trace_walls(doc["spans"], selfs).items():
        if abs(self_sum - wall) > 1e-9 * max(1.0, wall):
            label = steps[trace].label
            problems[label].append(f"traced {label}: self times sum to {self_sum!r}, wall {wall!r}")

    setup = _median(passes.setup)
    net: dict[str, float] = defaultdict(float)
    for step in steps:
        net[step.command] += _median(passes.walls[step.label]) - setup
    return layers.derive(doc, net), problems


def metadata(child: Child, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except OSError:
            pass
    cpu, llc = "unknown", "unknown"
    try:  # kernel interfaces, read for the run record only
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), cpu)
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        if caches:
            llc = (caches[-1] / "size").read_text().strip()
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": subprocess.run(
            [sys.executable, "-c", "import concertq.cli, numpy; print(numpy.__version__)"],
            env=child.env, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
        ).stdout.strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_size": llc,
        "thread_env": {var: child.env[var] for var in THREAD_VARS},
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
    }


def report(passes: Passes, meta: dict, seconds: float) -> None:
    """Human-readable detail: every end-to-end metric with its sample count."""
    print(f"# workload {passes.workload.name}: {len(passes.pipelines)} passes in a {seconds:g} s budget")
    print("# run " + json.dumps(meta, sort_keys=True))
    rows = [("setup_s", "s", passes.setup), ("reference_s", "s", passes.refs)]
    for step in passes.workload.steps:
        name = COMMAND_METRICS.get(step.label)
        if name:
            rows.append((name, "s", passes.walls[step.label]))
            rows.append((name[:-2] + "_rel", "ratio", passes.rels[step.label]))
    rows += [("pipeline_s", "s", passes.pipelines), ("peak_rss_mb", "MB", passes.peaks)]
    for name, unit, values in rows:
        high = _high_percentile(values)
        extra = f", p{high[0]} {high[1]:.6f}" if high else ""
        print(f"# {name:<12} median {_median(values):.6f} {unit} (n={len(values)}{extra})")
    print(f"# pipeline_rel {passes.pipeline_rel():.6f} ratio (sum of the step medians of "
          f"{len(passes.pipelines)} passes)")
    print("# samples " + json.dumps({name: [round(v, 6) for v in values] for name, _, values in rows}))
    print(f"# failed_frac  {passes.failed / passes.attempted:.6f} ratio "
          f"({passes.failed} of {passes.attempted} operations)")
    for problem in passes.problems[:20]:
        print(f"# FAILED {problem}")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite this workload's digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "concertq" / "cli.py").is_file():
        print(f"error: no concertq source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _declared("per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload]
    all_recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    recorded = None if args.record else all_recorded.get(workload.name, {})

    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded under seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        workload.write_inputs(work)
        child = Child(work / "children.log")
        meta = metadata(child, args.seed)  # also compiles concertq's bytecode before timing
        passes = Passes(workload, args.seed, work, child, recorded)
        passes.run_for(args.seconds)
        if args.trace:
            values, problems = traced_run(passes, work)
            passes.attempted += len(workload.steps)
            passes.failed += len(problems)
            passes.problems += [p for label in problems for p in problems[label]]
        else:
            values = passes.end_to_end()
        report(passes, meta, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if passes.failed == 0 and set(values) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}",
              file=sys.stderr)
        return 3
    if args.record:
        if passes.failed:
            print("error: not recording digests of a failing run", file=sys.stderr)
            return 1
        all_recorded[workload.name] = dict(sorted(passes.digests.items()))
        DIGESTS.write_text(json.dumps(all_recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

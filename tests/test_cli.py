import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import concertq as cq
from concertq import sim
from concertq.cli import main
from concertq.serialize import to_json


@pytest.fixture()
def scenarios(tmp_path):
    two = tmp_path / "two_queues.json"
    two.write_text(
        '{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],'
        '"populations":[{"alpha":1,"beta":1}],"options":{"seed":42}}'
    )
    one = tmp_path / "single_queue.json"
    one.write_text(
        '{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}'
    )
    multi = tmp_path / "multi.json"
    multi.write_text(
        '{"queues":[{"mu":1,"t_start":0}],'
        '"populations":[{"alpha":1,"beta":3},{"alpha":1,"beta":1}]}'
    )
    return {"two": two, "one": one, "multi": multi, "dir": tmp_path}


def test_eq_single_json(scenarios, capsys):
    out = scenarios["dir"] / "eq.json"
    code = main(["eq-single", "--scenario", str(scenarios["two"]), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["terminal_time"] == 0.75
    assert payload["first_arrivals"] == {"1": -0.75, "2": 0.25}
    assert "terminal_time=0.75" in capsys.readouterr().out


def test_eq_single_csv_round_trips(scenarios):
    out = scenarios["dir"] / "profile.csv"
    assert main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(out)]) == 0
    profile = cq.ArrivalProfile.from_csv(out.read_text())
    assert profile.total_mass == pytest.approx(1.0, abs=1e-12)


def test_verify_solver_output_and_perturbation(scenarios, capsys):
    d = scenarios["dir"]
    profile_path = d / "profile.csv"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(profile_path)])
    out = d / "verify.json"
    code = main([
        "verify", "--scenario", str(scenarios["two"]),
        "--profile", str(profile_path), "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["is_equilibrium"] is True
    assert "is_equilibrium=true" in capsys.readouterr().out

    # perturbed copy: same masses, tilted density
    profile = cq.ArrivalProfile.from_csv(profile_path.read_text())
    segs = []
    for g in profile.segments:
        mid = 0.5 * (g.start + g.end)
        segs.append(cq.Segment(g.population, g.queue, g.start, mid, g.density * 1.02))
        segs.append(cq.Segment(g.population, g.queue, mid, g.end, g.density * 0.98))
    bad_path = d / "bad_profile.csv"
    bad_path.write_text(cq.ArrivalProfile(tuple(segs)).to_csv())
    code = main([
        "verify", "--scenario", str(scenarios["two"]),
        "--profile", str(bad_path), "--out", str(d / "verify_bad.json"),
    ])
    assert code == 0
    assert json.loads((d / "verify_bad.json").read_text())["is_equilibrium"] is False


def test_verify_and_poa_times_are_in_original_coordinates(tmp_path):
    # a shift of 4.0 is exact for every time of the worked pair: the verify
    # window and the poa terminal time move by exactly 4.0, nothing else moves
    # (costs stay measured from the earliest opening)
    artifacts = []
    for shift in (0.0, 4.0):
        d = tmp_path / f"shift{shift}"
        d.mkdir()
        scenario = d / "two.json"
        queues = [{"mu": 1, "t_start": shift}, {"mu": 1, "t_start": 0.5 + shift}]
        scenario.write_text(json.dumps({"queues": queues, "populations": [{"alpha": 1, "beta": 1}]}))
        profile = d / "profile.csv"
        assert main(["eq-single", "--scenario", str(scenario), "--format", "csv", "--out", str(profile)]) == 0
        assert main(["verify", "--scenario", str(scenario), "--profile", str(profile), "--out", str(d / "v.json")]) == 0
        assert main(["poa", "--scenario", str(scenario), "--out", str(d / "poa.json")]) == 0
        artifacts.append([json.loads((d / name).read_text()) for name in ("v.json", "poa.json")])
    (verify, poa), (verify4, poa4) = artifacts
    assert verify4["window"] == [t + 4.0 for t in verify["window"]]
    assert poa4["details"]["terminal_time"] == poa["details"]["terminal_time"] + 4.0
    verify4["window"], poa4["details"]["terminal_time"] = verify["window"], poa["details"]["terminal_time"]
    assert verify4 == verify and poa4 == poa


@pytest.mark.parametrize("shift, t_deviation, t_gap", [
    (0.0, "0.75", "0.75007500000000005"), (4.0, "4.75", "4.7500749999999998"),
])
def test_verify_summary_names_both_witnesses(tmp_path, capsys, shift, t_deviation, t_gap):
    # the worked pair with queue 1's density raised by 1e-4: the library's
    # witnesses (1, 1, 0.75) and (1, 1, 0.750075), t back in the scenario's
    # own time; the summary is the only new output, and it goes to stdout
    scenario = tmp_path / "two.json"
    queues = [{"mu": 1, "t_start": shift}, {"mu": 1, "t_start": 0.5 + shift}]
    scenario.write_text(json.dumps({"queues": queues, "populations": [{"alpha": 1, "beta": 1}]}))
    profile = tmp_path / "profile.csv"
    assert main(["eq-single", "--scenario", str(scenario), "--format", "csv", "--out", str(profile)]) == 0
    segs = cq.ArrivalProfile.from_csv(profile.read_text()).segments
    tilted = [cq.Segment(g.population, g.queue, g.start, g.end, g.density * (1 + 1e-4)) if g.queue == 1 else g
              for g in segs]
    profile.write_text(cq.ArrivalProfile(tuple(tilted)).to_csv())
    capsys.readouterr()
    assert main(["verify", "--scenario", str(scenario), "--profile", str(profile),
                 "--out", str(tmp_path / "verify.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (f"is_equilibrium=false, worst_support_deviation_at=(1, 1, {t_deviation}), "
                            f"min_off_support_gap_at=(1, 1, {t_gap})\n")
    assert captured.err == ""
    assert "worst_support_deviation_at" not in (tmp_path / "verify.json").read_text()


def test_poa_summary_line(scenarios, capsys):
    code = main(["poa", "--scenario", str(scenarios["one"]), "--out", str(scenarios["dir"] / "poa.json")])
    assert code == 0
    line = capsys.readouterr().out
    assert "eta=2" in line and "bound_ok=true" in line
    payload = json.loads((scenarios["dir"] / "poa.json").read_text())
    assert payload["eta"] == pytest.approx(2.0, abs=1e-12)


def test_eq_multi(scenarios):
    out = scenarios["dir"] / "multi.json"
    assert main(["eq-multi", "--scenario", str(scenarios["multi"]), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["arrival_epochs"] == [-4.0, 0.0, 2.0]


def test_serve_count_command(scenarios, capsys):
    out = scenarios["dir"] / "sc.json"
    assert main(["serve-count", "--l", "7", "--mu", "1", "--tau", "0.1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k_star"] == 12
    assert "k_star=12" in capsys.readouterr().out


def test_eq_two_with_trace(scenarios):
    d = scenarios["dir"]
    out, trace = d / "two.json", d / "trace.csv"
    code = main([
        "eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1",
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["t_first"] == pytest.approx(-(3 ** 0.5), abs=1e-12)
    assert payload["diagnostics"]["routing_sum_residual"] <= 1e-12
    header = trace.read_text().splitlines()[0]
    assert header == "t,f,p1,P11,P21,cost"


def test_fluid_command(scenarios):
    out = scenarios["dir"] / "fluid.csv"
    assert main(["fluid", "--scenario", str(scenarios["two"]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "queue,process,t,value"
    assert any(",queue_length," in ln for ln in lines[1:])


def test_simulate_writes_paths_and_summary(scenarios):
    d = scenarios["dir"]
    out = d / "paths.csv"
    code = main([
        "simulate", "--scenario", str(scenarios["two"]),
        "--n", "500", "--reps", "2", "--seed", "42", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == "rep,t,queue,A_scaled,Q_scaled,B,W"
    summary = json.loads((d / "paths.summary.json").read_text())
    assert summary["n"] == 500
    assert summary["replications"] == 2
    # ProcessErrors' field order is the key order of each process's entry
    assert list(summary["processes"]) == sorted(sim.PROCESSES)
    for entry in summary["processes"].values():
        assert list(entry) == ["mean", "max", "per_replication"]


def _recorded_csv_rows(monkeypatch) -> list[int]:
    """The row count of every serialize.csv_rows call from here on."""
    from concertq import serialize

    rows = []
    csv_rows = serialize.csv_rows

    def recording(header, columns):
        text = csv_rows(header, columns)
        rows.append(text.count("\n") - 1)
        return text

    monkeypatch.setattr(serialize, "csv_rows", recording)
    return rows


def _whole_sim_csv(path, n, seed, points, reps) -> str:
    """sim.csv as one csv_rows call over every replication's table."""
    from concertq.serialize import csv_rows

    s = cq.parse_scenario(path.read_text())
    profile = cq.solve_multi(s).profile
    grid = sim.default_grid(profile, s, points=points)
    runs = sim.replications(s, profile, sim.SimConfig(n=n, seed=seed, grid=grid, replications=reps))
    ids = [q.id for q in s.queues]
    columns = [
        np.repeat(np.arange(reps), len(ids) * grid.size),
        np.tile(grid + s.time_origin, reps * len(ids)),
        np.tile(np.repeat(ids, grid.size), reps),
        # each process's rows: replication by replication, queue by queue
        *np.concatenate([run.scaled for run in runs], axis=1).reshape(len(sim.PROCESSES), -1),
    ]
    return csv_rows(["rep", "t", "queue", "A_scaled", "Q_scaled", "B", "W"], columns)


def test_sim_csv_is_written_one_replication_at_a_time(scenarios, monkeypatch, capsys):
    # three replications: three csv_rows calls of one replication's rows
    # each, and the text of one call over all of them, to a file or stdout
    rows = _recorded_csv_rows(monkeypatch)
    argv = ["simulate", "--scenario", str(scenarios["two"]), "--n", "300", "--reps", "3",
            "--seed", "5", "--grid-points", "16"]
    out = scenarios["dir"] / "reps.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert rows == [2 * 16] * 3
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    assert out.read_text() == _whole_sim_csv(scenarios["two"], 300, 5, 16, 3)


def test_csv_artifacts_are_written_in_blocks_of_at_most_the_block_rows(scenarios, monkeypatch):
    from concertq import serialize

    d = scenarios["dir"]
    simulate = ["simulate", "--scenario", str(scenarios["two"]), "--n", "300", "--reps", "3",
                "--seed", "5", "--grid-points", "16"]
    fluid = ["fluid", "--scenario", str(scenarios["two"])]
    rows = _recorded_csv_rows(monkeypatch)
    assert main(fluid + ["--out", str(d / "fluid-whole.csv")]) == 0
    assert len(rows) == 1  # at the default block size, one csv_rows call
    wholes = [_whole_sim_csv(scenarios["two"], 300, 5, 16, 3), (d / "fluid-whole.csv").read_text()]

    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    for argv, whole in zip((simulate, fluid), wholes, strict=True):
        rows.clear()
        out = d / "blocks.csv"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text == whole
        assert text.count(whole.split("\n", 1)[0] + "\n") == 1  # the header, once
        assert max(rows) == 5 and sum(rows) == whole.count("\n") - 1


def test_fluid_refuses_a_non_finite_value_before_writing(scenarios, monkeypatch, capsys):
    # a non-finite t in the last block and a non-finite value in the first:
    # the t column's value is named, as one csv_rows call names it, and
    # nothing reaches stdout
    from concertq import fluid, serialize

    table = fluid.fluid_table

    def spoiled(*args, **kwargs):
        t = table(*args, **kwargs)
        times, arrivals = t.times.copy(), t.arrivals.copy()
        times[-1], arrivals[0] = np.inf, np.nan
        return t._replace(times=times, arrivals=arrivals)

    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    monkeypatch.setattr(fluid, "fluid_table", spoiled)
    capsys.readouterr()
    with pytest.raises(ValueError, match="non-finite number inf"):
        main(["fluid", "--scenario", str(scenarios["two"])])
    assert capsys.readouterr().out == ""


def test_eq_two_trace_refuses_a_non_finite_value_before_writing(tmp_path, monkeypatch):
    # a non-finite density (column 2) in a later block than a non-finite cost
    # (column 6): the density is named and no trace file is left
    from concertq import exact_two, serialize

    cls = exact_two.TwoUserEquilibrium
    density, expected_cost = cls.density, cls.expected_cost

    def spoil(method, row, value):
        def spoiled(self, *args):  # only at the trace's 23 points
            out = method(self, *args)
            if np.shape(out)[:1] == (23,):
                out = np.array(out, dtype=float)
                out[row] = value
            return out
        return spoiled

    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 5)
    monkeypatch.setattr(cls, "density", spoil(density, 12, -np.inf))
    monkeypatch.setattr(cls, "expected_cost", spoil(expected_cost, 1, np.nan))
    trace = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="non-finite number -inf"):
        main(["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1",
              "--trace-points", "23", "--trace", str(trace), "--out", str(tmp_path / "two.json")])
    assert not trace.exists()


def test_simulate_memory_does_not_grow_with_the_replications(scenarios):
    # each replication's (4, K, G) table is written and dropped before the
    # next runs, so three replications peak within one table of one
    import tracemalloc

    points = 1 << 13
    table = len(sim.PROCESSES) * 2 * points * 8
    peaks = {}
    for reps in (1, 1, 3):  # the first run imports what simulate loads
        tracemalloc.start()
        try:
            assert main(["simulate", "--scenario", str(scenarios["two"]), "--n", "1000",
                         "--reps", str(reps), "--grid-points", str(points),
                         "--out", str(scenarios["dir"] / "mem.csv")]) == 0
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] - peaks[1] < table


def test_simulate_error_while_writing_leaves_no_file(scenarios, monkeypatch, capsys):
    from concertq import serialize

    calls = []
    csv_rows = serialize.csv_rows

    def failing(header, columns):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError
        return csv_rows(header, columns)

    monkeypatch.setattr(serialize, "csv_rows", failing)
    out = scenarios["dir"] / "broken.csv"
    assert main(["simulate", "--scenario", str(scenarios["two"]), "--n", "300", "--reps", "2",
                 "--out", str(out)]) == 1
    assert len(calls) == 2
    assert not out.exists() and not out.with_suffix(".summary.json").exists()
    assert capsys.readouterr().err.startswith("error: out of memory")


def test_sim_csv_columns_follow_the_process_table(scenarios):
    # scaled_paths and fluid_reference lay their tables out by sim.PROCESSES,
    # and the value columns of sim.csv are those processes in that order
    out = scenarios["dir"] / "table.csv"
    assert main(["simulate", "--scenario", str(scenarios["two"]), "--n", "300",
                 "--seed", "5", "--grid-points", "16", "--out", str(out)]) == 0
    s = cq.parse_scenario(scenarios["two"].read_text())
    profile = cq.solve_multi(s).profile
    grid = sim.default_grid(profile, s, points=16)
    cfg = sim.SimConfig(n=300, seed=5, grid=grid)
    scaled = sim.scaled_paths(sim.run_des(s, sim.sample_arrivals(profile, 300, 5), cfg), grid)
    shape = (len(sim.PROCESSES), s.n_queues, grid.size)
    assert scaled.shape == sim.fluid_reference(s, profile, grid).shape == shape
    rows = [row.split(",") for row in out.read_text().splitlines()]
    assert len(rows[0]) == 3 + len(sim.PROCESSES)
    for j, process in enumerate(scaled, start=3):
        for q, values in zip(s.queues, process):
            column = [float(row[j]) for row in rows[1:] if row[2] == str(q.id)]
            assert np.array_equal(column, values)


def test_cli_reruns_are_byte_identical(scenarios):
    d = scenarios["dir"]
    pairs = []
    for tag in ("a", "b"):
        out = d / f"paths_{tag}.csv"
        main([
            "simulate", "--scenario", str(scenarios["two"]),
            "--n", "400", "--reps", "2", "--seed", "7", "--out", str(out),
        ])
        pairs.append((out.read_bytes(), (d / f"paths_{tag}.summary.json").read_bytes()))
    assert pairs[0] == pairs[1]

    for tag in ("a", "b"):
        main(["poa", "--scenario", str(scenarios["one"]), "--out", str(d / f"poa_{tag}.json")])
    assert (d / "poa_a.json").read_bytes() == (d / "poa_b.json").read_bytes()


def test_cli_is_a_thin_adapter(scenarios):
    # byte-identical to calling the library and serializer directly
    d = scenarios["dir"]
    main(["poa", "--scenario", str(scenarios["two"]), "--out", str(d / "poa_cli.json")])
    s = cq.parse_scenario(scenarios["two"].read_text())
    direct = to_json(cq.poa_multi(s).to_dict())
    assert (d / "poa_cli.json").read_text() == direct

    profile_path = d / "profile_adapter.csv"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv",
          "--out", str(profile_path)])
    main(["verify", "--scenario", str(scenarios["two"]), "--profile",
          str(profile_path), "--out", str(d / "verify_cli.json")])
    profile = cq.ArrivalProfile.from_csv(profile_path.read_text())
    direct = to_json(cq.verify_equilibrium(s, profile).to_dict())
    assert (d / "verify_cli.json").read_text() == direct


def test_fluid_command_accepts_profile_csv(scenarios):
    d = scenarios["dir"]
    profile_path = d / "p.csv"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv",
          "--out", str(profile_path)])
    out = d / "fluid_p.csv"
    code = main(["fluid", "--scenario", str(scenarios["two"]),
                 "--profile", str(profile_path), "--out", str(out)])
    assert code == 0
    assert ",virtual_wait," in out.read_text()


def test_format_json_and_csv_carry_identical_numbers(scenarios):
    d = scenarios["dir"]
    main(["eq-single", "--scenario", str(scenarios["two"]), "--out", str(d / "eq.json")])
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(d / "eq.csv")])
    payload = json.loads((d / "eq.json").read_text())
    assert payload["profile_csv"] == (d / "eq.csv").read_text()


def test_stdout_artifact_is_clean_json(scenarios, capsys):
    # without --out the artifact owns stdout and the summary moves to stderr
    assert main(["eq-single", "--scenario", str(scenarios["two"])]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["terminal_time"] == 0.75
    assert "terminal_time=0.75" in captured.err


def test_exit_code_io_error(tmp_path, capsys):
    assert main(["eq-single", "--scenario", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"queues":[{"mu":-1,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}')
    assert main(["eq-single", "--scenario", str(bad)]) == 1
    assert "mu" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["eq-single", "--scenario", str(bad)]) == 2


def test_unknown_flag_rejected(scenarios):
    assert main(["eq-single", "--scenario", str(scenarios["one"]), "--bogus"]) == 2


def test_seed_flag_overrides_scenario(scenarios):
    d = scenarios["dir"]
    main([
        "simulate", "--scenario", str(scenarios["two"]),
        "--n", "300", "--reps", "1", "--seed", "1", "--out", str(d / "s1.csv"),
    ])
    main([
        "simulate", "--scenario", str(scenarios["two"]),
        "--n", "300", "--reps", "1", "--seed", "2", "--out", str(d / "s2.csv"),
    ])
    assert (d / "s1.csv").read_bytes() != (d / "s2.csv").read_bytes()


def test_simulate_samples_each_replication_once(scenarios, monkeypatch):
    calls = []
    original = sim.sample_arrivals

    def counting(*args, **kwargs):
        calls.append(kwargs.get("replication"))
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_arrivals", counting)
    out = scenarios["dir"] / "once.csv"
    code = main([
        "simulate", "--scenario", str(scenarios["two"]),
        "--n", "300", "--reps", "2", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    assert calls == [0, 1]
    rows = out.read_text().splitlines()
    assert {row.split(",")[0] for row in rows[1:]} == {"0", "1"}


def run_cli(*argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(Path(cq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "concertq", *argv], capture_output=True, text=True, env=env
    )


def assert_one_error_line(stderr):
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "row",
    [
        "1,1,abc,0.75,0.5",      # non-numeric cell
        "1.5,1,-0.75,0.75,0.5",  # non-integer population id
        "1,x,-0.75,0.75,0.5",    # non-integer queue id
        "1,1,nan,0.75,0.5",
        "1,1,-0.75,inf,0.5",
        "1,1,-0.75,0.75,nan",
        pytest.param("99999999999999999999,1,-0.75,0.75,0.5", id="pop-id-beyond-int64"),
        pytest.param("1," + "9" * 401 + ",-0.75,0.75,0.5", id="queue-id-beyond-float-range"),
    ],
)
def test_malformed_profile_csv_is_a_parse_error(scenarios, capsys, row):
    bad = scenarios["dir"] / "bad_profile.csv"
    bad.write_text(f"pop,queue,a,b,density\n1,2,0.25,0.75,0.5\n{row}\n")
    for command in ("verify", "fluid"):
        assert main([command, "--scenario", str(scenarios["two"]), "--profile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "row 3" in err


def test_malformed_profile_csv_exits_2_from_a_fresh_interpreter(scenarios):
    bad = scenarios["dir"] / "bad_profile.csv"
    bad.write_text("pop,queue,a,b,density\n1,2,0.25,0.75,0.5\n1,1,abc,0.75,0.5\n")
    result = run_cli("verify", "--scenario", str(scenarios["two"]), "--profile", str(bad))
    assert result.returncode == 2
    assert_one_error_line(result.stderr)
    assert "row 3" in result.stderr


@pytest.mark.parametrize("flag", ["--scenario", "--profile"])
def test_input_that_is_not_utf8_is_a_parse_error(scenarios, capsys, flag):
    bad = scenarios["dir"] / "not_utf8"
    bad.write_bytes(b"\xff\xfe\n")
    scenario = bad if flag == "--scenario" else scenarios["two"]
    assert main(["verify", "--scenario", str(scenario), "--profile", str(bad)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"cannot read {flag[2:]} {bad}" in err


@pytest.mark.parametrize(
    "row, what",
    [
        ("1,1,0.75,-0.75,0.5", "end < start"),
        ("1,1,-0.75,0.75,-0.5", "negative density"),
        ("1,1,0,1e9,1e300", "non-finite mass"),
    ],
)
def test_out_of_domain_profile_rows_name_their_row(scenarios, capsys, row, what):
    bad = scenarios["dir"] / "bad_profile.csv"
    bad.write_text(f"pop,queue,a,b,density\n1,2,0.25,0.75,0.5\n{row}\n")
    for command in ("verify", "fluid"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main([command, "--scenario", str(scenarios["two"]), "--profile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "row 3" in err and what in err


def test_an_out_of_domain_row_before_a_malformed_row_is_the_error(scenarios, capsys):
    # the first fault in file order decides the error, as it did when each
    # row built a Segment as it was read
    bad = scenarios["dir"] / "bad_profile.csv"
    bad.write_text("pop,queue,a,b,density\n1,2,0.25,0.75,0.5\n1,1,0.75,-0.75,0.5\n1,1,abc,0.75,0.5\n")
    for command in ("verify", "fluid"):
        assert main([command, "--scenario", str(scenarios["two"]), "--profile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "row 3 has end < start" in err


def test_profile_mass_at_an_unknown_queue_is_refused(scenarios, capsys):
    # the fluid command used to drop the row's mass and exit 0
    bad = scenarios["dir"] / "stray_profile.csv"
    bad.write_text("pop,queue,a,b,density\n1,1,-0.75,0.75,0.5\n1,9,0.25,0.75,0.5\n")
    out = scenarios["dir"] / "stray.out"
    for command in ("verify", "fluid"):
        argv = [command, "--scenario", str(scenarios["two"]), "--profile", str(bad), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "profile routes mass to unknown queues [9]" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid-step", "0"],
        ["--grid-step", "-0.5"],
        ["--grid-step", "nan"],
        ["--grid-step", "inf"],
        ["--tol", "-1"],
        ["--tol", "inf"],
    ],
)
def test_verify_rejects_bad_grid_step_and_tol_flags(scenarios, capsys, flags):
    d = scenarios["dir"]
    profile = d / "p_flags.csv"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(profile)])
    capsys.readouterr()
    out = d / "verify_flags.json"
    code = main(["verify", "--scenario", str(scenarios["two"]), "--profile", str(profile),
                 "--out", str(out), *flags])
    assert code == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_tol_flag_is_validated_on_every_scenario_command(scenarios, capsys):
    assert main(["poa", "--scenario", str(scenarios["two"]), "--tol", "-1"]) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("options", ['{"grid_step":0}', '{"grid_step":-0.5}', '{"tol":-1}'])
def test_verify_rejects_bad_scenario_options(scenarios, capsys, options):
    d = scenarios["dir"]
    profile = d / "p_opts.csv"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(profile)])
    bad = d / "bad_options.json"
    bad.write_text(
        '{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],'
        f'"populations":[{{"alpha":1,"beta":1}}],"options":{options}}}'
    )
    capsys.readouterr()
    assert main(["verify", "--scenario", str(bad), "--profile", str(profile)]) == 1
    assert_one_error_line(capsys.readouterr().err)


TINY_RATE = '{"queues":[{"mu":1e-300,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}'
HUGE_RATES = ('{"queues":[{"mu":1e300,"t_start":0},{"mu":1e300,"t_start":1e-300}],'
              '"populations":[{"alpha":1,"beta":1}]}')


@pytest.mark.parametrize(
    "argv",
    [
        ["eq-two", "--ode-dt", "0"],
        ["eq-two", "--ode-dt", "nan"],
        ["eq-two", "--ode-dt", "-1"],
        ["eq-two", "--trace-points", "-1"],
        ["serve-count", "--l", "nan", "--mu", "1", "--tau", "0.1"],
        ["serve-count", "--l", "7", "--mu", "inf", "--tau", "0.1"],
        ["serve-count", "--l", "7", "--mu", "1", "--tau", "inf"],
        # 2l/(mu tau) overflows; mu tau underflows to 0; the epochs overflow
        ["serve-count", "--l", "1e308", "--mu", "1e-10", "--tau", "1"],
        ["serve-count", "--l", "7", "--mu", "1e-300", "--tau", "1e-300"],
        ["serve-count", "--l", "1e300", "--mu", "1e-10", "--tau", "1e10"],
        # the social costs overflow to inf; the verifier's costs overflow;
        # the optimal social cost underflows to 0
        ["poa", "--scenario", TINY_RATE],
        ["verify", "--scenario", TINY_RATE],
        ["poa", "--scenario", HUGE_RATES],
        # the tiny-rate profile's times times these rates overflow the netflow
        ["verify", "--scenario", HUGE_RATES, "--profile", TINY_RATE],
        ["fluid", "--scenario", HUGE_RATES, "--profile", TINY_RATE],
    ],
)
def test_out_of_domain_numbers_are_domain_errors(tmp_path, capsys, argv):
    out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
    if argv[0] == "eq-two":
        argv = [*argv, "--mu1", "1", "--mu2", "2", "--alpha", "1", "--beta", "1",
                "--trace", str(trace)]
    if argv[1] == "--scenario":
        # a --profile is the eq-single profile of the scenario given after it;
        # verify's default is the profile of its own scenario
        profile_of = argv[4] if "--profile" in argv else argv[2] if argv[0] == "verify" else None
        scenario, source, profile = tmp_path / "s.json", tmp_path / "ps.json", tmp_path / "p.csv"
        scenario.write_text(argv[2])
        argv = [argv[0], "--scenario", str(scenario)]
        if profile_of is not None:
            source.write_text(profile_of)
            assert main(["eq-single", "--scenario", str(source), "--format", "csv",
                         "--out", str(profile)]) == 0
            argv += ["--profile", str(profile)]
            capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning is not one error line
        assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if argv[0] == "poa":  # a pruned queue is noted before the error
        err = "".join(line for line in err.splitlines(True) if not line.startswith("note: "))
    assert_one_error_line(err)
    assert not out.exists() and not trace.exists()


def test_verify_of_an_overflowing_profile_prints_only_its_error(tmp_path):
    # every row's mass is finite, but the costs at both queues overflow: the
    # refusal is the one line on stderr, with no numpy warning before it
    scenario, profile = tmp_path / "s.json", tmp_path / "p.csv"
    scenario.write_text('{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0}],'
                        '"populations":[{"alpha":1,"beta":1}]}')
    profile.write_text("pop,queue,a,b,density\n1,1,0,1,1e308\n1,2,0,1,1e308\n")
    result = run_cli("verify", "--scenario", str(scenario), "--profile", str(profile),
                     "--out", str(tmp_path / "v.json"))
    assert result.returncode == 1
    assert_one_error_line(result.stderr)
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("command", ["verify", "fluid"])
def test_an_overflowing_routed_mass_names_its_queue(tmp_path, capsys, command):
    # queue 2's routed mass overflows, so its drain time is not finite: the
    # refusal names queue 2, not the first queue an infinite horizon breaks
    scenario, profile, out = tmp_path / "s.json", tmp_path / "p.csv", tmp_path / "out"
    scenario.write_text('{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],'
                        '"populations":[{"alpha":1,"beta":1}]}')
    profile.write_text("pop,queue,a,b,density\n1,2,0,1,1e308\n1,2,0,1,1e308\n1,2,1,2,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning is not one error line
        assert main([command, "--scenario", str(scenario), "--profile", str(profile),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: queue 2: the netflow at rate 1.0 is not finite")
    assert not out.exists()


def test_out_of_domain_number_exits_1_from_a_fresh_interpreter(tmp_path):
    out = tmp_path / "out.json"
    result = run_cli("serve-count", "--l", "nan", "--mu", "1", "--tau", "0.1", "--out", str(out))
    assert result.returncode == 1
    assert_one_error_line(result.stderr)
    assert not out.exists()


def test_a_library_warning_is_one_line_and_still_obeys_the_filters(tmp_path):
    out = tmp_path / "sc.json"
    result = run_cli("serve-count", "--l", "7", "--mu", "1", "--tau", "2", "--out", str(out))
    assert result.returncode == 0 and result.stdout == "k_star=3, tie=false\n"
    assert result.stderr.splitlines() == [
        "warning: mu*tau = 2 >= 1: several queues open within one population's service window; "
        "the sqrt rule is a formal minimizer only"
    ]
    with pytest.warns(UserWarning):
        expected = cq.optimal_serve_count(7, 1, 2, 64)
    assert out.read_text() == to_json(expected.to_dict())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="mu\\*tau = 2 >= 1"):
            main(["serve-count", "--l", "7", "--mu", "1", "--tau", "2", "--out", str(out)])


def test_eq_two_with_a_step_far_above_the_coarse_grid_runs(tmp_path):
    # a support of about 2.5e150 at step 1e146: the density and routing
    # grid takes the Euler step instead of 1e-3
    out = tmp_path / "two.json"
    assert main(["eq-two", "--mu1", "1e-150", "--mu2", "1e-150", "--alpha", "1", "--beta", "1",
                 "--ode-dt", "1e146", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["diagnostics"]["ode_dt"] == 1e146


def test_eq_two_trace_last_row_uses_the_rate_share(tmp_path):
    # the density rounds to 3.9e-16 at t_last for these rates; routing there
    # must fall back to the rate share, not divide by the rounding residue
    trace = tmp_path / "trace.csv"
    code = main(["eq-two", "--mu1", "0.7", "--mu2", "1.9", "--alpha", "2", "--beta", "0.4",
                 "--trace", str(trace), "--out", str(tmp_path / "two.json")])
    assert code == 0
    last = trace.read_text().splitlines()[-1].split(",")
    assert float(last[1]) == 0.0
    assert float(last[2]) == 0.7 / (0.7 + 1.9)  # the rate share, 0.7 / 2.6 up to rounding


def test_verify_rejects_a_grid_above_the_point_cap(scenarios):
    d = scenarios["dir"]
    profile, out = d / "p_cap.csv", d / "verify_cap.json"
    main(["eq-single", "--scenario", str(scenarios["two"]), "--format", "csv", "--out", str(profile)])
    result = run_cli("verify", "--scenario", str(scenarios["two"]), "--profile", str(profile),
                     "--grid-step", "1e-12", "--out", str(out))
    assert result.returncode == 1
    assert_one_error_line(result.stderr)
    assert "grid step" in result.stderr
    assert not out.exists()


def test_flags_belong_to_the_commands_that_read_them(tmp_path, capsys):
    # --tol is read by verify and poa only, --seed by simulate only
    two = ["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1",
           "--out", str(tmp_path / "two.json")]
    assert main([*two, "--seed", "1"]) == 2
    assert main([*two, "--tol", "1e-6"]) == 2
    assert main(["serve-count", "--l", "7", "--mu", "1", "--tau", "0.1", "--seed", "1"]) == 2
    for command in ("eq-single", "eq-multi", "fluid", "simulate"):
        assert main([command, "--scenario", "x.json", "--tol", "1e-6"]) == 2
    for command in ("eq-single", "verify", "poa", "fluid"):
        assert main([command, "--scenario", "x.json", "--seed", "1"]) == 2
    assert not (tmp_path / "two.json").exists()


def test_a_negative_seed_is_one_error_line(scenarios, capsys):
    out = scenarios["dir"] / "neg.csv"
    assert main(["simulate", "--scenario", str(scenarios["two"]), "--n", "100",
                 "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "seed must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("section", ["queues", "populations"])
@pytest.mark.parametrize("value", ["5", "null", '{"mu":1}', '"abc"'])
def test_a_section_that_is_not_an_array_is_a_parse_error(tmp_path, capsys, section, value):
    doc = {"queues": '[{"mu":1,"t_start":0}]', "populations": '[{"alpha":1,"beta":1}]'}
    doc[section] = value
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"queues":{doc["queues"]},"populations":{doc["populations"]}}}')
    assert main(["eq-single", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"{section}: expected an array" in err


def _pair_opening_at(t0, tmp_path, name):
    path = tmp_path / name
    path.write_text(
        f'{{"queues":[{{"mu":1,"t_start":{t0}}},{{"mu":1,"t_start":{t0 + 0.5}}}],'
        '"populations":[{"alpha":1,"beta":1}]}'
    )
    return path


def test_simulate_summary_is_in_the_scenario_time(tmp_path):
    summaries = []
    for t0 in (0.0, 4.0):
        out = tmp_path / f"sim{t0:g}.csv"
        argv = ["simulate", "--scenario", str(_pair_opening_at(t0, tmp_path, f"s{t0:g}.json")),
                "--n", "400", "--reps", "2", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        summaries.append(json.loads(out.with_suffix(".summary.json").read_text()))
        # the summary's grid is the one the t column of sim.csv runs over
        t_column = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
        assert summaries[-1]["grid"]["start"] == min(t_column)
    base, shifted = summaries
    grid = base["grid"]
    assert shifted == dict(
        base,
        first_arrivals=[t + 4.0 for t in base["first_arrivals"]],
        support_infimum=base["support_infimum"] + 4.0,
        grid=dict(grid, start=grid["start"] + 4.0, end=grid["end"] + 4.0),
    )


def test_poa_skips_a_queue_that_never_opens(tmp_path, capsys):
    late = tmp_path / "late.json"
    late.write_text('{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":5}],'
                    '"populations":[{"alpha":1,"beta":1}]}')
    alone = tmp_path / "alone.json"
    alone.write_text('{"queues":[{"mu":1,"t_start":0}],"populations":[{"alpha":1,"beta":1}]}')
    capsys.readouterr()
    assert main(["poa", "--scenario", str(late), "--out", str(tmp_path / "late_poa.json")]) == 0
    notes = capsys.readouterr().err.strip().splitlines()
    assert len(notes) == 1 and notes[0].startswith("note: queue 2 pruned")
    assert main(["poa", "--scenario", str(alone), "--out", str(tmp_path / "alone_poa.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "late_poa.json").read_bytes() == (tmp_path / "alone_poa.json").read_bytes()


@pytest.mark.parametrize("command", [["fluid"], ["simulate", "--n", "100"], ["eq-multi"]])
def test_commands_that_solve_note_the_queues_they_skip(tmp_path, capsys, command):
    late = tmp_path / "late.json"
    late.write_text('{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":5}],'
                    '"populations":[{"alpha":1,"beta":1}]}')
    capsys.readouterr()
    assert main([command[0], "--scenario", str(late), *command[1:],
                 "--out", str(tmp_path / "out")]) == 0
    notes = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("note:")]
    assert len(notes) == 1 and notes[0].startswith("note: queue 2 pruned")


@pytest.mark.parametrize(
    "argv",
    [
        # sizes refused before any allocation, or that fail when the first
        # array is allocated, never later
        ["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1", "--ode-dt", "1e-15"],
        ["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1", "--ode-dt", "5e-6"],
        ["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1",
         "--trace-points", str(2**16 + 1)],
        ["serve-count", "--l", "7", "--mu", "1", "--tau", "0.1", "--k-max", str(2**16 + 1)],
        ["simulate", "--n", str(10**12)],
        ["simulate", "--n", "100", "--grid-points", "-1"],
        ["simulate", "--n", "100", "--grid-points", "0"],
        ["simulate", "--n", "100", "--grid-points", "1"],
    ],
)
def test_absurd_sizes_are_one_error_line(scenarios, capsys, argv):
    if argv[0] == "simulate":
        argv = [*argv, "--scenario", str(scenarios["two"])]
    out = scenarios["dir"] / "absurd.out"
    assert main([*argv, "--out", str(out)]) == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_simulate_refuses_a_grid_above_the_cap_before_solving(scenarios, capsys, monkeypatch):
    from concertq import equilibrium

    def solving(s):
        raise AssertionError("solved before the grid size was checked")

    # the refusal comes before the solve, so nothing is allocated
    monkeypatch.setattr(equilibrium, "solve_multi", solving)
    out = scenarios["dir"] / "grid.csv"
    assert main(["simulate", "--scenario", str(scenarios["two"]), "--n", "10",
                 "--grid-points", str(2**16 + 1), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "--grid-points" in err
    assert not out.exists()


WORKED_PAIR = ('{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],'
               '"populations":[{"alpha":1,"beta":1}]}')
WORKED_PROFILE = "pop,queue,a,b,density\n1,1,-0.75,0.75,0.5\n1,2,0.25,0.75,0.5\n"
COST_OVERFLOW = '{"queues":[{"mu":1e-300,"t_start":0}],"populations":[{"alpha":1e300,"beta":1e300}]}'
TINY_BETAS = [{"alpha": 1e-300, "beta": 1e-300}, {"alpha": 1, "beta": 1e-300}]
EXTREME_SCALE = ('{"queues":[{"mu":1,"t_start":1e217},{"mu":1e-68,"t_start":1}],'
                 '"populations":[{"alpha":1,"beta":1e-4,"mass":1e108}]}')
# the scenario's profile as `eq-multi --format csv` writes it
EXTREME_PROFILE = "pop,queue,a,b,density\n1,2,-9.9999999999968396e+171,1e+176,9.9990000999900023e-69\n"


def _equal_rate_pair(mu, tau, populations):
    """Two queues of rate ``mu`` opening ``tau`` apart, as scenario text."""
    return json.dumps({"queues": [{"mu": mu, "t_start": 0}, {"mu": mu, "t_start": tau}],
                       "populations": populations})


# a --scenario or --profile value below is the document's text
REFUSALS = {
    # the closed form's support rounds to [-0, 0], [-inf, 0] and [-0, inf]
    "eq-two-rate-overflow": (["eq-two", "--mu1", "1e300", "--mu2", "1", "--alpha", "1",
                              "--beta", "1"], "not a finite interval"),
    "eq-two-tiny-alpha": (["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1e-300",
                           "--beta", "1e300"], "not a finite interval"),
    "eq-two-tiny-beta": (["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1e300",
                          "--beta", "1e-300"], "not a finite interval"),
    # mu1^2 + mu2^2 rounds to 0
    "eq-two-rate-square-underflow": (["eq-two", "--mu1", "1e-200", "--mu2", "1e-200", "--alpha",
                                      "0.5", "--beta", "0.5"], "rounds to 0"),
    # the equilibrium cost is inf - inf
    **{"-".join(a.strip("-") for a in argv) + "-cost-overflow":
       ([argv[0], "--scenario", COST_OVERFLOW, *argv[1:]], "population 1:")
       for argv in (["eq-single"], ["eq-single", "--format", "csv"], ["eq-multi"], ["fluid"],
                    ["simulate", "--n", "10"])},
    # alpha + beta overflows, so gamma would read 0
    "weight-overflow": (["eq-single", "--scenario", COST_OVERFLOW.replace("1e300", "1e308")],
                        "population 1: alpha + beta"),
    # a unit population on two queues of rate 1e155: mu_k mu_l overflows
    "poa-closed-form-overflow": (["poa", "--scenario", '{"queues":[{"mu":1e155,"t_start":1},'
                                  '{"mu":1,"t_start":1}],"populations":[{"alpha":1,"beta":1}]}'],
                                 "closed-form price of anarchy"),
    # finite social costs whose ratio overflows
    "poa-ratio-overflow": (["poa", "--scenario", '{"queues":[{"mu":0.1,"t_start":1},{"mu":0.1,'
                            '"t_start":0.1}],"populations":[{"alpha":1e17,"beta":1e-308}]}'],
                           "the ratio underflows or overflows"),
    # the equal-rate closed form: an optimal cost of 0, a NaN, and ** past the float range
    "poa-equal-rate-zero-optimum": (["poa", "--scenario", _equal_rate_pair(1e-10, 1e-300, TINY_BETAS)],
                                    "equal-rate closed-form price of anarchy"),
    "poa-equal-rate-nan": (["poa", "--scenario", _equal_rate_pair(1e10, 1e-300, TINY_BETAS)],
                           "equal-rate closed-form price of anarchy"),
    "poa-equal-rate-power-overflow": (["poa", "--scenario", _equal_rate_pair(1e-150, 1e150, [
        {"alpha": 1, "beta": 1}, {"alpha": 1, "beta": 2}])], "equal-rate closed-form price of anarchy"),
    # the profile's times overflow when shifted back by the time origin 1e308
    "eq-single-shift-overflow": (["eq-single", "--scenario", '{"queues":[{"mu":1,"t_start":1e308}],'
                                  '"populations":[{"alpha":1,"beta":0.1,"mass":1e308}]}'],
                                 "non-finite value"),
    "poa-social-cost-underflow": (["poa", "--scenario", '{"queues":[{"mu":1e-308,"t_start":0}],'
                                   '"populations":[{"alpha":1e-300,"beta":1,"mass":1e-300}]}'],
                                  "underflows"),
    "integer-past-float-range": (["eq-single", "--scenario", WORKED_PAIR.replace(
        '"mu":1,', '"mu":1' + "0" * 400 + ",", 1)], "queues[0].mu"),
    "integer-past-digit-limit": (["eq-single", "--scenario", WORKED_PAIR.replace(
        '"mu":1,', '"mu":1' + "0" * 5000 + ",", 1)], "scenario document"),
    "nested-100000-deep": (["eq-single", "--scenario", "[" * 100_000 + "]" * 100_000],
                           "scenario document"),
    "empty-profile": (["verify", "--scenario", WORKED_PAIR, "--profile",
                       "pop,queue,a,b,density\n"], "empty profile"),
    "n-zero": (["simulate", "--scenario", WORKED_PAIR, "--n", "0"], "n >= 1"),
    "grid-step-zero": (["verify", "--scenario", WORKED_PAIR, "--profile", WORKED_PROFILE,
                        "--grid-step", "0"], "grid_step"),
    "tol-nan": (["verify", "--scenario", WORKED_PAIR, "--profile", WORKED_PROFILE,
                 "--tol", "nan"], "tol"),
    # finite arrivals and netflow, but queue 2's reflection crossing and psi / mu overflow
    "fluid-path-overflow": (["fluid", "--scenario", EXTREME_SCALE, "--profile", EXTREME_PROFILE],
                            "queue 2:"),
}


@pytest.mark.parametrize("argv, names", REFUSALS.values(), ids=REFUSALS)
def test_refusals_exit_with_one_error_line(tmp_path, capsys, argv, names):
    argv = list(argv)
    for flag in ("--scenario", "--profile"):
        if flag in argv:
            i = argv.index(flag) + 1
            path = tmp_path / flag.strip("-")
            path.write_text(argv[i])
            argv[i] = str(path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) in (1, 2)
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert names in err
    assert not out.exists()


POWERS_OF_TEN = st.integers(-308, 308).map(lambda e: float(f"1e{e}"))


@given(
    st.lists(st.fixed_dictionaries({"mu": POWERS_OF_TEN, "t_start": POWERS_OF_TEN}),
             min_size=1, max_size=3),
    st.lists(st.fixed_dictionaries({"alpha": POWERS_OF_TEN, "beta": POWERS_OF_TEN,
                                    "mass": POWERS_OF_TEN}), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_scenarios_at_any_scale_exit_without_a_traceback(queues, populations):
    # every number a power of ten in the float range: each command solves,
    # or refuses with one error line after any notes of pruned queues; the
    # profile commands read the scenario's own `eq-multi --format csv` profile
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "s.json"
        scenario.write_text(json.dumps({"queues": queues, "populations": populations}))
        profile = Path(tmp) / "profile.csv"
        for command in ("eq-multi", "poa"):
            _exits_without_a_traceback([command, "--scenario", str(scenario), "--out",
                                        str(Path(tmp) / command)])
        if _exits_without_a_traceback(["eq-multi", "--scenario", str(scenario), "--format", "csv",
                                       "--out", str(profile)]) == 0:
            for command in ("verify", "fluid"):
                _exits_without_a_traceback([command, "--scenario", str(scenario), "--profile",
                                            str(profile), "--out", str(Path(tmp) / command)])


def _exits_without_a_traceback(argv) -> int:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("note: ")]
    if code:
        assert_one_error_line("\n".join(lines))
    else:
        assert not lines
    return code

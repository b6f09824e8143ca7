"""The package namespace: ``import concertq`` loads no submodule and no
numpy, serves every public name from its module on access (each module on
first access), and each CLI command loads only the modules it runs: numpy
only in simulate, after the scenario model.  Only the simulator and its
writers import numpy."""

import ast
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import concertq as cq
from concertq.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
WORKED = '{"queues":[{"mu":1,"t_start":0},{"mu":1,"t_start":0.5}],"populations":[{"alpha":1,"beta":1}]}'
MODULES = ("equilibrium", "errors", "exact_two", "fluid", "model", "poa", "serve", "sim")


def _loaded(script: str) -> list[list[str]]:
    """The ``concertq.*`` submodules, and numpy if it is, held after each
    ``loaded()`` call of ``script``, run in a fresh interpreter, in the
    order they were first imported."""
    script = (
        "import sys\n"
        "def loaded():\n"
        "    held = (m for m in sys.modules if m.startswith('concertq.') or m == 'numpy')\n"
        "    print('loaded:', *held, flush=True)\n"
        + script
    )
    # one-thread numeric libraries, so the forks below copy no worker threads
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, **threads, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    return [
        [m.removeprefix("concertq.") for m in line.split()[1:]]
        for line in result.stdout.splitlines()
        if line.startswith("loaded:")
    ]


def test_bare_import_loads_no_submodule_and_no_numpy():
    script = (
        "import concertq, runpy\n"
        "loaded()\n"
        "sys.argv = ['concertq', 'serve-count', '--l', '7', '--mu', '1', '--tau', '0.1']\n"
        "try:\n"
        "    runpy.run_module('concertq', run_name='__main__')  # python -m concertq serve-count\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "loaded()\n"
        "profile = concertq.ArrivalProfile([(1, 2, 0.5, 1.0, 2.0), (1, 1, 0.0, 1.0, 1.0)])\n"
        "assert profile.shifted(1.5).to_csv() == 'pop,queue,a,b,density\\n1,2,2,2.5,2\\n1,1,1.5,2.5,1\\n'\n"
        "assert (len(profile), profile.total_mass, profile.mass(queue=2), profile.queue_ids) == (2, 2.0, 1.0, (1, 2))\n"
        "assert profile.segments[0] == concertq.Segment(1, 2, 0.5, 1.0, 2.0) and profile == profile.shifted(0.0)\n"
        "loaded()\n"
        "concertq.poa.poa_multi\n"
        "loaded()\n"
        # every other member of the profile, and every field and method of its fluid table
        "assert {n for n in vars(concertq.ArrivalProfile) if not n.startswith('_')} - {'queue_cdf'} == {\n"
        "    'segments', 'rows_at', 'queue_ids', 'total_mass', 'mass', 'support_bounds',\n"
        "    'shifted', 'require_queues', 'to_csv', 'from_csv'}\n"
        "again = concertq.ArrivalProfile(concertq.ArrivalProfile.from_csv(profile.to_csv()).segments)\n"
        "assert again == profile and again.rows_at(2).tolist() == [0] and again.support_bounds() == (0.0, 1.0)\n"
        "table = concertq.fluid.fluid_table(again, [concertq.QueueSpec(1, 1.0, 0.0), concertq.QueueSpec(2, 1.0, 0.25)])\n"
        "again.require_queues(table.queues)\n"
        "assert table.support_rows(again, [concertq.PopulationSpec(1, 1.0, 1.0)]) == ([1, 0], [0, 0], [1, 6], [2, 7])\n"
        "assert [len(table._asdict()[name]) for name in table._fields] == [2, 9, 9, 9, 9, 3, 10, 10, 10, 10, 10, 3]\n"
        "loaded()\n"
        "profile.queue_cdf(1)  # a PiecewisePath\n"
        "loaded()\n"
    )
    cli = {"cli", "errors", "serialize", "serve"}
    profile = cli | {"model"}
    analytic = profile | {"poa", "equilibrium", "fluid"}
    assert list(map(set, _loaded(script))) == [set(), cli, profile, analytic, analytic, analytic | {"numpy"}]


def _numpy_imports(tree: ast.AST, scope: str = "") -> list[str]:
    """The qualified name of the function or class around each import of
    numpy in ``tree`` ("" at module level)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _numpy_imports(node, f"{scope}.{node.name}".lstrip("."))
            continue
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
            [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        found += [scope for name in names if name.split(".")[0] == "numpy"]
        found += _numpy_imports(node, scope)
    return found


# where numpy may be imported: the simulator, the array writer of serialize,
# the simulate command's handler (the key columns of sim.csv) and the
# methods of PiecewisePath
NUMPY_SCOPES = {
    "sim": lambda scope: True,
    "serialize": {"csv_rows", "write_csv", "_distinct_text", "_finite"}.__contains__,
    "cli": {"_cmd_simulate"}.__contains__,
    "fluid": lambda scope: scope.startswith("PiecewisePath."),
}


def test_only_the_simulator_and_its_writers_import_numpy():
    scanned = {}
    for path in sorted(Path(SRC, "concertq").glob("*.py")):
        scanned[path.stem] = _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
        allowed = NUMPY_SCOPES.get(path.stem, lambda scope: False)
        for scope in scanned[path.stem]:
            assert allowed(scope), f"{path.stem}.{scope or '<module>'} imports numpy"
    assert "" in scanned["sim"] and "PiecewisePath.__call__" in scanned["fluid"] and not scanned["model"]


ARRAYS = {"fluid", "numpy"}
# each command, its exit code and what it loads besides cli, errors and serialize:
# only simulate loads numpy
FOOTPRINTS = [
    (["eq-single", "--scenario", "{s}"], 0, {"model", "equilibrium"}),
    (["eq-single", "--scenario", "{s}", "--format", "csv"], 0, {"model", "equilibrium"}),
    (["eq-multi", "--scenario", "{s}"], 0, {"model", "equilibrium"}),
    (["eq-multi", "--scenario", "{s}", "--format", "csv"], 0, {"model", "equilibrium"}),
    (["verify", "--scenario", "{s}", "--profile", "{p}"], 0, {"model", "equilibrium", "fluid"}),
    (["poa", "--scenario", "{s}"], 0, {"model", "poa", "equilibrium", "fluid"}),
    (["serve-count", "--l", "7", "--mu", "1", "--tau", "0.1"], 0, {"serve"}),
    (["serve-count", "--help"], 0, set()),
    (["serve-count", "--l", "7"], 2, set()),  # a usage error
    (["simulate", "--scenario", "{s}", "--n", "200", "--grid-points", "8"], 0,
     {"model", "sim", "equilibrium"} | ARRAYS),
    (["eq-two", "--mu1", "1", "--mu2", "1", "--alpha", "1", "--beta", "1", "--ode-dt", "1e-2",
      "--trace", "{t}"], 0, {"exact_two"}),
    (["fluid", "--scenario", "{s}", "--profile", "{p}"], 0, {"model", "fluid"}),
    (["fluid", "--scenario", "{s}"], 0, {"model", "equilibrium", "fluid"}),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs each command in a fork")
def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    scenario, profile = tmp_path / "s.json", tmp_path / "p.csv"
    scenario.write_text(WORKED)
    assert main(["eq-single", "--scenario", str(scenario), "--format", "csv", "--out", str(profile)]) == 0
    runs = [
        ([a.format(s=scenario, p=profile, t=tmp_path / "trace.csv") for a in argv] + ["--out", str(tmp_path / "out")], code)
        for argv, code, _ in FOOTPRINTS
    ]
    # every command runs in a fork of one interpreter that has imported only the CLI
    script = (
        "import os\n"
        "from concertq.cli import main\n"
        f"for argv, expected in {runs!r}:\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        code = main(argv)\n"
        "        loaded()\n"
        "        os._exit(code)\n"
        "    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == expected, argv\n"
    )
    base = {"cli", "errors", "serialize"}
    loaded = _loaded(script)
    assert list(map(set, loaded)) == [base | loads for _, _, loads in FOOTPRINTS]
    # an array command compiles the scenario model before it imports numpy
    assert all(names.index("model") < names.index("numpy") for names in loaded if "numpy" in names)


def test_every_public_name_is_its_modules_object():
    for name in cq.__all__:
        obj = getattr(cq, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert {getattr(cq, n).__module__ for n in cq.__all__} == {f"concertq.{m}" for m in MODULES}


def _annotated(obj):
    """The object, and for a class each public method, property and cached
    property it defines, as the functions whose annotations they carry."""
    yield obj
    if isinstance(obj, type):
        for name, member in vars(obj).items():
            if not name.startswith("_"):
                member = getattr(member, "fget", None) or getattr(member, "func", member)
                yield getattr(member, "__func__", member)


def test_every_public_annotation_resolves():
    from concertq import serialize

    # and serialize's array helpers, which import numpy only when called
    named = [getattr(cq, name) for name in cq.__all__] + [serialize._distinct_text, serialize._finite]
    checked = 0
    for obj in named:
        for target in _annotated(obj):
            if callable(target):
                typing.get_type_hints(target)
                checked += 1
    assert checked > len(named)


def test_a_patched_submodule_reaches_the_package_name(monkeypatch):
    for name in cq.__all__:
        module = sys.modules[getattr(cq, name).__module__]
        sentinel = object()
        monkeypatch.setattr(module, name, sentinel)
        assert getattr(cq, name) is sentinel, name


def test_dir_and_star_import_cover_all():
    assert set(cq.__all__) | set(MODULES) <= set(dir(cq))
    namespace = {}
    exec("from concertq import *", namespace)
    assert set(cq.__all__) <= set(namespace)
    assert len(cq.__all__) == len(set(cq.__all__))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cq.no_such_name
    assert not hasattr(cq, "solve")

"""What a cold process loads: graph-only subcommands, length, dim and reg
start without numpy or a field table, neither they nor the package import
with its fields load dataclasses or inspect, the package resolves its
submodule names on first access, and the console script keeps OpenBLAS to
one thread and freezes the collector before it exits."""

import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcodes
from graphcodes.cli import run_command

SRC = str(Path(graphcodes.__file__).resolve().parents[1])


def python_process(code, **env):
    """Run code in a fresh interpreter that imports graphcodes from this
    source tree; returns the finished process, whatever its status."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env}, timeout=60)


def run_python(code, **env):
    """python_process for code that must exit 0; returns its standard output."""
    proc = python_process(code, **env)
    proc.check_returncode()
    return proc.stdout


def test_graph_and_hilbert_subcommands_leave_numpy_unloaded():
    # length counts the points of X, and dim and reg its characters, in
    # exact ints from q alone, answered, refused or in error, and build no
    # field table; the other subcommands here need no field.
    code = """
import io, json, sys
from graphcodes.cli import run_command
from graphcodes.gfq import FieldSpec
built, build = [], FieldSpec._build_tables
FieldSpec._build_tables = lambda F: built.append(F.q) or build(F)
graph = ["--family", "cycle", "--params", "4"]
big = ["--family", "complete", "--params", "9"]
loaded = []
for argv in (["summarize", *graph], ["family", *graph],
             ["ternary", "dim", *graph, "--d", "2"], ["ternary", "reg", *graph],
             ["ternary", "joins", *graph, "--d", "2"], ["ternary", "basis", *graph, "--d", "2"],
             ["dim", *graph, "--q", "3", "--d", "-1"],
             ["dim", *graph, "--q", "3", "--d", "1"],
             ["dim", *big, "--q", "16", "--d", "2"],
             ["reg", "--family", "complete", "--params", "5", "--q", "7", "--json"],
             ["reg", *graph, "--q", "6"], ["reg", *graph, "--q", "257"],
             ["reg", *big, "--q", "16", "--json"],
             ["length", *graph, "--q", "5"],
             ["length", "--family", "cycle", "--params", "3", "--q", "256", "--json"],
             ["length", *big, "--q", "16"]):
    out = io.StringIO()
    status = run_command(argv, out=out)
    loaded.append([status, out.getvalue(), "numpy" in sys.modules])
print(json.dumps([loaded, sorted({"dataclasses", "inspect"} & sys.modules.keys()), built]))
"""
    loaded, slow_imports, built = json.loads(run_python(code))
    assert [status for status, _, _ in loaded] == [0, 0, 0, 0, 0, 0, 2, 0, 3, 0, 1, 1, 3, 0, 0, 3]
    assert loaded[7][1] == "4\n" and json.loads(loaded[9][1])["reg"] == 10
    assert json.loads(loaded[12][1])["error"]["required"] == 15**8
    assert loaded[13][1] == "16\n" and json.loads(loaded[14][1])["length"] == 255**2
    assert loaded[15][1].endswith("(required: 2562890625)\n")
    assert not any(numpy for *_, numpy in loaded), loaded
    assert slow_imports == [] and built == []


def test_package_and_fields_leave_dataclasses_and_inspect_unloaded():
    # The set-up a script pays before its first computation: the package
    # import and a field per order, its tables not yet built.
    code = """
import sys, graphcodes
for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256):
    graphcodes.make_field(q)
print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
"""
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["mindist", "--q", "5", "--d", "1"],
    ["profile", "--q", "5", "--dmax", "1"],
    ["verify", "--q", "5", "--dmax", "1"],
], ids=lambda argv: argv[0])
def test_point_and_distance_subcommands_load_numpy(argv):
    code = f"""
import io, sys
from graphcodes.cli import run_command
print(run_command({argv!r} + ["--family", "cycle", "--params", "4"], out=io.StringIO()),
      "numpy" in sys.modules)
"""
    assert run_python(code).split() == ["0", "True"]


def test_dual_route_distance_leaves_numpy_ma_unloaded():
    # The dual route sorts and looks up byte keys with np.sort and
    # np.searchsorted; np.unique would import numpy.ma on first use.  The
    # three degrees read a 2 and a 3 off the dual basis and fall through
    # to the shortened dual at 4.
    code = """
import io, sys
from graphcodes.cli import run_command
for argv in (["complete_bipartite", "2", "3", "7", "9"], ["complete_bipartite", "2", "3", "4", "2"],
             ["path", "3", "9", "11"]):
    family, *params, q, d = argv
    out = io.StringIO()
    assert run_command(["mindist", "--family", family, "--params", *params, "--q", q, "--d", d],
                       out=out) == 0
    print(out.getvalue().strip())
print("numpy.ma" in sys.modules)
"""
    assert run_python(code).split() == ["2", "3", "4", "False"]


def test_make_field_answers_or_raises_without_numpy():
    # q is validated and p, e and the reducing polynomial found in pure
    # Python; the tables, and numpy with them, come on first access.
    code = """
import sys
from graphcodes.gfq import make_field
F = make_field(4)
print(F.p, F.e, F.reducing_poly, "numpy" in sys.modules)
for q in (6, 257):
    try:
        make_field(q)
    except Exception as exc:
        print(type(exc).__name__, "numpy" in sys.modules)
print(int(F.mul_table[2, 3]), "numpy" in sys.modules)
"""
    assert run_python(code).splitlines() == [
        "2 2 (1, 1, 1) False", "NotAPrimePower False", "UnsupportedField False", "1 True"]


@pytest.mark.parametrize("name", graphcodes.__all__)
def test_public_name_is_the_submodule_object(name):
    value = getattr(graphcodes, name)
    module = importlib.import_module(value.__module__)
    assert value is getattr(module, name)
    if name in graphcodes._LAZY:
        assert module.__name__ == f"graphcodes.{graphcodes._LAZY[name]}"


def test_dir_lists_every_public_name_before_its_first_access():
    code = """
import sys, graphcodes
print(sorted(set(graphcodes.__all__) - set(dir(graphcodes))), "numpy" in sys.modules)
"""
    assert run_python(code).split() == ["[]", "False"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphcodes.no_such_name


@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
def test_main_runs_blas_single_threaded_unless_set(env, threads):
    code = """
import os, sys
from graphcodes import cli
before = os.environ.get("OPENBLAS_NUM_THREADS")
cli.run_command = lambda argv: print(before, os.environ["OPENBLAS_NUM_THREADS"], argv) or 0
sys.argv = ["graphcodes", "summarize"]
cli.main()
"""
    before = env.get("OPENBLAS_NUM_THREADS")
    assert run_python(code, **env).split() == [str(before), threads, "['summarize']"]


@pytest.mark.parametrize("argv, status", [
    (["length", "--family", "cycle", "--params", "4", "--q", "5"], 0),
    (["dim", "--family", "cycle", "--params", "4", "--q", "3", "--d", "-1"], 2),
    (["reg", "--family", "complete", "--params", "9", "--q", "16"], 3),
], ids=["answer", "usage", "refused"])
def test_main_exits_frozen_and_run_command_does_not_freeze(argv, status):
    # main freezes the collector once the answer is printed, and still exits
    # through the interpreter's shutdown: the first atexit hook, which runs
    # last, sees the freeze, and the status and the whole JSON come through.
    argv = [*argv, "--json"]
    out = io.StringIO()
    assert run_command(argv, out=out) == status
    assert gc.get_freeze_count() == 0
    code = f"""
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen {{gc.get_freeze_count() > 0}}\\n"))
from graphcodes import cli
sys.argv = ["graphcodes", *{argv!r}]
cli.main()
"""
    proc = python_process(code)
    assert proc.returncode == status
    assert proc.stderr.splitlines()[-1] == "frozen True"
    assert proc.stdout == out.getvalue()
    json.loads(proc.stdout)

"""What a cold process loads: graph-only subcommands start without numpy,
the package resolves its numpy-backed names on first access, and the
console script keeps OpenBLAS to one thread."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcodes

SRC = str(Path(graphcodes.__file__).resolve().parents[1])


def run_python(code, **env):
    """Run code in a fresh interpreter that imports graphcodes from this
    source tree; returns its standard output."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env}, timeout=60, check=True)
    return proc.stdout


def test_graph_only_subcommands_leave_numpy_unloaded():
    code = """
import io, json, sys
from graphcodes.cli import run_command
graph = ["--family", "cycle", "--params", "4"]
loaded = []
for argv in (["summarize", *graph], ["family", *graph],
             ["ternary", "dim", *graph, "--d", "2"], ["ternary", "reg", *graph],
             ["ternary", "joins", *graph, "--d", "2"], ["ternary", "basis", *graph, "--d", "2"],
             ["dim", *graph, "--q", "3", "--d", "-1"],
             ["dim", *graph, "--q", "3", "--d", "1"]):
    status = run_command(argv, out=io.StringIO())
    loaded.append([argv[0], status, "numpy" in sys.modules])
print(json.dumps(loaded))
"""
    loaded = json.loads(run_python(code))
    assert loaded == [["summarize", 0, False], ["family", 0, False],
                      ["ternary", 0, False], ["ternary", 0, False],
                      ["ternary", 0, False], ["ternary", 0, False],
                      ["dim", 2, False], ["dim", 0, True]]


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

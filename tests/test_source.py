"""Checks on the library source itself."""

import argparse
import ast
import importlib
import re
import tomllib
from pathlib import Path

import pytest

import heilbronn
from heilbronn import cli

SOURCES = sorted(Path(heilbronn.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library_code(path):
    # python -O strips assert statements, so runtime invariants raise
    # explicit exceptions; AssertionError is reserved for the test suite
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "AssertionError")]
    assert not found, f"{path.name}: assert or AssertionError at {found}"


def test_sources_found():
    assert {"modarith.py", "sctheory.py", "spectra.py", "fermat.py",
            "bench.py", "cli.py"} <= {p.name for p in SOURCES}


def test_readme_exit_codes_match_cli():
    # the README's exit-code table lists exactly the EXIT_* codes of the CLI
    readme = ROOT / "README.md"
    table = readme.read_text().split("Exit codes:", 1)[1].split("\n## ", 1)[0]
    documented = sorted(int(m) for m in re.findall(r"^\| (\d+) \|", table, re.M))
    defined = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert documented == defined


def test_readme_format_flags_match_cli():
    # the README's sentence on --csv/--json names exactly the subcommands
    # whose parsers define both flags
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI", 1)[1].split("\n## ", 1)[0]
    sentence = next(s for s in re.split(r"(?<=\.)\s+", section)
                    if "`--csv`/`--json`" in s)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    with_flags = {name for name, sub in subparsers.items()
                  if {"--csv", "--json"} <= set(sub._option_string_actions)}
    if re.search(r"\ball subcommands\b", sentence, re.I):
        named = set(subparsers)
    else:
        named = set(re.findall(r"`(\w+)`", sentence)) & set(subparsers)
    assert named == with_flags


def test_pow_loop_table_is_called_nowhere():
    # pth_power_table is the tests' reference; the library reads
    # PrimeContext.pth_powers, filled by build_context's walk
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "pth_power_table":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mpmath_import_in_library_code(path):
    # the spectrum is float64 only; mpmath is the tests' 256-bit oracle
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "mpmath" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "mpmath")]
    assert not found, f"{path.name}: mpmath imported at {found}"


def test_mpmath_is_a_test_dependency_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(specs):
        return [re.split(r"[<>=!~\[ ;]", spec, maxsplit=1)[0] for spec in specs]

    assert names(project["dependencies"]) == ["numpy"]
    extras = project["optional-dependencies"]
    assert [k for k, v in extras.items() if "mpmath" in names(v)] == ["test"]


def perfbench_tree(name):
    path = ROOT / "perfbench" / name
    return ast.parse(path.read_text(), filename=str(path))


def test_perfbench_traced_names_resolve():
    # perfbench/run.py --trace wraps heilbronn.<module>.<function> for every
    # entry of spans.TRACED; read from the source, perfbench is not imported
    traced = next(ast.literal_eval(node.value)
                  for node in perfbench_tree("spans.py").body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = []
    for name in traced:
        module, func = name.split(".")
        module = importlib.import_module(f"heilbronn.{module}")
        if not callable(getattr(module, func, None)):
            missing.append(name)
    assert traced and missing == []


def test_perfbench_workloads_use_exported_names():
    # every hb.<name> of the workloads is public, and every name they
    # import from a heilbronn module exists there
    tree = perfbench_tree("workloads.py")
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "hb"}
    assert used and used <= set(heilbronn.__all__)
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("heilbronn")
                for alias in node.names]
    assert all(hasattr(importlib.import_module(m), a) for m, a in imported)

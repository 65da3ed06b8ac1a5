"""Byte-for-byte replay of the recorded gcs reports and recombination results.

tests/golden/cli.json holds the JSON standard output and the exit code of
check, detect, both decompose strategies and both solve strategies on every
corpus file.  tests/golden/solve_tree.json holds the library ``solve_tree``
results (solution and placement floats as hex, certificate or refusal) of
top-down and bottom-up trees on strips, the 2D corpus and the solve corpus.
tests/golden/equations.json holds the ``dump_equations`` listing of compiled
systems that together hold every row shape the compiler emits.
scripts/make_golden.py writes all three, and tests/golden/tables.txt.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from gcskernel.cli import main
from gcskernel.compiler import dump_equations

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))["cases"]
TREE_CASES = json.loads(
    (ROOT / "tests" / "golden" / "solve_tree.json").read_text(encoding="utf-8"))["cases"]
EQUATION_CASES = json.loads(
    (ROOT / "tests" / "golden" / "equations.json").read_text(encoding="utf-8"))["cases"]


def make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def command(case) -> str:
    # argv is ["--format", "json", <command>, <model>, <options>...]
    return " ".join([case["argv"][2]] + case["argv"][4:])


@pytest.mark.parametrize("cmd", sorted({command(c) for c in CASES}))
def test_cli_reports_match_golden(cmd, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GCS_SEED", raising=False)
    mismatched = []
    for case in (c for c in CASES if command(c) == cmd):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
        if code != case["exit"]:
            mismatched.append(f"{case['argv'][3]}: exit {code}, expected {case['exit']}")
        if out.getvalue() != case["stdout"]:
            mismatched.append(f"{case['argv'][3]}: stdout differs")
    assert not mismatched, mismatched


@pytest.mark.parametrize("strategy", ["top-down", "bottom-up"])
def test_solve_tree_results_match_golden(strategy, monkeypatch):
    monkeypatch.chdir(ROOT)
    script = make_golden()
    recorded = [c for c in TREE_CASES if c["strategy"] == strategy]
    replayed = [(label, m) for s, label, m in script.solve_tree_cases() if s == strategy]
    assert [c["model"] for c in recorded] == [label for label, _ in replayed]
    mismatched = [
        label for case, (label, m) in zip(recorded, replayed)
        if {"strategy": strategy, "model": label, **script.solve_tree_record(strategy, m)}
        != case]
    assert not mismatched, mismatched


def replay_equations() -> list[str]:
    """Labels of the equation cases whose listing differs from the record."""
    replayed = make_golden().equations_cases()
    assert [c["system"] for c in EQUATION_CASES] == [label for label, _ in replayed]
    return [label for case, (label, system) in zip(EQUATION_CASES, replayed)
            if dump_equations(system) != case["equations"]]


def test_equation_listings_match_golden(empty_templates, monkeypatch):
    # from an empty template cache: the first constraint of each signature
    # is emitted through terms, the others stamped from its template
    monkeypatch.chdir(ROOT)
    mismatched = replay_equations()
    assert not mismatched, mismatched


def test_equation_listings_match_golden_from_stamps_alone(empty_templates, monkeypatch):
    monkeypatch.chdir(ROOT)
    make_golden().equations_cases()
    mismatched = replay_equations()
    assert not mismatched, mismatched

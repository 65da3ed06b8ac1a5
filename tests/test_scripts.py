import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_tables_prints_every_table():
    """The tables match tests/golden/tables.txt (scripts/make_golden.py) byte for byte."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_tables.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = SCRIPTS.parent / "tests" / "golden" / "tables.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")


def tree_bytes(directory):
    """Every file under ``directory`` by its relative path, with its bytes."""
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_refuses_an_argument_it_does_not_take(script, tmp_path):
    """``--help`` is no argument any script takes: each prints a usage line
    on stderr and exits 2, without a traceback, before it writes anything,
    in the working directory or under corpus/ and tests/golden/."""
    root = SCRIPTS.parent
    kept = {d: tree_bytes(root / d) for d in ("corpus", "tests/golden")}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("usage:") for line in proc.stderr.splitlines()), proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
    assert {d: tree_bytes(root / d) for d in kept} == kept


def drift_pair(tmp_path, edit):
    """Run golden_drift.py on the recorded cli and solve_tree goldens against
    copies changed by ``edit(cli_cases, tree_cases)``."""
    golden = Path(__file__).resolve().parents[1] / "tests" / "golden"
    runs = []
    old = {name: json.loads((golden / name).read_text(encoding="utf-8"))
           for name in ("cli.json", "solve_tree.json")}
    new = json.loads(json.dumps(old))
    edit(new["cli.json"]["cases"], new["solve_tree.json"]["cases"])
    for name in old:
        (tmp_path / name).write_text(json.dumps(new[name]), encoding="utf-8")
        runs.append(subprocess.run(
            [sys.executable, str(SCRIPTS / "golden_drift.py"), str(golden / name),
             str(tmp_path / name)], capture_output=True, text=True, timeout=120))
    return runs


def solve_case(cases, model):
    return next(c for c in cases if c["argv"][2:5] == ["solve", f"corpus/{model}.json",
                                                      "--strategy"])


def edit_report(case, change):
    report = json.loads(case["stdout"])
    change(report)
    case["stdout"] = json.dumps(report, indent=2, sort_keys=True) + "\n"


def move_floats(by):
    def edit(cli, trees):
        edit_report(solve_case(cli, "solve-strip3"),
                    lambda r: r["entities"]["P3"].__setitem__(0, r["entities"]["P3"][0] + by))
        case = next(c for c in trees if "solution" in c)
        p = next(iter(case["solution"]))
        case["solution"][p][0] = (float.fromhex(case["solution"][p][0]) + by).hex()
    return edit


def test_golden_drift_passes_small_float_moves(tmp_path):
    cli, tree = drift_pair(tmp_path, move_floats(3e-12))
    assert cli.returncode == 0 and tree.returncode == 0, cli.stdout + tree.stdout
    assert "solve corpus/solve-strip3.json --strategy direct: largest float change 3e-12" \
        in cli.stdout
    assert "1 of 156 cases moved floats" in cli.stdout
    assert "largest float change 3e-12" in tree.stdout


@pytest.mark.parametrize("edit", [
    pytest.param(move_floats(2e-9), id="float-past-the-limit"),
    pytest.param(lambda cli, trees: edit_report(
        solve_case(cli, "solve-strip3"), lambda r: r.__setitem__("iterations", 7)),
        id="iterations"),
    pytest.param(lambda cli, trees: solve_case(cli, "k4").__setitem__("exit", 6), id="exit"),
    pytest.param(lambda cli, trees: next(c for c in trees if "refused" in c)["refused"]
                 .__setitem__("type", "AlignmentError"), id="refusal"),
])
def test_golden_drift_fails_on_large_moves_and_other_changes(tmp_path, edit):
    runs = drift_pair(tmp_path, edit)
    assert any(r.returncode == 1 for r in runs)
    assert all(r.returncode in (0, 1) for r in runs)


def test_readme_python_examples_run():
    """Every ```python block of README.md runs, in order, in one fresh
    interpreter with ``src`` on the path (a later block reads the names an
    earlier one defined)."""
    root = SCRIPTS.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          capture_output=True, text=True, timeout=120, cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr

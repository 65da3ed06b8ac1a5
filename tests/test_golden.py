"""Byte-for-byte replay of the recorded gcs reports on the corpus.

tests/golden/cli.json holds the JSON standard output and the exit code of
check, detect, both decompose strategies and both solve strategies on every
corpus file; scripts/make_golden.py writes it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gcskernel.cli import main

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))["cases"]


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

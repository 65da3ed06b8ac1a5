"""Record the gcs JSON reports and exit codes on the corpus as a golden file.

Usage, from the root of the repository:

    PYTHONPATH=src python scripts/make_golden.py [OUTPUT]

OUTPUT defaults to tests/golden/cli.json.  Each case runs
``gcs --format json <command> corpus/<name>.json`` in-process, with GCS_SEED
unset, and records its standard output and exit code.  The commands are
``check``, ``detect``, ``decompose`` with both strategies and ``solve`` with
both strategies.  tests/test_golden.py replays every case and compares the
output byte for byte, so regenerate the file only for an intended change of
output, and say which reports changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from gcskernel.cli import main as gcs_main

COMMANDS = (
    ["check"],
    ["detect"],
    ["decompose", "--strategy", "bottom-up"],
    ["decompose", "--strategy", "top-down"],
    ["solve", "--strategy", "direct"],
    ["solve", "--strategy", "decomposed"],
)
DEFAULT_OUTPUT = os.path.join("tests", "golden", "cli.json")


def cases(corpus_dir: str = "corpus") -> list[list[str]]:
    """argv of every case: each command on each corpus file, in sorted order."""
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".json"))
    return [["--format", "json", cmd[0], f"{corpus_dir}/{name}", *cmd[1:]]
            for cmd in COMMANDS for name in names]


def run(argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of one in-process gcs run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gcs_main(argv)
    return out.getvalue(), code


def main(argv: list[str]) -> int:
    path = argv[0] if argv else DEFAULT_OUTPUT
    if "GCS_SEED" in os.environ:
        print("unset GCS_SEED: the golden reports use the default seed", file=sys.stderr)
        return 1
    records = []
    for case in cases():
        stdout, code = run(case)
        records.append({"argv": case, "exit": code, "stdout": stdout})
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cases": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

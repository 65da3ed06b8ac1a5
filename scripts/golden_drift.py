"""Compare two golden files case by case and report how far their floats moved.

Usage, from the root of the repository:

    python scripts/golden_drift.py OLD NEW

OLD and NEW are two versions of one file that scripts/make_golden.py writes
(``tests/golden/cli.json`` or ``tests/golden/solve_tree.json``).  Floats are
compared wherever they occur: as JSON numbers, as ``float.hex`` strings, and
inside a case's ``stdout`` when that holds a JSON report.  Everything else
(exit codes, verdicts, statuses, iteration counts, refusals, ids) must be
equal.

It prints the largest float change of every case whose floats moved, each
difference of anything else, and a summary line.  The exit code is 1 when
anything other than a float differs or a float moved by DRIFT_LIMIT or more,
2 on a usage error, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import sys

DRIFT_LIMIT = 1e-9
HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|-?inf|nan")


def _as_float(value) -> float | None:
    """The float a JSON value stands for, or None for any other value."""
    if isinstance(value, float):
        return value
    if isinstance(value, str) and HEX_FLOAT.fullmatch(value):
        return float.fromhex(value)
    return None


def _json_text(value):
    if isinstance(value, str) and value.lstrip().startswith("{"):
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            pass
    return None


def drift(old, new, path: str, differences: list[str]) -> float:
    """Largest absolute float change between two JSON values; other changes
    are appended to ``differences``."""
    a, b = _as_float(old), _as_float(new)
    if a is not None and b is not None:
        if math.isnan(a) and math.isnan(b) or a == b:
            return 0.0
        return abs(a - b) if math.isfinite(a - b) else math.inf
    a, b = _json_text(old), _json_text(new)
    if a is not None and b is not None:
        return drift(a, b, path, differences)
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return max((drift(old[k], new[k], f"{path}.{k}", differences) for k in old),
                   default=0.0)
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max((drift(x, y, f"{path}[{i}]", differences)
                    for i, (x, y) in enumerate(zip(old, new))), default=0.0)
    if type(old) is not type(new) or old != new:
        differences.append(f"{path}: {json.dumps(old)[:80]} -> {json.dumps(new)[:80]}")
    return 0.0


def _cases(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def label(case: dict) -> str:
    if "argv" in case:
        return " ".join(case["argv"])
    return f"{case.get('strategy')} {case.get('model')}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/golden_drift.py OLD NEW", file=sys.stderr)
        return 2
    old_cases, new_cases = (_cases(path) for path in argv)
    failed = False
    if len(old_cases) != len(new_cases):
        print(f"case count differs: {len(old_cases)} -> {len(new_cases)}")
        failed = True
    moved = 0
    largest = 0.0
    for old, new in zip(old_cases, new_cases):
        differences: list[str] = []
        change = drift(old, new, "", differences)
        for d in differences:
            print(f"{label(old)}: differs at {d}")
        if change > 0.0:
            moved += 1
            print(f"{label(old)}: largest float change {change:.3g}")
        largest = max(largest, change)
        failed = failed or bool(differences) or change >= DRIFT_LIMIT
    print(f"{moved} of {len(old_cases)} cases moved floats; largest change {largest:.3g}"
          f" (limit {DRIFT_LIMIT:g}); {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

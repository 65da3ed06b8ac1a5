import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_tables_prints_every_table():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_tables.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for title in (
        "Constraint-state verdicts (structural counting vs witness method)",
        "Degree of rigidity (rank of the rigid-motion basis)",
        "Representation sensitivity (columns / rank / DOR / matched)",
        "Greedy vs exhaustive dependency groups (seed row E1)",
        "Greedy well parts vs seed entity (brace-chain demo)",
    ):
        assert title in proc.stdout

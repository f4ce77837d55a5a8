"""The default log.csv of every preset keeps its recorded sha256."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_default_preset_logs_match_recorded_hashes():
    # bench/run.py imports muown from src/ and compares each default preset's
    # log.csv with bench/expected.json; it writes only under .bench_out/.
    proc = subprocess.run([sys.executable, "bench/run.py", "--check-presets"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.startswith("ok ")]
    assert len(ok) == 7, proc.stdout

"""The benchmark's self-checks run with the tests: `bench/selftest.py` calls
`evaluation.metrics_report`, `report_to_dict` and `render_report_text`, so a
rename there fails here and not only in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # a skip would mean it ran without src/lesionprep and checked nothing of it
    assert "skipped" not in result.stderr, result.stderr

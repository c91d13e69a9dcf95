"""The benchmark harness's self-check against the current sources.

bench/ imports prodrank by module attribute, parses checkpoint
descriptors and wraps functions by name, so a refactor of src/ can break
it without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
    assert "selfcheck: ok" in proc.stdout

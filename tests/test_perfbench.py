"""The benchmark's self-check: every workload at n = 8 through the untraced
and traced passes.  It guards the layer names the tracer wraps and the
agreement between traced step counts and the values the solvers return."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_selfcheck():
    proc = subprocess.run([sys.executable, str(RUN), "--selfcheck"],
                          capture_output=True, text=True, timeout=300,
                          cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck ok"

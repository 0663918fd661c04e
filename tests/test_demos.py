"""Each narrative script under demos/ runs to completion.  They call the
public API the way a user would (demo 06 prints an EnergyReport as JSON and
reads a HypothesisReport field by field), so an API change that breaks them
fails here.  Each runs with the warning categories pyproject.toml makes
errors inside pytest made errors too, so a demo that starts warning fails
rather than printing to a subprocess's stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = [arg for category in ("RuntimeWarning", "DeprecationWarning", "UserWarning")
                      for arg in ("-W", f"error::{category}")]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

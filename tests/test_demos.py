import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))

# SHA-1 of a demo's stdout, where it is pinned: demo 02 prints detect_full's
# louvain trajectory and marks the chosen state
STDOUT_SHA1 = {"02_community_detection.py": "f0d65b1ed4bd26840ef861d5d61550487545b6ef"}


def _child_env():
    """The parent's environment with the repo's ``src`` first on PYTHONPATH.

    The child runs from a temporary directory, so every inherited entry is
    made absolute against the parent's working directory first; a relative
    ``src`` would otherwise be looked up under the temporary directory.
    """
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(REPO / "src")] + [os.path.abspath(p) for p in inherited if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,  # demos must not depend on the working directory
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    if script.name in STDOUT_SHA1:
        digest = hashlib.sha1(result.stdout.encode()).hexdigest()
        assert digest == STDOUT_SHA1[script.name], result.stdout

"""The README's library quick start runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_prints_its_documented_output():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\s*```python\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no python block under 'Library quick start'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", block[1]], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["2", "21 True"]

"""Every fenced ``python`` block of the README runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert BLOCKS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for block in BLOCKS:
        run = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

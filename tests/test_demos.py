"""Smoke tests: every script in demos/ and README's library example run
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import afpg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(afpg.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_use_runs(capsys):
    # the python block of README's "Library use": one period of a sine,
    # whose printed (l1, l2, linf) errors are those of a working solver
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    norms = [float(v) for v in re.findall(r"\d[\d.eE+-]*", capsys.readouterr().out)]
    assert len(norms) == 3 and all(0.0 < v < 1e-3 for v in norms)

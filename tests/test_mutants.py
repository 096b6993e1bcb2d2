"""The suite's power, executed: each mutant in `mutants.py` applied to a copy
of the package must make its killer tests fail, and the killers must pass on
the unmutated package."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _run_killers(src: Path, killers: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def test_killers_pass_unmutated(tmp_path):
    killers = sorted({test for *_, tests in MUTANTS for test in tests})
    proc = _run_killers(_copy_src(tmp_path), killers)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("name, file, old, new, killers", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_killed(name, file, old, new, killers, tmp_path):
    src = _copy_src(tmp_path)
    path = src / "relevance_sim" / file
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: the old text must occur exactly once in {file}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    proc = _run_killers(src, killers)
    # Exit code 1 means tests ran and failed; anything else (a collection or
    # usage error, no tests run) would not show the mutant was detected.
    assert proc.returncode == 1, f"{name} survived:\n" + proc.stdout[-3000:] + proc.stderr[-3000:]

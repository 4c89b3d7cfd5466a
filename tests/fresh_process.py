"""Run spdmark in a fresh Python process.

The only place the tests start a child process.  The child imports this
checkout's `src` ahead of anything else on PYTHONPATH, and inherits no
OPENBLAS_* variable: it sees only the ones a test asks for, so the BLAS
thread count and kernel are what the test states, not what the shell
running the suite happened to set.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(argv: list, env, cwd) -> str:
    """Run `argv` and return its stdout; a nonzero exit fails the test with
    the child's stderr."""
    inherited = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    inherited["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), inherited.get("PYTHONPATH")]))
    child = subprocess.run(
        argv, env={**inherited, **(env or {})}, cwd=cwd, capture_output=True, text=True
    )
    assert child.returncode == 0, (argv, env, child.returncode, child.stderr)
    return child.stdout


def run_cli(args, env=None, cwd=None) -> str:
    """`python -m spdmark.cli *args`, which must exit 0; returns its stdout."""
    return _run([sys.executable, "-m", "spdmark.cli", *map(str, args)], env, cwd)


def run_script(code: str, args=(), env=None) -> str:
    """`python -c code *args`, which must exit 0; returns its stdout."""
    return _run([sys.executable, "-c", code, *map(str, args)], env, None)

"""Shared pytest plumbing.

Collects the acceptance-gate result lines so the terminal summary shows
one pass/fail line per criterion even when output capture is on, and runs
the command-line interface or a script in a child process for the
subprocess tests, with one BLAS thread and optionally on one CPU.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import occelm

CRITERIA_LINES: list[str] = []


def record_criterion(line: str) -> None:
    """Register one criterion result line and echo it immediately."""
    CRITERIA_LINES.append(line)
    print(line)


def run_cli(argv, cwd) -> subprocess.CompletedProcess:
    """Run ``python -m occelm *argv`` in a child process started in ``cwd``."""
    return run_python(["-m", "occelm", *argv], cwd)


def run_python(args, cwd) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process started in ``cwd``.

    The child imports the same ``occelm`` this process imported, from a
    source checkout or an installed package alike: the directory holding
    the package goes first on ``PYTHONPATH``, and relative entries already
    there are made absolute, since the child resolves them against ``cwd``.
    """
    package_root = str(Path(occelm.__file__).resolve().parents[1])
    inherited = [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def run_code(code: str, cwd, one_cpu: bool) -> subprocess.CompletedProcess:
    """Run code in a child with one BLAS thread, on every CPU of this
    process or pinned to the first before it imports numpy. Products like
    A @ B.T depend on the BLAS thread count, which follows the CPU count
    unless it is fixed; the tiles and selection workers must not."""
    prefix = (
        "import os; os.environ.update(OMP_NUM_THREADS='1', "
        "OPENBLAS_NUM_THREADS='1', MKL_NUM_THREADS='1'); "
    )
    if one_cpu:
        prefix += "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    proc = run_python(["-c", prefix + code], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def perfbench_module(name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` run from its source as a fresh module; it is
    never imported, so no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERIA_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in CRITERIA_LINES:
            terminalreporter.write_line(line)

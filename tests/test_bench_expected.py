"""The benchmark's recorded selection outputs, checked in the test suite.

One `protocol_select` cycle (`perfbench/workloads.py`: set-up, one cycle,
observe) at input seed 4 must reproduce the report, run and selection CSV
hashes, F1/AUC and chosen parameters stored in `perfbench/expected.json`.
A change that moves any selection byte then fails here, not only in the
benchmark run. Seed 4 has threshold ties on duplicate integer rows, so it
flips under small changes to the random-feature outputs.

The cycle runs in a child process with one BLAS thread, as the benchmark
does: the recorded bytes are those of a single-threaded BLAS, and a
multi-threaded one changes the low bits of some products.
"""

import json
from pathlib import Path

from conftest import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUT_SEED = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import json, sys, types
path, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads = types.ModuleType("perfbench_workloads")
workloads.__file__ = path
with open(path) as fh:
    exec(compile(fh.read(), path, "exec"), workloads.__dict__)
workload = workloads.ProtocolSelect(seed, workdir)
workload.setup()
ops = workloads.Ops()
cycles = [workload.cycle(ops)]
assert ops.failed == 0, "a bench call failed"
print(json.dumps(workload.observe(cycles)))
"""


def test_protocol_select_matches_recorded_outputs(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    proc = run_python(
        ["-c", CHILD, str(PERFBENCH / "workloads.py"), str(INPUT_SEED), str(tmp_path)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    observed = json.loads(proc.stdout.strip().splitlines()[-1])
    assert observed == expected["protocol_select"][str(INPUT_SEED)]

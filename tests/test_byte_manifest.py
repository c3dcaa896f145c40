"""The byte contract of the command line, checked in the test suite.

tools/byte_manifest.json holds, for each command of tools/byte_audit.py,
the exit code and the sha256 of stdout, of stderr without timing lines and
of every file the command wrote, taken at one BLAS thread. This test
replays the tool's tier-1 subset (byte_audit.commands(full=False): every
command, the refusals, and train plus score for all 15 variant ids)
through cli.main in one child process at one BLAS thread, and compares
each entry with the manifest. A change that moves one byte of a replayed
command fails here. A change that moves bytes on purpose records the
manifest again in the same commit,

    python3 tools/byte_audit.py --src src --out tools/byte_manifest.json

and the diff names the commands that moved.

The hashes hold for the Python, numpy, scipy and BLAS builds named in the
manifest's env: argparse lays out --help by the Python version, and another
BLAS build changes the low bits of products. Under any other build the test
skips and names what differs, rather than pass on bytes it cannot check.
"""

import json
from pathlib import Path

import pytest
from conftest import run_python

import occelm

TOOLS = Path(__file__).resolve().parents[1] / "tools"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import json, sys
from pathlib import Path
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import byte_audit
print(json.dumps(byte_audit.audit(Path(sys.argv[2]), byte_audit.commands(full=False), here=True)))
"""


def test_replayed_commands_match_the_manifest(tmp_path, monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help at COLUMNS
    src = Path(occelm.__file__).resolve().parents[1]
    proc = run_python(["-c", CHILD, str(TOOLS), str(src)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    replay = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = json.loads((TOOLS / "byte_manifest.json").read_text())
    if replay["env"] != manifest["env"]:
        pytest.skip(f"recorded under {manifest['env']}, this is {replay['env']}")
    moved = [argv for argv, entry in replay["commands"].items()
             if manifest["commands"].get(argv) != entry]
    assert len(replay["commands"]) > 100
    assert moved == [], "bytes moved:\n" + "\n".join(moved)

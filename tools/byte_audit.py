"""Byte audit of the occelm command line: run a fixed set of seeded
commands against one source tree and record what each one wrote.

    python3 tools/byte_audit.py --src src --out manifest.json
    python3 tools/byte_audit.py --compare parent.json change.json

--src runs every command as a fresh `python -m occelm` child with
PYTHONPATH=<dir> and OPENBLAS_NUM_THREADS=1, in order, in one temporary
directory (later commands read what earlier ones wrote). For each command
the manifest holds the exit code and the sha256 of stdout, of stderr
without its timing lines (`train ...s`, `run N: train ...s`) and of every
file the command created or changed. The inputs are perfbench's 699x9
table (perfbench/workloads.py::write_table, run from its source), `gen`
output, the tiny malformed tables of INPUTS and the edited models of
EDITED. --compare prints each command whose entries differ,
with the parts that differ (exit, stdout, stderr, or `file <name>`), and
exits 1 if any do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMING = re.compile(r"^(run \d+: )?train \d+\.\d+s$")
RUN_IDS = ["ocelm_thr1", "ockelm_thr2", "aaelm_thr3", "aakelm_thr3",
           "ocelm_thr1_rbf", "os_ocelm_thr1", "os_aaelm_thr2"]
SELECT_IDS = ["ockelm_thr1", "ocelm_thr2", "aakelm_thr3"]
# the kernel grids with a degree, a b_w or no kernel parameter
KERNEL_SELECT = [(v, k) for v in ("ockelm_thr1", "aakelm_thr3")
                 for k in ("linear", "polynomial", "wavelet")]
TABLE = ["table.csv", "--label-col", "-1", "--seed", "7"]
COMMANDS = ("gen", "train", "score", "bench", "select", "grid")
# tiny tables that each command line below refuses
INPUTS = {"empty.csv": "", "header.csv": "a,b,label\n", "ragged.csv": "1,2,+1\n3,4\n",
          "outliers.csv": "1,2,-1\n3,5,-1\n", "targets.csv": "1,2,+1\n3,5,+1\n4,1,+1\n",
          "same.csv": "1,2\n1,2\n1,2\n"}
# models that commands below refuse: name -> (model it is edited from, pattern, replacement)
EDITED = {"b3.occ": ("ockelm_thr1.sel.occ",  # a boundary model claiming thr3
                     r"tspec thr1 (.*)\nthresh .*", r"tspec thr3 \1\nthresh nan"),
          "sigma.occ": ("ring.occ", r"kparam sigma .*", "kparam sigma -1")}
# one command per argument or usage refusal the CLI reaches
REFUSALS = [
    ["train", "ockelm_thr1", *TABLE, "--node-type", "sig", "-o", "x.occ"],
    ["train", "os_ocelm_thr1", *TABLE, "--kernel", "rbf", "-o", "x.occ"],
    ["train", "ockelm_thr1_sig", *TABLE, "-o", "x.occ"],
    ["train", "ocelm_thr1_rbf", *TABLE, "--node-type", "sig", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--folds", "3", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--select", "--c-reg", "1", "-o", "x.occ"],
    ["select", "ockelm_thr1", *TABLE, "--c-reg", "1"],
    ["train", "ockelm_thr1", *TABLE, "--kernel", "wavelet", "--kern-par", "1e200", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--kernel", "wavelet", "--kern-par", "1e-300", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--kernel", "polynomial", "--kern-par", "2.5", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--kern-par", "0", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--c-reg", "-1", "-o", "x.occ"],
    ["train", "ockelm_thr1", *TABLE, "--fracrej", "1.5", "-o", "x.occ"],
    ["bench", "ocelm_thr1", *TABLE, "--fracrej", "-0.5", "--runs", "1"],
    ["select", "ockelm_thr1", *TABLE, "--fracrej", "0"],
    ["select", "ockelm_thr1", *TABLE, "--sigma-thr", "-1"],
    ["select", "ockelm_thr1", *TABLE, "--sigma-thr", "nan"],
    ["select", "ockelm_thr1", *TABLE, "--folds", "1"],
    ["select", "ocelm_thr1", "same.csv", "--seed", "7", "--folds", "9"],
    ["gen", "ring", "--radius", "0", "--seed", "1", "-o", "r0.csv"],
    ["gen", "ring", "--radius", "inf", "--seed", "1", "-o", "r0.csv"],
    ["gen", "banana", "--noise-std", "nan", "--seed", "1", "-o", "r0.csv"],
    ["gen", "ring", "--noise-std", "-1", "--seed", "1", "-o", "r0.csv"],
    ["score", "sigma.occ", "table.csv"],
]


def commands() -> list[list[str]]:
    cmds = [["--help"]] + [[name, "--help"] for name in COMMANDS]
    cmds += [["gen", "ring", "--count", "60", "--seed", "1", "-o", "ring.csv"],
             ["gen", "banana", "--count", "60", "--seed", "2", "-o", "banana.csv"],
             ["gen", "banana", "--radius", "5", "--count", "3", "--seed", "1", "-o", "b.csv"]]
    for v in RUN_IDS:
        cmds += [["train", v, *TABLE, "-o", f"{v}.occ"],
                 ["score", f"{v}.occ", "table.csv", "--label-col", "-1", "-o", f"{v}.score.csv"],
                 ["score", f"{v}.occ", "table.csv", "--label-col", "-1"],
                 ["bench", v, *TABLE, "--runs", "2", "-o", f"{v}.bench.csv"]]
    for v in SELECT_IDS:
        cmds += [["select", v, *TABLE, "-o", f"{v}.sel.csv"],
                 ["bench", v, *TABLE, "--runs", "2", "--select", "-o", f"{v}.bsel.csv"],
                 ["train", v, *TABLE, "--select", "-o", f"{v}.sel.occ"]]
    for v, k in KERNEL_SELECT:
        cmds += [["select", v, *TABLE, "--kernel", k, "-o", f"{v}_{k}.sel.csv"],
                 ["bench", v, *TABLE, "--kernel", k, "--runs", "2", "--select",
                  "-o", f"{v}_{k}.bsel.csv"]]
    cmds += [["select", "os_ocelm_thr1", *TABLE, "-o", "os_ocelm_thr1.sel.csv"],  # no C grid
             ["train", "os_ocelm_thr1", *TABLE, "--select", "-o", "os_ocelm_thr1.sel.occ"]]
    cmds += [["train", "ockelm_thr1", "ring.csv", "--seed", "3", "-o", "ring.occ"],
             ["grid", "ring.occ", "--bounds", "-2", "2", "-2", "2", "--resolution", "15",
              "-o", "grid.csv"],
             ["grid", "ring.occ", "--bounds", "nan", "1", "0", "1"],
             ["grid", "ring.occ", "--bounds", "-2e0", "2", "-2E0", "2", "--resolution", "15",
              "-o", "grid_e.csv"],
             ["score", "ring.occ", "table.csv"],
             # a loaded online model: the grid scores it without its RLS matrix P
             ["train", "os_ocelm_thr1", "ring.csv", "--seed", "3", "--hidden", "5",
              "-o", "ring_os.occ"],
             ["grid", "ring_os.occ", "--bounds", "-2", "2", "-2", "2", "--resolution", "15",
              "-o", "grid_os.csv"]]
    cmds += [["train", "ockelm_thr1", "table.csv", "--label-col", "0", "--seed", "7", "-o", "x.occ"],
             ["train", "os_ocelm_thr1", *TABLE, "--n0", "3", "-o", "x.occ"],
             ["grid", "ocelm_thr1.occ", "--bounds", "-1", "1", "-1", "1"],
             ["score", "b3.occ", "table.csv", "--label-col", "-1"]]
    cmds += [[cmd, "ockelm_thr1", name, "--label-col", "-1", "--seed", "7", *extra]
             for cmd, name, extra in [("train", "empty.csv", ["-o", "x.occ"]),
                                      ("train", "header.csv", ["-o", "x.occ"]),
                                      ("train", "ragged.csv", ["-o", "x.occ"]),
                                      ("train", "outliers.csv", ["-o", "x.occ"]),
                                      ("bench", "outliers.csv", []), ("bench", "targets.csv", [])]]
    return cmds + [["select", "ockelm_thr1", "same.csv", "--seed", "7"], *REFUSALS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(cwd: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(cwd.iterdir()) if p.is_file()}


def write_table(path: Path) -> None:
    """perfbench's table at input seed 3, run from perfbench/workloads.py's
    source without importing it (so no bytecode is written there)."""
    source = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(source)
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    module.write_table(3, str(path))


def audit(src: Path) -> dict[str, dict]:
    sys.path.insert(0, str(src))  # workloads.py imports occelm
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80",
           "PYTHONDONTWRITEBYTECODE": "1"}  # argparse wraps --help at COLUMNS
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_table(cwd / "table.csv")
        for name, text in INPUTS.items():
            (cwd / name).write_text(text)
        for argv in commands():
            for name in EDITED.keys() & argv:  # an edited model the command reads
                source, pattern, replacement = EDITED[name]
                text = re.sub(pattern, replacement, (cwd / source).read_text())
                (cwd / name).write_text(text)
            before = _files(cwd)
            proc = subprocess.run([sys.executable, "-m", "occelm", *argv], cwd=cwd,
                                  env=env, capture_output=True, timeout=600)
            err = [line for line in proc.stderr.decode().splitlines(keepends=True)
                   if not TIMING.match(line.rstrip("\n"))]
            after = _files(cwd)
            manifest[" ".join(argv)] = {
                "exit": proc.returncode,
                "stdout": _sha(proc.stdout),
                "stderr": _sha("".join(err).encode()),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    return manifest


def differing_parts(x: dict | None, y: dict | None) -> list[str]:
    """What differs between one command's two entries: its exit code,
    stdout, stderr and the names of the files it wrote."""
    if x is None or y is None:
        return ["only in " + ("B" if x is None else "A")]
    parts = [k for k in ("exit", "stdout", "stderr") if x[k] != y[k]]
    files = sorted(set(x["files"]) | set(y["files"]))
    return parts + [f"file {f}" for f in files if x["files"].get(f) != y["files"].get(f)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        differ = [name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
        for name in differ:
            parts = differing_parts(a.get(name), b.get(name))
            print(f"differs: {name}: {', '.join(parts)}")
        print(f"{len(set(a) | set(b))} commands, {len(differ)} differ")
        return 1 if differ else 0
    if args.src is None or args.out is None:
        parser.error("give --src and --out, or --compare")
    manifest = audit(args.src.resolve())
    args.out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest)} commands, {sum(len(e['files']) for e in manifest.values())} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte audit of the occelm command line: run a fixed set of seeded
commands against one source tree and record what each one wrote.

    python3 tools/byte_audit.py --src src --out tools/byte_manifest.json
    python3 tools/byte_audit.py --compare tools/byte_manifest.json change.json

--src runs every command as a fresh `python -m occelm` child with
PYTHONPATH=<dir> and OPENBLAS_NUM_THREADS=1, in order, in one temporary
directory (later commands read what earlier ones wrote). For each command
the manifest holds the exit code and the sha256 of stdout, of stderr
without its timing lines (`train ...s`, `run N: train ...s`) and of every
file the command created or changed; its `env` names the Python, numpy,
scipy and BLAS builds the hashes were taken under. The inputs are
perfbench's 699x9 table (perfbench/workloads.py::write_table, run from its
source), `gen` output, the tiny malformed tables of INPUTS and the edited
models of EDITED. --compare prints each command whose entries differ, with
the parts that differ (exit, stdout, stderr, or `file <name>`), and exits 1
if any do.

tools/byte_manifest.json is the committed manifest of the repository's own
source; a change that moves a byte records it again in the same commit.
tests/test_byte_manifest.py replays commands(full=False) through cli.main in
one process (audit(..., here=True)) and compares them with that manifest.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMING = re.compile(r"^(run \d+: )?train \d+\.\d+s$")
ALL_IDS = ["ocelm_thr1", "ocelm_thr2", "ockelm_thr1", "ockelm_thr2", "aaelm_thr1", "aaelm_thr2",
           "aaelm_thr3", "aakelm_thr1", "aakelm_thr2", "aakelm_thr3", "os_ocelm_thr1",
           "os_ocelm_thr2", "os_aaelm_thr1", "os_aaelm_thr2", "os_aaelm_thr3"]
RUN_IDS = ["ocelm_thr1", "ockelm_thr2", "aaelm_thr3", "aakelm_thr3",
           "ocelm_thr1_rbf", "os_ocelm_thr1", "os_aaelm_thr2"]
SELECT_IDS = ["ockelm_thr1", "ocelm_thr2", "aakelm_thr3"]
# a kernel, a random and an online id benched over 5 runs: runs 1-4 may run in forked children
FORK_IDS = ["aakelm_thr3", "ocelm_thr1", "os_ocelm_thr1"]
# the kernel grids with a degree, a b_w or no kernel parameter
KERNEL_SELECT = [(v, k) for v in ("ockelm_thr1", "aakelm_thr3")
                 for k in ("linear", "polynomial", "wavelet")]
TABLE = ["table.csv", "--label-col", "-1", "--seed", "7"]
COMMANDS = ("gen", "train", "score", "bench", "select", "grid")
# tiny tables that each command line below refuses
INPUTS = {"empty.csv": "", "header.csv": "a,b,label\n", "ragged.csv": "1,2,+1\n3,4\n",
          "outliers.csv": "1,2,-1\n3,5,-1\n", "targets.csv": "1,2,+1\n3,5,+1\n4,1,+1\n",
          "same.csv": "1,2\n1,2\n1,2\n"}


def _payload(match: re.Match, edit) -> str:
    """match's shape line, then its base64 payload with edit applied to the bytes."""
    return match[1] + base64.b64encode(edit(base64.b64decode(match[2]))).decode()


# models that commands below refuse: name -> (model it is edited from, pattern, replacement)
EDITED = {"b3.occ": ("ockelm_thr1.occ",  # a boundary model claiming thr3
                     r"tspec thr1 (.*)\nthresh .*", r"tspec thr3 \1\nthresh nan"),
          "sigma.occ": ("ring.occ", r"kparam sigma .*", "kparam sigma -1"),
          "tiny.occ": ("ring.occ", r"kparam sigma .*", "kparam sigma 1e-300"),
          # array payloads: a character outside base64, one value short, a NaN,
          # and the file cut right after a shape line
          "char.occ": ("ockelm_thr1.occ", r"(beta \d+ \d+\n)\S", r"\1*"),
          "short.occ": ("ockelm_thr1.occ", r"(basis \d+ \d+\n)(\S+)",
                        lambda m: _payload(m, lambda raw: raw[:-8])),
          "nan.occ": ("ockelm_thr1.occ", r"(beta \d+ \d+\n)(\S+)",
                      lambda m: _payload(m, lambda raw: struct.pack("<d", math.nan) + raw[8:])),
          "cut.occ": ("ockelm_thr1.occ", r"(basis \d+ \d+\n)[\s\S]*", r"\1")}
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
    # derived numbers that overflow: the lattice, the drawn rows, -2 sigma^2
    ["grid", "ring.occ", "--bounds", "-1e308", "1e308", "-1e308", "1e308"],
    ["grid", "ring.occ", "--bounds", "-5", "-5", "-5", "1.7976931348623157e308",
     "--resolution", "4"],
    ["gen", "ring", "--noise-std", "1e308", "--seed", "1", "-o", "r0.csv"],
    ["gen", "banana", "--noise-std", "1e308", "--seed", "1", "-o", "r0.csv"],
    ["train", "ockelm_thr1", *TABLE, "--kern-par", "1e-300", "-o", "x.occ"],
    ["score", "tiny.occ", "ring.csv"],
]


def commands(full: bool = True) -> list[list[str]]:
    """The audited commands in order; without full, the subset tier-1
    replays: all but the selections over an rbf or wavelet grid or of a
    random-feature id and the 5-run selections, about 37 of the 42 s all
    take in one process."""
    cmds = [["--help"]] + [[name, "--help"] for name in COMMANDS]
    # ring.csv and ring62.csv hold 1770 and 1891 pairwise distances: the
    # default width is the median of an even and of an odd count
    cmds += [["gen", "ring", "--count", "60", "--seed", "1", "-o", "ring.csv"],
             ["gen", "ring", "--count", "62", "--seed", "1", "-o", "ring62.csv"],
             ["gen", "banana", "--count", "60", "--seed", "2", "-o", "banana.csv"],
             ["gen", "banana", "--radius", "5", "--count", "3", "--seed", "1", "-o", "b.csv"]]
    for v in dict.fromkeys(ALL_IDS + RUN_IDS):
        cmds += [["train", v, *TABLE, "-o", f"{v}.occ"],
                 ["score", f"{v}.occ", "table.csv", "--label-col", "-1", "-o", f"{v}.score.csv"]]
    for v in RUN_IDS:
        cmds += [["score", f"{v}.occ", "table.csv", "--label-col", "-1"],
                 ["bench", v, *TABLE, "--runs", "2", "-o", f"{v}.bench.csv"]]
    for v in SELECT_IDS if full else []:
        cmds += [["select", v, *TABLE, "-o", f"{v}.sel.csv"],
                 ["bench", v, *TABLE, "--runs", "2", "--select", "-o", f"{v}.bsel.csv"],
                 ["train", v, *TABLE, "--select", "-o", f"{v}.sel.occ"]]
    for v, k in KERNEL_SELECT:
        if full or k != "wavelet":
            cmds += [["select", v, *TABLE, "--kernel", k, "-o", f"{v}_{k}.sel.csv"],
                     ["bench", v, *TABLE, "--kernel", k, "--runs", "2", "--select",
                      "-o", f"{v}_{k}.bsel.csv"]]
    for v in FORK_IDS:
        cmds += [["bench", v, *TABLE, "--runs", "5", "-o", f"{v}.bench5.csv"]]
        if full:
            cmds += [["bench", v, *TABLE, "--runs", "5", "--select", "-o", f"{v}.bsel5.csv"]]
    cmds += [["select", "os_ocelm_thr1", *TABLE, "-o", "os_ocelm_thr1.sel.csv"],  # no C grid
             ["train", "os_ocelm_thr1", *TABLE, "--select", "-o", "os_ocelm_thr1.sel.occ"]]
    cmds += [["train", "ockelm_thr1", "ring.csv", "--seed", "3", "-o", "ring.occ"],
             ["train", "ockelm_thr1", "ring62.csv", "--seed", "3", "-o", "ring62.occ"],
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
    cmds += [["score", name, "table.csv", "--label-col", "-1"]
             for name in ("char.occ", "short.occ", "nan.occ", "cut.occ")]
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


def _perfbench(name: str) -> types.ModuleType:
    """perfbench/<name>.py run from its source without importing it (so no
    bytecode is written there)."""
    source = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(source)
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return module


def write_table(path: Path) -> None:
    """perfbench's table at input seed 3."""
    _perfbench("workloads").write_table(3, str(path))


def environment() -> dict:
    """The builds the hashes depend on, named as perfbench's env line names them."""
    import numpy
    import scipy

    blas = _perfbench("run")._blas
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def _run_child(argv, cwd: Path, src: Path) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80",
           "PYTHONDONTWRITEBYTECODE": "1"}  # argparse wraps --help at COLUMNS
    proc = subprocess.run([sys.executable, "-m", "occelm", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _run_here(argv, cwd: Path, src: Path) -> tuple[int, bytes, bytes]:
    """argv through cli.main in this process, which must have imported occelm
    from src with one BLAS thread and COLUMNS=80; an argparse exit counts as
    its code."""
    from occelm.cli import main

    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(home)
    return code, out.getvalue().encode(), err.getvalue().encode()


def audit(src: Path, argvs: list[list[str]], here: bool = False) -> dict:
    """The manifest of argvs run in order against src: in fresh children, or
    here (_run_here)."""
    sys.path.insert(0, str(src))  # workloads.py imports occelm
    run = _run_here if here else _run_child
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_table(cwd / "table.csv")
        for name, text in INPUTS.items():
            (cwd / name).write_text(text)
        for argv in argvs:
            for name in EDITED.keys() & argv:  # an edited model the command reads
                source, pattern, replacement = EDITED[name]
                text = re.sub(pattern, replacement, (cwd / source).read_text())
                (cwd / name).write_text(text)
            before = _files(cwd)
            code, stdout, stderr = run(argv, cwd, src)
            err = [line for line in stderr.decode().splitlines(keepends=True)
                   if not TIMING.match(line.rstrip("\n"))]
            after = _files(cwd)
            entries[" ".join(argv)] = {
                "exit": code,
                "stdout": _sha(stdout),
                "stderr": _sha("".join(err).encode()),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    return {"env": environment(), "commands": entries}


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
        (a_env, a), (b_env, b) = ((m["env"], m["commands"]) for m in
                                  (json.loads(p.read_text()) for p in args.compare))
        if a_env != b_env:
            print(f"env differs: {a_env} vs {b_env}")
        differ = [name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
        for name in differ:
            parts = differing_parts(a.get(name), b.get(name))
            print(f"differs: {name}: {', '.join(parts)}")
        print(f"{len(set(a) | set(b))} commands, {len(differ)} differ")
        return 1 if differ else 0
    if args.src is None or args.out is None:
        parser.error("give --src and --out, or --compare")
    manifest = audit(args.src.resolve(), commands())
    args.out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    entries = manifest["commands"].values()
    print(f"{len(entries)} commands, {sum(len(e['files']) for e in entries)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

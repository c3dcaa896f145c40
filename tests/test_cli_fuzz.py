"""Fuzz test of the command line: argv drawn from the parser's own flag
table, with negative, zero, NAN, infinite, huge and non-numeric values, and
malformed CSV and model-file bytes. Every run ends in exit 0, 1 or 2 (an
argparse exit included); no exception leaves main, and no RuntimeWarning
(numpy's floating-point warnings) is issued: a refusal prints its one error
line and nothing else. Selection runs on one worker, so its scan's warnings
are issued in this process. The sizes that allocate (rows, hidden nodes,
grid points, runs) are drawn small, so no run can ask for more memory than
a few MB.
"""

import argparse
import contextlib
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import occelm.modelsel
from occelm.cli import build_parser, main
from occelm.dataset import Dataset, gen_ring, write_csv

NUMBERS = ["-5", "-1", "0", "1", "2", "3", "0.5", "2.5", "1e-300", "nan", "inf", "-inf",
           "1e308", "-1e308", str(10**30), "x", "", "1,5"]
# the flags whose value sizes an allocation, with the largest value drawn
SIZES = {"--count": 40, "--hidden": 40, "--resolution": 12, "--runs": 3}
TABLES = ["labeled.csv", "plain.csv", "bad.csv"]
MODELS = ["kernel.occ", "random.occ", "online.occ", "bad.occ"]


def _flag_table() -> dict[str, tuple[list, list]]:
    """Each command's positionals and optional flags, from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        table[name] = ([a for a in actions if not a.option_strings],
                       [a for a in actions if a.option_strings and a.dest != "out"])
    return table


FLAGS = _flag_table()


def _value(action):
    """A value for one flag or positional: a choice or a word, a data file
    or model, a small size, or any number of the pool."""
    if action.choices is not None:
        return st.sampled_from([*action.choices, "nope"])
    if action.dest == "data":
        return st.sampled_from(TABLES)
    if action.dest == "model":
        return st.sampled_from(MODELS)
    option = action.option_strings[0] if action.option_strings else None
    if option in SIZES:
        return st.integers(-2, SIZES[option]).map(str) | st.sampled_from(["x", "nan"])
    if action.type is None:
        return st.sampled_from(["name", "", "-"])
    return st.sampled_from(NUMBERS) | st.floats().map(repr)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    positionals, optionals = FLAGS[command]
    argv = [command, *(draw(_value(a)) for a in positionals)]
    for action in draw(st.lists(st.sampled_from(optionals), max_size=4, unique=True)):
        argv.append(action.option_strings[-1])
        if action.nargs == 0:
            continue
        argv += [draw(_value(action)) for _ in range(action.nargs or 1)]
    if command in ("gen", "train") or draw(st.booleans()):  # the two that require -o
        argv += ["-o", "out"]
    return argv


@st.composite
def mutations(draw, text: str) -> bytes:
    """text with one line dropped, doubled, cut short or given a junk token,
    or wholly replaced by junk bytes."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["drop", "double", "cut", "token", "bytes"]))
    if edit == "drop":
        del lines[i]
    elif edit == "double":
        lines.insert(i, lines[i])
    elif edit == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    elif edit == "token":
        tokens = re.split(r"([ ,])", lines[i])
        junk = NUMBERS[:-3] + ["\x00", "+1,+1", "end", "OCCELM v2", "target", "9" * 140_000]
        tokens[2 * draw(st.integers(0, len(tokens) // 2))] = draw(st.sampled_from(junk))
        lines[i] = "".join(tokens)
    else:
        return draw(st.binary(max_size=40))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module", autouse=True)
def one_selection_worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(occelm.modelsel, "cpu_count", lambda: 1)
        yield


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Two small tables, a model of each engine and their texts."""
    path = tmp_path_factory.mktemp("fuzz")
    targets = gen_ring(16, noise_std=0.05, seed=2).samples
    outliers = gen_ring(6, radius=4.0, noise_std=0.05, seed=3).samples
    write_csv(Dataset(np.vstack([targets, outliers]), [True] * 16 + [False] * 6),
              str(path / "labeled.csv"))
    write_csv(gen_ring(14, seed=4), str(path / "plain.csv"))
    for model, variant in [("kernel", "ockelm_thr1"), ("random", "aaelm_thr3"),
                           ("online", "os_aaelm_thr2")]:
        argv = ["train", variant, str(path / "plain.csv"), "--seed", "1", "-o",
                str(path / f"{model}.occ")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + (["--hidden", "4"] if model != "kernel" else [])) == 0
    return path


def run(argv, cwd: Path) -> int:
    """main's exit code for argv with file names in cwd; an argparse exit
    counts as its code. Any other exception propagates, and a RuntimeWarning
    fails the run."""
    names = {*TABLES, *MODELS, "out"}
    argv = [str(cwd / a) if a in names else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    leaks = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
             if issubclass(w.category, RuntimeWarning)]
    assert not leaks, leaks
    return code


# derandomize (which also drops the example database, and overrides
# --hypothesis-seed): every run draws the same 300 examples, so the verdict
# repeats; explore with a copy that drops it, at other seeds
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), data=st.data())
def test_every_argv_exits_0_1_or_2(workdir, argv, data):
    for bad, sources in [("bad.csv", TABLES[:2]), ("bad.occ", MODELS[:3])]:
        source = (workdir / data.draw(st.sampled_from(sources))).read_text()
        (workdir / bad).write_bytes(data.draw(mutations(source)))
    assert run(argv, workdir) in (0, 1, 2)

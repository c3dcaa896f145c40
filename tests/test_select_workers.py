"""modelsel.select scans its groups (combinations of the non-C grid values)
and bench.run_benchmark its protocol runs 1..R-1 on the calling process plus
one forked child per further CPU (modelsel.fork_map). These tests pin what
that must not change: the selection and benchmark bytes at any CPU count,
which error is raised, and that no child outlives the call or hangs it."""

import contextlib
import os
import signal
import time
import warnings

import numpy as np
import pytest
from conftest import run_code

import occelm.bench
import occelm.modelsel
from occelm.bench import run_benchmark
from occelm.dataset import Dataset, write_csv
from occelm.errors import NonFiniteOutput
from occelm.featuremap import kernel_gram, polynomial_kernel
from occelm.modelsel import fork_map, select

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

GRIDS = {"sigma": [0.5, 1.0, 2.0, 4.0, 8.0], "C": [1.0, 10.0]}


@pytest.fixture(autouse=True)
def no_child_left():
    """Every child a test's select forked has been reaped when it returns."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """workers(k): select forks for k CPUs, whatever this machine has."""
    return lambda k: monkeypatch.setattr(occelm.modelsel, "cpu_count", lambda: k)


@contextlib.contextmanager
def deadline(seconds: int):
    """TimeoutError in this thread if the block runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _rows():
    return np.random.default_rng(8).normal(0.0, 1.0, (40, 2))


def _scan(fail=lambda sigma: None):
    """A scanner whose rejection depends on sigma, C and the fold; fail(sigma)
    runs first in each call and may raise or end the process."""

    def scan(params, fold):
        fail(params["sigma"])
        train, val = fold
        keep = np.abs(val[:, 0]) < params["sigma"] * np.abs(train[:, 1]).mean()
        return [keep if C == 1.0 else ~keep for C in params["C"]]

    return scan


def _select(scan):
    with deadline(60):
        return select(scan, _rows(), GRIDS, folds=4, sigma_thr=2.0, fracrej=0.1, seed=3)


def _outcome(result):
    """The chosen parameters and every point, rejections by their repr
    (exact, and NAN equals NAN)."""
    params, diag = result
    return params, diag.consistent, [
        (p.params, repr(p.rejection), p.consistent) for p in diag.points
    ]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("vid", ["aakelm_thr3", "ocelm_thr1", "os_ocelm_thr1"])
def test_select_bytes_match_one_cpu(vid, tmp_path):
    """Integer features, as in the benchmark table, put scores on the
    threshold cut, where any change in low bits flips a verdict."""
    rng = np.random.default_rng(5)
    write_csv(Dataset(rng.integers(1, 11, (150, 5)).astype(float)), str(tmp_path / "t.csv"))
    outputs = []
    for one_cpu in (False, True):
        out = f"{one_cpu}.sel.csv"
        cli = (
            "from occelm.cli import main; "
            f"raise SystemExit(main(['select', {vid!r}, 't.csv', '--seed', '3', '-o', {out!r}]))"
        )
        proc = run_code(cli, tmp_path, one_cpu)
        outputs.append((proc.stdout, (tmp_path / out).read_bytes()))
    assert outputs[0][0].startswith("err_thr ")
    assert len(outputs[0][1].splitlines()) > 3
    assert outputs[0] == outputs[1]


def _toolbox_error_at_sigma_1(sigma):
    if sigma == 1.0:
        raise NonFiniteOutput("feature stage failed")


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("fail", [None, _toolbox_error_at_sigma_1], ids=["ok", "toolbox-error"])
def test_children_give_the_result_of_one_loop(workers, k, fail):
    """The points of 1, 2 or 3 workers agree; a fit failure (one of
    errors.FIT_FAILURES) in a child's group fails that group's points
    (NAN), as in one loop, and is not raised."""
    scan = _scan(fail) if fail else _scan()
    workers(1)
    expected = _outcome(_select(scan))
    workers(k)
    assert _outcome(_select(scan)) == expected
    failed = [i for i, (_, rej, _) in enumerate(expected[2]) if rej == "nan"]
    assert failed == ([2, 3] if fail else [])


@pytest.mark.parametrize(
    "failing, first",
    [({1}, 1), ({1, 2}, 1), ({2, 3}, 2), ({0, 3}, 0), ({3, 4}, 3)],
)
def test_first_failing_group_in_grid_order_raises(workers, failing, first):
    """Two workers: the caller scans groups 0, 2 and 4, a child 1 and 3;
    three: the caller 0 and 3, the children 1 and 4, and 2. A child sends no
    error: the caller scans the groups it did not deliver itself, so the
    error of the first failing group is raised in the caller, as in one
    loop, with no EOFError chained to it."""
    sigmas = GRIDS["sigma"]
    caller = os.getpid()

    def fail(sigma):
        i = sigmas.index(sigma)
        if i in failing:
            where = "caller" if os.getpid() == caller else "child"
            raise (ZeroDivisionError, LookupError)[i % 2](f"group {i} in the {where}")

    kind = (ZeroDivisionError, LookupError)[first % 2]
    for k in (2, 3):
        workers(k)
        with pytest.raises(kind, match=f"^group {first} in the caller$") as raised:
            _select(_scan(fail))
        assert raised.value.__context__ is None


class TwoArgError(Exception):
    """Pickles, but unpickling calls __init__ with the message alone."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["local", "two-arg"])
def test_error_pickle_cannot_rebuild_keeps_class_and_message(workers, k, kind):
    """The scanner's own error is raised at any CPU count, even one that
    pickle could not send or rebuild: with two workers the child scanning
    group 1 stops there, and the caller scans it again and raises."""

    class LocalError(Exception):
        pass

    cls = LocalError if kind == "local" else TwoArgError
    error = LocalError("group two broke") if kind == "local" else TwoArgError("group two broke", 7)

    def scan(params, fold):
        if params["m"] == 2:
            raise error
        return [np.ones(len(fold[1]), bool)]

    workers(k)
    with deadline(60), pytest.raises(cls, match="^group two broke$") as raised:
        select(scan, _rows(), {"m": [1, 2]}, folds=2, sigma_thr=2.0, fracrej=0.1, seed=0)
    assert raised.value is error and raised.value.__context__ is None


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_child_that_dies_gives_the_one_cpu_outcome(workers, death):
    """A child that exits or is killed mid-scan delivers nothing more; the
    caller scans its share itself and returns what one CPU returns, with no
    hang and no child left."""
    workers(1)
    expected = _outcome(_select(_scan()))
    caller = os.getpid()

    def fail(sigma):
        if os.getpid() != caller:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

    for k in (2, 3):
        workers(k)
        assert _outcome(_select(_scan(fail))) == expected


def test_caller_error_kills_a_child_still_scanning(workers):
    """The caller's own first group fails: no child group can come first,
    so a child that would scan forever is killed, not waited for."""
    caller = os.getpid()

    def fail(sigma):
        if os.getpid() == caller:
            raise ValueError("caller group")
        time.sleep(90)  # longer than the deadline; bounded, should the kill fail
        os._exit(1)

    workers(2)
    with pytest.raises(ValueError, match="^caller group$"):
        _select(_scan(fail))


def test_failed_fork_runs_the_share_on_the_caller(workers, monkeypatch):
    workers(1)
    expected = _outcome(_select(_scan()))
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    pids = set()

    def fork():
        raise OSError("Resource temporarily unavailable")

    def fail(sigma):
        pids.add(os.getpid())

    monkeypatch.setattr(os, "fork", fork)
    workers(3)
    assert _outcome(_select(_scan(fail))) == expected
    assert pids == {os.getpid()}
    if fds is not None:  # both ends of each pipe are closed
        assert sorted(os.listdir("/proc/self/fd")) == fds


def test_fork_warning_of_a_threaded_process_is_silenced(workers, monkeypatch):
    """Python 3.12+ warns (DeprecationWarning) when a process with threads
    forks, and the tile threads may be running; the fork here warns as it
    would there, and select must not turn that into an error."""
    rows = np.random.default_rng(2).normal(0.0, 1.0, (300, 3))
    kernel_gram(polynomial_kernel(2, 1.0), rows, rows)  # starts the tile threads
    fork = os.fork

    def warning_fork():
        warnings.warn("This process is multi-threaded", DeprecationWarning, stacklevel=2)
        return fork()

    workers(1)
    expected = _outcome(_select(_scan()))
    monkeypatch.setattr(os, "fork", warning_fork)
    workers(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_select(_scan())) == expected


def test_unflushed_stdout_is_printed_once(tmp_path):
    """A child inherits the caller's stdout buffer; it must leave without
    writing it."""
    code = (
        "import sys, numpy as np, occelm.modelsel as ms; ms.cpu_count = lambda: 3; "
        "sys.stdout = open(1, 'w', closefd=False); "  # buffered, even under PYTHONUNBUFFERED
        "print('before select'); "
        "scan = lambda params, fold: [np.ones(len(fold[1]), bool)]; "
        "ms.select(scan, np.arange(40.0).reshape(20, 2), {'m': [1, 2, 3, 4]}, "
        "folds=2, sigma_thr=2.0, fracrej=0.1, seed=0); print('after select')"
    )
    proc = run_code(code, tmp_path, one_cpu=False)
    assert proc.stdout == "before select\nafter select\n"


def test_fork_map_of_no_item_or_one_forks_nothing(workers, monkeypatch):
    """bench --runs 1 and --runs 2 leave 0 and 1 runs to fork_map."""

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    workers(3)
    assert fork_map(lambda i: i * i, 0) == []
    assert fork_map(lambda i: i * i, 1) == [0]


def _table(tmp_path):
    """Integer features, as in perfbench's table: 120 targets, 60 outliers."""
    rng = np.random.default_rng(5)
    samples = np.vstack([rng.integers(1, 11, (120, 5)), rng.integers(6, 16, (60, 5))])
    write_csv(Dataset(samples.astype(float), np.arange(180) < 120), str(tmp_path / "t.csv"))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("vid", ["aakelm_thr3", "ocelm_thr1", "os_ocelm_thr1"])
def test_bench_bytes_match_one_cpu(vid, tmp_path):
    """bench --runs 5 --select: run 0 selects on the caller, and runs 1-4 are
    dealt to the caller and a child per further CPU; every written byte is
    the one-CPU byte."""
    _table(tmp_path)
    outputs = []
    for one_cpu in (False, True):
        out = f"{one_cpu}.csv"
        cli = (
            "from occelm.cli import main; raise SystemExit(main(['bench', "
            f"{vid!r}, 't.csv', '--label-col', '-1', '--runs', '5', '--select', "
            f"'--seed', '3', '-o', {out!r}]))"
        )
        proc = run_code(cli, tmp_path, one_cpu)
        assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
            f"run {r}" for r in range(5)
        ]
        outputs.append((proc.stdout, *(
            (tmp_path / f"{out}{suffix}").read_bytes() for suffix in ("", ".runs.csv", ".sel.csv")
        )))
    assert len(outputs[0][2].splitlines()) == 6
    assert outputs[0] == outputs[1]


def _bench():
    rng = np.random.default_rng(4)
    data = Dataset(np.vstack([rng.normal(0.0, 1.0, (40, 2)), rng.normal(5.0, 1.0, (20, 2))]),
                   np.arange(60) < 40)
    with deadline(60):
        result = run_benchmark(data, "ockelm_thr1", runs=5, seed=2, select_params=True)
    return [repr(r) for r in result.run_reports], result.run_params, repr(result.report)


def _fit_that(fail):
    """bench.fit, with fail(run) called first in each protocol run's fit."""
    real = occelm.bench.fit

    def fit(variant, params, rows, *, layer_seed, **kwargs):
        fail(layer_seed[1])  # bench.run_seed(seed, run)
        return real(variant, params, rows, layer_seed=layer_seed, **kwargs)

    return fit


@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_failing_run_raises(workers, monkeypatch, k):
    """Runs 2 and 3 fail. Two workers: the caller runs 1 and 3, a child 2
    and 4; three: the caller 1 and 4, the children 2 and 3. The caller runs
    again what a child did not deliver, so run 2's error is raised in the
    caller, as in one loop, with no EOFError chained to it."""
    caller = os.getpid()

    def fail(run):
        if run in (2, 3):
            where = "caller" if os.getpid() == caller else "child"
            raise (ZeroDivisionError, LookupError)[run % 2](f"run {run} in the {where}")

    monkeypatch.setattr(occelm.bench, "fit", _fit_that(fail))
    workers(k)
    with pytest.raises(ZeroDivisionError, match="^run 2 in the caller$") as raised:
        _bench()
    assert raised.value.__context__ is None


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_run_child_that_dies_gives_the_one_cpu_result(workers, monkeypatch, death):
    """A child that exits or is killed at its run 3 or later, after
    delivering any earlier run, gives the one-CPU reports and parameters."""
    workers(1)
    expected = _bench()
    caller = os.getpid()

    def fail(run):
        if os.getpid() != caller and run >= 3:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(occelm.bench, "fit", _fit_that(fail))
    for k in (2, 3):
        workers(k)
        assert _bench() == expected

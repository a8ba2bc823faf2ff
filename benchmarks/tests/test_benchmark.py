"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small_imbalanced(monkeypatch):
    """The imbalanced workload on the default 64x64x16 grid, so it runs fast."""
    wl = workloads.WORKLOADS["imbalanced_calibration"]
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, dataclasses.replace(wl, config={"scene": {}}))
    return wl.name


def _input_digests(name, seed, workdir):
    files = workloads.make_inputs(name, seed, str(workdir))
    return {k: checks.sha256_file(p) for k, p in files.items()}


def test_seed_reaches_generated_inputs(tmp_path, small_imbalanced):
    a = _input_digests(small_imbalanced, 3, tmp_path / "a")
    again = _input_digests(small_imbalanced, 3, tmp_path / "again")
    b = _input_digests(small_imbalanced, 4, tmp_path / "b")
    assert a == again
    assert all(a[k] != b[k] for k in ("config", "labels", "softmax"))
    with open(tmp_path / "b" / "config.json") as fh:
        assert json.load(fh)["seed"] == 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_every_command(name):
    for op in workloads.WORKLOADS[name].ops("wd", 7, 2):
        assert op.argv[op.argv.index("--seed") + 1] == "7"


def test_self_time_of_nested_spans():
    # [name, start, end, parent, trace, count]
    spans = [
        ["root", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a.inner", 2.0, 3.0, 1, 1, None],
        ["b", 5.0, 9.0, 0, 1, None],
        ["b.worker1", 6.0, 8.0, 3, 1, None],
        ["b.worker2", 7.0, 8.5, 3, 1, None],  # overlaps worker1
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])
    assert tracer.covered([(6.0, 8.0), (7.0, 8.5), (1.0, 2.0)]) == pytest.approx(3.5)


def test_self_times_of_traced_command_add_up_to_its_wall_time():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        with t.span("leaf"):
            leaf()
        with t.span("leaf"):
            leaf()

    def main(argv):
        with t.span("middle"):
            middle()
        return 0

    assert t.command(tracer.ROOT_SPAN, main, []) == 0
    selfs = tracer.self_times(t.spans)
    root = t.spans[0]
    assert root[0] == tracer.ROOT_SPAN and root[3] is None
    assert [s[3] for s in t.spans] == [None, 0, 1, 1]
    assert sum(selfs) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert tracer.pass_metrics(t.spans)["self_sum_error_s"] < 1e-9


def test_spans_of_worker_threads_hang_under_the_command_root():
    t = tracer.Tracer()

    def work():
        with t.span("worker"):
            time.sleep(0.01)

    def main(argv):
        workers = [threading.Thread(target=work) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        return all(not w.is_alive() for w in workers)

    assert t.command(tracer.ROOT_SPAN, main, []) is True
    assert [s[0] for s in t.spans] == [tracer.ROOT_SPAN, "worker", "worker"]
    assert [s[3] for s in t.spans] == [None, 0, 0]
    # the two workers overlap, so only the union of their time leaves the root
    root_self = tracer.self_times(t.spans)[0]
    assert root_self < (t.spans[0][2] - t.spans[0][1]) - 0.009
    assert tracer.pass_metrics(t.spans)["self_sum_error_s"] == 0.0


def test_missing_wrap_target_is_reported_absent():
    t = tracer.Tracer()
    targets = [
        ("sscuq.projection", "_no_such_function", "projection.gone", None),
        ("sscuq.no_such_module", "f", "gone", None),
        ("sscuq.pipeline", "split_mask", "pipeline.split_mask", None),
    ]
    t.install(targets)
    try:
        import sscuq.pipeline

        assert sscuq.pipeline.split_mask.__wrapped__ is not None
    finally:
        t.uninstall()
    assert t.absent == ["sscuq.projection._no_such_function", "sscuq.no_such_module.f"]
    assert not hasattr(sscuq.pipeline.split_mask, "__wrapped__")


def test_importtime_breakdown_counts_outermost_entries():
    log = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy.special._x",
        "import time:        70 |        120 |     scipy.special",
        "import time:        30 |        150 |   scipy",
        "import time:        10 |        460 | sscuq",
    ]
    got = tracer.importtime_breakdown(log)
    assert got == pytest.approx({"import.sscuq_s": 460e-6, "import.scipy_s": 150e-6, "import.numpy_s": 300e-6})


def test_injected_failing_check_counts_in_failed_ops_frac(tmp_path):
    def always_fails(op, summary, exp, errors):
        errors.append("injected failure")

    fns = {**checks.CHECKS, "sweep": always_fails}
    result = measure.run_untraced("desk_default", 0, 0.0, str(tmp_path), str(ROOT / "src"), 1, fns)
    sweeps = result["passes"]  # one sweep per pass
    assert sweeps >= 2
    assert result["failed"] == sweeps
    assert result["failed_ops_frac"] == pytest.approx(sweeps / result["attempted"])
    assert all(f["errors"] == ["injected failure"] for f in result["failures"])


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "desk_default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Untraced end-to-end run: every command as a child process.

Each command is started with the interpreter running the benchmark, timed
from just before the fork to the moment ``os.wait4`` reaps it, and its own
peak RSS is read from the rusage ``wait4`` returns.
Nothing machine-wide is traced.  One command runs at a time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
IMPORT_PROBES_PER_PASS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
IMPORT_ARGV = ["-c", "import sscuq"]


@dataclass
class ChildResult:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(args: list[str], env: dict, workdir: str, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python <args>`` to completion and reap it with ``os.wait4``.

    stdout and stderr go to files, so a chatty child cannot block on a full
    pipe while the parent waits.  A child still running after ``timeout``
    seconds is killed and reported with its signal as a negative exit code.
    """
    out_path = os.path.join(workdir, ".child.out")
    err_path = os.path.join(workdir, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(
        wall_s=wall,
        exit_code=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=stdout,
        stderr=stderr,
    )


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "min": min(values), "max": max(values),
           "samples": list(values)}
    for pct in (99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[int(pct * 10) - 1]
            break
    return out


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append({"op": label, "errors": errors})

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class DigestBook:
    """First sha256 of every output; later repetitions must match it."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def compare(self, prefix: str, digests: dict[str, str]) -> list[str]:
        errors = []
        for key, digest in digests.items():
            name = f"{prefix}.{key}"
            known = self.first.setdefault(name, digest)
            if known != digest:
                errors.append(f"{name} sha256 changed between repetitions")
        return errors


def run_setup(wl_name: str, seed: int, workdir: str, env: dict, ledger: Ledger, book: DigestBook):
    """Make the inputs SETUP_REPEATS times; returns the wall times."""
    times = []
    script = os.path.join(BENCH_DIR, "workloads.py")
    for _ in range(SETUP_REPEATS):
        res = run_child([script, wl_name, str(seed), workdir], env, workdir)
        times.append(res.wall_s)
        errors = [f"exit code {res.exit_code}: {res.stderr.strip()[-300:]}"] if res.exit_code else []
        if not errors:
            digests = {k: checks.sha256_file(p) for k, p in workloads.input_files(wl_name, workdir).items()}
            errors = book.compare("setup", digests)
        ledger.record("setup", errors)
    return times


def run_untraced(wl_name: str, seed: int, seconds: float, workdir: str, src_dir: str, nproc: int, check_fns=checks.CHECKS) -> dict:
    """Set up, then repeat the workload's command sequence for ``seconds``."""
    wl = workloads.WORKLOADS[wl_name]
    env = child_env(src_dir)
    ledger, book = Ledger(), DigestBook()
    os.makedirs(workdir, exist_ok=True)
    setup_times = run_setup(wl_name, seed, workdir, env, ledger, book)
    exp = checks.Expectations(wl.config_doc(seed))
    ops = wl.ops(workdir, seed, nproc)

    walls: dict[str, list[float]] = {f"{i}:{op.name}": [] for i, op in enumerate(ops)}
    imports: list[float] = []
    rss = []
    pass_walls = []
    # import probes are spread through the pass: timings drift on a scale of
    # seconds, so back-to-back probes would measure one moment several times
    probe_before = {round(k * len(ops) / IMPORT_PROBES_PER_PASS) for k in range(IMPORT_PROBES_PER_PASS)}
    start = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or (
        time.perf_counter() - start + max(pass_walls) <= seconds
    ):
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if i in probe_before:
                res = run_child(IMPORT_ARGV, env, workdir)
                ledger.record("import", [f"exit code {res.exit_code}"] if res.exit_code else [])
                imports.append(res.wall_s)
                rss.append(res.maxrss_mb)
            res = run_child(["-m", "sscuq", *op.argv], env, workdir)
            key = f"{i}:{op.name}"
            errors = checks.check_op(op, res.exit_code, res.stdout, exp, check_fns)
            if res.exit_code == 0:
                errors += book.compare(key, checks.output_digests(op, res.stdout))
            ledger.record(key, errors)
            walls[key].append(res.wall_s)
            rss.append(res.maxrss_mb)
        pass_walls.append(time.perf_counter() - t_pass)

    per_op = {key: summarize(v) for key, v in walls.items()}
    # a pass's time, estimated from each command's median so that one slow
    # sample does not move it
    medians = [s["median"] for s in per_op.values()]
    by_command: dict[str, list[float]] = {}
    for key, values in walls.items():
        by_command.setdefault(key.split(":", 1)[1] + "_s", []).extend(values)
    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "import_s": statistics.median(imports),
            "pipeline_s": sum(medians),
            "peak_rss_mb": max(rss),
        },
        "commands": {name: summarize(v) for name, v in by_command.items()},
        "ops": per_op,
        "argv": {f"{i}:{op.name}": ["python", "-m", "sscuq", *op.argv] for i, op in enumerate(ops)},
        "setup_s": summarize(setup_times),
        "import_s": summarize(imports),
        "passes": len(pass_walls),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ops_frac": ledger.failed_frac,
        "failures": ledger.failures,
        "sha256": book.first,
    }

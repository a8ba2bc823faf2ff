"""Benchmark of the sscuq command line, end to end and layer by layer.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload desk_default --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

``--trace 0`` runs every command as a child process (``python -m sscuq``,
interpreter start and import included) and reports the end-to-end metrics.
``--trace 1`` runs the same commands in-process under the span tracer and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full report, with provenance, per-command statistics and the sha256 of
every output, is written to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, nproc: int) -> dict:
    import workloads

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc,
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "configs": {name: wl.config_doc(seed) for name, wl in workloads.WORKLOADS.items()},
    }


def _fmt(name: str, value) -> str:
    return f"  {name:<48} {value:>14.6g} {UNITS.get(name, '')}"


def run_one(workload: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    workdir = os.path.join(RUNS_DIR, f"{workload}-s{seed}-{os.getpid()}")
    try:
        if trace:
            import tracer

            result = tracer.run_traced(workload, seed, seconds, workdir, SRC, nproc)
        else:
            import measure

            result = measure.run_untraced(workload, seed, seconds, workdir, SRC, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["workload"] = workload
    result["provenance"] = provenance(seed, nproc)
    report_path = os.path.join(RUNS_DIR, f"{workload}-s{seed}-trace{int(trace)}.json")
    with open(report_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    print(f"{workload} seed={seed} trace={int(trace)} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ops_frac={result['failed_ops_frac']:.6g}")
    for name, value in result["metrics"].items():
        print(_fmt(name, value))
    for name, stats in result.get("commands", {}).items():
        print(f"  {name:<48} median {stats['median']:.4f} s  n={stats['n']}  "
              f"min {stats['min']:.4f}  max {stats['max']:.4f}")
    for layer, share in sorted(result.get("layer_share", {}).items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:<42} {share:>14.4f} of traced command time (self)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure['op']}: {'; '.join(failure['errors'])}")
    print(f"  report: {os.path.relpath(report_path, ROOT)}")
    return result


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sscuq", "__init__.py")):
        print(f"error: no package source at {SRC}/sscuq", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sscuq

    if os.path.dirname(os.path.abspath(sscuq.__file__)) != os.path.join(SRC, "sscuq"):
        print(f"error: imported sscuq from {sscuq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    os.makedirs(RUNS_DIR, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(n, args.seed, args.seconds, bool(args.trace), nproc) for n in names]
    expected = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    for r in results:
        if set(r["metrics"]) != expected:
            print(f"error: {r['workload']} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(r['metrics']) ^ expected)}", file=sys.stderr)
            return 3
    prefix = len(results) > 1  # --workload all: one line for every workload's metrics
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": UNITS[name]}
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

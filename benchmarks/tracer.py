"""Traced run: per-layer numbers from spans recorded in the benchmark's own code.

The tracer replaces, for the duration of a traced pass, the names that
``sscuq.cli``, ``sscuq.pipeline``, ``sscuq.synth``, ``sscuq.projection``,
``sscuq.conformal``, ``sscuq.metrics`` and ``sscuq.rng`` look up at call
time with timing wrappers, then calls ``sscuq.cli.main(argv)`` for each
command of the workload.  No file of the package changes.  A name that no
longer exists is reported as absent and its metrics read 0.

A span holds its name, start, end, parent span and the trace id of the
command it belongs to.  Spans stay in memory and are written out when the
run ends.  Self time is a span's duration minus the part of it that its
children cover, so the self times of one command's spans add up to the
command's traced wall time.

Work counters that need no wrapper are computed from outside with the
package's public functions: ray segments with ``traverse_ray``, calibration
records with ``split_mask`` and ``CalibrationSet``, and the gate pass rate
with ``hcp_predict_batch``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import os
import re
import statistics
import threading
import time

import numpy as np

import checks
import measure
import workloads

IMPORTTIME_REPEATS = 3


def _rows(args, kwargs):
    return int(np.shape(args[0])[0]) if np.ndim(args[0]) >= 2 else 1


def _rng_values(args, kwargs):
    return int(np.size(args[1]))


def _rays(args, kwargs):
    return int(args[1].height * args[1].width)


def _bytes_read(args, kwargs):
    return os.path.getsize(args[0])


def _bytes_written(args, kwargs):
    return os.path.getsize(args[1])


# (object path, attribute, span name, counter of the call's work).  Each
# attribute is the name the calling module resolves at call time, so a
# function imported into two modules is wrapped in both.
TARGETS = [
    ("sscuq.cli", "run_simulate", "pipeline.simulate", None),
    ("sscuq.cli", "run_project", "pipeline.project", None),
    ("sscuq.cli", "run_calibrate", "pipeline.calibrate", None),
    ("sscuq.cli", "run_evaluate", "pipeline.evaluate", None),
    ("sscuq.cli", "run_sweep", "pipeline.sweep", None),
    ("sscuq.pipeline", "split_mask", "pipeline.split_mask", None),
    ("sscuq.pipeline", "generate_scene", "synth.generate_scene", None),
    ("sscuq.pipeline", "render_depth", "synth.render_depth", _rays),
    ("sscuq.pipeline", "synth_classifier", "synth.synth_classifier", None),
    ("sscuq.pipeline", "build_prob_grid", "projection.build_prob_grid", None),
    ("sscuq.pipeline", "build_binary_grid", "projection.build_binary_grid", None),
    ("sscuq.pipeline", "read_grid", "container.read_grid", _bytes_read),
    ("sscuq.pipeline", "write_grid", "container.write_grid", _bytes_written),
    ("sscuq.pipeline.CalibrationSet", "from_grids", "conformal.from_grids", None),
    ("sscuq.pipeline", "scp_calibrate", "conformal.scp_calibrate", None),
    ("sscuq.pipeline", "cccp_calibrate", "conformal.cccp_calibrate", None),
    ("sscuq.pipeline", "hcp_calibrate", "conformal.hcp_calibrate", None),
    ("sscuq.pipeline", "scp_predict_batch", "conformal.predict", None),
    ("sscuq.pipeline", "cccp_predict_batch", "conformal.predict", None),
    ("sscuq.pipeline", "hcp_predict_batch", "conformal.predict", None),
    ("sscuq.pipeline", "save_model", "conformal.save_model", None),
    ("sscuq.pipeline", "load_model", "conformal.load_model", None),
    ("sscuq.pipeline", "recall_iou_sweep", "metrics.recall_iou_sweep", None),
    ("sscuq.pipeline", "geometry_metrics_from_masks", "metrics.report", None),
    ("sscuq.pipeline", "semantic_miou_flat", "metrics.report", None),
    ("sscuq.pipeline", "occupied_recall_flat", "metrics.report", None),
    ("sscuq.pipeline", "cov_gap", "metrics.report", None),
    ("sscuq.pipeline", "avg_size", "metrics.report", None),
    ("sscuq.conformal", "score_kl", "conformal.score_kl", _rows),
    ("sscuq.metrics", "score_kl", "conformal.score_kl", _rows),
    ("sscuq.conformal", "conformal_quantile", "conformal.conformal_quantile", None),
    ("sscuq.metrics", "conformal_quantile", "conformal.conformal_quantile", None),
    ("sscuq.projection", "_ray_segments", "projection.ray_segments", None),
    ("sscuq.synth", "_ray_segments", "projection.ray_segments", None),
    ("sscuq.projection", "_interval_prob", "depth.interval_prob", None),
    # the names the benchmark's set-up (workloads.make_inputs) calls
    ("sscuq", "generate_scene", "synth.generate_scene", None),
    ("sscuq", "synth_classifier", "synth.synth_classifier", None),
    ("sscuq", "write_grid", "container.write_grid", _bytes_written),
    ("sscuq.rng", "uniforms", "rng", _rng_values),
    ("sscuq.rng", "normals", "rng", _rng_values),
    ("sscuq.rng", "gumbels", "rng", _rng_values),
]

ROOT_SPAN = "cli.main"
COMMANDS = ("simulate", "project", "calibrate", "evaluate", "sweep")
TIMED = [
    "pipeline.split_mask",
    "synth.generate_scene",
    "synth.render_depth",
    "synth.synth_classifier",
    "rng",
    "projection.build_prob_grid",
    "projection.build_binary_grid",
    "projection.ray_segments",
    "depth.interval_prob",
    "container.read_grid",
    "container.write_grid",
    "conformal.from_grids",
    "conformal.scp_calibrate",
    "conformal.cccp_calibrate",
    "conformal.hcp_calibrate",
    "conformal.predict",
    "conformal.score_kl",
    "conformal.save_model",
    "conformal.load_model",
    "metrics.recall_iou_sweep",
    "metrics.report",
]
CALLS = ["rng", "projection.ray_segments", "depth.interval_prob", "conformal.conformal_quantile"]
COUNTS = {
    "rng.values": "rng",
    "synth.render_depth.rays": "synth.render_depth",
    "conformal.score_kl.rows": "conformal.score_kl",
    "container.bytes_read": "container.read_grid",
    "container.bytes_written": "container.write_grid",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, trace id, count, thread]."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._installed: list[tuple] = []
        self.absent: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        # a span opened on another thread hangs under the command's root
        parent = stack[-1] if stack else self._root
        record = [name, 0.0, None, parent, self.trace_id, None, threading.get_ident()]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def command(self, root: str, fn, *args):
        """Run ``fn(*args)`` as one trace under a root span; returns its result.

        The wrappers are in place only during the call, so the benchmark's
        own calls into the package between commands leave no spans.
        """
        self.trace_id += 1
        self.install()
        try:
            with self.span(root):
                self._root = len(self.spans) - 1
                return fn(*args)
        finally:
            self._root = None
            self.uninstall()

    def wrap(self, fn, name, counter):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            record = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            if counter is not None:
                try:
                    record[5] = counter(args, kwargs)
                except (TypeError, AttributeError, IndexError, OSError):
                    record[5] = 0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that exists; the missing ones go to ``absent``."""
        for path, attr, name, counter in targets:
            owner = _resolve(path)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                label = f"{path}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, counter))
            else:
                wrapped = self.wrap(original, name, counter)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    """Module or class at a dotted path, or None when it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        kids = [(max(a, span[1]), min(b, span[2])) for a, b in children.get(i, ())]
        out.append(span[2] - span[1] - covered([k for k in kids if k[1] > k[0]]))
    return out


def outermost(spans, name: str) -> list[list]:
    """Spans called ``name`` that are not nested in another span of that name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out.append(span)
    return out


def layer_of(name: str) -> str:
    return "cli" if name == ROOT_SPAN else name.split(".", 1)[0]


def pass_metrics(spans) -> dict:
    """Per-layer numbers of one pass: sums over the pass's commands."""
    selfs = self_times(spans)
    m = {"cli.main.self_s": sum(s for sp, s in zip(spans, selfs) if sp[0] == ROOT_SPAN)}
    for cmd in COMMANDS:
        m[f"pipeline.{cmd}.self_s"] = sum(
            s for sp, s in zip(spans, selfs) if sp[0] == f"pipeline.{cmd}"
        )
    for name in TIMED:
        m[f"{name}.s"] = sum(sp[2] - sp[1] for sp in outermost(spans, name))
    for name in CALLS:
        m[f"{name}.calls"] = len(outermost(spans, name))
    for key, name in COUNTS.items():
        m[key] = sum(sp[5] or 0 for sp in outermost(spans, name))
    layers: dict[str, float] = {}
    for sp, s in zip(spans, selfs):
        layers[layer_of(sp[0])] = layers.get(layer_of(sp[0]), 0.0) + s
    wall = sum(sp[2] - sp[1] for sp in spans if sp[0] == ROOT_SPAN)
    return {"metrics": m, "layer_self_s": layers, "wall_s": wall,
            "self_sum_error_s": _self_sum_error(spans, selfs)}


def _self_sum_error(spans, selfs) -> float:
    """Largest |sum of a command's self times - its root span's duration|.

    Only commands traced on one thread count: spans of parallel workers
    overlap, so their self times add up to more than the wall time.
    """
    sums: dict[int, float] = {}
    roots: dict[int, float] = {}
    threads: dict[int, set] = {}
    for sp, s in zip(spans, selfs):
        sums[sp[4]] = sums.get(sp[4], 0.0) + s
        threads.setdefault(sp[4], set()).add(sp[6])
        if sp[0] == ROOT_SPAN:
            roots[sp[4]] = sp[2] - sp[1]
    return max((abs(sums[t] - roots[t]) for t in roots if len(threads[t]) == 1), default=0.0)


# ---------------------------------------------------------------------------
# counters taken from outside with public functions


def segment_counts(depth_path: str, intr, geom) -> tuple[int, int]:
    """(valid rays, ray/voxel segments) of a depth estimate, via traverse_ray."""
    from sscuq import read_grid, traverse_ray

    est = read_grid(depth_path)
    rows, cols = np.nonzero(est.valid_mask)
    segments = sum(len(traverse_ray(h, w, intr, geom)) for h, w in zip(rows.tolist(), cols.tolist()))
    return int(rows.size), int(segments)


def calibration_records(softmax_path, labels_path, fraction, seed) -> np.ndarray:
    """Records per class (index y - 1) of the calibration split."""
    from sscuq import CalibrationSet, read_grid, split_mask

    labels = read_grid(labels_path)
    mask = split_mask(labels.labels.size, fraction, seed)
    cal = CalibrationSet.from_grids(read_grid(softmax_path), labels, mask=mask)
    return np.bincount(cal.labels - 1, minlength=cal.class_count)


def gate_counts(model_path, softmax_path, labels_path) -> tuple[int, int]:
    """(gate-passing test records, test records) of an HCP model."""
    from sscuq import hcp_predict_batch, load_model, read_grid, split_mask

    with open(model_path) as fh:
        split = json.load(fh).get("split", {})
    softmax = read_grid(softmax_path)
    test = ~split_mask(softmax.flat().shape[0], split.get("fraction", 0.3), split.get("seed", 0))
    occ, _ = hcp_predict_batch(softmax.flat()[test], load_model(model_path))
    return int(np.count_nonzero(occ)), int(test.sum())


def outside_counters(ops, exp, cfg) -> dict:
    """Work counters of one pass of ``ops``, from their inputs and outputs."""
    m = {"projection.valid_rays": 0, "projection.segments": 0}
    m.update({f"conformal.cal_records.{y}": 0 for y in range(1, exp.class_count + 1)})
    passed = tested = 0
    seen = set()
    for op in ops:
        flags = checks.flags_of(op)
        if op.name == "project":
            rays, segs = segment_counts(flags["depth"], cfg.intrinsics, cfg.geometry)
            m["projection.valid_rays"] += rays
            m["projection.segments"] += segs
        elif op.name == "calibrate":
            key = (flags["softmax"], flags["labels"])
            if key not in seen:  # every calibrate of a workload shares one split
                seen.add(key)
                recs = calibration_records(*key, exp.split_fraction, exp.seed)
                for y, n in enumerate(recs.tolist(), start=1):
                    m[f"conformal.cal_records.{y}"] += n
        elif op.name == "evaluate":
            with open(flags["model"]) as fh:
                if json.load(fh).get("method") != "hcp":
                    continue
            p, t = gate_counts(flags["model"], flags["softmax"], flags["labels"])
            passed, tested = passed + p, tested + t
    m["conformal.gate_pass.records"] = passed
    m["conformal.gate_test.records"] = tested
    m["conformal.gate_pass_rate"] = passed / tested if tested else 0.0
    return m


# ---------------------------------------------------------------------------
# import breakdown


def importtime_breakdown(lines) -> dict:
    """Cumulative import seconds of sscuq, scipy and numpy from -X importtime.

    A package counts once, at its outermost entry, so scipy imported inside
    sscuq is part of both sscuq's and scipy's figure.
    """
    entries = []
    for line in lines:
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    totals = {"sscuq": 0, "scipy": 0, "numpy": 0}
    stack: list[tuple[int, str]] = []
    # the log lists a module after its imports: walk it backwards for ancestry
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(anc.split(".")[0] != top for _, anc in stack):
            totals[top] += cumulative
        stack.append((level, name))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def import_breakdown(env, workdir) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        res = measure.run_child(["-X", "importtime", *measure.IMPORT_ARGV], env, workdir)
        if res.exit_code != 0:
            raise RuntimeError(f"python -X importtime failed: {res.stderr[-300:]}")
        runs.append(importtime_breakdown(res.stderr.splitlines()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# the traced run


def _call_main(argv):
    from sscuq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_traced(wl_name: str, seed: int, seconds: float, workdir: str, src_dir: str, nproc: int) -> dict:
    """Trace the workload in-process for ``seconds``; returns per-layer metrics."""
    from sscuq import PipelineConfig

    wl = workloads.WORKLOADS[wl_name]
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer()
    ledger, book = measure.Ledger(), measure.DigestBook()

    # set-up runs traced too: its library calls are the synth/rng/container work
    tracer.command("setup", workloads.make_inputs, wl_name, seed, workdir)
    setup_spans, tracer.spans = tracer.spans, []
    cfg = PipelineConfig.from_json_dict(wl.config_doc(seed))
    exp = checks.Expectations(wl.config_doc(seed))
    ops = wl.ops(workdir, seed, nproc)

    passes, overheads, all_spans = [], [], []
    start = time.perf_counter()
    while len(passes) < measure.MIN_PASSES or (
        time.perf_counter() - start + max(p["took_s"] for p in passes) <= seconds
    ):
        t_pass = time.perf_counter()
        tracer.spans = []
        for i, op in enumerate(ops):
            code, stdout = tracer.command(ROOT_SPAN, _call_main, op.argv)
            errors = checks.check_op(op, code, stdout, exp)
            if code == 0:
                errors += book.compare(f"{i}:{op.name}", checks.output_digests(op, stdout))
            ledger.record(f"{i}:{op.name}", errors)
        spans = tracer.spans
        result = pass_metrics(spans)
        t_plain = time.perf_counter()
        for op in ops:
            _call_main(op.argv)
        untraced = time.perf_counter() - t_plain
        overheads.append(result["wall_s"] - untraced)
        result["took_s"] = time.perf_counter() - t_pass
        passes.append(result)
        all_spans.append(spans)

    metrics = {}
    for key in passes[0]["metrics"]:
        metrics[key] = statistics.median(p["metrics"][key] for p in passes)
    setup_m = pass_metrics(setup_spans)["metrics"]
    for key in ("synth.generate_scene.s", "synth.synth_classifier.s", "rng.s", "container.write_grid.s"):
        metrics[f"setup.{key}"] = setup_m[key]
    for key in ("rng.calls", "rng.values", "container.bytes_written"):
        metrics[f"setup.{key}"] = setup_m[key]

    counters = outside_counters(ops, exp, cfg)
    metrics.update(counters)
    segs = counters["projection.segments"]
    metrics["projection.build_prob_grid.us_per_segment"] = (
        metrics["projection.build_prob_grid.s"] / segs * 1e6 if segs else 0.0
    )
    metrics.update(import_breakdown(measure.child_env(src_dir), workdir))
    metrics["trace.overhead_s"] = statistics.median(overheads)

    layer_totals = {}
    for p in passes:
        for layer, s in p["layer_self_s"].items():
            layer_totals.setdefault(layer, []).append(s)
    layer_self = {k: statistics.median(v) for k, v in layer_totals.items()}
    wall = sum(layer_self.values())
    self_sum_error = max(p["self_sum_error_s"] for p in passes)
    if self_sum_error > 1e-6:
        ledger.record("trace.self_sum", [f"self times miss the wall time by {self_sum_error} s"])

    # one JSON array per line: pass, name, start, end, parent index, trace id, count, thread
    spans_path = os.path.join(os.path.dirname(workdir), f"{wl_name}-s{seed}-spans.jsonl.gz")
    with gzip.open(spans_path, "wt") as fh:
        for trace_pass, spans in enumerate(all_spans):
            for sp in spans:
                fh.write(json.dumps([trace_pass, *sp]) + "\n")
    return {
        "metrics": metrics,
        "layer_self_s": layer_self,
        "layer_share": {k: v / wall for k, v in layer_self.items()} if wall else {},
        "passes": len(passes),
        "argv": {f"{i}:{op.name}": ["python", "-m", "sscuq", *op.argv] for i, op in enumerate(ops)},
        "self_sum_error_s": self_sum_error,
        "absent": tracer.absent,
        "spans": os.path.basename(spans_path),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ops_frac": ledger.failed_frac,
        "failures": ledger.failures,
        "sha256": book.first,
    }


"""One benchmark run: set-up, measured units, checks, metrics and the report.

Imported by ``run.py`` after it has pinned the BLAS threads and put the
program's ``src/`` on the path.
"""

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYER_SPANS, SETUP_SPANS, TIMING_SPANS, SpeedProbe, Tracer, instrumented
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"  # scratch files of a run, and the cross-run determinism records
SETUP_REPS = 3

# Counts and quality figures that must repeat exactly across runs of one
# code version with one seed.
DETERMINISTIC = ("train_loss", "heldout_f1", "known_f1", "decoder.lstm_steps", "memory.loss_reads",
                 "memory.masked_steps", "pipeline.placeholders_emitted", "pipeline.placeholders_unfilled")


def code_digest():
    """Digest of the program and benchmark sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return None


def git_state():
    """(HEAD sha, whether src/ differs from it), or (None, None) outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30, check=True).stdout != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def environment(digest, thread_vars):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
            "thread_env": {v: os.environ[v] for v in thread_vars}, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": sha, "git_dirty": dirty,
            "code_sha256": digest}


def quantile(xs, q):
    """The q-th percentile (1-99) of the samples, by linear interpolation."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark run: set-up, measured units, checks and the metrics they give."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.checks = Checks()
        self.probe = SpeedProbe()
        self.setup_tracers = []
        self.setup_seconds = []
        self.setup_reference = []
        self.unit_tracers = []
        self.unfilled = 0

    def set_up(self, reps):
        CACHE.mkdir(exist_ok=True)
        fingerprints = set()
        for _ in range(reps):
            tracer = Tracer(self.probe)
            self.probe.burst(3)
            with tempfile.TemporaryDirectory(dir=CACHE) as tmp, instrumented(tracer, SETUP_SPANS + TIMING_SPANS):
                t0 = perf_counter()
                state = self.workload.setup(self.seed, tmp, self.checks)
                t1 = perf_counter()
            self.probe.burst(3)
            self.setup_seconds.append(t1 - t0)
            self.setup_reference.append(self.probe.to_reference(t0, t1, t1 - t0))
            self.setup_tracers.append(tracer)
            fingerprints.add(state.fingerprint)
        self.checks.expect(len(fingerprints) == 1, "repeated set-ups built different models")
        self.state = state

    def unit(self, tracer, spans, k):
        """Unit k under ``tracer``; returns (busy seconds, outputs)."""
        inputs = self.workload.inputs(self.state, self.seed, k)
        with instrumented(tracer, spans):
            t0 = perf_counter()
            outputs = self.workload.unit(self.state, inputs, self.checks)
            return perf_counter() - t0, outputs

    def measure(self):
        """Units until ``seconds`` of busy time, and at least the workload's
        quality units. Each unit has its own tracer, so that timings can be
        read unit by unit."""
        busy, k, outputs = 0.0, 0, []
        while k < self.workload.quality_units or busy < self.seconds:
            self.unit_tracers.append(Tracer(self.probe))
            dt, out = self.unit(self.unit_tracers[-1], TIMING_SPANS, k)
            busy += dt
            if k < self.workload.quality_units:
                outputs.append(out)
            if self.workload.repeats_unit and k:
                self.checks.expect(out == outputs[0], f"unit {k} did not reproduce unit 0: {out}")
            k += 1
        self.quality = self.workload.quality(self.state, self.seed, outputs)

    def measure_traced(self):
        """Unit 0 traced, between two untraced runs of it: per-layer figures and
        the tracing overhead against the faster untraced run."""
        plain, self.tracer = [Tracer(), Tracer()], Tracer()
        self.unit_tracers = [plain[0], self.tracer, plain[1]]
        before, out = self.unit(plain[0], TIMING_SPANS, 0)
        self.traced_s, traced = self.unit(self.tracer, TIMING_SPANS + LAYER_SPANS, 0)
        after, again = self.unit(plain[1], TIMING_SPANS, 0)
        self.plain_s = min(before, after)
        self.checks.expect(traced == out == again, "tracing or repeating unit 0 changed its outputs")
        self.quality = self.workload.quality(self.state, self.seed, [out])

    def all_tracers(self):
        return self.setup_tracers + self.unit_tracers

    def tally(self):
        """(operations attempted, operations failed): train steps, captions and checks."""
        tracers = self.all_tracers()
        ops = sum(t.calls["pipeline.train_step"] + t.calls["pipeline.captioner"] for t in tracers)
        self.unfilled = sum(t.counts["check.unfilled_with_memory"] for t in tracers)
        return ops + self.checks.attempted, len(self.checks.failures) + self.unfilled

    def end_to_end(self, attempted, failed):
        """End-to-end metrics: each call timing is the median over the units
        (or set-ups) that made such calls of that unit's figure, in
        reference units (see ``SpeedProbe``). A burst of contention then moves
        one unit's figure and not the run's.

        Train steps come from every phase of the run, so from set-up training
        on the caption workloads; captions come from the measured units.
        """
        tracers = self.all_tracers()
        steps = [(t.reference_seconds("pipeline.train_step"), t.counts["pipeline.pairs_trained"])
                 for t in tracers if t.calls["pipeline.train_step"]]
        captions = [t.reference_seconds("pipeline.captioner") for t in self.unit_tracers]

        def median_of(per_unit):
            return statistics.median(list(per_unit))

        m = {
            "setup_s": (statistics.median(self.setup_reference), "s"),
            "train_pairs_per_s": (median_of(n / sum(s) for s, n in steps), "ref-pairs/s"),
            "train_step_ms.p50": (1e3 * median_of(statistics.median(s) for s, _ in steps), "ref-ms"),
            "caption_records_per_s": (median_of(len(c) / sum(c) for c in captions), "ref-records/s"),
            "caption_ms.p50": (1e3 * median_of(statistics.median(c) for c in captions), "ref-ms"),
            "heldout_f1": (self.quality["heldout_f1"], "F1"),
            "known_f1": (self.quality["known_f1"], "F1"),
            "train_loss": (self.quality["train_loss"], "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
        }
        raw_steps = [x for t in tracers for x in t.raw_seconds("pipeline.train_step")]
        raw_captions = [x for t in self.unit_tracers for x in t.raw_seconds("pipeline.captioner")]
        notes = {"train_step_ms.p95": 1e3 * statistics.median(quantile(s, 95) for s, _ in steps),
                 "caption_ms.p95": 1e3 * statistics.median(quantile(c, 95) for c in captions),
                 "units": len(self.unit_tracers), "step_units": len(steps),
                 "train_steps": len(raw_steps), "captions": len(raw_captions),
                 "fail_ratio": failed / attempted, "probes": len(self.probe.seconds),
                 "probe_ms.p50": 1e3 * statistics.median(self.probe.seconds),
                 "raw_setup_s": statistics.median(self.setup_seconds),
                 "raw_train_step_ms.p50": 1e3 * statistics.median(raw_steps),
                 "raw_caption_ms.p50": 1e3 * statistics.median(raw_captions)}
        return m, notes

    def per_layer(self):
        tr, setup = self.tracer, self.setup_tracers[0]
        m = {}
        for name in sorted({n for _, _, n, _ in TIMING_SPANS + LAYER_SPANS} | {"pipeline.captioner"}):
            m[f"{name}.calls"] = (tr.calls[name], "count")
            m[f"{name}.self_s"] = (tr.self_s[name], "s")
        for name in sorted({n for _, _, n, _ in SETUP_SPANS}):
            m[f"{name}.s"] = (setup.total_s[name], "s")
        c = tr.counts
        cfg, vocab_size = self.state.corpus.cfg, self.state.corpus.vocab.size
        h, e = cfg.hidden_size, cfg.embed_size
        # gate and output-projection products only; the backward step does two of each
        step_flop = 2 * 4 * h * (e + h) + 2 * vocab_size * h
        flop = step_flop * (c["decoder.teacher_forced_steps"] + c["decoder.decode_steps"]
                            + 2 * c["decoder.backward_steps"])
        reads = tr.calls["memory.memory_read"]
        m.update({
            "decoder.lstm_steps": (c["decoder.teacher_forced_steps"] + c["decoder.decode_steps"], "count"),
            "decoder.gemm_gflop": (flop / 1e9, "GFLOP-computed"),
            "memory.slots_per_read": (c["memory.slots_read"] / reads if reads else 0.0, "slots"),
            "memory.masked_steps": (c["memory.masked_steps"], "count"),
            "memory.loss_reads": (c["memory.loss_reads"], "count"),
            "memory.read_yield": (c["memory.loss_reads"] / c["memory.masked_steps"]
                                  if c["memory.masked_steps"] else 0.0, "ratio"),
            "pipeline.placeholders_emitted": (c["pipeline.placeholders_emitted"], "count"),
            "pipeline.placeholders_unfilled": (c["pipeline.placeholders_unfilled"], "count"),
            "checkpoint.bytes": (setup.counts["checkpoint.bytes"], "bytes"),
            "train_step_ms.p95": (self.untraced_p95("pipeline.train_step"), "ms"),
            "caption_ms.p95": (self.untraced_p95("pipeline.captioner"), "ms"),
            "trace.wall_s": (self.traced_s, "s"),
            "trace.overhead_s": (self.traced_s - self.plain_s, "s"),
            "trace.overhead_share": ((self.traced_s - self.plain_s) / self.plain_s, "ratio"),
            "trace.uncovered_share": ((self.traced_s - tr.top_level_s) / self.traced_s, "ratio"),
        })
        return m

    def untraced_p95(self, name):
        """p95 in ms over the untraced runs of unit 0, or 0 where the unit makes no such call."""
        samples = [dt for t in self.unit_tracers if t is not self.tracer for dt in t.raw_seconds(name)]
        return 1e3 * quantile(samples, 95) if len(samples) > 1 else 0.0

    def check_across_runs(self, figures, digest, trace):
        """Counts and quality must equal those of earlier runs of this code, seed and mode."""
        record = CACHE / f"determinism-{digest[:16]}-{self.workload.name}-{self.seed}-{trace}.json"
        current = {k: v for k, v in figures.items() if k in DETERMINISTIC}
        earlier = json.loads(record.read_text()) if record.exists() else {}
        differ = {k: (earlier[k], v) for k, v in current.items() if k in earlier and earlier[k] != v}
        self.checks.expect(not differ, f"differs from an earlier run of this code and seed: {differ}")
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps({**earlier, **current}, sort_keys=True))
        tmp.replace(record)


def run(workload_name, seed, seconds, trace, thread_vars):
    """Run one workload and print the report; returns the exit status."""
    digest = code_digest()
    env = environment(digest, thread_vars)
    run = Run(WORKLOADS[workload_name], seed, seconds)
    try:
        if trace:
            run.set_up(1)
            run.measure_traced()
            metrics = run.per_layer()
            run.check_across_runs({**run.quality, **{k: v for k, (v, _) in metrics.items()}}, digest, trace)
            attempted, failed = run.tally()
        else:
            run.set_up(SETUP_REPS)
            run.measure()
            run.check_across_runs(run.quality, digest, trace)
            attempted, failed = run.tally()
            metrics, notes = run.end_to_end(attempted, failed)
            print("samples " + json.dumps(notes, sort_keys=True))
    except Exception:  # a failing program must still yield a result that says so
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(1, run.checks.attempted),
                          "failed": len(run.checks.failures) + 1, "metrics": {}}))
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for failure in run.checks.failures:
        print(f"FAILED: {failure}")
    if run.unfilled:
        print(f"FAILED: {run.unfilled} captions left a placeholder unfilled with a non-empty memory")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0

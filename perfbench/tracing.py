"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``. It swaps public names, in the module
namespace that looks them up at call time, for timing wrappers and restores
them afterwards. ``pipeline`` imports its callees by name, so those are
wrapped in ``pipeline``; ``memory`` calls its own helpers through its module
globals, so they are wrapped there too.

A span's self time is its duration minus the time its child spans cover.
Counters are read off the arguments and return values at the same
boundaries, so ratios are measured where the work happens.
"""

import bisect
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from novelcap import checkpoint, data, decoder, evaluation, memory, pipeline, vocabulary
from novelcap.vocabulary import PLACEHOLDER


class SpeedProbe:
    """Reads the machine's current speed with a fixed reference kernel.

    Other tenants of a shared machine slow all code on it by up to 2x, in
    phases that last from a fraction of a second to several seconds, so raw
    timings of one commit spread by 20-50% from run to run. The kernel is a
    Python loop over small matrix-vector products, the same kind of work as
    the decoder, and it never changes with the program. It runs at most
    every ``INTERVAL`` seconds, just before a timed call starts and outside
    its timing. A timing divided by the median kernel time within
    ``WINDOW`` seconds of it, times ``REFERENCE_S``, is the time the call
    would take on a machine where the kernel takes ``REFERENCE_S``: the
    "ref" units of the end-to-end metrics. On two cores of a 2 GHz Xeon the
    kernel takes 0.45-0.95 ms as contention varies.
    """

    INTERVAL = 0.05
    WINDOW = 0.25
    REFERENCE_S = 0.00075

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.normal(size=(256, 64)) * 0.1
        self._x = rng.normal(size=64)
        self.times = []
        self.seconds = []

    def _kernel(self):
        x = self._x
        for _ in range(64):
            z = self._w @ x
            x = np.tanh(z[:64]) * 0.5 + z[64:128] * 0.1
        return x

    def maybe(self):
        """Run the kernel unless it ran less than ``INTERVAL`` seconds ago."""
        if not self.times or perf_counter() - self.times[-1] >= self.INTERVAL:
            self.burst(1)

    def burst(self, n):
        for _ in range(n):
            start = perf_counter()
            self._kernel()
            self.times.append(start)
            self.seconds.append(perf_counter() - start)

    def to_reference(self, start, end, seconds):
        """``seconds`` measured between ``start`` and ``end``, in reference seconds."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW)
        hi = bisect.bisect_right(self.times, end + self.WINDOW)
        if lo == hi:  # no probe near: take the nearest one
            lo = min(lo, len(self.times) - 1)
            if lo and start - self.times[lo - 1] < self.times[lo] - end:
                lo -= 1
            hi = lo + 1
        return seconds * self.REFERENCE_S / statistics.median(self.seconds[lo:hi])


class Tracer:
    """Call counts, total and self seconds per span, plus named counters.

    With a ``probe``, the spans kept for percentiles read the machine speed
    before each call, and their samples can be put in reference seconds.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)  # (start, seconds) per call, for spans kept for percentiles
        self.counts = Counter()
        self.top_level_s = 0.0  # seconds covered by spans that have no parent span
        self._open = []  # child seconds accumulated by each open span

    def wrap(self, name, fn, after=None, keep=False):
        """``fn`` timed as span ``name``; ``after(tracer, result, args)`` updates counters."""

        probe = self.probe if keep else None

        def traced(*args, **kwargs):
            if probe is not None:
                probe.maybe()
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._open.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if keep:
                    self.samples[name].append((t0, dt))
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_level_s += dt
            if after is not None:
                after(self, out, args)
            return out

        return traced

    def reference_seconds(self, name):
        """Per-call seconds of span ``name``, in reference seconds."""
        return [self.probe.to_reference(t0, t0 + dt, dt) for t0, dt in self.samples[name]]

    def raw_seconds(self, name):
        return [dt for _, dt in self.samples[name]]


# --- counters read at span boundaries --------------------------------------


def _after_train_step(tr, losses, args):
    tr.counts["pipeline.pairs_trained"] += len(args[0])


def _after_forward(tr, cache, args):
    tr.counts["decoder.teacher_forced_steps"] += len(cache.steps)


def _after_backward(tr, grads, args):
    tr.counts["decoder.backward_steps"] += len(args[1].steps)


def _after_decode(tr, trace, args):
    tr.counts["decoder.decode_steps"] += len(trace.ids)
    tr.counts["pipeline.placeholders_emitted"] += len(trace.placeholder_positions)


def _after_read(tr, result, args):
    tr.counts["memory.slots_read"] += args[1].n


def _after_loss_forward(tr, result, args):
    tr.counts["memory.masked_steps"] += sum(1 for w in args[2] if w)
    tr.counts["memory.loss_reads"] += len(result[1])


def _after_caption(tr, caption, args):
    tr.counts["pipeline.placeholders_unfilled"] += caption.placeholder_count_unfilled
    # a record with detections always has a non-empty memory (n_det >= 1)
    if args[0].detections and (caption.placeholder_count_unfilled or PLACEHOLDER in caption.tokens):
        tr.counts["check.unfilled_with_memory"] += 1


def _after_save(tr, result, args):
    tr.counts["checkpoint.bytes"] += os.path.getsize(args[0])


# --- which names are wrapped --------------------------------------------------
# (namespace, attribute, span name, counter hook)

# Set-up calls: timed on every run, they make up setup_s.
SETUP_SPANS = [
    (data, "generate_synthetic", "data.generate_synthetic", None),
    (data, "build_heldout_split", "data.build_heldout_split", None),
    (data, "save_dataset", "data.save_dataset", None),
    (data, "load_dataset", "data.load_dataset", None),
    (vocabulary, "build_vocabulary", "vocabulary.build_vocabulary", None),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", _after_save),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
]

# Entry points the end-to-end metrics time on every run; a few spans per
# step or record cost well under 1% of either.
TIMING_SPANS = [
    (pipeline, "train_step", "pipeline.train_step", _after_train_step),
    (evaluation, "evaluate_split", "evaluation.evaluate_split", None),
    (evaluation, "average_f1_over", "evaluation.average_f1_over", None),
]
KEEP_SAMPLES = {"pipeline.train_step", "pipeline.captioner"}

# Layer spans: only in the traced run.
LAYER_SPANS = [
    (pipeline, "example_losses", "pipeline.example_losses", None),
    (pipeline, "forward_teacher_forced", "decoder.forward_teacher_forced", _after_forward),
    (pipeline, "backward_pass", "decoder.backward_pass", _after_backward),
    (pipeline, "sequence_loss", "decoder.sequence_loss", None),
    (pipeline, "decode_greedy", "decoder.decode_greedy", _after_decode),
    (decoder, "cross_entropy", "numerics.cross_entropy", None),
    (memory, "cross_entropy", "numerics.cross_entropy", None),
    (pipeline, "adam_step", "numerics.adam_step", None),
    (pipeline, "rewrite_targets", "vocabulary.rewrite_targets", None),
    (pipeline, "build_memory", "memory.build_memory", None),
    (pipeline, "select_top_detections", "memory.select_top_detections", None),
    (memory, "select_top_detections", "memory.select_top_detections", None),
    (memory.ObjectMemory, "write", "memory.write", None),
    (pipeline, "memory_read", "memory.memory_read", _after_read),
    (pipeline, "memory_loss_forward", "memory.memory_loss_forward", _after_loss_forward),
    (pipeline, "read_loss_backward", "memory.read_loss_backward", None),
    (evaluation, "f1_for_object", "evaluation.f1_for_object", None),
]


@contextmanager
def instrumented(tracer, spans):
    """Install ``spans`` plus the captioner wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after in spans:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, after, keep=name in KEEP_SAMPLES))
        make = pipeline.make_captioner
        saved.append((pipeline, "make_captioner", make))

        def make_captioner(*args, **kwargs):
            return tracer.wrap("pipeline.captioner", make(*args, **kwargs), _after_caption, keep=True)

        pipeline.make_captioner = make_captioner
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


"""The benchmark's traced run reads counters off the arguments and return
values of the functions it wraps (perfbench/tracing.py). A field a hook
needs that goes missing would otherwise show only in a traced benchmark
run, as ``"correct": false``."""

import numpy as np

from novelcap import pipeline
from novelcap.config import RunConfig
from novelcap.data import generate_synthetic, make_world
from novelcap.decoder import CaptionModel
from novelcap.numerics import AdamState
from novelcap.vocabulary import build_vocabulary, intersect_detectable

from support import load_tracing


def test_counter_hooks_read_a_train_step_and_a_caption():
    tracing = load_tracing()
    world = make_world(names=("dog", "cat", "bus", "tree", "boat", "bird"),
                       dim=8, seed=0, noise_scale=0.05, latent_rank=4)
    records = generate_synthetic(world, 30, objects_per_image=(1, 2))
    vocab = build_vocabulary([ref for rec in records for ref in rec.references])
    det_map = intersect_detectable(vocab, list(world.names))
    model = CaptionModel(vocab.size, hidden_size=12, embed_size=8, image_dim=8, key_dim=8, seed=0)
    opt = AdamState.for_param(model.theta)
    examples = [pipeline.TrainExample(r.feature, vocab.encode(ref, append_eos=True), r.detections)
                for r in records[:6] for ref in r.references]
    pairs = pipeline.TrainingPairs.of(examples, det_map, go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4,
                                      key_dim=8, max_steps=6)
    rows = np.array([0, 3, 4, 7, 11])  # a batch is a gather of pairs
    cfg = RunConfig(n_det=4, max_steps=6)

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, tracing.TIMING_SPANS + tracing.LAYER_SPANS):
        pipeline.train_step(rows, pairs, model, opt)
        # rigged to emit placeholders, so the caption builds its memory and reads it
        model.b_out[vocab.placeholder_id] = 30.0
        assert records[0].detections
        caption = pipeline.make_captioner(model, vocab, det_map, cfg, "dnoc")(records[0])

    for counter in ("pipeline.pairs_trained", "decoder.teacher_forced_steps", "decoder.backward_steps",
                    "memory.loss_reads", "decoder.decode_steps", "memory.slots_read",
                    "pipeline.placeholders_emitted"):
        assert tracer.counts[counter] > 0, counter
    assert tracer.calls["pipeline.train_step"] == tracer.calls["pipeline.captioner"] == 1
    assert tracer.counts["pipeline.pairs_trained"] == len(rows) == 5
    assert tracer.counts["pipeline.placeholders_emitted"] == cfg.max_steps
    assert caption.placeholder_count_unfilled == 0 and len(caption.tokens) == cfg.max_steps
    # one memory build and one read of the block of every placeholder's query
    assert tracer.calls["memory.build_memory"] == tracer.calls["memory.memory_read"] == 1


def test_each_memory_build_counts_one_memory_write():
    """The benchmark times a caption's slot fill as the ``memory.write`` span:
    a dnoc caption that builds its memory must also reach that span."""
    tracing = load_tracing()
    world = make_world(names=("dog", "cat", "bus", "tree"), dim=6, seed=1, noise_scale=0.05, latent_rank=3)
    records = generate_synthetic(world, 8, objects_per_image=(1, 2))
    vocab = build_vocabulary([ref for rec in records for ref in rec.references])
    det_map = intersect_detectable(vocab, list(world.names))
    model = CaptionModel(vocab.size, hidden_size=8, embed_size=6, image_dim=6, key_dim=6, seed=1)
    model.b_out[vocab.placeholder_id] = 30.0  # every step a placeholder, so every caption fills
    captioner = pipeline.make_captioner(model, vocab, det_map, RunConfig(n_det=2, max_steps=3), "dnoc")

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, tracing.TIMING_SPANS + tracing.LAYER_SPANS):
        captions = [captioner(rec) for rec in records]

    assert all(rec.detections for rec in records)
    assert all(c.placeholder_count_unfilled == 0 and len(c.tokens) == 3 for c in captions)
    assert tracer.calls["memory.build_memory"] == len(records)
    assert tracer.calls["memory.write"] == tracer.calls["memory.build_memory"]

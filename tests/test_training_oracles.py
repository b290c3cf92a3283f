"""Array training against inline copies of the code it replaced.

Training builds its pairs once as arrays (``TrainingPairs``): ids
rewritten, truncated and padded, and each image's top-n_det slots. A batch
is a gather of columns. The oracles below are the list-based step it
replaced (per-batch rewriting and padding, a memory built per pair, the
strided recurrent weights and the stacked local derivatives), the
per-example memory loop (one read and one backward per masked step) and
the ``np.add.at`` / concatenated backward, run on the acceptance world's
first training epoch. The no-placeholder baseline trains through the same
step with no detectable word; its oracle is the list-based step with raw
targets, no memory pass and a zero query gradient.

Captioning builds a record's memory once, in one block write, and fills
all of its placeholders with one read. Its oracle is the captioner it
replaced (a memory of Python-sorted rows, one query product and one read
per placeholder, each filler made eagerly), over the benchmark's caption
and crowded-sweep draws. A captioner told its records captions them in
one split pass; its oracle is the per-record captioner.

A record's detections are one table, and a row of a memory comes from one
sort and one gather of its table. Their oracle is the memory build by a
Python sort: each image's top detections in score order, written to one
``ObjectMemory``.
"""

import dataclasses
import json
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from novelcap import config, evaluation, memory, pipeline
from novelcap.config import RunConfig
from novelcap.data import HeldOutSplit, build_heldout_split, generate_synthetic, make_world
from novelcap.decoder import (CaptionModel, DecodeSnapshot, ForwardCache, _check_cell, _halve_sigmoid_gates,
                              decode_block_rows, decode_greedy, init_state, sequence_loss)
from novelcap.errors import DomainError
from novelcap.memory import Detections, LossReads, ObjectMemory, build_memory, memory_loss_forward, read_loss_backward
from novelcap.numerics import FLOAT, AdamState, adam_step, softmax
from novelcap.pipeline import (CLIP_NORM, Caption, TrainExample, TrainingPairs, batch_losses, clip_gradients,
                               train_step)
from novelcap.vocabulary import PLACEHOLDER, build_vocabulary, intersect_detectable, mask_weights, rewrite_targets

from support import load_workloads

SPEC = json.loads((Path(__file__).parent / "acceptance_config.json").read_text())["benchmark"]
RUN = SPEC["run"]


@pytest.fixture(scope="module")
def acceptance_world():
    world = make_world(**{k: tuple(v) if isinstance(v, list) else v for k, v in SPEC["world"].items()})
    records = generate_synthetic(world, SPEC["n_images"], tuple(SPEC["objects_per_image"]))
    split = build_heldout_split(records, tuple(SPEC["held_out"]), tuple(SPEC["ratios"]),
                                seed=SPEC["split_seed"])
    vocab = build_vocabulary([ref for r in split.train for ref in r.references])
    det_map = intersect_detectable(vocab, list(world.names))
    examples = [TrainExample(r.feature, vocab.encode(ref, append_eos=True), r.detections)
                for r in split.train for ref in r.references]
    return split, vocab, det_map, examples


def acceptance_model(vocab):
    model = CaptionModel(vocab.size, hidden_size=RUN["hidden_size"], embed_size=RUN["embed_size"],
                         image_dim=RUN["image_dim"], key_dim=RUN["key_dim"], seed=RUN["seed"])
    return model, AdamState.for_param(model.theta, lr=RUN["lr"], weight_decay=RUN["weight_decay"])


def first_epoch(examples, vocab, det_map):
    """The acceptance run's pairs as arrays, and its first epoch's batches of rows."""
    pairs = TrainingPairs.of(examples, det_map, go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=RUN["n_det"],
                             key_dim=RUN["key_dim"], max_steps=RUN["max_steps"])
    order = np.random.default_rng([RUN["seed"], 1]).permutation(len(examples))
    return pairs, [order[s:s + RUN["batch_size"]] for s in range(0, len(order), RUN["batch_size"])]


def top_rows(dets: Detections, n_det: int) -> Detections:
    """A table's top ``n_det`` rows by a Python sort of the scores
    (``sorted`` is stable, so ties keep their order), as one table."""
    order = sorted(range(len(dets)), key=lambda i: -dets.scores[i])[:n_det]
    return Detections(dets.features[order], dets.labels[order], dets.scores[order])


def slot_width(detections, n_det) -> int:
    """The width of a split's memory: its longest top-``n_det`` cut, and at least 1."""
    return max(1, min(n_det, max((len(dets) for dets in detections), default=0)))


def per_memory_slots(detections, n_det, key_dim, n_classes) -> ObjectMemory:
    """``build_memory`` by a Python sort: per image, its top ``n_det`` rows
    by score, written to one ``ObjectMemory``."""
    return ObjectMemory(key_dim, n_classes).write([top_rows(dets, n_det) for dets in detections])


def assert_slots_equal(got: ObjectMemory, want: ObjectMemory, what):
    for field in ("keys", "labels", "counts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), (what, field)


# --- the list-based step, as it was before the pairs became arrays ---------


def allocating_cell(z, c_prev, gates):
    """The gate activation and cell update into fresh arrays: tanh of the
    halved pre-activations into ``gates``, then c = f*c_prev + i*g."""
    nh = c_prev.shape[-1]
    np.tanh(z, out=gates)
    sig = gates[..., :3 * nh]
    sig += 1.0
    sig *= 0.5
    return gates[..., nh:2 * nh] * c_prev + gates[..., :nh] * gates[..., 3 * nh:]


def list_forward(targets, features, model, go_id, pad_id, max_steps):
    """The teacher-forced forward over a list of sequences, padded per batch,
    with the recurrent weights as a transposed view of a copy of lstm_w's
    columns: the pass and its padded targets."""
    lengths = np.minimum([len(seq) for seq in targets], max_steps)
    n_steps, batch = int(lengths.max()), len(targets)
    target_ids = np.full((n_steps, batch), pad_id, dtype=np.intp)
    input_ids = np.full((n_steps, batch), pad_id, dtype=np.intp)
    input_ids[0] = go_id
    for b, (seq, n) in enumerate(zip(targets, lengths)):
        target_ids[:n, b] = seq[:n]
        input_ids[1:n, b] = seq[:n - 1]
    h0, c0 = init_state(features, model)
    e, nh = model.embed_size, model.hidden_size
    w_h = _halve_sigmoid_gates(model.lstm_w[:, e:].copy().T)
    x = model.embed.T[input_ids]
    zx = _halve_sigmoid_gates(x.reshape(-1, e) @ model.lstm_w[:, :e].T + model.lstm_b)
    zx = zx.reshape(n_steps, batch, 4 * nh)
    h = np.empty((n_steps + 1, batch, nh), dtype=FLOAT)
    c = np.empty_like(h)
    c_tanh = np.empty((n_steps, batch, nh), dtype=FLOAT)
    gates = np.empty_like(zx)
    h[0], c[0] = h0, c0
    for t in range(n_steps):
        c[t + 1] = allocating_cell(zx[t] + h[t] @ w_h, c[t], gates[t])
        np.tanh(c[t + 1], out=c_tanh[t])
        np.multiply(gates[t, :, 2 * nh:3 * nh], c_tanh[t], out=h[t + 1])
    _check_cell(c[1:][np.arange(n_steps)[:, None] < lengths])
    logits = (h[1:].reshape(-1, nh) @ model.w_out.T + model.b_out).reshape(n_steps, batch, -1)
    return ForwardCache(input_ids=input_ids, lengths=lengths, features=features, h=h, c=c, gates=gates,
                        c_tanh=c_tanh, logits=logits), target_ids


def list_memory_loss(hiddens, original, mask, det_map, memories, w_query, width):
    """The batched memory loss over one memory per row, each padded to
    ``width`` slots, classes looked up word by word."""
    steps, rows = np.divmod(np.flatnonzero(mask), len(memories))
    classes = np.array([det_map.word_classes[word] for word in original[steps, rows].tolist()], dtype=np.intp)
    padded_keys = np.zeros((len(memories), width, w_query.shape[0]))
    padded_labels = np.zeros((len(memories), width), dtype=np.intp)
    for r, mem in enumerate(memories):
        if mem.n:
            padded_keys[r, :mem.n], padded_labels[r, :mem.n] = mem.keys[0], mem.labels[0]
    filled = np.arange(width) < np.array([mem.n for mem in memories])[rows, None]
    hits = (padded_labels[rows] == classes[:, None]) & filled
    read = hits.any(axis=1)
    steps, rows, filled, hits = steps[read], rows[read], filled[read], hits[read]
    keys = padded_keys[rows]
    queries = hiddens[steps, rows] @ w_query.T
    sims = np.where(filled, np.matmul(keys, queries[:, :, None])[..., 0], -np.inf)
    w = softmax(sims)
    target_prob = (w * hits).sum(axis=1)
    dalpha = np.where(hits, -1.0 / target_prob[:, None], 0.0)
    dsims = w * (dalpha - (w * dalpha).sum(axis=1, keepdims=True))
    return float((-np.log(target_prob)).sum()), LossReads(steps, rows, keys, dsims)


def stacking_backward(model, cache, dlogits, dq):
    """``backward_pass`` with its local derivatives stacked from temporaries."""
    n_steps, batch, nh = cache.c_tanh.shape
    e = model.embed_size

    def rows(a):
        return a.reshape(n_steps * batch, -1)

    dh_in = np.zeros_like(cache.h)
    dh_in[1:] = dlogits @ model.w_out
    dh_in[:-1] += dq @ model.w_query
    i, f, o, g = (cache.gates[..., k * nh:(k + 1) * nh] for k in range(4))
    local = np.stack([g * i * (1.0 - i), cache.c[:-1] * f * (1.0 - f),
                      cache.c_tanh * o * (1.0 - o), i * (1.0 - g * g)], axis=2)
    o_dtanh = o * (1.0 - cache.c_tanh ** 2)
    w_h = model.lstm_w[:, e:]
    dz = np.empty((n_steps, batch, 4, nh), dtype=FLOAT)
    dh = dh_in[n_steps]
    dc = np.zeros((batch, nh), dtype=FLOAT)
    for t in range(n_steps - 1, -1, -1):
        dc = dc + dh * o_dtanh[t]
        np.multiply(local[t], dc[:, None, :], out=dz[t])
        np.multiply(local[t, :, 2], dh, out=dz[t, :, 2])
        dc = dc * f[t]
        dh = dz[t].reshape(batch, 4 * nh) @ w_h + dh_in[t]
    dz = rows(dz)
    grad = np.zeros_like(model.theta)
    g = model.views(grad)
    one_hot = np.arange(model.vocab_size)[:, None] == cache.input_ids.ravel()
    g["embed"].T[...] = one_hot @ (dz @ model.lstm_w[:, :e])
    g["lstm_w"][:, :e] = dz.T @ rows(model.embed.T[cache.input_ids])
    g["lstm_w"][:, e:] = dz.T @ rows(cache.hiddens)
    g["lstm_b"][...] = dz.sum(axis=0)
    g["w_out"][...] = rows(dlogits).T @ rows(cache.h[1:])
    g["b_out"][...] = rows(dlogits).sum(axis=0)
    dz0 = dh * (1.0 - cache.h[0] ** 2)
    g["w_img"][...] = dz0.T @ cache.features
    g["b_img"][...] = dz0.sum(axis=0)
    g["w_query"][...] = rows(dq).T @ rows(cache.hiddens)
    dzc = dc * (1.0 - cache.c[0] ** 2)
    g["w_img_cell"][...] = dzc.T @ cache.features
    g["b_img_cell"][...] = dzc.sum(axis=0)
    return grad


def list_batch_losses(model, batch, det_map, *, go_id, pad_id, n_det, width, max_steps):
    """The step's losses and gradient from a list of pairs: each batch
    rewritten and padded anew, and a memory built for each pair with a
    masked step, padded to the ``width`` of the run's slots."""
    scale = 1.0 / len(batch)
    cache, targets = list_forward([rewrite_targets(ex.targets, det_map) for ex in batch],
                                  np.array([ex.feature for ex in batch]), model, go_id, pad_id, max_steps)
    loss_seq, dlogits = sequence_loss(cache.logits, targets, pad_id)
    dq = np.zeros(cache.hiddens.shape[:2] + (model.key_dim,))
    original = np.full(targets.shape, pad_id, dtype=np.intp)
    mask = np.zeros_like(original)
    memories = []
    for b, (ex, n) in enumerate(zip(batch, cache.lengths)):
        original[:n, b] = ex.targets[:n]
        mask[:n, b] = mask_weights(ex.targets[:n], det_map)
        memories.append(build_memory([ex.detections], n_det, model.key_dim, det_map.n_classes) if mask[:, b].any()
                        else ObjectMemory(model.key_dim, det_map.n_classes))
    loss_mem, reads = list_memory_loss(cache.hiddens, original, mask.ravel(), det_map, memories,
                                       model.w_query, width)
    dq[reads.steps, reads.rows] = read_loss_backward(reads, scale=scale)
    grad = stacking_backward(model, cache, dlogits * scale, dq)
    return loss_seq / len(batch), loss_mem / len(batch), grad


def list_baseline_losses(model, batch, *, go_id, pad_id, max_steps):
    """The no-placeholder step as its own path: raw targets, no memory pass
    and a zero dq."""
    scale = 1.0 / len(batch)
    cache, targets = list_forward([ex.targets for ex in batch], np.array([ex.feature for ex in batch]), model,
                                  go_id, pad_id, max_steps)
    loss_seq, dlogits = sequence_loss(cache.logits, targets, pad_id)
    dq = np.zeros(cache.hiddens.shape[:2] + (model.key_dim,))
    return loss_seq / len(batch), 0.0, stacking_backward(model, cache, dlogits * scale, dq)


def no_detectable_words(det_map):
    """The detectable set the no-placeholder baseline trains with."""
    return dataclasses.replace(det_map, word_classes=np.full_like(det_map.word_classes, -1))


def test_first_epoch_equals_the_list_based_step_bit_for_bit(acceptance_world):
    # dnoc against the list-based step; the baseline, dnoc with no detectable word, against its own path
    _, vocab, det_map, examples = acceptance_world
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, max_steps=RUN["max_steps"])
    width = slot_width([ex.detections for ex in examples], RUN["n_det"])
    for mode, pd, reference in (
            ("dnoc", det_map, partial(list_batch_losses, det_map=det_map, n_det=RUN["n_det"], width=width, **kw)),
            ("no-placeholder", no_detectable_words(det_map), partial(list_baseline_losses, **kw))):
        model, opt = acceptance_model(vocab)
        pairs, batches = first_epoch(examples, vocab, pd)
        for k, rows in enumerate(batches):
            loss_seq, loss_mem, grad = batch_losses(model, pairs, rows)
            ref_seq, ref_mem, ref_grad = reference(model, [examples[i] for i in rows])
            assert (loss_seq, loss_mem) == (ref_seq, ref_mem), (mode, k)
            assert np.array_equal(grad, ref_grad), (mode, k, np.abs(grad - ref_grad).max())
            assert mode == "dnoc" or loss_mem == 0.0
            clip_gradients(grad, CLIP_NORM)
            adam_step(model.theta, grad, opt)
        assert len(batches) == 125


# --- the per-example memory loop and the concatenating backward ------------


def per_example_memory_loss(hiddens, original, mask, det_map, memories, w_query, scale):
    """The memory half of training one example and one masked step at a
    time: (loss, dq, masked steps, reads). ``mask`` is (T, B)."""
    loss, dq, masked, reads = 0.0, np.zeros(hiddens.shape[:2] + (w_query.shape[0],)), 0, 0
    for b, mem in enumerate(memories):
        example_loss = 0.0
        for t in np.flatnonzero(mask[:, b]):
            masked += 1
            target = int(det_map.word_classes[original[t, b]])
            if target < 0 or mem.n == 0 or target not in mem.labels[0]:
                continue
            keys, labels = mem.keys[0], mem.labels[0]
            weights = softmax(keys @ (w_query @ hiddens[t, b]))
            p = np.bincount(labels, weights, minlength=mem.n_classes)[target]
            example_loss += float(-np.log(p))
            dalpha = np.where(labels == target, -1.0 / p, 0.0)
            dsims = weights * (dalpha - float(weights @ dalpha))
            dq[t, b] = keys.T @ (dsims * scale)
            reads += 1
        loss += example_loss
    return loss, dq, masked, reads


def concatenating_backward(model, cache, dlogits, dq):
    """``backward_pass`` with its embedding gradient scattered by
    ``np.add.at`` and its ``lstm_w`` gradient as one product over the
    concatenated [x, h] rows."""
    n_steps, batch, nh = cache.c_tanh.shape
    e = model.embed_size

    def rows(a):
        return a.reshape(n_steps * batch, -1)

    dh_in = np.zeros_like(cache.h)
    dh_in[1:] = dlogits @ model.w_out
    dh_in[:-1] += dq @ model.w_query
    i, f, o, g = (cache.gates[..., k * nh:(k + 1) * nh] for k in range(4))
    local = np.concatenate([g * i * (1.0 - i), cache.c[:-1] * f * (1.0 - f),
                            cache.c_tanh * o * (1.0 - o), i * (1.0 - g * g)], axis=-1)
    local = local.reshape(n_steps, batch, 4, nh)
    o_dtanh = o * (1.0 - cache.c_tanh ** 2)
    w_h = model.lstm_w[:, e:]
    dz = np.empty((n_steps, batch, 4, nh), dtype=FLOAT)
    dh = dh_in[n_steps]
    dc = np.zeros((batch, nh), dtype=FLOAT)
    for t in range(n_steps - 1, -1, -1):
        dc = dc + dh * o_dtanh[t]
        np.multiply(local[t], dc[:, None, :], out=dz[t])
        np.multiply(local[t, :, 2], dh, out=dz[t, :, 2])
        dc = dc * f[t]
        dh = dz[t].reshape(batch, 4 * nh) @ w_h + dh_in[t]
    dz = rows(dz)
    grad = np.zeros_like(model.theta)
    g = model.views(grad)
    np.add.at(g["embed"].T, cache.input_ids.ravel(), dz @ model.lstm_w[:, :e])
    g["lstm_w"][...] = dz.T @ rows(np.concatenate([model.embed.T[cache.input_ids], cache.hiddens], axis=-1))
    g["lstm_b"][...] = dz.sum(axis=0)
    g["w_out"][...] = rows(dlogits).T @ rows(cache.h[1:])
    g["b_out"][...] = rows(dlogits).sum(axis=0)
    dz0 = dh * (1.0 - cache.h[0] ** 2)
    g["w_img"][...] = dz0.T @ cache.features
    g["b_img"][...] = dz0.sum(axis=0)
    g["w_query"][...] = rows(dq).T @ rows(cache.hiddens)
    dzc = dc * (1.0 - cache.c[0] ** 2)
    g["w_img_cell"][...] = dzc.T @ cache.features
    g["b_img_cell"][...] = dzc.sum(axis=0)
    return grad


def padded_originals(batch, lengths, pad_id, det_map):
    """(T, B) original word ids and mask weights of a batch, as the decoder pads it."""
    original = np.full((int(lengths.max()), len(batch)), pad_id, dtype=np.intp)
    mask = np.zeros_like(original)
    for b, (ex, n) in enumerate(zip(batch, lengths)):
        original[:n, b] = ex.targets[:n]
        mask[:n, b] = mask_weights(ex.targets[:n], det_map)
    return original, mask


def test_first_epoch_matches_per_example_memory_loss_and_concatenating_backward(acceptance_world,
                                                                                 monkeypatch):
    _, vocab, det_map, examples = acceptance_world
    model, opt = acceptance_model(vocab)
    pairs, batches = first_epoch(examples, vocab, det_map)
    seen = {}

    def recorded(name, fn):
        def call(*args):
            out = fn(*args)
            seen[name] = args, out.copy() if name == "backward_pass" else out
            return out
        return call

    for name in ("backward_pass", "memory_loss_forward"):
        monkeypatch.setattr(pipeline, name, recorded(name, getattr(pipeline, name)))
    worst = {"loss": 0.0, "dq": 0.0, "grad": 0.0}
    totals = np.zeros(2, dtype=int)
    for k, rows in enumerate(batches):
        batch = [examples[i] for i in rows]
        before = model.copy()
        _, loss_mem, _ = train_step(rows, pairs, model, opt)
        (_, cache, dlogits, dq), grad = seen["backward_pass"]
        mask_arg, (_, reads) = seen["memory_loss_forward"][0][2], seen["memory_loss_forward"][1]
        original, mask = padded_originals(batch, cache.lengths, vocab.pad_id, det_map)
        memories = [build_memory([ex.detections], RUN["n_det"], model.key_dim, det_map.n_classes)
                    for ex in batch]
        loss, dq_ref, masked, n_reads = per_example_memory_loss(
            cache.hiddens, original, mask, det_map, memories, before.w_query, 1.0 / len(batch))
        assert (sum(1 for w in mask_arg if w), len(reads)) == (masked, n_reads), k
        totals += masked, n_reads
        worst["loss"] = max(worst["loss"], abs(loss_mem - loss / len(batch)) / max(loss / len(batch), 1e-300))
        worst["dq"] = max(worst["dq"], np.abs(dq - dq_ref).max())
        grad_ref = concatenating_backward(before, cache, dlogits, dq_ref)
        worst["grad"] = max(worst["grad"], np.abs(grad - grad_ref).max())
        if k < 30:  # same dq in: the products must reproduce the scatter bit for bit
            same_dq = concatenating_backward(before, cache, dlogits, dq)
            assert np.array_equal(grad, same_dq), (k, np.abs(grad - same_dq).max())
    assert totals[1] > 0.9 * totals[0] > 0
    assert worst["loss"] <= 1e-12 and worst["dq"] <= 1e-12 and worst["grad"] <= 1e-12, worst


def test_pairs_are_built_once_per_image_and_reused(acceptance_world, monkeypatch):
    split, vocab, det_map, _ = acceptance_world
    built = []
    build = pipeline.build_memory

    def counted(detections, n_det, *args):
        built.append((len(detections), n_det))
        return build(detections, n_det, *args)

    monkeypatch.setattr(pipeline, "build_memory", counted)
    train = split.train[:40]  # no validation records: every memory build below is training's
    cfg = RunConfig(**dict(RUN, epochs=2, hidden_size=16, embed_size=8))
    result = pipeline.train_model(HeldOutSplit(train, [], [], split.held_out_words), vocab, det_map, cfg)
    assert len(result.history) == 2
    assert built == [(len(train), cfg.n_det)]  # once, one row per record: not per pair, not per epoch
    examples = [TrainExample(r.feature, vocab.encode(ref, append_eos=True), r.detections)
                for r in train for ref in r.references]
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, key_dim=cfg.key_dim, max_steps=cfg.max_steps)
    pairs = TrainingPairs.of(examples, det_map, n_det=cfg.n_det, **kw)
    assert np.array_equal(pairs.slot_rows, np.repeat(np.arange(len(train)), 2))  # two references an image
    assert pairs.slots.counts.tolist() == [min(len(r.detections), cfg.n_det) for r in train]
    model = CaptionModel(vocab.size, hidden_size=16, embed_size=8, image_dim=32, key_dim=32)
    del built[:]
    first = batch_losses(model, pairs, np.arange(8))
    again = batch_losses(model, pairs, np.arange(8))
    assert built == []
    assert first[:2] == again[:2] and np.array_equal(first[2], again[2])
    TrainingPairs.of(examples, det_map, n_det=2, **kw)
    assert built == [(len(train), 2)]  # another n_det is another build


def test_every_image_gets_a_slot_row_and_stray_labels_are_refused(acceptance_world):
    split, vocab, det_map, _ = acceptance_world
    rec = split.train[0]
    plain = [w for w in vocab.words if det_map.word_classes[vocab.index[w]] < 0][:3]
    examples = [TrainExample(rec.feature, vocab.encode(ref, append_eos=True), rec.detections)
                for ref in (plain, rec.references[0])]
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4, key_dim=32)
    assert TrainingPairs.of(examples, det_map, **kw).slots.counts.tolist() == [4]
    slots = TrainingPairs.of(examples[:1], det_map, **kw).slots  # no masked step, and still its row
    assert slots.counts.tolist() == [4]
    assert np.array_equal(slots.keys[0], build_memory([rec.detections], 4, 32, det_map.n_classes).keys[0])
    dnoc = TrainingPairs.of(examples, det_map, **kw)
    baseline = TrainingPairs.of(examples, no_detectable_words(det_map), **kw)
    assert not baseline.mask.any()
    assert np.array_equal(baseline.targets, baseline.original)
    assert np.array_equal(baseline.slot_rows, dnoc.slot_rows)
    assert all(np.array_equal(getattr(baseline.slots, f), getattr(dnoc.slots, f))
               for f in ("keys", "labels", "counts"))
    stray = dataclasses.replace(examples[0], detections=Detections([np.zeros(32)], [det_map.n_classes], [0.5]))
    for pd in (det_map, no_detectable_words(det_map)):
        with pytest.raises(DomainError, match=f"label {det_map.n_classes} out of range"):
            TrainingPairs.of([stray], pd, **kw)


def test_skip_reasons_in_one_batch(caplog):
    vocab = build_vocabulary([["a", "dog", "sees", "cake", "by", "tree"]])
    det_map = intersect_detectable(vocab, ["dog", "cake", "tree"])
    rng = np.random.default_rng(3)
    key_dim, hidden = 3, 4

    def dets(*labels):
        rows = [(rng.normal(size=key_dim), label, score) for label, score in labels]
        return Detections(*zip(*rows)) if rows else Detections(np.empty((0, 0)), (), ())

    rows = [(["a", "sees", "dog"], dets((0, 0.9))),  # "sees" marked: no detection class
            (["dog", "by", "cake"], dets()),  # empty memory
            (["tree", "sees", "cake"], dets((1, 0.9), (0, 0.8), (2, 0.1))),  # tree below the cut
            (["cake", "dog", "a"], dets((0, 0.7), (1, 0.6), (0, 0.5)))]  # two reads
    original = np.array([vocab.encode(words) for words, _ in rows]).T
    mask = np.array([[0, 1, 1], [1, 0, 1], [1, 0, 1], [1, 1, 0]]).T
    memories = [build_memory([d], 2, key_dim, det_map.n_classes) for _, d in rows]
    hiddens = rng.normal(size=(3, len(rows), hidden))
    w_query = rng.normal(size=(key_dim, hidden))
    with caplog.at_level("DEBUG", logger="novelcap.memory"):
        loss, reads = memory_loss_forward(hiddens, original, mask.ravel(), det_map,
                                          build_memory([d for _, d in rows], 2, key_dim, det_map.n_classes),
                                          w_query)
    messages = [r.message for r in caplog.records]
    assert sum("no detection class" in m for m in messages) == 1
    assert sum("no detections available" in m for m in messages) == 2
    assert sum("absent from memory" in m for m in messages) == 1
    assert sorted(zip(reads.rows.tolist(), reads.steps.tolist())) == [(0, 2), (2, 2), (3, 0), (3, 1)]
    ref_loss, ref_dq, masked, n_reads = per_example_memory_loss(hiddens, original, mask, det_map, memories,
                                                                w_query, 0.5)
    assert (masked, n_reads) == (int(mask.sum()), len(reads)) == (8, 4)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    dq = np.zeros_like(ref_dq)
    dq[reads.steps, reads.rows] = read_loss_backward(reads, scale=0.5)
    assert np.abs(dq - ref_dq).max() <= 1e-12


def test_memory_pass_with_no_masked_step_reads_nothing(monkeypatch):
    def no_read(*args):
        raise AssertionError("read_slots called for a batch with no masked step")

    monkeypatch.setattr(memory, "read_slots", no_read)
    vocab = build_vocabulary([["a", "dog"]])
    det_map = intersect_detectable(vocab, ["dog"])
    empty = Detections(np.empty((0, 3)), [], [])
    loss, reads = memory_loss_forward(np.zeros((2, 2, 4)), np.zeros((2, 2), dtype=np.intp), [0] * 4,
                                      det_map, ObjectMemory(3, 1).write([empty, empty]), np.zeros((3, 4)))
    assert loss == 0.0 and len(reads) == 0
    assert read_loss_backward(reads).shape == (0, 3)



# --- the memory build before detections were a table ------------------------

CROWDED = dict(seed=7, dim=32, latent_rank=6, noise_scale=0.05, distractors=12)


def test_slots_equal_the_per_memory_build_on_the_crowded_world():
    """The memory of 300 crowded records (1-3 objects, 12 distractors: 13-15
    detections each) at every n_det from 1 to 16, bit for bit."""
    records = generate_synthetic(make_world(**CROWDED), 300, objects_per_image=(1, 3))
    tables = [rec.detections for rec in records]
    assert {len(dets) for dets in tables} == {13, 14, 15}
    for n_det in range(1, 17):
        assert_slots_equal(build_memory(tables, n_det, 32, 20), per_memory_slots(tables, n_det, 32, 20), n_det)


def test_tied_scores_keep_table_order_as_the_per_memory_build_does():
    rng = np.random.default_rng(11)
    tables = [Detections(rng.normal(size=(n, 3)), rng.integers(0, 5, n), rng.choice([0.25, 0.5, 1.0], n))
              for n in (0, 1, 6, 9, 2, 0, 12)]
    tables.append(Detections(np.arange(15.0).reshape(5, 3), [4, 3, 2, 1, 0], [0.5] * 5))  # every score tied
    assert sum(len(np.unique(dets.scores)) < len(dets) for dets in tables) >= 4
    for n_det in range(1, 14):
        assert_slots_equal(build_memory(tables, n_det, 3, 5), per_memory_slots(tables, n_det, 3, 5), n_det)
    assert build_memory(tables, 3, 3, 5).labels[-1].tolist() == [4, 3, 2]


# --- the captioner before one build and one read per caption ---------------

CAPTION_SEEDS = range(101, 111)
SWEEP_SEEDS = (101, 102)


def per_placeholder_captioner(model, vocab, det_map, cfg, mode):
    """The captioner as it was: each record's filler made right after the
    decode whether or not it has a placeholder (the memory written with the
    Python-sorted rows, the generator seeded), then one query product and
    one read per placeholder. Returns the caption and one entry per filled
    placeholder: the class distribution of its memory read, or None for a
    random label. The no-placeholder fill leaves every placeholder."""
    snapshot = DecodeSnapshot.of(model)
    w_query = snapshot.weights.w_query

    def filler(rec, reads):
        if mode == "no-placeholder":
            return None
        if mode == "dnoc":
            mem = ObjectMemory(model.key_dim, det_map.n_classes).write([top_rows(rec.detections, cfg.n_det)])
            if mem.n == 0:
                return None

            def fill(h_prev):
                distribution = np.bincount(mem.labels[0], softmax(mem.keys[0] @ (w_query @ h_prev)),
                                           minlength=mem.n_classes)
                reads.append(distribution)
                return det_map.class_words[int(np.argmax(distribution))]
            return fill
        labels = top_rows(rec.detections, cfg.n_det).labels.tolist()
        if not labels:
            return None
        rng = np.random.default_rng([cfg.seed, zlib.crc32(rec.image_id.encode())])

        def draw(h_prev):
            reads.append(None)
            return det_map.class_words[labels[int(rng.integers(len(labels)))]]
        return draw

    skip = {vocab.go_id, vocab.pad_id, vocab.eos_id}

    def captioner(rec):
        trace = decode_greedy(rec.feature, snapshot, vocab.go_id, vocab.eos_id, vocab.placeholder_id,
                              cfg.max_steps)
        reads = []
        fill = filler(rec, reads)
        tokens, unfilled = [], 0
        for pos, tok_id in enumerate(trace.ids):
            if pos in trace.placeholder_positions:
                if fill is None:
                    tokens.append(PLACEHOLDER)
                    unfilled += 1
                else:
                    tokens.append(fill(trace.hiddens[pos]))
            elif tok_id not in skip:
                tokens.append(vocab.word_of(tok_id))
        return Caption(tokens, unfilled), reads
    return captioner


def caption_differences(records, model, corpus, cfg, mode, tally):
    """Each record whose caption differs from the per-placeholder
    captioner's, with the reference margin (top class minus runner-up) of
    each of its memory reads. ``tally`` counts captions, placeholders
    filled, and captions with more than one placeholder filled."""
    captioner = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, cfg, mode)
    reference = per_placeholder_captioner(model, corpus.vocab, corpus.det_map, cfg, mode)
    differences = []
    for rec in records:
        got, (want, reads) = captioner(rec), reference(rec)
        tally["captions"] += 1
        tally["filled"] += len(reads)
        tally["block reads"] += len(reads) > 1
        if (got.tokens, got.placeholder_count_unfilled) != (want.tokens, want.placeholder_count_unfilled):
            margins = [float(np.diff(np.sort(d)[-2:])[0]) for d in reads if d is not None]
            differences.append(f"{mode} n_det {cfg.n_det} {rec.image_id}: {got.tokens} "
                               f"({got.placeholder_count_unfilled} unfilled) for {want.tokens} "
                               f"({want.placeholder_count_unfilled} unfilled), read margins {margins}")
    return differences


def trained_corpus(wl, workdir, crowded):
    if crowded:
        corpus = wl.build_corpus(workdir, wl.CROWDED_IMAGES, (1, 3), 12)
    else:
        corpus = wl.build_corpus(workdir, wl.N_IMAGES, (1, 1), wl.WORLD["distractors"])
    return corpus, CaptionModel.from_params(wl.train(corpus, wl.Checks()).params)


def test_captions_equal_the_per_placeholder_captioner_on_the_caption_workload(tmp_path):
    """Every record the caption workload captions first at seeds 101-110,
    in dnoc and no-memory mode: equal tokens and unfilled counts. A
    difference fails the test and is listed with its read margins."""
    wl = load_workloads()
    corpus, model = trained_corpus(wl, tmp_path, crowded=False)
    tally, differences = dict.fromkeys(("captions", "filled", "block reads"), 0), []
    for seed in CAPTION_SEEDS:
        records = corpus.draw(seed, 0, wl.CAPTION_RECORDS).test
        for mode in ("dnoc", "no-memory"):
            differences += caption_differences(records, model, corpus, corpus.cfg, mode, tally)
    assert tally["captions"] == 2 * len(CAPTION_SEEDS) * wl.CAPTION_RECORDS
    assert tally["filled"] >= tally["captions"] / 2, tally  # the trained model emits one in every caption
    assert not differences, f"{len(differences)} differences:\n" + "\n".join(differences)


def test_unfilled_captions_equal_the_per_placeholder_captioner_on_the_caption_workload(tmp_path):
    """The caption workload's records at seed 101 in no-placeholder mode:
    equal tokens and unfilled counts. Every record has detections, so only
    this mode leaves placeholders unfilled."""
    wl = load_workloads()
    corpus, model = trained_corpus(wl, tmp_path, crowded=False)
    tally = dict.fromkeys(("captions", "filled", "block reads"), 0)
    records = corpus.draw(CAPTION_SEEDS[0], 0, wl.CAPTION_RECORDS).test
    assert all(rec.detections for rec in records)
    differences = caption_differences(records, model, corpus, corpus.cfg, "no-placeholder", tally)
    assert tally["captions"] == wl.CAPTION_RECORDS and tally["filled"] == 0, tally
    captioner = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "no-placeholder")
    unfilled = [captioner(rec).placeholder_count_unfilled for rec in records]
    assert sum(n > 0 for n in unfilled) >= len(records) / 2  # the trained model emits one in every caption
    assert not differences, f"{len(differences)} differences:\n" + "\n".join(differences)


def test_captions_equal_the_per_placeholder_captioner_on_the_crowded_sweep(tmp_path):
    """The crowded-sweep records of two seeds at every n_det from 1 to 16,
    in dnoc and no-memory mode, where captions hold several placeholders:
    a block read has several rows, and a generator makes several draws."""
    wl = load_workloads()
    corpus, model = trained_corpus(wl, tmp_path, crowded=True)
    tally, differences = dict.fromkeys(("captions", "filled", "block reads"), 0), []
    for seed in SWEEP_SEEDS:
        records = corpus.draw(seed, 0, wl.SWEEP_RECORDS).test
        for n_det in wl.SWEEP_NDET:
            cfg = dataclasses.replace(corpus.cfg, n_det=n_det)
            for mode in ("dnoc", "no-memory"):
                differences += caption_differences(records, model, corpus, cfg, mode, tally)
    assert tally["captions"] == 2 * len(SWEEP_SEEDS) * wl.SWEEP_RECORDS * len(wl.SWEEP_NDET)
    assert tally["block reads"] >= tally["captions"] / 2, tally  # two placeholders in every caption
    assert not differences, f"{len(differences)} differences:\n" + "\n".join(differences)


# A captioner told its records captions them all in its first call: one batched decode per block, one memory
# build and one read. Its oracle is the captioner that decodes, builds and reads one record at a time.


@pytest.fixture(scope="module")
def trained_worlds(tmp_path_factory):
    wl = load_workloads()
    return wl, {crowded: trained_corpus(wl, tmp_path_factory.mktemp("crowded" if crowded else "caption"), crowded)
                for crowded in (False, True)}


def without_detections_every(records, k):
    """``records`` with every k-th record's detection table emptied."""
    return [dataclasses.replace(rec, detections=rec.detections.take(np.empty(0, dtype=np.intp))) if i % k == 0
            else rec for i, rec in enumerate(records)]


def split_differences(records, model, corpus, cfg, mode, tally):
    """Each record whose split-pass caption differs from its per-record
    caption, with the reference margins (top class minus runner-up) of its
    memory reads. ``tally`` counts captions, records without detections and
    captions of several placeholders, filled or not."""
    split = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, cfg, mode, records=records)
    one = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, cfg, mode)
    reference = per_placeholder_captioner(model, corpus.vocab, corpus.det_map, cfg, mode)
    differences = []
    for rec in records:
        got, want = split(rec), one(rec)
        _, reads = reference(rec)
        tally["captions"] += 1
        tally["no detections"] += not rec.detections
        tally["several placeholders"] += max(len(reads), want.placeholder_count_unfilled) > 1
        if got != want:
            margins = [float(np.diff(np.sort(d)[-2:])[0]) for d in reads if d is not None]
            differences.append(f"{mode} n_det {cfg.n_det} {rec.image_id}: {got} for {want}, read margins {margins}")
    return differences


@pytest.mark.parametrize("crowded", [False, True], ids=["caption", "crowded"])
def test_split_pass_captions_equal_per_record_captions(trained_worlds, crowded):
    """The caption workload's first draw at seed 101 (one placeholder a
    caption), or two crowded-sweep draws at n_det 1, 4 and 16 (several),
    with every seventh record's detections emptied, in all three modes:
    equal captions. A difference fails the test and is listed with its read
    margins."""
    wl, worlds = trained_worlds
    corpus, model = worlds[crowded]
    draws = [corpus.draw(seed, 0, wl.SWEEP_RECORDS).test for seed in SWEEP_SEEDS] if crowded else \
        [corpus.draw(CAPTION_SEEDS[0], 0, wl.CAPTION_RECORDS).test]
    tally, differences = dict.fromkeys(("captions", "no detections", "several placeholders"), 0), []
    for records in draws:
        records = without_detections_every(records, 7)
        for n_det in (1, 4, 16) if crowded else (corpus.cfg.n_det,):
            cfg = dataclasses.replace(corpus.cfg, n_det=n_det)
            for mode in pipeline.CAPTION_MODES:
                differences += split_differences(records, model, corpus, cfg, mode, tally)
    assert tally["no detections"] >= tally["captions"] / 8, tally
    assert tally["several placeholders"] >= tally["captions"] / 4 if crowded else not tally["several placeholders"]
    assert not differences, f"{len(differences)} differences:\n" + "\n".join(differences)


def counting_decodes(monkeypatch):
    """Count the calls of the two decodes the captioner makes, and the rows of each batched one."""
    calls = {"decode_greedy": 0, "decode_batch": []}
    one, batch = pipeline.decode_greedy, pipeline.decode_batch

    def decode_greedy(*args):
        calls["decode_greedy"] += 1
        return one(*args)

    def decode_batch(features, *args):
        calls["decode_batch"].append(len(features))
        return batch(features, *args)

    monkeypatch.setattr(pipeline, "decode_greedy", decode_greedy)
    monkeypatch.setattr(pipeline, "decode_batch", decode_batch)
    return calls


def test_a_split_is_decoded_once_in_its_first_call_and_never_if_not_called(trained_worlds, monkeypatch):
    wl, worlds = trained_worlds
    corpus, model = worlds[False]
    records = corpus.draw(CAPTION_SEEDS[0], 0, 300).test
    calls = counting_decodes(monkeypatch)
    made = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "dnoc", records=records)
    assert evaluation.average_f1_over(records, made, ()) == 0.0  # no words: no caption
    assert calls == {"decode_greedy": 0, "decode_batch": []}
    captioner = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "dnoc", records=records)
    first = captioner(records[5])
    assert calls == {"decode_greedy": 0, "decode_batch": [len(records)]}
    captions = [captioner(rec) for rec in records]
    assert captions[5] == first and calls == {"decode_greedy": 0, "decode_batch": [len(records)]}
    # a record of another draw, with the image id of a split record, is not in the split
    outside = corpus.draw(CAPTION_SEEDS[1], 0, 1).test[0]
    assert outside.image_id == records[0].image_id and not np.array_equal(outside.feature, records[0].feature)
    one = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "dnoc")
    assert captioner(outside) == one(outside) and calls["decode_greedy"] == 2
    assert calls["decode_batch"] == [len(records)]


def test_a_budget_of_a_few_rows_decodes_in_blocks_with_the_same_captions(trained_worlds, monkeypatch):
    wl, worlds = trained_worlds
    corpus, model = worlds[True]
    records = without_detections_every(corpus.draw(SWEEP_SEEDS[0], 0, wl.SWEEP_RECORDS).test, 7)
    whole = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "dnoc", records=records)
    want = [whole(rec) for rec in records]
    rows = decode_block_rows(DecodeSnapshot.of(model), corpus.cfg.max_steps)
    assert rows >= len(records)
    monkeypatch.setattr(config, "BUFFER_BUDGET", config.BUFFER_BUDGET * 40 // rows)  # about 40 rows a block
    calls = counting_decodes(monkeypatch)
    blocks = pipeline.make_captioner(model, corpus.vocab, corpus.det_map, corpus.cfg, "dnoc", records=records)
    assert [blocks(rec) for rec in records] == want
    assert len(calls["decode_batch"]) >= 2 and sum(calls["decode_batch"]) == len(records)
    assert 40 <= max(calls["decode_batch"]) < len(records)

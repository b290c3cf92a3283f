"""Batched training against inline copies of the per-example code it replaced.

The memory half of ``batch_losses`` reads every masked step of a batch in
one pass over slots built once per pair; ``backward_pass`` forms the
embedding and ``lstm_w`` gradients as plain products. The oracles below
are the per-example memory loop (``build_memory`` per example, one read
and one backward per masked step) and the ``np.add.at`` / concatenated
backward, run on the acceptance world's first training epoch.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from novelcap import pipeline
from novelcap.data import build_heldout_split, generate_synthetic, make_world
from novelcap.decoder import CaptionModel
from novelcap.memory import Detection, ObjectMemory, build_memory, memory_loss_forward, read_loss_backward
from novelcap.numerics import FLOAT, AdamState, softmax
from novelcap.pipeline import TrainExample, train_step
from novelcap.vocabulary import build_vocabulary, intersect_detectable, mask_weights

SPEC = json.loads((Path(__file__).parent / "acceptance_config.json").read_text())["benchmark"]


@pytest.fixture(scope="module")
def acceptance_world():
    world = make_world(**{k: tuple(v) if isinstance(v, list) else v for k, v in SPEC["world"].items()})
    records = generate_synthetic(world, SPEC["n_images"], tuple(SPEC["objects_per_image"]))
    split = build_heldout_split(records, tuple(SPEC["held_out"]), tuple(SPEC["ratios"]),
                                seed=SPEC["split_seed"])
    vocab = build_vocabulary([ref for r in split.train for ref in r.references], 1)
    det_map = intersect_detectable(vocab, list(world.names))
    pairs = [TrainExample(r.feature, vocab.encode(ref, append_eos=True), r.detections)
             for r in split.train for ref in r.references]
    return vocab, det_map, pairs


def per_example_memory_loss(hiddens, original, mask, det_map, memories, w_query, scale):
    """The memory half of training one example and one masked step at a
    time: (loss, dq, masked steps, reads). ``mask`` is (T, B)."""
    loss, dq, masked, reads = 0.0, np.zeros(hiddens.shape[:2] + (w_query.shape[0],)), 0, 0
    for b, mem in enumerate(memories):
        example_loss = 0.0
        for t in np.flatnonzero(mask[:, b]):
            masked += 1
            target = det_map.class_for_word_id(int(original[t, b]))
            if target is None or mem.n == 0 or target not in mem.labels:
                continue
            weights = softmax(mem.keys @ (w_query @ hiddens[t, b]))
            p = np.bincount(mem.labels, weights, minlength=mem.n_classes)[target]
            example_loss += float(-np.log(p))
            dalpha = np.where(mem.labels == target, -1.0 / p, 0.0)
            dsims = weights * (dalpha - float(weights @ dalpha))
            dq[t, b] = mem.keys.T @ (dsims * scale)
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
    g["lstm_w"][...] = dz.T @ rows(np.concatenate([cache.x, cache.hiddens], axis=-1))
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
    vocab, det_map, pairs = acceptance_world
    run = SPEC["run"]
    model = CaptionModel(vocab.size, hidden_size=run["hidden_size"], embed_size=run["embed_size"],
                         image_dim=run["image_dim"], key_dim=run["key_dim"], seed=run["seed"])
    opt = AdamState.for_param(model.theta, lr=run["lr"], weight_decay=run["weight_decay"])
    seen = {}

    def recorded(name, fn):
        def call(*args):
            out = fn(*args)
            seen[name] = args, out.copy() if name == "backward_pass" else out
            return out
        return call

    for name in ("backward_pass", "memory_loss_forward"):
        monkeypatch.setattr(pipeline, name, recorded(name, getattr(pipeline, name)))
    order = np.random.default_rng([run["seed"], 1]).permutation(len(pairs))
    batches = [[pairs[i] for i in order[s:s + run["batch_size"]]]
               for s in range(0, len(order), run["batch_size"])]
    worst = {"loss": 0.0, "dq": 0.0, "grad": 0.0}
    totals = np.zeros(2, dtype=int)
    for k, batch in enumerate(batches):
        before = model.copy()
        _, loss_mem, _ = train_step(batch, model, det_map, opt, vocab, n_det=run["n_det"],
                                    max_steps=run["max_steps"])
        (_, cache, dlogits, dq), grad = seen["backward_pass"]
        mask_arg, (_, reads) = seen["memory_loss_forward"][0][2], seen["memory_loss_forward"][1]
        original, mask = padded_originals(batch, cache.lengths, vocab.pad_id, det_map)
        memories = [build_memory(ex.detections, run["n_det"], model.key_dim, det_map.n_classes)
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
    vocab, det_map, pairs = acceptance_world
    model = CaptionModel(vocab.size, hidden_size=16, embed_size=8, image_dim=32, key_dim=32)
    calls = []

    def counted(*args):
        calls.append(args)
        return build_memory(*args)

    monkeypatch.setattr(pipeline, "build_memory", counted)
    masked = [ex for ex in pairs if det_map.pd_ids & set(ex.targets)][:4]
    shared = {}  # the first two pairs share one cache, as the pairs of one image do
    batch = [TrainExample(ex.feature, ex.targets, ex.detections, shared if k < 2 else {})
             for k, ex in enumerate(masked)]
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)
    first = pipeline.batch_losses(model, batch, det_map, **kw)
    assert len(calls) == 3  # the first two pairs share one cache
    again = pipeline.batch_losses(model, batch, det_map, **kw)
    assert len(calls) == 3
    assert first[:2] == again[:2] and np.array_equal(first[2], again[2])
    pipeline.batch_losses(model, batch, det_map, **dict(kw, n_det=2))
    assert len(calls) == 6  # another n_det is another memory


def test_skip_reasons_in_one_batch(caplog):
    vocab = build_vocabulary([["a", "dog", "sees", "cake", "by", "tree"]], 1)
    det_map = intersect_detectable(vocab, ["dog", "cake", "tree"])
    rng = np.random.default_rng(3)
    key_dim, hidden = 3, 4

    def dets(*labels):
        return [Detection(rng.normal(size=key_dim), label, score) for label, score in labels]

    rows = [(["a", "sees", "dog"], dets((0, 0.9))),  # "sees" marked: no detection class
            (["dog", "by", "cake"], []),  # empty memory
            (["tree", "sees", "cake"], dets((1, 0.9), (0, 0.8), (2, 0.1))),  # tree below the cut
            (["cake", "dog", "a"], dets((0, 0.7), (1, 0.6), (0, 0.5)))]  # two reads
    original = np.array([vocab.encode(words) for words, _ in rows]).T
    mask = np.array([[0, 1, 1], [1, 0, 1], [1, 0, 1], [1, 1, 0]]).T
    memories = [build_memory(d, 2, key_dim, det_map.n_classes) for _, d in rows]
    hiddens = rng.normal(size=(3, len(rows), hidden))
    w_query = rng.normal(size=(key_dim, hidden))
    with caplog.at_level("DEBUG", logger="novelcap.memory"):
        loss, reads = memory_loss_forward(hiddens, original, mask.ravel(), det_map, memories, w_query)
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


def test_memory_pass_with_no_masked_step_reads_nothing():
    vocab = build_vocabulary([["a", "dog"]], 1)
    det_map = intersect_detectable(vocab, ["dog"])
    memories = [ObjectMemory(2, 3, 1), ObjectMemory(2, 3, 1)]
    loss, reads = memory_loss_forward(np.zeros((2, 2, 4)), np.zeros((2, 2), dtype=np.intp), [0] * 4,
                                      det_map, memories, np.zeros((3, 4)))
    assert loss == 0.0 and len(reads) == 0
    assert read_loss_backward(reads).shape == (0, 3)


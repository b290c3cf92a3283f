import dataclasses

import numpy as np

from novelcap import pipeline
from novelcap.config import RunConfig
from novelcap.data import DatasetRecord, generate_synthetic, make_world
from novelcap.decoder import CaptionModel, DecodeTrace
from novelcap.memory import Detection
from novelcap.numerics import AdamState
from novelcap.pipeline import TrainExample, example_losses, joint_loss, make_captioner, train_step
from novelcap.vocabulary import PLACEHOLDER, build_vocabulary, intersect_detectable


def small_setup(seed=0):
    world = make_world(names=("dog", "cat", "bus", "tree", "boat", "bird"),
                       dim=8, seed=seed, noise_scale=0.05, latent_rank=4)
    records = generate_synthetic(world, 50, objects_per_image=(1, 2))
    sentences = [ref for rec in records for ref in rec.references]
    vocab = build_vocabulary(sentences, 1)
    det_map = intersect_detectable(vocab, list(world.names))
    return world, records, vocab, det_map


def fresh_model(vocab, seed=0):
    return CaptionModel(vocab.size, hidden_size=24, embed_size=16, image_dim=8, key_dim=8, seed=seed)


def fresh_opt(model, lr=1e-3):
    return {name: AdamState.for_param(p, lr=lr) for name, p in model.params().items()}


def record_batch(records, vocab):
    return [TrainExample(r.feature, vocab.encode(r.references[0], append_eos=True), r.detections)
            for r in records]


def caption(model, vocab, det_map, rec, mode="dnoc", n_det=4, max_steps=15):
    cfg = RunConfig(n_det=n_det, max_steps=max_steps)
    return make_captioner(model, vocab, det_map, cfg, mode)(rec)


class TestTrainStep:
    def test_total_is_exact_sum(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        batch = record_batch(records[:8], vocab)
        ls, lm, total = train_step(batch, model, det_map, fresh_opt(model), vocab, n_det=4)
        assert lm > 0.0
        assert abs(total - (ls + lm)) < 1e-12

    def test_no_detectable_words_means_zero_memory_loss(self):
        _, records, vocab, det_map = small_setup()
        # detector classes disjoint from the vocabulary: empty intersection
        empty_map = intersect_detectable(vocab, ["xylophone", "quokka"])
        model = fresh_model(vocab)
        batch = record_batch(records[:8], vocab)
        ls, lm, total = train_step(batch, model, empty_map, fresh_opt(model), vocab, n_det=4)
        assert lm == 0.0
        assert total == ls

    def test_two_hundred_steps_halve_the_loss(self):
        _, records, vocab, det_map = small_setup(seed=1)
        model = fresh_model(vocab, seed=1)
        opt = fresh_opt(model, lr=5e-3)
        examples = [TrainExample(r.feature, vocab.encode(r.references[0], append_eos=True),
                                 r.detections) for r in records]
        kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)

        def corpus_loss():
            return sum(joint_loss(model, ex.feature, ex.targets, ex.detections, det_map, **kw)
                       for ex in examples) / len(examples)

        before = corpus_loss()
        rng = np.random.default_rng(7)
        for step in range(200):
            idx = rng.permutation(len(examples))[:10]
            batch = [examples[i] for i in idx]
            train_step(batch, model, det_map, opt, vocab, n_det=4)
        after = corpus_loss()
        assert after <= 0.5 * before, (before, after)

    def test_joint_update_touches_query_and_decoder(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        before = {k: p.copy() for k, p in model.params().items()}
        batch = record_batch(records[:8], vocab)
        _, lm, _ = train_step(batch, model, det_map, fresh_opt(model), vocab, n_det=4)
        assert lm > 0.0
        for name in ("w_query", "lstm_w", "embed", "w_out", "w_img"):
            assert not np.array_equal(model.params()[name], before[name]), name

    def test_gradients_match_batch_mean(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        batch = record_batch(records[:4], vocab)
        kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)
        summed = model.zero_grads()
        per_example = []
        for ex in batch:
            example_losses(model, ex.feature, ex.targets, ex.detections, det_map,
                           grads=summed, scale=1.0 / len(batch), **kw)
            _, _, grads = example_losses(model, ex.feature, ex.targets, ex.detections, det_map, **kw)
            per_example.append(grads)
        # scale=1/B accumulation equals the mean of per-example gradients
        assert summed.keys() == model.params().keys()
        for name, g in summed.items():
            mean = sum(grads[name] for grads in per_example) / len(batch)
            assert np.max(np.abs(g - mean)) <= 1e-12, name
            assert np.any(g != 0.0), name


def test_sequence_loss_gradient_on_minimal_model():
    # 2-word vocabulary (7 with specials), hidden size 4, 3 steps
    from novelcap.numerics import finite_diff_check

    vocab = build_vocabulary([["dog", "cat"]], 1)
    assert vocab.size == 7
    det_map = intersect_detectable(vocab, ["notaword"])
    rng = np.random.default_rng(2)
    model = CaptionModel(vocab.size, hidden_size=4, embed_size=3, image_dim=3, key_dim=3, seed=2)
    for p in model.params().values():
        p[...] = rng.uniform(-0.6, 0.6, p.shape)
    feature = rng.normal(size=3)
    targets = vocab.encode(["dog", "cat", "dog"])
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)
    _, _, grads = example_losses(model, feature, targets, [], det_map, **kw)
    worst = 0.0
    for name, param in model.params().items():
        err = finite_diff_check(
            lambda _p: joint_loss(model, feature, targets, [], det_map, **kw),
            {name: param}, {name: grads[name]}, h=1e-5)
        worst = max(worst, err)
    assert worst < 1e-4


def fig3_setup(monkeypatch):
    """A two-placeholder decode whose queries hit the dog and the cake slot."""
    sentence = ["a", "dog", "is", "looking", "at", "a", "cake"]
    vocab = build_vocabulary([sentence], 1)
    det_map = intersect_detectable(vocab, ["dog", "cake"])
    model = CaptionModel(vocab.size, hidden_size=2, embed_size=2, image_dim=2, key_dim=2, seed=0)
    model.w_query = np.eye(2)
    rec = DatasetRecord("fig3", np.zeros(2), [sentence],
                        [Detection(np.array([3.0, 0.0]), 0, 0.9),    # dog
                         Detection(np.array([0.0, 3.0]), 1, 0.8)])   # cake
    ids = [vocab.id_of(w) if w not in ("dog", "cake") else vocab.placeholder_id
           for w in sentence]
    hiddens = [np.zeros(2) for _ in ids]
    hiddens[1] = np.array([1.0, 0.0])   # queries that hit the dog key
    hiddens[6] = np.array([0.0, 1.0])   # and the cake key
    trace = DecodeTrace(ids=ids, hiddens=hiddens, placeholder_positions=[1, 6])
    monkeypatch.setattr(pipeline, "decode_greedy", lambda *args: trace)
    return vocab, det_map, model, rec, trace


class TestFillPlaceholders:
    def test_two_placeholder_sentence_filled(self, monkeypatch):
        vocab, det_map, model, rec, trace = fig3_setup(monkeypatch)
        reads = []
        read = pipeline.memory_read

        def counted_read(*args):
            reads.append(args)
            return read(*args)
        monkeypatch.setattr(pipeline, "memory_read", counted_read)
        filled = caption(model, vocab, det_map, rec)
        assert filled.tokens == ["a", "dog", "is", "looking", "at", "a", "cake"]
        assert filled.placeholder_count_unfilled == 0
        assert len(reads) == len(trace.placeholder_positions) == 2

    def test_empty_memory_keeps_placeholder(self, monkeypatch):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        filled = caption(model, vocab, det_map, dataclasses.replace(rec, detections=[]))
        assert filled.tokens.count(PLACEHOLDER) == 2
        assert filled.placeholder_count_unfilled == 2

    def test_filling_is_pure_post_process(self, monkeypatch):
        vocab, det_map, model, rec, trace = fig3_setup(monkeypatch)
        filled = caption(model, vocab, det_map, rec)
        for pos, tok_id in enumerate(trace.ids):
            if pos not in trace.placeholder_positions:
                assert filled.tokens[pos] == vocab.word_of(tok_id)


def eos_rigged_model(vocab, **kwargs):
    model = CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=8, key_dim=8,
                         seed=2, **kwargs)
    model.b_out[vocab.eos_id] = 30.0
    return model


class TestCaptionImage:
    def test_no_placeholder_emission_ignores_detections(self):
        _, records, vocab, det_map = small_setup()
        model = eos_rigged_model(vocab)
        rec = records[0]
        with_dets = caption(model, vocab, det_map, rec)
        without = caption(model, vocab, det_map, dataclasses.replace(rec, detections=[]))
        assert with_dets.tokens == without.tokens

    def test_no_detections_keeps_placeholder_literal(self):
        _, records, vocab, det_map = small_setup()
        model = eos_rigged_model(vocab)
        model.b_out[vocab.placeholder_id] = 60.0  # placeholder then eos never wins
        filled = caption(model, vocab, det_map, dataclasses.replace(records[0], detections=[]),
                         max_steps=3)
        assert PLACEHOLDER in filled.tokens
        assert filled.placeholder_count_unfilled >= 1

    def test_tokens_stay_in_vocab_or_detection_words(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab, seed=5)
        allowed = set(vocab.words) | set(det_map.class_words)
        for rec in records[:10]:
            assert set(caption(model, vocab, det_map, rec).tokens) <= allowed

    def test_no_go_or_pad_in_output(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab, seed=6)
        for rec in records[:10]:
            tokens = caption(model, vocab, det_map, rec).tokens
            assert "<GO>" not in tokens and "<PAD>" not in tokens


class TestNoMemoryAblation:
    def test_single_detection_matches_full_pipeline(self, monkeypatch):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        rec = dataclasses.replace(rec, detections=rec.detections[:1])
        full = caption(model, vocab, det_map, rec, max_steps=8)
        random_fill = caption(model, vocab, det_map, rec, mode="no-memory", max_steps=8)
        assert full.tokens == random_fill.tokens

    def test_seeded_runs_reproducible(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab, seed=5)
        a = caption(model, vocab, det_map, records[0], mode="no-memory")
        b = caption(model, vocab, det_map, records[0], mode="no-memory")
        assert a.tokens == b.tokens


class TestCaptionPlain:
    def test_never_contains_specials(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab, seed=3)
        for rec in records[:10]:
            tokens = caption(model, vocab, det_map, rec, mode="no-placeholder").tokens
            assert not {"<GO>", "<PAD>", "<EOS>"} & set(tokens)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novelcap import evaluation, pipeline
from novelcap.config import RunConfig
from novelcap.data import DatasetRecord, HeldOutSplit, generate_synthetic, make_world
from novelcap.decoder import (CELL_SANITY_BOUND, PARAM_NAMES, CaptionModel, DecodeTrace,
                              forward_teacher_forced, pad_sequences)
from novelcap.evaluation import evaluate_split
from novelcap.errors import ConfigError, DomainError, NumericError
from novelcap.memory import Detections
from novelcap.numerics import AdamState, adam_step
from novelcap.pipeline import (CLIP_NORM, TrainExample, TrainingPairs, batch_losses, clip_gradients,
                               example_losses, joint_loss, make_captioner, train_step)
from novelcap.vocabulary import PLACEHOLDER, SPECIAL_TOKENS, build_vocabulary, intersect_detectable


def small_setup(seed=0):
    world = make_world(names=("dog", "cat", "bus", "tree", "boat", "bird"),
                       dim=8, seed=seed, noise_scale=0.05, latent_rank=4)
    records = generate_synthetic(world, 50, objects_per_image=(1, 2))
    sentences = [ref for rec in records for ref in rec.references]
    vocab = build_vocabulary(sentences)
    det_map = intersect_detectable(vocab, list(world.names))
    return world, records, vocab, det_map


def no_detectable_words(det_map):
    """The detectable set the no-placeholder baseline trains with: no word has a class."""
    return dataclasses.replace(det_map, word_classes=np.full_like(det_map.word_classes, -1))


def fresh_model(vocab, seed=0):
    return CaptionModel(vocab.size, hidden_size=24, embed_size=16, image_dim=8, key_dim=8, seed=seed)


def fresh_opt(model, lr=1e-3):
    return AdamState.for_param(model.theta, lr=lr)


def pairs_of(examples, vocab, det_map, key_dim=8, n_det=4, **kw):
    return TrainingPairs.of(examples, det_map, go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=n_det,
                            key_dim=key_dim, **kw)


def record_batch(records, vocab, det_map):
    """(rows, pairs): one batch of every record's first reference."""
    examples = [TrainExample(r.feature, vocab.encode(r.references[0], append_eos=True), r.detections)
                for r in records]
    return np.arange(len(examples)), pairs_of(examples, vocab, det_map)


def caption(model, vocab, det_map, rec, mode="dnoc", n_det=4, max_steps=15):
    cfg = RunConfig(n_det=n_det, max_steps=max_steps)
    return make_captioner(model, vocab, det_map, cfg, mode)(rec)


def no_detections() -> Detections:
    """The table of an image with no detection."""
    return Detections(np.empty((0, 0)), (), ())


RAGGED_N_DET = 2
RAGGED_MAX_STEPS = 4


def ragged_world():
    _, _, vocab, det_map = small_setup()
    model = fresh_model(vocab)
    rng = np.random.default_rng(4)
    for p in model.params().values():  # O(1) weights, so no gradient group is near zero
        p[...] = rng.uniform(-0.5, 0.5, p.shape)
    return vocab, det_map, model


RAGGED_WORLD = ragged_world()


def ragged_example(kind, n_steps, rng):
    """A ``kind`` of example: "plain" has no detectable word, "no-detections"
    has no detection, "cut" has its annotated class below the top-n_det
    cut, and "read" has its annotated class in the memory."""
    vocab, det_map, model = RAGGED_WORLD
    words = [i for i in range(vocab.size) if vocab.words[i] not in SPECIAL_TOKENS]
    plain = [i for i in words if det_map.word_classes[i] < 0]
    targets = [int(i) for i in rng.choice(plain if kind == "plain" else words, n_steps)]
    word = int(rng.choice(np.flatnonzero(det_map.word_classes >= 0)))
    if kind != "plain":  # one annotated class, at a position truncation keeps
        targets = [word if det_map.word_classes[i] >= 0 else i for i in targets]
        targets[int(rng.integers(min(n_steps, RAGGED_MAX_STEPS)))] = word
    target_class = int(det_map.word_classes[word])
    others = [c for c in range(det_map.n_classes) if c != target_class]

    def det(label, score):
        return rng.normal(size=model.key_dim), int(label), float(score)

    dets = [det(rng.choice(others), rng.uniform(0.6, 1.0)) for _ in range(int(rng.integers(4)))]
    if kind == "no-detections":
        dets = []
    elif kind == "cut":
        dets = [det(rng.choice(others), rng.uniform(0.6, 1.0)) for _ in range(RAGGED_N_DET)]
        dets.append(det(target_class, 0.1))
    elif kind == "read":
        dets.insert(int(rng.integers(len(dets) + 1)), det(target_class, 1.0))
    table = Detections(*zip(*dets)) if dets else no_detections()
    return TrainExample(rng.normal(size=model.image_dim), targets, table)


@st.composite
def ragged_batches(draw):
    """1-9 examples of 1 to max_steps + 3 targets, so some are truncated."""
    kinds = draw(st.lists(st.sampled_from(("plain", "no-detections", "cut", "read")),
                          min_size=1, max_size=9))
    lengths = draw(st.lists(st.integers(1, RAGGED_MAX_STEPS + 3), min_size=len(kinds),
                            max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [ragged_example(kind, n, rng) for kind, n in zip(kinds, lengths)]


class TestTrainStep:
    def test_total_is_exact_sum(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        ls, lm, total = train_step(*record_batch(records[:8], vocab, det_map), model, fresh_opt(model))
        assert lm > 0.0
        assert abs(total - (ls + lm)) < 1e-12

    def test_no_detectable_words_means_zero_memory_loss(self):
        _, records, vocab, det_map = small_setup()
        # detector classes disjoint from the vocabulary, one per label: empty intersection
        empty_map = intersect_detectable(vocab, [f"novel{c}" for c in range(det_map.n_classes)])
        assert (empty_map.word_classes < 0).all()
        model = fresh_model(vocab)
        ls, lm, total = train_step(*record_batch(records[:8], vocab, empty_map), model, fresh_opt(model))
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
        pairs = pairs_of(examples, vocab, det_map)
        rng = np.random.default_rng(7)
        for step in range(200):
            train_step(rng.permutation(len(examples))[:10], pairs, model, opt)
        after = corpus_loss()
        assert after <= 0.5 * before, (before, after)

    def test_joint_update_touches_query_and_decoder(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        before = {k: p.copy() for k, p in model.params().items()}
        _, lm, _ = train_step(*record_batch(records[:8], vocab, det_map), model, fresh_opt(model))
        assert lm > 0.0
        for name in ("w_query", "lstm_w", "embed", "w_out", "w_img"):
            assert not np.array_equal(model.params()[name], before[name]), name

    @settings(max_examples=40, deadline=None)
    @given(batch=ragged_batches(), baseline=st.booleans())
    def test_gradients_match_batch_mean(self, batch, baseline):
        # one pass over a ragged batch equals the mean of batches of one
        vocab, det_map, model = RAGGED_WORLD
        if baseline:
            det_map = no_detectable_words(det_map)
        kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=RAGGED_N_DET, max_steps=RAGGED_MAX_STEPS)
        pairs = pairs_of(batch, vocab, det_map, n_det=RAGGED_N_DET, max_steps=RAGGED_MAX_STEPS)
        loss_seq, loss_mem, grad = batch_losses(model, pairs, np.arange(len(batch)))
        singles = [example_losses(model, ex.feature, ex.targets, ex.detections, det_map, **kw)
                   for ex in batch]
        assert abs(loss_seq - sum(s[0] for s in singles) / len(batch)) <= 1e-10
        assert abs(loss_mem - sum(s[1] for s in singles) / len(batch)) <= 1e-10
        grads = model.views(grad)
        assert tuple(grads) == PARAM_NAMES
        for name, g in grads.items():
            mean = sum(model.views(s[2])[name] for s in singles) / len(batch)
            assert np.max(np.abs(g - mean)) <= 1e-10, name

    def test_one_adam_step_on_theta_equals_one_per_view(self):
        _, _, vocab, _ = small_setup()
        model = fresh_model(vocab)
        reference = {name: p.copy() for name, p in model.params().items()}
        opt = AdamState.for_param(model.theta, lr=1e-2, weight_decay=1e-3)
        ref_opts = {name: AdamState.for_param(p, lr=1e-2, weight_decay=1e-3)
                    for name, p in reference.items()}
        rng = np.random.default_rng(9)
        for _ in range(4):
            grad = rng.normal(size=model.theta.shape)
            assert clip_gradients(grad, CLIP_NORM) > CLIP_NORM
            assert np.isclose(np.linalg.norm(grad), CLIP_NORM)
            adam_step(model.theta, grad, opt)
            for name, g in model.views(grad).items():
                adam_step(reference[name], g, ref_opts[name])
            for name, p in model.params().items():
                assert np.array_equal(p, reference[name]), name

    def test_padding_is_inert(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        rows, pairs = record_batch(records[:8], vocab, det_map)
        assert len(set(pairs.lengths.tolist())) > 1  # ragged: the short rows are padded
        before = batch_losses(model, pairs, rows)
        assert before[1] > 0.0
        model.embed[:, vocab.pad_id] = np.random.default_rng(0).uniform(-3.0, 3.0, model.embed_size)
        after = batch_losses(model, pairs, rows)
        assert before[:2] == after[:2]
        assert np.array_equal(before[2], after[2])

    def test_padded_cells_are_not_sanity_checked(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        word = vocab.encode(["a"])[0]
        batch = [TrainExample(records[0].feature, [word] * 60, no_detections()),
                 TrainExample(records[1].feature, [word], no_detections())]
        rows, pairs = np.arange(2), pairs_of(batch, vocab, det_map)
        before = batch_losses(model, pairs, rows)
        # a saturating <PAD> input drives the 59 padded cells of the short row past the bound
        model.embed[:, vocab.pad_id] = 1e3 * np.sign(model.embed[:, vocab.pad_id])
        features = np.array([ex.feature for ex in batch])
        inputs, _, lengths = pad_sequences([ex.targets for ex in batch], vocab.go_id, vocab.pad_id)
        cache = forward_teacher_forced(inputs, lengths, features, model)
        assert np.abs(cache.c[2:, 1]).max() >= CELL_SANITY_BOUND
        after = batch_losses(model, pairs, rows)
        assert before[:2] == after[:2]
        assert np.array_equal(before[2], after[2])

    def test_nan_at_a_real_position_fails_the_cell_check(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab)
        model.embed[:, vocab.go_id] = np.nan  # every sequence reads <GO> at its first position
        with pytest.raises(NumericError, match="cell state"):
            train_step(*record_batch(records[:8], vocab, det_map), model, fresh_opt(model))


def test_truncation_warns_once_per_training_run_not_per_epoch(caplog):
    # pairs are truncated once, when train_model builds them; the epochs reuse them
    _, records, vocab, det_map = small_setup()
    split = HeldOutSplit(train=records[:6], val=[], test=[], held_out_words=("bus",))
    cfg = RunConfig(hidden_size=8, embed_size=8, image_dim=8, key_dim=8, epochs=2, batch_size=4, max_steps=5)
    long = [len(ref) + 1 for rec in split.train for ref in rec.references if len(ref) + 1 > cfg.max_steps]
    with caplog.at_level("WARNING", logger="novelcap.decoder"):
        result = pipeline.train_model(split, vocab, det_map, cfg)
    assert len(result.history) == 2
    warned = [r.getMessage() for r in caplog.records if "truncated" in r.getMessage()]
    assert len(warned) == len(long) > 0
    assert warned == [f"decoder: sequence of {n} steps truncated to {cfg.max_steps}" for n in long]


def test_the_baseline_is_dnoc_training_with_no_detectable_word(monkeypatch):
    # its losses are those of dnoc on a set whose words have no class; it selects on the real detectable words
    _, records, vocab, det_map = small_setup()
    split = HeldOutSplit(train=records[:40], val=records[40:], test=[], held_out_words=("bus",))
    cfg = RunConfig(hidden_size=16, embed_size=8, image_dim=8, key_dim=8, epochs=3, batch_size=8)
    scored = []
    average = evaluation.average_f1_over
    monkeypatch.setattr(evaluation, "average_f1_over",
                        lambda recs, captioner, words: scored.append(words) or average(recs, captioner, words))
    baseline = pipeline.train_model(split, vocab, det_map, cfg, mode="no-placeholder")
    assert scored == [tuple(sorted(w for w in vocab.words if det_map.word_classes[vocab.index[w]] >= 0))] * 3
    plain = pipeline.train_model(split, vocab, no_detectable_words(det_map), cfg)
    losses = [(h.loss_seq, h.loss_mem) for h in baseline.history]
    assert losses == [(h.loss_seq, h.loss_mem) for h in plain.history] == [(ls, 0.0) for ls, _ in losses]
    assert all(h.loss_mem > 0.0 for h in pipeline.train_model(split, vocab, det_map, cfg).history)


@pytest.mark.parametrize("mode", ["no-memory", "dnco"])
def test_train_model_refuses_a_mode_it_cannot_train_before_building_pairs(mode, monkeypatch):
    _, records, vocab, det_map = small_setup()
    split = HeldOutSplit(train=records[:6], val=records[6:8], test=[], held_out_words=("bus",))

    def unreachable(*args, **kwargs):
        raise AssertionError("pairs built for a refused mode")

    monkeypatch.setattr(TrainingPairs, "of", unreachable)
    with pytest.raises(ConfigError, match=f"^pipeline: training mode must be dnoc or no-placeholder, "
                                          f"got '{mode}'$"):
        pipeline.train_model(split, vocab, det_map, RunConfig(epochs=1), mode=mode)


@pytest.mark.parametrize("target", [99, -3, 9])
def test_a_target_id_outside_the_vocabulary_is_refused_by_value(target):
    # 99 indexed past the rewrite table; -3 indexed from its end and trained word id 6
    vocab = build_vocabulary([["a", "dog", "is", "here"]])
    det_map = intersect_detectable(vocab, ["dog", "cake"])
    model = CaptionModel(vocab.size, hidden_size=4, embed_size=4, image_dim=2, key_dim=2, seed=0)
    dets = Detections([[1.0, 0.0], [0.0, 1.0]], [0, 1], [0.9, 0.8])
    with pytest.raises(DomainError, match=f"^pipeline: target id {target} is outside the 9-word vocabulary$"):
        example_losses(model, np.zeros(2), [vocab.id_of("a"), target, vocab.eos_id], dets, det_map,
                       go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=2)


def test_make_captioner_refuses_an_unknown_mode():
    _, _, vocab, det_map = small_setup()
    with pytest.raises(ConfigError, match="^pipeline: unknown captioning mode 'dnco'$"):
        make_captioner(fresh_model(vocab), vocab, det_map, RunConfig(), "dnco")


def test_sequence_loss_gradient_on_minimal_model():
    # 2-word vocabulary (7 with specials), hidden size 4, 3 steps
    from novelcap.numerics import finite_diff_check

    vocab = build_vocabulary([["dog", "cat"]])
    assert vocab.size == 7
    det_map = intersect_detectable(vocab, ["notaword"])
    rng = np.random.default_rng(2)
    model = CaptionModel(vocab.size, hidden_size=4, embed_size=3, image_dim=3, key_dim=3, seed=2)
    for p in model.params().values():
        p[...] = rng.uniform(-0.6, 0.6, p.shape)
    feature = rng.normal(size=3)
    targets = vocab.encode(["dog", "cat", "dog"])
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)
    _, _, grad = example_losses(model, feature, targets, no_detections(), det_map, **kw)
    grads = model.views(grad)
    worst = 0.0
    for name, param in model.params().items():
        err = finite_diff_check(
            lambda _p: joint_loss(model, feature, targets, no_detections(), det_map, **kw),
            {name: param}, {name: grads[name]}, h=1e-5)
        worst = max(worst, err)
    assert worst < 1e-4


def fig3_setup(monkeypatch):
    """A two-placeholder decode whose queries hit the dog and the cake slot."""
    sentence = ["a", "dog", "is", "looking", "at", "a", "cake"]
    vocab = build_vocabulary([sentence])
    det_map = intersect_detectable(vocab, ["dog", "cake"])
    model = CaptionModel(vocab.size, hidden_size=2, embed_size=2, image_dim=2, key_dim=2, seed=0)
    model.w_query[...] = np.eye(2)
    rec = DatasetRecord("fig3", np.zeros(2), [sentence],
                        Detections([[3.0, 0.0],    # dog
                                    [0.0, 3.0]],   # cake
                                   [0, 1], [0.9, 0.8]))
    ids = [vocab.id_of(w) if w not in ("dog", "cake") else vocab.placeholder_id
           for w in sentence]
    hiddens = np.zeros((len(ids), 2))
    hiddens[1] = [1.0, 0.0]   # queries that hit the dog key
    hiddens[6] = [0.0, 1.0]   # and the cake key
    trace = DecodeTrace(ids=ids, hiddens=hiddens, placeholder_positions=[1, 6])
    monkeypatch.setattr(pipeline, "decode_greedy", lambda *args: trace)
    return vocab, det_map, model, rec, trace


def kept_reads(monkeypatch):
    """The distribution of each dnoc memory read from here on, in order."""
    reads = []
    read = pipeline.memory_read

    def kept_read(*args):
        reads.append(read(*args))
        return reads[-1]
    monkeypatch.setattr(pipeline, "memory_read", kept_read)
    return reads


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
        assert len(reads) == 1  # one read of the block of both placeholders' queries
        assert reads[0][0].shape == (len(trace.placeholder_positions), 2) == (2, 2)

    def test_placeholder_gets_the_word_of_the_read_class(self, monkeypatch):
        # the read returns class 1; its word, outside the vocabulary, is written in the caption
        vocab = build_vocabulary([["a", "dog"]])
        det_map = intersect_detectable(vocab, ["dog", "zebra"])
        model = CaptionModel(vocab.size, hidden_size=1, embed_size=1, image_dim=1, key_dim=1, seed=0)
        model.w_query[...] = 1.0
        rec = DatasetRecord("zebra", np.zeros(1), [["a", "dog"]], Detections([[1.0]], [1], [0.9]))
        trace = DecodeTrace(ids=[vocab.id_of("a"), vocab.placeholder_id, vocab.eos_id],
                            hiddens=np.ones((3, 1)), placeholder_positions=[1])
        monkeypatch.setattr(pipeline, "decode_greedy", lambda *args: trace)
        reads = kept_reads(monkeypatch)
        filled = caption(model, vocab, det_map, rec)
        [dist] = reads
        assert dist.argmax(1).tolist() == [1]
        assert filled.tokens == ["a", det_map.class_words[1]] == ["a", "zebra"]
        assert filled.placeholder_count_unfilled == 0

    def test_a_tied_read_writes_the_lower_class_word(self, monkeypatch):
        # two slots with one key: the cake slot (class 1) first and more confident, the dog slot (class 0)
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        rec = dataclasses.replace(rec, detections=Detections([[1.0, 1.0], [1.0, 1.0]], [1, 0], [0.9, 0.8]))
        reads = kept_reads(monkeypatch)
        filled = caption(model, vocab, det_map, rec)
        [dist] = reads
        assert dist.tolist() == [[0.5, 0.5], [0.5, 0.5]]  # both placeholders read an exact tie
        assert filled.tokens == ["a", "dog", "is", "looking", "at", "a", "dog"]
        assert filled.placeholder_count_unfilled == 0

    def test_empty_memory_keeps_placeholder(self, monkeypatch):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        filled = caption(model, vocab, det_map, dataclasses.replace(rec, detections=no_detections()))
        assert filled.tokens.count(PLACEHOLDER) == 2
        assert filled.placeholder_count_unfilled == 2

    @pytest.mark.parametrize("mode", ["dnoc", "no-memory"])
    @pytest.mark.parametrize("n_det", [0, -1])
    def test_both_fills_refuse_a_capacity_below_one(self, monkeypatch, mode, n_det):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        with pytest.raises(DomainError, match=f"^memory: capacity must be >= 1, got {n_det}$"):
            caption(model, vocab, det_map, rec, mode=mode, n_det=n_det)

    @pytest.mark.parametrize("mode", ["dnoc", "no-memory"])
    def test_both_fills_refuse_a_top_label_past_the_classes_alike(self, monkeypatch, mode):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        rec = dataclasses.replace(rec, detections=Detections([[3.0, 0.0], [0.0, 3.0]], [5, 1], [0.9, 0.8]))
        with pytest.raises(DomainError, match="^memory: label 5 out of range for 2 classes$"):
            caption(model, vocab, det_map, rec, mode=mode)

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
        without = caption(model, vocab, det_map, dataclasses.replace(rec, detections=no_detections()))
        assert with_dets.tokens == without.tokens

    def test_no_detections_keeps_placeholder_literal(self):
        _, records, vocab, det_map = small_setup()
        model = eos_rigged_model(vocab)
        model.b_out[vocab.placeholder_id] = 60.0  # placeholder then eos never wins
        filled = caption(model, vocab, det_map, dataclasses.replace(records[0], detections=no_detections()),
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


class TestCaptionerSnapshot:
    def test_captioner_keeps_the_weights_it_was_made_with(self):
        _, records, vocab, det_map = small_setup()
        model = fresh_model(vocab, seed=5)
        cfg = RunConfig(n_det=4, max_steps=15)
        made_before = make_captioner(model, vocab, det_map, cfg, "dnoc")
        frozen = CaptionModel.from_params({k: p.copy() for k, p in model.params().items()})
        opt = fresh_opt(model, lr=0.05)
        for _ in range(3):
            train_step(*record_batch(records[:8], vocab, det_map), model, opt)
        made_after = make_captioner(model, vocab, det_map, cfg, "dnoc")
        reference = make_captioner(frozen, vocab, det_map, cfg, "dnoc")
        captions = [made_before(rec) for rec in records[:10]]
        assert captions == [reference(rec) for rec in records[:10]]
        assert captions != [made_after(rec) for rec in records[:10]]


def diverged_models(vocab):
    """A model whose decode cell state leaves the sane range, and one that turns NaN."""
    runaway = CaptionModel(vocab.size, hidden_size=2, embed_size=1, image_dim=8, key_dim=8, seed=0)
    runaway.theta[:] = 0.0
    runaway.lstm_b[:4] = runaway.lstm_b[6:] = 30.0  # input, forget open; candidate +1: c gains 1 a step
    runaway.b_out[vocab.index["a"]] = 1.0  # never <EOS>
    nan = fresh_model(vocab, seed=5)
    nan.lstm_w[0, 0] = np.nan
    return {"past-bound": runaway, "nan": nan}


@pytest.mark.parametrize("kind", ["past-bound", "nan"])
def test_diverged_model_aborts_evaluate_split(kind):
    # the whole report fails: a diverged model never yields a caption or a score
    _, records, vocab, det_map = small_setup()
    captioner = make_captioner(diverged_models(vocab)[kind], vocab, det_map,
                               RunConfig(n_det=4, max_steps=60), "dnoc")
    split = HeldOutSplit(train=[], val=[], test=records[:5], held_out_words=("bus",))
    with pytest.raises(NumericError, match="cell state"):
        evaluate_split(split, captioner)


class TestNoMemoryAblation:
    def test_single_detection_matches_full_pipeline(self, monkeypatch):
        vocab, det_map, model, rec, _ = fig3_setup(monkeypatch)
        rec = dataclasses.replace(rec, detections=rec.detections.take([0]))
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

import logging
import math

import numpy as np
import pytest

from novelcap import config, decoder
from novelcap.data import generate_synthetic, make_world
from novelcap.decoder import (CaptionModel, DecodeSnapshot, _cell, _halve_sigmoid_gates, decode_batch, decode_greedy,
                              forward_teacher_forced, init_state, pad_sequences, sequence_loss)
from novelcap.errors import ConfigError, DomainError, NumericError, ShapeError
from novelcap.numerics import AdamState
from novelcap.pipeline import TrainExample, TrainingPairs, train_step
from novelcap.vocabulary import build_vocabulary, intersect_detectable

from support import load_workloads


def tiny_vocab():
    return build_vocabulary([["a", "dog", "sees", "cake"], ["a", "cake", "sees", "dog"]])


def tiny_model(vocab, seed=0):
    return CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=seed)


class TestInitState:
    def test_zero_feature_zero_weights(self):
        v = tiny_vocab()
        m = tiny_model(v)
        m.w_img[...] = 0.0
        m.b_img[...] = 0.3
        h, c = init_state(np.zeros(7), m)
        assert np.allclose(h, np.tanh(0.3))
        assert np.array_equal(c, np.zeros(6))

    def test_all_zero_parameters(self):
        v = tiny_vocab()
        m = tiny_model(v)
        m.w_img[...] = 0.0
        m.b_img[...] = 0.0
        h, _ = init_state(np.random.default_rng(0).normal(size=7), m)
        assert np.array_equal(h, np.zeros(6))

    def test_deterministic(self):
        v = tiny_vocab()
        m = tiny_model(v)
        f = np.random.default_rng(1).normal(size=7)
        (ha, ca), (hb, cb) = init_state(f, m), init_state(f, m)
        assert np.array_equal(ha, hb) and np.array_equal(ca, cb)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            init_state(np.zeros(3), tiny_model(tiny_vocab()))

    def test_cell_init_flag(self):
        v = tiny_vocab()
        m = tiny_model(v)
        _, c = init_state(np.ones(7), m)
        assert not np.array_equal(c, np.zeros(6))
        assert np.array_equal(c, np.tanh(m.w_img_cell @ np.ones(7) + m.b_img_cell))


def scalar_lstm_oracle(x, h_prev, c_prev, w, b):
    """Independent step-by-step scalar re-implementation of the cell."""
    nh = len(h_prev)
    xh = list(x) + list(h_prev)
    z = [sum(w[r][k] * xh[k] for k in range(len(xh))) + b[r] for r in range(4 * nh)]
    sig = lambda t: 1.0 / (1.0 + math.exp(-t))
    h, c = [], []
    for j in range(nh):
        i = sig(z[j])
        f = sig(z[nh + j])
        o = sig(z[2 * nh + j])
        g = math.tanh(z[3 * nh + j])
        cj = f * c_prev[j] + i * g
        c.append(cj)
        h.append(o * math.tanh(cj))
    return h, c


def one_step_snapshot(x, h_prev, c_prev, w, b, vocab_size=3, go_id=0):
    """The snapshot of a model whose first decode step, from a zero one-entry
    image feature and <GO> = ``go_id``, is the LSTM update of input ``x``
    from state (``h_prev``, ``c_prev``) under weights ``w`` (gate order i, f,
    o, g) and ``b``. The logits always pick ``go_id``, so decoding goes on."""
    m = CaptionModel(vocab_size, hidden_size=len(h_prev), embed_size=len(x), image_dim=1, key_dim=1)
    m.theta[:] = 0.0
    m.embed[:, go_id] = x
    m.lstm_w[...], m.lstm_b[...] = w, b
    m.b_img[...], m.b_img_cell[...] = np.arctanh(h_prev), np.arctanh(c_prev)
    m.b_out[go_id] = 1.0
    return DecodeSnapshot.of(m)


def decode_one_step(snapshot):
    """The hidden state after the first decode step."""
    trace = decode_greedy(np.zeros(1), snapshot, go_id=0, eos_id=1, placeholder_id=2, max_steps=2)
    return trace.hiddens[1]


def cell(z, c_prev, gates):
    """One ``_cell`` step: the new cell and hidden states, with ``gates`` activated."""
    c, h = np.empty_like(c_prev), np.empty_like(c_prev)
    _cell(gates, np.empty_like(c_prev))(z, c_prev, c, np.empty_like(c_prev), h)
    return c, h


class TestLstmStep:
    """The LSTM step (``_cell``) and the greedy decode step built on it."""

    def test_all_zero(self):
        gates = np.empty(16)
        c, h = cell(np.zeros(16), np.zeros(4), gates)
        assert np.array_equal(c, np.zeros(4)) and np.array_equal(h, np.zeros(4))
        assert np.array_equal(gates, [0.5] * 12 + [0.0] * 4)
        snapshot = one_step_snapshot(np.zeros(3), np.zeros(4), np.zeros(4),
                                     np.zeros((16, 7)), np.zeros(16))
        assert np.array_equal(decode_one_step(snapshot), np.zeros(4))

    def test_memory_retention_at_forget_saturation(self):
        # huge forget bias, hugely negative input bias: c carries over
        nh = 4
        c_prev = np.array([0.5, -0.25, 1.0, 0.0])
        b = np.zeros(4 * nh)
        b[nh:2 * nh] = 30.0
        b[:nh] = -30.0
        c, _ = cell(_halve_sigmoid_gates(b), c_prev, np.empty(4 * nh))
        assert np.allclose(c, c_prev, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        nh, nx = 4, 3
        w = rng.uniform(-0.7, 0.7, (4 * nh, nx + nh))
        b = rng.uniform(-0.5, 0.5, 4 * nh)
        x = rng.normal(size=nx)
        h_prev, c_prev = rng.uniform(-0.9, 0.9, nh), rng.uniform(-0.9, 0.9, nh)
        h_ref, c_ref = scalar_lstm_oracle(x, h_prev, c_prev, w, b)
        c, h = cell(_halve_sigmoid_gates(w @ np.concatenate([x, h_prev]) + b), c_prev, np.empty(4 * nh))
        assert np.all(np.abs(c - np.array(c_ref)) < 1e-12)
        assert np.all(np.abs(h - np.array(h_ref)) < 1e-12)
        h = decode_one_step(one_step_snapshot(x, h_prev, c_prev, w, b))
        assert np.all(np.abs(h - np.array(h_ref)) < 1e-12)

    def test_cell_sanity_bound_enforced(self):
        # input and forget gates saturated open, candidate at +1: c gains 1 a step
        # from c0 = 0 and leaves the sane range at the 50th step
        v = tiny_vocab()
        snapshot = DecodeSnapshot.of(saturated_cell_model(v))
        decode_greedy(np.zeros(7), snapshot, v.go_id, v.eos_id, v.placeholder_id, max_steps=45)
        with pytest.raises(NumericError):
            decode_greedy(np.zeros(7), snapshot, v.go_id, v.eos_id, v.placeholder_id, max_steps=60)


def saturated_cell_model(vocab):
    """A model whose cell state grows by one per decode step and never emits <EOS>."""
    m = CaptionModel(vocab.size, hidden_size=2, embed_size=1, image_dim=7, key_dim=2, seed=0)
    m.theta[:] = 0.0
    m.lstm_b[:2] = m.lstm_b[2:4] = m.lstm_b[6:] = 30.0
    m.b_out[vocab.index["a"]] = 1.0
    return m


def teacher_force(seqs, features, m, v, max_steps=None):
    """Pad a list of sequences and teacher-force them as one batch."""
    inputs, _, lengths = pad_sequences(seqs, v.go_id, v.pad_id, max_steps)
    return forward_teacher_forced(inputs, lengths, features, m)


def forward_one(targets, m, v, max_steps=None):
    """Teacher-force a batch of one sequence."""
    return teacher_force([targets], np.zeros((1, 7)), m, v, max_steps)


class TestForwardTeacherForced:
    def test_single_step_consumes_go(self):
        v = tiny_vocab()
        m = tiny_model(v)
        cache = forward_one([v.index["a"]], m, v)
        assert cache.logits.shape == (1, 1, v.size)
        assert cache.input_ids.tolist() == [[v.go_id]]

    def test_logits_shape_contract(self):
        v = tiny_vocab()
        m = tiny_model(v)
        targets = v.encode(["a", "dog", "sees", "cake"], append_eos=True)
        cache = forward_one(targets, m, v)
        assert cache.logits.shape == (len(targets), 1, v.size)
        assert cache.hiddens.shape == (len(targets), 1, m.hidden_size)
        assert len(cache.steps) == len(targets)

    def test_teacher_forcing_inputs_are_shifted_targets(self):
        v = tiny_vocab()
        m = tiny_model(v)
        targets = v.encode(["a", "dog", "sees", "cake"])
        cache = forward_one(targets, m, v)
        assert cache.input_ids[:, 0].tolist() == [v.go_id] + targets[:-1]

    def test_random_init_loss_near_uniform(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=123)
        targets = v.encode(["a", "dog", "sees"])
        cache = forward_one(targets, m, v)
        _, padded, _ = pad_sequences([targets], v.go_id, v.pad_id)
        loss, _ = sequence_loss(cache.logits, padded, v.pad_id)
        expected = 3 * math.log(v.size)
        assert abs(loss - expected) / expected < 0.10

    def test_truncation_warns(self, caplog):
        v = tiny_vocab()
        m = tiny_model(v)
        targets = v.encode(["a", "dog", "sees", "cake"])
        with caplog.at_level(logging.WARNING, logger="novelcap.decoder"):
            cache = forward_one(targets, m, v, max_steps=2)
        assert cache.lengths.tolist() == [2]
        assert cache.logits.shape[0] == 2
        assert any("truncated" in r.message for r in caplog.records)

    def test_empty_sequence_rejected(self):
        v = tiny_vocab()
        with pytest.raises(DomainError):
            forward_one([], tiny_model(v), v)

    def test_ragged_batch_is_padded_time_major(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=3)
        long = v.encode(["a", "dog", "sees", "cake"], append_eos=True)
        short = v.encode(["a", "cake"])
        features = np.random.default_rng(0).normal(size=(2, 7))
        inputs, targets, lengths = pad_sequences([long, short], v.go_id, v.pad_id)
        cache = forward_teacher_forced(inputs, lengths, features, m)
        assert cache.lengths.tolist() == [5, 2]
        assert targets[:, 1].tolist() == short + [v.pad_id] * 3
        assert cache.input_ids[:, 1].tolist() == [v.go_id, short[0]] + [v.pad_id] * 3
        for b, seq in enumerate((long, short)):
            alone = teacher_force([seq], features[b:b + 1], m, v)
            assert np.max(np.abs(cache.logits[:len(seq), b] - alone.logits[:, 0])) < 1e-12

    @pytest.mark.parametrize("batch", [1, 3])
    def test_states_equal_unscaled_two_call_activation(self, batch):
        # the sigmoid gates activated as (1 + tanh(z/2)) / 2 and the candidate as tanh(z),
        # from unhalved weights: halving the weights instead is exact. The recurrent
        # product reads the C-order block, as the forward and the greedy decode do.
        v = tiny_vocab()
        m = tiny_model(v, seed=6)
        rng = np.random.default_rng(6)
        m.theta[:] = rng.uniform(-0.8, 0.8, m.theta.size)
        seqs = [list(rng.integers(0, v.size, n)) for n in (5, 2, 4)[:batch]]
        cache = teacher_force(seqs, rng.normal(size=(batch, 7)), m, v)
        e, nh = m.embed_size, m.hidden_size
        zx = (m.embed.T[cache.input_ids].reshape(-1, e) @ m.lstm_w[:, :e].T + m.lstm_b).reshape(cache.gates.shape)
        w_h = np.ascontiguousarray(m.lstm_w[:, e:].T)
        gates, h, c = np.empty_like(cache.gates), np.empty_like(cache.h), np.empty_like(cache.c)
        h[0] = np.tanh(cache.features @ m.w_img.T + m.b_img)
        c[0] = np.tanh(cache.features @ m.w_img_cell.T + m.b_img_cell)
        for t in cache.steps:
            z = zx[t] + h[t] @ w_h
            gates[t, :, :3 * nh] = 0.5 * (1.0 + np.tanh(0.5 * z[:, :3 * nh]))
            gates[t, :, 3 * nh:] = np.tanh(z[:, 3 * nh:])
            c[t + 1] = gates[t, :, nh:2 * nh] * c[t] + gates[t, :, :nh] * gates[t, :, 3 * nh:]
            h[t + 1] = gates[t, :, 2 * nh:3 * nh] * np.tanh(c[t + 1])
        assert np.array_equal(cache.gates, gates)
        assert np.array_equal(cache.c, c)
        assert np.array_equal(cache.h, h)

    def test_input_preactivations_are_rows_of_the_decode_gate_table(self, monkeypatch):
        # with the recurrent block zeroed, each step's pre-activations are its inputs' alone
        v = tiny_vocab()
        m = tiny_model(v, seed=4)
        m.lstm_w[:, m.embed_size:] = 0.0
        seen = []

        def recording_cell(gates, ig):
            step = _cell(gates, ig)

            def call(z, c_prev, c, c_tanh, h):
                seen.append(z.copy())
                return step(z, c_prev, c, c_tanh, h)
            return call

        monkeypatch.setattr(decoder, "_cell", recording_cell)
        rng = np.random.default_rng(4)
        seqs = [list(rng.integers(0, v.size, n)) for n in (5, 2, 4)]
        cache = teacher_force(seqs, rng.normal(size=(3, 7)), m, v)
        assert np.array_equal(np.array(seen), DecodeSnapshot.of(m).gate_table[cache.input_ids])

    def test_feature_count_must_match_batch(self):
        v = tiny_vocab()
        with pytest.raises(ShapeError):
            teacher_force([[0], [1]], np.zeros((3, 7)), tiny_model(v), v)


class TestSequenceLoss:
    def test_saturated_correct_logits(self):
        v = tiny_vocab()
        targets = [0, 1, 2]
        logits = np.full((3, v.size), -30.0)
        for t, tok in enumerate(targets):
            logits[t, tok] = 30.0
        loss, _ = sequence_loss(logits, targets, v.pad_id)
        assert loss < 1e-9

    def test_uniform_logits_closed_form(self):
        loss, _ = sequence_loss(np.zeros((3, 8)), [0, 1, 2], pad_id=7)
        assert abs(loss - 3 * math.log(8)) < 1e-12

    def test_pad_steps_excluded(self):
        pad = 7
        logits = np.random.default_rng(0).normal(size=(4, 8))
        full, dl_full = sequence_loss(logits, [0, 1, pad, pad], pad)
        short, _ = sequence_loss(logits[:2], [0, 1], pad)
        assert abs(full - short) < 1e-12
        assert np.array_equal(dl_full[2], np.zeros(8))
        assert np.array_equal(dl_full[3], np.zeros(8))


def rigged_eos_model(vocab):
    m = CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=9)
    m.b_out[vocab.eos_id] = 30.0
    return m


def decode(feature, model, vocab, max_steps=15):
    return decode_greedy(feature, DecodeSnapshot.of(model), vocab.go_id, vocab.eos_id,
                         vocab.placeholder_id, max_steps)


class TestDecodeGreedy:
    def test_zero_max_steps(self):
        v = tiny_vocab()
        trace = decode(np.zeros(7), tiny_model(v), v, max_steps=0)
        assert trace.ids == [] and trace.hiddens.shape == (0, 6) and trace.placeholder_positions == []

    def test_rigged_eos_bias_stops_immediately(self):
        v = tiny_vocab()
        trace = decode(np.zeros(7), rigged_eos_model(v), v)
        assert trace.ids == [v.eos_id]
        assert len(trace.hiddens) == 1

    def test_placeholder_positions_definitional(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=4)
        m.b_out[v.placeholder_id] = 5.0  # placeholder-happy model
        trace = decode(np.ones(7), m, v, max_steps=6)
        assert trace.placeholder_positions == [i for i, t in enumerate(trace.ids)
                                               if t == v.placeholder_id]
        assert len(trace.hiddens) == len(trace.ids)

    def test_deterministic(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        f = np.random.default_rng(3).normal(size=7)
        assert decode(f, m, v).ids == decode(f, m, v).ids

    def test_argmax_invariant_to_positive_logit_scaling(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        f = np.random.default_rng(3).normal(size=7)
        before = decode(f, m, v).ids
        m.w_out *= 7.0
        m.b_out *= 7.0
        assert decode(f, m, v).ids == before

    @pytest.mark.parametrize("shape", [(1, 7), (3, 7)])
    def test_a_batch_of_features_is_refused(self, shape):
        v = tiny_vocab()
        with pytest.raises(ShapeError, match=rf"^decoder: greedy decoding takes one image feature, "
                                             rf"got shape \({shape[0]}, 7\)$"):
            decode(np.ones(shape), tiny_model(v), v)

    def test_nan_cell_state_raises(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        m.embed[:, v.go_id] = np.nan  # the first step's cell state turns NaN
        with pytest.raises(NumericError):
            decode(np.ones(7), m, v)


def varied_model(vocab):
    """Large weights: over 40 normal features, decodes of every length from 1
    to 8 steps and several placeholders."""
    m = CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=5)
    m.theta *= 20.0
    return m


def batch_decode(features, model, vocab, max_steps=15):
    return decode_batch(features, DecodeSnapshot.of(model), vocab.go_id, vocab.eos_id, vocab.placeholder_id,
                        max_steps)


def padding_runaway_model(vocab):
    """A model whose cell state gains 1 a step only while <EOS> is its input:
    a feature with a positive first entry emits <EOS> on every step, one
    with a negative first entry emits "a" on every step."""
    m = CaptionModel(vocab.size, hidden_size=2, embed_size=1, image_dim=2, key_dim=2, seed=0)
    m.theta[:] = 0.0
    m.embed[0, vocab.eos_id] = 1.0
    m.lstm_w[:2, 0] = m.lstm_w[6:, 0] = 30.0  # <EOS> opens the input gate onto a candidate of +1
    m.lstm_b[2:6] = 30.0  # forget and output gates open
    m.w_img_cell[:, 0] = 1.0
    m.w_out[vocab.eos_id, 0], m.w_out[vocab.index["a"], 0] = 10.0, -10.0
    return m


class TestDecodeBatch:
    def test_each_row_is_its_greedy_decode(self):
        v = tiny_vocab()
        m = varied_model(v)
        features = np.random.default_rng(3).normal(size=(40, 7))
        batch = batch_decode(features, m, v, max_steps=8)
        traces = [decode(f, m, v, max_steps=8) for f in features]
        assert [batch.ids[b, :n].tolist() for b, n in enumerate(batch.lengths)] == [t.ids for t in traces]
        assert len(set(batch.lengths.tolist())) > 4  # rows end at different steps, and the rest are masked
        assert batch.placeholder_rows.tolist() == [b for b, t in enumerate(traces) for _ in t.placeholder_positions]
        want = np.concatenate([t.hiddens[t.placeholder_positions] for t in traces])
        assert len(want) > 20 and np.allclose(batch.placeholder_hiddens, want, rtol=0.0, atol=1e-12)

    def test_zero_max_steps(self):
        v = tiny_vocab()
        batch = batch_decode(np.zeros((3, 7)), tiny_model(v), v, max_steps=0)
        assert batch.ids.shape == (3, 0) and batch.lengths.tolist() == [0, 0, 0]
        assert batch.placeholder_rows.shape == (0,) and batch.placeholder_hiddens.shape == (0, 6)

    def test_stops_when_every_row_has_ended(self):
        v = tiny_vocab()
        batch = batch_decode(np.zeros((2, 7)), rigged_eos_model(v), v)
        assert batch.lengths.tolist() == [1, 1] and batch.ids[:, 0].tolist() == [v.eos_id, v.eos_id]

    def test_a_single_feature_is_refused(self):
        v = tiny_vocab()
        with pytest.raises(ShapeError, match=r"^decoder: batched decoding takes a block of image features, "
                                             r"got shape \(7,\)$"):
            batch_decode(np.ones(7), tiny_model(v), v)

    def test_a_row_past_its_eos_is_neither_read_nor_checked(self):
        # row 0 ends at step 1, and its masked steps then pass the cell bound while row 1 runs all 60 steps
        v = tiny_vocab()
        m = padding_runaway_model(v)
        features = np.array([[2.0, 0.0], [-2.0, 0.0]])
        batch = batch_decode(features, m, v, max_steps=60)
        assert batch.lengths.tolist() == [1, 60]
        assert batch.ids[0, 0] == v.eos_id and set(batch.ids[1].tolist()) == {v.index["a"]}
        assert decode(features[0], m, v, max_steps=60).ids == [v.eos_id]
        m.embed[0, :] = 1.0  # every input now grows the cell state, and no row ends: real steps pass the bound
        m.w_out[v.eos_id, 0] = -10.0
        with pytest.raises(NumericError, match="cell state"):
            batch_decode(features, m, v, max_steps=60)

    def test_nan_cell_state_raises(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        m.embed[:, v.go_id] = np.nan
        with pytest.raises(NumericError, match="cell state"):
            batch_decode(np.ones((2, 7)), m, v)

    def test_a_block_is_as_many_rows_as_the_budget_holds(self, monkeypatch):
        v = tiny_vocab()
        snapshot = DecodeSnapshot.of(tiny_model(v))
        rows = decoder.decode_block_rows(snapshot, 15)
        assert rows > 10 ** 5  # a split of the shipped sizes is one block
        monkeypatch.setattr(config, "BUFFER_BUDGET", config.BUFFER_BUDGET // 1000)
        assert decoder.decode_block_rows(snapshot, 15) == rows // 1000
        monkeypatch.setattr(config, "BUFFER_BUDGET", 1)
        assert decoder.decode_block_rows(snapshot, 15) == 1


class TestModelPlumbing:
    def test_param_roundtrip_through_from_params(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=8)
        clone = CaptionModel.from_params({k: p.copy() for k, p in m.params().items()})
        assert list(clone.params()) == list(m.params())
        for name, p in m.params().items():
            assert np.array_equal(clone.params()[name], p)

    def test_init_matches_per_array_draws(self):
        # the layout before one parameter vector: each matrix drawn on its own, in this order
        v = tiny_vocab()
        rng = np.random.default_rng(5)

        def u(*shape):
            return rng.uniform(-0.08, 0.08, shape)

        m = tiny_model(v, seed=5)
        for name, shape in (("embed", (5, v.size)), ("lstm_w", (24, 11)), ("w_out", (v.size, 6)),
                            ("w_img", (6, 7)), ("w_query", (6, 6)), ("w_img_cell", (6, 7))):
            assert np.array_equal(getattr(m, name), u(*shape)), name
        for name in ("b_out", "b_img", "b_img_cell"):
            assert not getattr(m, name).any(), name

    def test_params_are_live_views_of_theta(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=1)
        params = m.params()
        assert m.theta.dtype == np.float64 and m.theta.ndim == 1
        assert sum(p.size for p in params.values()) == m.theta.size
        for name, p in params.items():
            assert p is getattr(m, name) and np.shares_memory(p, m.theta), name
        m.theta[:] = np.arange(m.theta.size)
        assert np.array_equal(np.concatenate([p.ravel() for p in params.values()]), m.theta)
        grad = np.zeros_like(m.theta)
        m.views(grad)["w_query"][...] = 1.0
        assert grad.sum() == m.w_query.size
        with pytest.raises(ShapeError):
            m.views(grad[1:])

    def test_from_params_copies_its_input(self):
        v = tiny_vocab()
        source = {k: p.copy() for k, p in tiny_model(v, seed=8).params().items()}
        clone = CaptionModel.from_params(source)
        kept = {k: p.copy() for k, p in source.items()}
        clone.theta += 1.0
        source["w_out"][...] = 0.0
        assert np.array_equal(clone.w_out, kept["w_out"] + 1.0)
        assert not any(np.shares_memory(p, clone.theta) for p in source.values())

    @pytest.mark.parametrize("size", ["hidden_size", "embed_size"])
    def test_a_theta_past_the_budget_is_refused_by_its_sizes_before_it_is_allocated(self, size):
        sizes = {"vocab_size": 40, "hidden_size": 64, "embed_size": 64, "image_dim": 32, "key_dim": 32,
                 size: 10 ** 12}  # the size under test overrides its entry
        theta_bytes = sum(math.prod(shape) for shape in decoder.param_shapes(**sizes).values()) * 8
        with pytest.raises(ConfigError) as caught:
            CaptionModel(**sizes)
        assert str(caught.value) == (
            f"decoder: vocab_size 40, hidden_size {sizes['hidden_size']}, embed_size {sizes['embed_size']}, "
            f"image_dim 32 and key_dim 32 size theta at {theta_bytes} bytes, past the 1073741824-byte budget")

    def test_forget_gate_bias_initialized_to_one(self):
        v = tiny_vocab()
        m = tiny_model(v)
        nh = m.hidden_size
        assert np.all(m.lstm_b[nh:2 * nh] == 1.0)
        assert np.all(m.lstm_b[:nh] == 0.0)


ORACLE_SEEDS = range(101, 111)


def reference_decode(feature, model, go_id, eos_id, max_steps):
    """Greedy decoding with one concatenate-and-product LSTM step per
    emission, the sigmoid gates and the candidate activated by two calls:
    the reference the gate-table decode is held to. Returns the ids, the
    pre-step hidden states and each step's logits."""
    nh = model.hidden_size
    h = np.tanh(feature @ model.w_img.T + model.b_img)
    c = np.tanh(feature @ model.w_img_cell.T + model.b_img_cell)
    ids, hiddens, logits = [], [], []
    tok = go_id
    for _ in range(max_steps):
        hiddens.append(h)
        z = model.lstm_w @ np.concatenate([model.embed[:, tok], h]) + model.lstm_b
        sig = 0.5 * (1.0 + np.tanh(0.5 * z[:3 * nh]))
        c = sig[nh:2 * nh] * c + sig[:nh] * np.tanh(z[3 * nh:])
        h = sig[2 * nh:] * np.tanh(c)
        logits.append(model.w_out @ h + model.b_out)
        tok = int(np.argmax(logits[-1]))
        ids.append(tok)
        if tok == eos_id:
            break
    return ids, hiddens, logits


def test_gate_table_decode_matches_reference_on_caption_workload(tmp_path):
    """Every record the caption workload captions first at seeds 101-110,
    decoded by the trained caption-workload model one record at a time and
    each seed's records as one batch: equal ids, hidden states within
    1e-12 and, from the batch, placeholder queries within 1e-12. A flipped
    argmax fails the test and is listed with its reference logit margin."""
    wl = load_workloads()
    corpus = wl.build_corpus(tmp_path, wl.N_IMAGES, (1, 1), wl.WORLD["distractors"])
    model = CaptionModel.from_params(wl.train(corpus, wl.Checks()).params)
    v, max_steps = corpus.vocab, corpus.cfg.max_steps
    snapshot = DecodeSnapshot.of(model)
    flips, worst, worst_query, n_records, n_placeholders = [], 0.0, 0.0, 0, 0

    def flip(how, seed, rec, got, ids, logits):
        t = next(t for t, (a, b) in enumerate(zip(got, ids)) if a != b)
        margin = logits[t][ids[t]] - logits[t][got[t]]
        flips.append(f"{how} seed {seed} {rec.image_id} step {t}: {got[t]} for {ids[t]}, "
                     f"reference margin {margin:.3g}")

    for seed in ORACLE_SEEDS:
        records = corpus.draw(seed, 0, wl.CAPTION_RECORDS).test
        batch = decode_batch(np.array([rec.feature for rec in records]), snapshot, v.go_id, v.eos_id,
                             v.placeholder_id, max_steps)
        starts = np.searchsorted(batch.placeholder_rows, np.arange(len(records)))
        for b, rec in enumerate(records):
            ids, hiddens, logits = reference_decode(rec.feature, model, v.go_id, v.eos_id, max_steps)
            trace = decode_greedy(rec.feature, snapshot, v.go_id, v.eos_id, v.placeholder_id, max_steps)
            batch_ids = batch.ids[b, :batch.lengths[b]].tolist()
            n_records += 1
            if trace.ids != ids:
                flip("one", seed, rec, trace.ids, ids, logits)
            else:
                worst = max(worst, float(np.max(np.abs(trace.hiddens - np.array(hiddens)))))
            if batch_ids != ids:
                flip("batch", seed, rec, batch_ids, ids, logits)
                continue
            positions = [t for t, tok in enumerate(ids) if tok == v.placeholder_id]
            got = batch.placeholder_hiddens[starts[b]:starts[b] + len(positions)] @ model.w_query.T
            want = np.array([hiddens[t] for t in positions]).reshape(-1, model.hidden_size) @ model.w_query.T
            assert got.shape == want.shape
            worst_query = max(worst_query, float(np.max(np.abs(got - want), initial=0.0)))
            n_placeholders += len(positions)
        assert len(batch.placeholder_rows) == sum(batch.ids[b, :n].tolist().count(v.placeholder_id)
                                                  for b, n in enumerate(batch.lengths.tolist()))
    assert n_records == len(ORACLE_SEEDS) * wl.CAPTION_RECORDS
    assert n_placeholders >= n_records / 2  # the trained model emits one in every caption
    assert not flips, f"{len(flips)} argmax flips:\n" + "\n".join(flips)
    assert worst < 1e-12, worst
    assert worst_query < 1e-12, worst_query


def test_teacher_forcing_the_greedy_ids_walks_the_decode_bit_for_bit():
    """Teacher-forcing a greedy decode's own ids (<GO>, then every id but
    the last) as a batch of one walks the decode's hidden states bit for
    bit: both passes add a gate-table row to a (1, hidden) or (hidden,)
    recurrent product and step the same cell. The model is trained briefly
    on a small world, so its decodes are sentences with placeholders. Each
    record whose states differ is listed with the first position that
    differs."""
    world = make_world(names=("dog", "cat", "bus", "tree"), dim=8, seed=3, noise_scale=0.05, latent_rank=4)
    records = generate_synthetic(world, 60, objects_per_image=(1, 2))
    v = build_vocabulary([ref for rec in records for ref in rec.references])
    pairs = TrainingPairs.of([TrainExample(rec.feature, v.encode(ref, append_eos=True), rec.detections)
                              for rec in records for ref in rec.references],
                             intersect_detectable(v, list(world.names)), go_id=v.go_id, pad_id=v.pad_id,
                             n_det=4, key_dim=8)
    model = CaptionModel(v.size, hidden_size=24, embed_size=8, image_dim=8, key_dim=8, seed=0)
    opt = AdamState.for_param(model.theta, lr=0.02)
    for _ in range(30):
        for start in range(0, len(pairs), 16):
            train_step(np.arange(start, min(start + 16, len(pairs))), pairs, model, opt)
    snapshot = DecodeSnapshot.of(model)
    differ, n_placeholders = [], 0
    for rec in records:
        trace = decode_greedy(rec.feature, snapshot, v.go_id, v.eos_id, v.placeholder_id, max_steps=12)
        inputs = np.array([[v.go_id, *trace.ids[:-1]]]).T
        cache = forward_teacher_forced(inputs, np.array([len(trace.ids)]), rec.feature[None], model)
        unequal = np.flatnonzero((cache.hiddens[:, 0] != trace.hiddens).any(axis=1))
        if unequal.size:
            differ.append(f"{rec.image_id} position {unequal[0]} of {len(trace.ids)}")
        n_placeholders += len(trace.placeholder_positions)
    assert not differ, f"{len(differ)} of {len(records)} records differ:\n" + "\n".join(differ)
    assert n_placeholders >= len(records)  # the decodes are captions, not one repeated token

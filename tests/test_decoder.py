import logging
import math

import numpy as np
import pytest

from novelcap.decoder import (CaptionModel, LstmState, decode_greedy,
                              forward_teacher_forced, init_state, lstm_step, sequence_loss)
from novelcap.errors import DomainError, ShapeError
from novelcap.vocabulary import build_vocabulary


def tiny_vocab():
    return build_vocabulary([["a", "dog", "sees", "cake"], ["a", "cake", "sees", "dog"]], 1)


def tiny_model(vocab, seed=0):
    return CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=seed)


class TestInitState:
    def test_zero_feature_zero_weights(self):
        v = tiny_vocab()
        m = tiny_model(v)
        m.w_img[...] = 0.0
        m.b_img[...] = 0.3
        s = init_state(np.zeros(7), m)
        assert np.allclose(s.h, np.tanh(0.3))
        assert np.array_equal(s.c, np.zeros(6))

    def test_all_zero_parameters(self):
        v = tiny_vocab()
        m = tiny_model(v)
        m.w_img[...] = 0.0
        m.b_img[...] = 0.0
        s = init_state(np.random.default_rng(0).normal(size=7), m)
        assert np.array_equal(s.h, np.zeros(6))

    def test_deterministic(self):
        v = tiny_vocab()
        m = tiny_model(v)
        f = np.random.default_rng(1).normal(size=7)
        a, b = init_state(f, m), init_state(f, m)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.c, b.c)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            init_state(np.zeros(3), tiny_model(tiny_vocab()))

    def test_cell_init_flag(self):
        v = tiny_vocab()
        m = tiny_model(v)
        s = init_state(np.ones(7), m)
        assert not np.array_equal(s.c, np.zeros(6))
        assert np.array_equal(s.c, np.tanh(m.w_img_cell @ np.ones(7) + m.b_img_cell))


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


class TestLstmStep:
    def test_all_zero(self):
        state = LstmState(np.zeros(4), np.zeros(4))
        w = np.zeros((16, 3 + 4))
        b = np.zeros(16)
        out = lstm_step(np.zeros(3), state, w, b)
        assert np.array_equal(out.h, np.zeros(4))
        assert np.array_equal(out.c, np.zeros(4))

    def test_memory_retention_at_forget_saturation(self):
        # huge forget bias, hugely negative input bias: c carries over
        nh = 4
        state = LstmState(np.zeros(nh), np.array([0.5, -0.25, 1.0, 0.0]))
        w = np.zeros((4 * nh, 2 + nh))
        b = np.zeros(4 * nh)
        b[nh:2 * nh] = 30.0
        b[:nh] = -30.0
        out = lstm_step(np.zeros(2), state, w, b)
        assert np.allclose(out.c, state.c, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        nh, nx = 4, 3
        w = rng.uniform(-0.7, 0.7, (4 * nh, nx + nh))
        b = rng.uniform(-0.5, 0.5, 4 * nh)
        x = rng.normal(size=nx)
        state = LstmState(rng.normal(size=nh), rng.normal(size=nh))
        out = lstm_step(x, state, w, b)
        h_ref, c_ref = scalar_lstm_oracle(x, state.h, state.c, w, b)
        assert np.all(np.abs(out.h - np.array(h_ref)) < 1e-12)
        assert np.all(np.abs(out.c - np.array(c_ref)) < 1e-12)

    def test_cell_sanity_bound_enforced(self):
        from novelcap.errors import NumericError
        state = LstmState(np.zeros(2), np.full(2, 49.9))
        w = np.zeros((8, 3))
        b = np.zeros(8)
        b[2:4] = 30.0  # forget gate saturated open: c carries and exceeds 50
        b[:2] = 30.0   # input gate open
        b[6:] = 30.0   # candidate saturated at +1
        with pytest.raises(NumericError):
            lstm_step(np.zeros(1), state, w, b)


def forward_one(targets, m, v, max_steps=None):
    """Teacher-force a batch of one sequence."""
    return forward_teacher_forced([targets], np.zeros((1, 7)), m, v.go_id, v.pad_id, max_steps)


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
        loss, _ = sequence_loss(cache.logits, cache.targets, v.pad_id)
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
        cache = forward_teacher_forced([long, short], features, m, v.go_id, v.pad_id)
        assert cache.lengths.tolist() == [5, 2]
        assert cache.targets[:, 1].tolist() == short + [v.pad_id] * 3
        assert cache.input_ids[:, 1].tolist() == [v.go_id, short[0]] + [v.pad_id] * 3
        for b, seq in enumerate((long, short)):
            alone = forward_teacher_forced([seq], features[b:b + 1], m, v.go_id, v.pad_id)
            assert np.max(np.abs(cache.logits[:len(seq), b] - alone.logits[:, 0])) < 1e-12

    def test_feature_count_must_match_batch(self):
        v = tiny_vocab()
        with pytest.raises(ShapeError):
            forward_teacher_forced([[0], [1]], np.zeros((3, 7)), tiny_model(v), v.go_id, v.pad_id)


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


class TestDecodeGreedy:
    def test_zero_max_steps(self):
        v = tiny_vocab()
        trace = decode_greedy(np.zeros(7), tiny_model(v), v.go_id, v.eos_id,
                              v.placeholder_id, max_steps=0)
        assert trace.ids == [] and trace.hiddens == [] and trace.placeholder_positions == []

    def test_rigged_eos_bias_stops_immediately(self):
        v = tiny_vocab()
        trace = decode_greedy(np.zeros(7), rigged_eos_model(v), v.go_id, v.eos_id,
                              v.placeholder_id, max_steps=15)
        assert trace.ids == [v.eos_id]
        assert len(trace.hiddens) == 1

    def test_placeholder_positions_definitional(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=4)
        m.b_out[v.placeholder_id] = 5.0  # placeholder-happy model
        trace = decode_greedy(np.ones(7), m, v.go_id, v.eos_id, v.placeholder_id, max_steps=6)
        assert trace.placeholder_positions == [i for i, t in enumerate(trace.ids)
                                               if t == v.placeholder_id]
        assert len(trace.hiddens) == len(trace.ids)

    def test_deterministic(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        f = np.random.default_rng(3).normal(size=7)
        a = decode_greedy(f, m, v.go_id, v.eos_id, v.placeholder_id, 15)
        b = decode_greedy(f, m, v.go_id, v.eos_id, v.placeholder_id, 15)
        assert a.ids == b.ids

    def test_argmax_invariant_to_positive_logit_scaling(self):
        v = tiny_vocab()
        m = tiny_model(v, seed=2)
        f = np.random.default_rng(3).normal(size=7)
        before = decode_greedy(f, m, v.go_id, v.eos_id, v.placeholder_id, 15).ids
        m.w_out *= 7.0
        m.b_out *= 7.0
        after = decode_greedy(f, m, v.go_id, v.eos_id, v.placeholder_id, 15).ids
        assert before == after


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

    def test_forget_gate_bias_initialized_to_one(self):
        v = tiny_vocab()
        m = tiny_model(v)
        nh = m.hidden_size
        assert np.all(m.lstm_b[nh:2 * nh] == 1.0)
        assert np.all(m.lstm_b[:nh] == 0.0)

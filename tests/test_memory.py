import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from novelcap.errors import DomainError, ShapeError
from novelcap.memory import (Detections, ObjectMemory, build_memory, make_query, memory_loss_forward,
                             memory_read, read_loss_backward, read_slots, select_top_detections)
from novelcap.numerics import finite_diff_check
from novelcap.vocabulary import build_vocabulary, intersect_detectable


def det(feature, label, score=0.9):
    """One detection row: feature, label, score."""
    return feature, label, score


def table(*rows):
    """The table of detection rows, in order; no row is the (0, 0) table."""
    if not rows:
        return Detections(np.empty((0, 0)), (), ())
    features, labels, scores = zip(*rows)
    return Detections(features, labels, scores)


def slot_table(*slots):
    """The table of the (feature, label) ``slots``, in order."""
    return table(*(det(feature, label) for feature, label in slots))


def memory_of(*slots, n_classes=3):
    """The one-row memory of one table write of the (feature, label) ``slots``."""
    return ObjectMemory(key_dim=len(slots[0][0]), n_classes=n_classes).write([slot_table(*slots)])


def rows_of(*rows, n_classes=3, width=1):
    """The memory of one write of a table per row of (feature, label) slots,
    at least ``width`` slots wide: a filler row of ``width`` slots is written
    last and dropped by a gather."""
    key_dim = len(rows[0][0][0])
    filler = slot_table(*[([0.0] * key_dim, 0)] * width)
    return ObjectMemory(key_dim, n_classes).write([slot_table(*slots) for slots in rows] + [filler])[:len(rows)]


CLASS_VOCAB = build_vocabulary([["c0", "c1", "c2"]])
CLASS_MAP = intersect_detectable(CLASS_VOCAB, ["c0", "c1", "c2"])


def read_loss(q, mem, target_class):
    """(loss, reads) of one read of ``mem`` with query ``q``: the batched
    memory loss over one masked step whose word is ``target_class``'s,
    through an identity query transform."""
    word = CLASS_VOCAB.index[CLASS_MAP.class_words[target_class]]
    return memory_loss_forward(np.reshape(q, (1, 1, -1)), np.array([[word]]), [1], CLASS_MAP, mem,
                               np.eye(len(q)))


def brute_force_read(q, keys, labels, n_classes):
    """Independent oracle: explicit exp/sum softmax then per-slot mixing."""
    sims = [sum(qi * ki for qi, ki in zip(q, key)) for key in keys]
    m = max(sims)
    exps = [math.exp(s - m) for s in sims]
    z = sum(exps)
    dist = [0.0] * n_classes
    for e, label in zip(exps, labels):
        dist[label] += e / z
    return dist


class TestWriteAndSelect:
    def test_single_write(self):
        mem = memory_of(([1.0, 2.0], 1))
        assert mem.n == 1
        assert np.array_equal(mem.keys[0][0], [1.0, 2.0])
        assert mem.labels[0].tolist() == [1]

    def test_insertion_order_preserved(self):
        slots = [([float(i), 0.0], i % 3) for i in range(4)]
        mem = memory_of(*slots)
        assert [k[0] for k in mem.keys[0]] == [0.0, 1.0, 2.0, 3.0]
        assert mem.labels[0].tolist() == [0, 1, 2, 0]

    @pytest.mark.parametrize("first", [table(det([1.0], 0), det([2.0], 0)), table()])
    def test_a_second_write_is_refused_and_leaves_the_memory_as_it_was(self, first):
        mem = ObjectMemory(key_dim=1, n_classes=1).write([first])
        keys, labels, n = mem.keys, mem.labels, mem.n
        with pytest.raises(DomainError, match="^memory: a memory is written once$"):
            mem.write([table(det([9.0], 0))])
        assert mem.n == n == len(first) and mem.keys is keys and mem.labels is labels

    def test_a_write_refused_by_its_checks_leaves_the_memory_unwritten(self):
        mem = ObjectMemory(key_dim=1, n_classes=2)
        with pytest.raises(DomainError, match="label 7 out of range"):
            mem.write([table(det([1.0], 1), det([2.0], 7))])
        assert mem.n == 0
        with pytest.raises(DomainError, match="^memory: read on an empty memory$"):
            memory_read(np.zeros((1, 1)), mem)
        mem.write([table(det([3.0], 1))])
        assert mem.n == 1 and mem.keys[0].tolist() == [[3.0]] and mem.labels[0].tolist() == [1]

    def test_a_memory_holds_exactly_the_rows_written(self):
        mem = ObjectMemory(key_dim=2, n_classes=3).write([table(det([1.0, 2.0], 2), det([3.0, 4.0], 0))])
        assert mem.keys[0].shape == (2, 2) and mem.labels[0].shape == (2,) and mem.labels.dtype == np.intp
        # an empty table holds its one zero slot, for slot 0, and no more
        empty = build_memory([table()], 10 ** 12, key_dim=2, n_classes=3)
        assert empty.keys.shape == (1, 1, 2) and empty.counts.tolist() == [0] and not empty.keys.any()

    def test_select_top_by_score(self):
        top = select_top_detections(table(det([0.0], 0, 0.9), det([1.0], 0, 0.2), det([2.0], 0, 0.8)), 2)
        assert top.features[:, 0].tolist() == [0.0, 2.0]

    def test_select_top_empty(self):
        assert len(select_top_detections(table(), 3)) == 0

    def test_select_top_stable_on_ties(self):
        top = select_top_detections(table(*[det([float(i)], 0, 0.5) for i in range(4)]), 3)
        assert top.features[:, 0].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("n_det", [0, -1])
    def test_select_top_refuses_a_capacity_below_one(self, n_det):
        # as build_memory does; a slice [:-1] would keep all rows but the last, [:0] none
        dets = table(det([0.0], 0, 0.9), det([1.0], 1, 0.2))
        with pytest.raises(DomainError, match=f"^memory: capacity must be >= 1, got {n_det}$"):
            select_top_detections(dets, n_det)

    def test_detection_validation(self):
        with pytest.raises(DomainError):
            table(det([1.0], 0, 1.5))
        with pytest.raises(DomainError):
            table(det([np.inf], 0, 0.5))


class TestDetections:
    def test_a_table_holds_its_rows_as_three_arrays(self):
        dets = table(det([1.0, 2.0], 3, 0.5), det([3.0, 4.0], 0, 1))
        assert dets.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and dets.features.dtype == np.float64
        assert dets.labels.tolist() == [3, 0] and dets.labels.dtype == np.intp
        assert dets.scores.tolist() == [0.5, 1.0] and dets.scores.dtype == np.float64
        assert len(dets) == 2 and bool(dets) and not hasattr(dets, "__dict__")
        none = dets.take([])
        assert dets.take(np.array([1])).labels.tolist() == [0] and not none and none.features.shape == (0, 2)

    def test_no_detection_is_an_empty_falsy_table(self):
        empty = table()
        assert len(empty) == 0 and not empty
        assert empty.features.shape == (0, 0) and empty.labels.shape == empty.scores.shape == (0,)

    @pytest.mark.parametrize("fault, message", [
        ({"feature": [np.nan, 0.0], "score": 2.0}, "detection feature contains non-finite entries"),
        ({"label": -2, "score": 2.0}, "detection label -2 is negative"),
        ({"score": 1.5}, r"detection score 1.5 outside \[0, 1\]"),
        ({"score": np.nan}, r"detection score nan outside \[0, 1\]")])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_table_refuses_what_a_detection_refuses_naming_the_first_bad_row(self, fault, message, row):
        rows = [dict(feature=[1.0, 2.0], label=0, score=0.5) for _ in range(4)]
        rows[row].update(fault)
        rows[3].update(label=-9)  # a later fault: only the first row at fault is named
        with pytest.raises(DomainError, match=f"^memory: {message}$"):
            Detections([r["feature"] for r in rows], [r["label"] for r in rows], [r["score"] for r in rows])

    @pytest.mark.parametrize("labels, dtype", [([2.7], "float64"), ([2.0], "float64"), ([True], "bool"),
                                               (["3"], "<U1"), ([1, None], "object"),
                                               (np.array([1.0], dtype=np.float32), "float32")])
    def test_a_label_that_is_not_an_integer_is_refused_naming_its_dtype(self, labels, dtype):
        with pytest.raises(DomainError, match=f"^memory: detection labels of dtype {dtype} are not integers$"):
            Detections(np.zeros((len(labels), 2)), labels, [0.5] * len(labels))

    def test_labels_of_any_integer_dtype_are_stored_as_intp(self):
        for labels in ([2], np.array([2], dtype=np.uint8), np.array([2], dtype=np.int32)):
            dets = Detections([[0.0, 0.0]], labels, [0.5])
            assert dets.labels.dtype == np.intp and dets.labels.tolist() == [2]
        assert Detections(np.empty((0, 2)), np.array([], dtype=float), []).labels.dtype == np.intp

    @pytest.mark.parametrize("label", [2 ** 63, 2 ** 64 - 1])
    def test_an_unsigned_label_past_intp_is_refused_as_given(self, label):
        # a cast to intp would wrap it to a negative class the caller never gave
        labels = np.array([1, label, 2 ** 63], dtype=np.uint64)
        with pytest.raises(DomainError, match=f"^memory: detection label {label} is past the largest class index$"):
            Detections(np.zeros((3, 2)), labels, [0.5] * 3)

    def test_a_table_is_one_row_per_detection(self):
        for features, labels, scores in (([1.0, 2.0], [0, 1], [0.5, 0.5]),  # not (n, key_dim)
                                         ([[1.0], [2.0]], [0], [0.5]),
                                         ([[1.0], [2.0]], [0, 1], [0.5]),
                                         ([[1.0]], [[0]], [0.5]),
                                         ([[1.0]], 0, [0.5])):
            with pytest.raises(ShapeError, match="^memory: detection table of features"):
                Detections(features, labels, scores)
        with pytest.raises(ShapeError, match="^memory: detection table of features"):
            table(det([[1.0, 2.0, 3.0]], 0))


class TestMakeQuery:
    def test_identity_transform(self):
        h = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(make_query(h, np.eye(3)), h)

    def test_zero_hidden(self):
        assert np.array_equal(make_query(np.zeros(3), np.ones((2, 3))), np.zeros(2))

    def test_shape_mismatch(self):
        for h in (np.zeros(3), np.zeros((2, 3))):  # one hidden state, or a block
            with pytest.raises(ShapeError):
                make_query(h, np.ones((2, 4)))

    def test_block_rows_equal_single_queries(self):
        rng = np.random.default_rng(2)
        hiddens, w_query = rng.normal(size=(5, 8)), rng.normal(size=(3, 8))
        block = make_query(hiddens, w_query)
        assert block.shape == (5, 3)
        for h, q in zip(hiddens, block):
            assert np.abs(make_query(h, w_query) - q).max() <= 1e-12


class TestMemoryRead:
    def test_single_slot_is_one_hot(self):
        mem = memory_of(([0.3, -4.0], 2))
        dist = memory_read(np.array([[17.0, 0.01]]), mem)
        assert np.allclose(dist[0], [0.0, 0.0, 1.0])
        assert dist[0].argmax() == 2

    def test_two_slot_hand_softmax(self):
        # q.k1 = 2, q.k2 = 0 -> weights e^2/(e^2+1), 1/(e^2+1)
        mem = memory_of(([2.0, 0.0], 0), ([0.0, 2.0], 1))
        dist = memory_read(np.array([[1.0, 0.0]]), mem)
        w0 = math.exp(2.0) / (math.exp(2.0) + 1.0)
        assert abs(dist[0][0] - w0) < 1e-4
        assert abs(dist[0][0] - 0.8808) < 1e-4
        assert abs(dist[0][1] - 0.1192) < 1e-4
        assert dist[0].argmax() == 0

    def test_identical_keys_tie_breaks_low(self):
        mem = memory_of(([1.0, 1.0], 1), ([1.0, 1.0], 0))
        dist = memory_read(np.array([[0.5, 0.5]]), mem)
        assert np.allclose(dist[0][:2], [0.5, 0.5])
        assert dist[0].argmax() == 0

    def test_empty_memory(self):
        mem = ObjectMemory(key_dim=2, n_classes=3)
        for q in (np.zeros((1, 2)), np.zeros((3, 2))):  # one query, or a block
            with pytest.raises(DomainError, match="^memory: read on an empty memory$"):
                memory_read(q, mem)

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_brute_force_and_permutation_free(self, data):
        n = data.draw(st.integers(1, 3))
        n_classes = data.draw(st.integers(2, 4))
        keys = [data.draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2)) for _ in range(n)]
        labels = [data.draw(st.integers(0, n_classes - 1)) for _ in range(n)]
        q = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2)))
        mem = memory_of(*zip(keys, labels), n_classes=n_classes)
        dist = memory_read(q[None], mem)
        oracle = brute_force_read(q, keys, labels, n_classes)
        assert np.all(np.abs(dist[0] - oracle) < 1e-9)
        assert abs(dist[0].sum() - 1.0) < 1e-9
        perm = np.random.default_rng(0).permutation(n)
        mem2 = memory_of(*[(keys[i], labels[i]) for i in perm], n_classes=n_classes)
        dist2 = memory_read(q[None], mem2)
        assert np.all(np.abs(dist[0] - dist2[0]) < 1e-12)

    def test_block_read_equals_single_reads(self):
        rng = np.random.default_rng(11)
        cases = []
        for n_slots, n_rows in ((1, 1), (1, 3), (4, 2), (9, 5), (16, 4)):
            mem = memory_of(*((rng.normal(size=5), int(rng.integers(6))) for _ in range(n_slots)), n_classes=6)
            cases.append((mem, rng.normal(size=(n_rows, 5)) * 3))
        # exact ties: one key under two labels, and queries that weigh every slot the same
        tied = memory_of(([1.0, 1.0], 4), ([1.0, 1.0], 2), ([0.0, -1.0], 1), ([-1.0, 0.0], 3), n_classes=6)
        cases.append((tied, np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [-2.0, 0.0]])))
        for mem, block in cases:
            dist = memory_read(block, mem)
            assert dist.shape == (len(block), 6)
            for p, q in enumerate(block):
                single = memory_read(q[None], mem)
                assert np.abs(dist[p] - single[0]).max() <= 1e-12
                assert dist[p].argmax() == single[0].argmax()
        dist = memory_read(cases[-1][1], tied)
        assert dist.argmax(1).tolist() == [2, 1, 2, 3]  # ties break toward the lowest class

    def test_a_memory_of_more_than_one_row_is_refused(self):
        # an empty row would read as NaN, and a block of another height would not broadcast
        for rows in ([[([1.0, 0.0], 0)], []], [[([1.0, 0.0], 0)]] * 3):
            mem = ObjectMemory(2, 3).write([slot_table(*slots) for slots in rows])
            with pytest.raises(ShapeError, match=f"^memory: a read takes one image's memory, not {len(rows)} rows$"):
                memory_read(np.zeros((2, 2)), mem)

    def test_query_of_the_wrong_length_is_a_shape_error(self):
        mem = memory_of(([1.0, 0.0], 0))
        for q in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 2)), np.zeros(2)):  # a query is a (P, 2) block
            with pytest.raises(ShapeError, match=f"^memory: query shape {re.escape(str(q.shape))} "):
                memory_read(q, mem)

    def test_single_slot_argmax_invariant_to_query_scale(self):
        # claimed only for n = 1; softmax temperature changes with scale
        # for larger memories
        mem = memory_of(([0.4, -1.2], 1))
        for scale in (0.1, 1.0, 25.0):
            dist = memory_read(scale * np.array([[2.0, 0.5]]), mem)
            assert dist[0].argmax() == 1

    def test_duplicate_slot_shifts_probability_monotonically(self):
        key, label = [1.0, -0.5], 1
        others = [([0.2, 0.8], 0), ([0.4, 0.1], 2)]
        q = np.array([[0.7, 0.3]])
        probs = []
        for copies in (1, 2, 3):
            mem = memory_of(*others, *([(key, label)] * copies), n_classes=3)
            dist = memory_read(q, mem)
            probs.append(dist[0][label])
        assert probs[0] < probs[1] < probs[2]


class TestReadSlots:
    @settings(max_examples=60)
    @given(st.data())
    def test_each_row_matches_brute_force_and_unwritten_slots_weigh_zero(self, data):
        n_classes = data.draw(st.integers(2, 4))
        floats = st.lists(st.floats(-3, 3), min_size=2, max_size=2)
        rows = [[(data.draw(floats), data.draw(st.integers(0, n_classes - 1)))
                 for _ in range(data.draw(st.integers(1, 4)))]
                for _ in range(data.draw(st.integers(1, 4)))]  # rows of 1 to 4 written slots, padded to 4
        mems = [memory_of(*slots, n_classes=n_classes) for slots in rows]
        queries = np.array([data.draw(floats) for _ in mems])
        weights, distribution = read_slots(queries, rows_of(*rows, n_classes=n_classes, width=4))
        assert weights.shape == (len(mems), 4) and distribution.shape == (len(mems), n_classes)
        for q, mem, w, dist in zip(queries, mems, weights, distribution):
            assert np.all(w[mem.n:] == 0.0) and abs(w.sum() - 1.0) < 1e-9
            oracle = brute_force_read(q, mem.keys[0].tolist(), mem.labels[0].tolist(), n_classes)
            assert np.all(np.abs(dist - oracle) < 1e-9)

    def test_rows_of_different_counts(self):
        mems = ObjectMemory(2, 3).write([slot_table(*[([float(i), 1.0], i % 3) for i in range(n)])
                                         for n in (3, 1, 4, 2)])
        weights, distribution = read_slots(np.ones((4, 2)), mems)
        assert (weights > 0).sum(axis=1).tolist() == [3, 1, 4, 2]
        assert np.all(weights[[0, 1, 1, 1, 3, 3], [3, 1, 2, 3, 2, 3]] == 0.0)
        assert distribution[1].tolist() == [1.0, 0.0, 0.0]

    def test_one_row_serves_every_query(self):
        rng = np.random.default_rng(5)
        slots = [(rng.normal(size=3), int(rng.integers(3))) for _ in range(3)]
        mem = memory_of(*slots)
        queries = rng.normal(size=(7, 3)) * 2
        weights, distribution = read_slots(queries, rows_of(slots, width=6))
        assert weights.shape == (7, 6) and np.all(weights[:, 3:] == 0.0)
        for q, w, dist in zip(queries, weights, distribution):
            alone_w, alone = read_slots(q[None], rows_of(slots, width=6))
            assert np.array_equal(w, alone_w[0]) and np.array_equal(dist, alone[0])
            oracle = brute_force_read(q, mem.keys[0].tolist(), mem.labels[0].tolist(), 3)
            assert np.all(np.abs(dist - oracle) < 1e-9)


class TestReadLoss:
    def test_saturated_single_slot(self):
        mem = memory_of(([1.0, 0.0], 2))
        loss, _ = read_loss(np.array([5.0, 0.0]), mem, target_class=2)
        assert abs(loss) < 1e-12

    def test_two_slot_hand_value(self):
        mem = memory_of(([2.0, 0.0], 0), ([0.0, 2.0], 1))
        loss, _ = read_loss(np.array([1.0, 0.0]), mem, target_class=1)
        expected = -math.log(1.0 / (1.0 + math.exp(2.0)))
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 2.1269) < 1e-3

    def test_query_and_key_gradients(self):
        rng = np.random.default_rng(7)
        mem = memory_of((rng.normal(size=3), 0), (rng.normal(size=3), 1),
                        (rng.normal(size=3), 2))
        q = rng.normal(size=3)
        _, reads = read_loss(q, mem, target_class=1)
        dq = read_loss_backward(reads)[0]

        def loss_of_q(params):
            loss, _ = read_loss(params["q"], mem, 1)
            return loss

        assert finite_diff_check(loss_of_q, {"q": q}, {"q": dq}) < 1e-6

    def test_gradients_with_two_target_slots(self):
        rng = np.random.default_rng(8)
        mem = memory_of(*[(rng.normal(size=3), label) for label in (1, 0, 1)])
        q = rng.normal(size=3)
        _, reads = read_loss(q, mem, target_class=1)
        dq = read_loss_backward(reads)[0]
        assert finite_diff_check(lambda p: read_loss(p["q"], mem, 1)[0],
                                 {"q": q}, {"q": dq}) < 1e-6


class TestMemoryLoss:
    def setup_method(self):
        self.vocab = build_vocabulary([["a", "dog", "sees", "cake"]])
        self.det_map = intersect_detectable(self.vocab, ["dog", "cake"])
        self.w_query = np.eye(2)
        rng = np.random.default_rng(0)
        self.hiddens = rng.normal(size=(4, 1, 2))  # one sentence of four steps, time-major
        self.slots = [([1.5, 0.0], 0), ([0.0, 1.5], 1)]
        self.mem = memory_of(*self.slots, n_classes=2)

    def loss(self, words, mask, mem=None):
        ids = np.array(self.vocab.encode(words))[:, None]
        return memory_loss_forward(self.hiddens, ids, mask, self.det_map, mem or self.mem, self.w_query)

    def test_loss_is_minus_log_of_the_read_target_mass(self):
        hiddens = np.random.default_rng(1).normal(size=(4, 2, 2))
        original = np.array([self.vocab.encode(["a", "dog", "sees", "cake"]),
                             self.vocab.encode(["cake", "a", "dog", "a"])]).T  # (T, B): one sentence per row
        mask = np.isin(original, self.vocab.encode(["dog", "cake"])).ravel()
        cake_only = [([0.0, 1.5], 1)]  # row 1's "dog" has no slot: skipped
        slots = rows_of(self.slots, cake_only, n_classes=2)
        loss, reads = memory_loss_forward(hiddens, original, mask, self.det_map, slots, self.w_query)
        assert list(zip(reads.steps.tolist(), reads.rows.tolist())) == [(0, 1), (1, 0), (3, 0)]
        _, distribution = read_slots(make_query(hiddens[reads.steps, reads.rows], self.w_query),
                                     slots[reads.rows])
        targets = self.det_map.word_classes[original[reads.steps, reads.rows]]
        assert targets.tolist() == [1, 0, 1]
        assert loss == -np.log(distribution[np.arange(3), targets]).sum()
        oracle = [brute_force_read(hiddens[t, r], slots.keys[r, :slots.counts[r]], slots.labels[r, :slots.counts[r]],
                                   2)[c] for t, r, c in zip(reads.steps, reads.rows, targets)]
        assert abs(loss - sum(-math.log(p) for p in oracle)) < 1e-9

    def test_all_zero_mask_gives_exact_zero(self):
        loss, reads = self.loss(["a", "sees", "a", "sees"], [0, 0, 0, 0])
        assert loss == 0.0 and len(reads) == 0

    def test_masked_steps_counted(self):
        loss, reads = self.loss(["a", "dog", "sees", "cake"], [0, 1, 0, 1])
        assert loss > 0.0 and reads.steps.tolist() == [1, 3]

    def test_word_without_class_skipped_with_warning(self, caplog):
        # mark a non-detectable position: "sees" has no class
        with caplog.at_level("WARNING", logger="novelcap.memory"):
            loss, reads = self.loss(["a", "dog", "sees", "cake"], [0, 0, 1, 0])
        assert loss == 0.0 and len(reads) == 0
        assert any("no detection class" in r.message for r in caplog.records)

    def test_class_missing_from_slots_skipped(self, caplog):
        cake_only = memory_of(([0.0, 1.5], 1), n_classes=2)
        with caplog.at_level("DEBUG", logger="novelcap.memory"):
            loss, reads = self.loss(["a", "dog", "sees", "cake"], [0, 1, 0, 1], cake_only)
        assert reads.steps.tolist() == [3]
        assert any("absent from memory" in r.message for r in caplog.records)


class TestBuildMemory:
    def test_truncates_to_top(self):
        dets = table(*[det([float(i)], 0, 0.1 * i) for i in range(1, 7)])
        mem = build_memory([dets], 4, key_dim=1, n_classes=1)
        assert mem.n == 4
        assert sorted(k[0] for k in mem.keys[0]) == [3.0, 4.0, 5.0, 6.0]

    def test_gathered_memory_equals_a_write_of_the_python_sorted_rows(self):
        rng = np.random.default_rng(4)
        # scores drawn from three values, so ties are common and must keep input order
        dets = [det(rng.normal(size=3), int(rng.integers(5)), float(rng.choice([0.2, 0.5, 0.9])))
                for _ in range(12)]
        for n_det in (1, 4, 12, 16):
            mem = build_memory([table(*dets)], n_det, key_dim=3, n_classes=5)
            order = sorted(range(len(dets)), key=lambda i: (-dets[i][2], i))[:n_det]
            sorted_rows = ObjectMemory(3, 5).write([table(*(dets[i] for i in order))])
            assert mem.n == sorted_rows.n == len(order)
            assert np.array_equal(mem.keys, sorted_rows.keys) and np.array_equal(mem.labels, sorted_rows.labels)

    def test_block_write_names_the_first_bad_detection(self):
        with pytest.raises(ShapeError, match=r"key shape \(2,\) != \(3,\)"):
            ObjectMemory(3, 2).write([table(det([1.0, 2.0], 0), det([3.0, 4.0], 0))])
        with pytest.raises(ShapeError, match=r"detection table of features \(1, 1, 3\)"):
            ObjectMemory(3, 2).write([table(det([[1.0, 2.0, 3.0]], 0))])
        with pytest.raises(DomainError, match="label 7 out of range for 2 classes"):
            ObjectMemory(1, 2).write([table(det([1.0], 1), det([1.0], 7), det([1.0], 9))])

    def test_a_table_is_checked_as_a_block_write_is(self):
        with pytest.raises(ShapeError, match=r"key shape \(2,\) != \(3,\)"):
            build_memory([table(det([1.0, 2.0], 0))], 4, key_dim=3, n_classes=2)
        # the first label out of range among the top rows, in their order
        with pytest.raises(DomainError, match="label 7 out of range for 2 classes"):
            build_memory([table(det([1.0], 1, 0.9), det([1.0], 9, 0.5), det([1.0], 7, 0.8))], 4, key_dim=1,
                         n_classes=2)
        assert build_memory([table(det([1.0], 1, 0.9), det([1.0], 9, 0.5))], 1, key_dim=1, n_classes=2).n == 1
        assert build_memory([table()], 4, key_dim=3, n_classes=2).n == 0


class TestBuildMemoryRows:
    def test_rows_are_each_images_top_detections_padded(self):
        images = [table(det([1.0, 0.0], 2, 0.3), det([2.0, 0.0], 0, 0.9), det([3.0, 0.0], 1, 0.5)),
                  table(det([0.0, 4.0], 1, 0.2)),
                  table(),
                  table(det([5.0, 5.0], 0, 0.7), det([6.0, 6.0], 2, 0.7))]
        slots = build_memory(images, 2, key_dim=2, n_classes=3)
        assert slots.counts.tolist() == [2, 1, 0, 2]
        assert slots.keys.tolist() == [[[2.0, 0.0], [3.0, 0.0]],  # by score; 0.3 falls below the cut
                                       [[0.0, 4.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]],
                                       [[5.0, 5.0], [6.0, 6.0]]]  # a score tie keeps detection order
        assert slots.labels.tolist() == [[0, 1], [1, 0], [0, 0], [0, 2]]
        picked = slots[np.array([3, 0, 3])]
        assert picked.counts.tolist() == [2, 2, 2] and np.array_equal(picked.keys[1], slots.keys[0])
        empty = build_memory([table(), table()], 3, key_dim=2, n_classes=1)  # one zero slot a row, for slot 0
        assert empty.counts.tolist() == [0, 0] and empty.keys.shape == (2, 1, 2) and not empty.keys.any()

    def test_each_row_is_its_images_build_memory(self):
        rng = np.random.default_rng(8)
        images = [table(*[det(rng.normal(size=3), int(rng.integers(4)), float(rng.choice([0.3, 0.6])))
                          for _ in range(int(rng.integers(7)))]) for _ in range(20)]
        for n_det in (1, 3, 8):
            slots = build_memory(images, n_det, key_dim=3, n_classes=4)
            for r, dets in enumerate(images):
                # row 0 of a build that pads it to the same width
                mem = build_memory([dets] + images, n_det, key_dim=3, n_classes=4)[np.array([0])]
                assert np.array_equal(slots.keys[r], mem.keys[0]) and np.array_equal(slots.labels[r], mem.labels[0])
                assert slots.counts[r] == mem.counts[0]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_each_row_is_its_images_build_memory_at_any_n_det(self, data):
        # tables empty, with tied scores, and shorter than n_det
        floats = st.lists(st.floats(-3, 3), min_size=2, max_size=2)
        row = st.tuples(floats, st.integers(0, 3), st.sampled_from([0.25, 0.5, 1.0]))
        images = [table(*rows) for rows in data.draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=6))]
        n_det = data.draw(st.integers(1, 20))
        slots = build_memory(images, n_det, key_dim=2, n_classes=4)
        assert slots.keys.shape[1] == slots.labels.shape[1] == max(1, min(n_det, max(map(len, images))))
        assert slots.n == slots.counts.sum()
        for r, dets in enumerate(images):
            mem = build_memory([dets], n_det, key_dim=2, n_classes=4)
            n = slots.counts[r]
            assert n == mem.n == min(n_det, len(dets))
            assert np.array_equal(slots.keys[r, :n], mem.keys[0, :n])
            assert np.array_equal(slots.labels[r, :n], mem.labels[0, :n])
            assert not slots.keys[r, n:].any() and not slots.labels[r, n:].any()
        # the two gathers a batch's memory pass makes: pairs' rows by index, then its reads by mask
        index = np.array(data.draw(st.lists(st.integers(0, len(images) - 1), max_size=8)), dtype=np.intp)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(images), max_size=len(images))), dtype=bool)
        for rows in (index, mask):
            picked, sources = slots[rows], np.arange(len(images))[rows]
            assert picked.n == picked.counts.sum() and (picked.key_dim, picked.n_classes) == (2, 4)
            assert np.array_equal(picked.counts, slots.counts[sources])
            read = picked.counts > 0
            queries = np.array([data.draw(floats) for _ in range(int(read.sum()))]).reshape(-1, 2)
            weights, distribution = read_slots(queries, picked[read])
            for q, w, dist, r in zip(queries, weights, distribution, sources[read]):
                # a read of the gathered row is a read of the row it came from
                alone = build_memory([images[r]], n_det, key_dim=2, n_classes=4)
                alone_w, alone_dist = read_slots(q[None], alone)
                n = slots.counts[r]
                assert np.abs(w[:n] - alone_w[0, :n]).max() <= 1e-12 and not w[n:].any()
                assert np.abs(dist - alone_dist[0]).max() <= 1e-12

    def test_an_n_det_past_every_table_takes_every_row(self):
        rng = np.random.default_rng(3)
        images = [table(*[det(rng.normal(size=2), int(rng.integers(3)), 0.5) for _ in range(n)]) for n in (2, 0, 5)]
        whole = build_memory(images, 5, key_dim=2, n_classes=3)
        for n_det in (6, 10 ** 12):
            slots = build_memory(images, n_det, key_dim=2, n_classes=3)
            assert all(np.array_equal(getattr(slots, f), getattr(whole, f)) for f in ("keys", "labels", "counts"))
            assert build_memory([images[2]], n_det, key_dim=2, n_classes=3).keys[0].shape == (5, 2)

    def test_writes_are_checked_as_memory_writes_are(self):
        with pytest.raises(ShapeError, match=r"key shape \(2,\) != \(3,\)"):
            build_memory([table(det([1.0, 2.0, 3.0], 0)), table(det([1.0, 2.0], 0))], 2, key_dim=3, n_classes=1)
        with pytest.raises(DomainError, match="label 2 out of range"):
            build_memory([table(det([1.0], 0)), table(det([1.0], 2))], 2, key_dim=1, n_classes=2)
        with pytest.raises(DomainError, match="capacity"):
            build_memory([table(det([1.0], 0))], 0, key_dim=1, n_classes=1)

    def test_images_are_checked_in_order(self):
        # the first image's key width is refused before the second image's label
        with pytest.raises(ShapeError, match=r"^memory: key shape \(2,\) != \(1,\)$"):
            build_memory([table(det([1.0, 2.0], 0)), table(det([1.0], 5))], 2, key_dim=1, n_classes=2)

"""Decoupling: the sentence is decoded without the memory.

In DNOC the placeholder sentence never reads the detections; the memory
only chooses the words that fill its placeholders. So a record's dnoc and
no-memory captions equal its no-placeholder caption (the sentence with its
placeholders left literal) at every position where that caption does not
read <PL>, whatever the memory holds: at any n_det, with the detections in
another order, or with none. Other class words change the filled words
only.
"""

import dataclasses

import numpy as np
import pytest

from novelcap.config import RunConfig
from novelcap.data import generate_synthetic, make_world
from novelcap.decoder import CaptionModel
from novelcap.memory import Detections
from novelcap.numerics import AdamState
from novelcap.pipeline import TrainExample, TrainingPairs, make_captioner, train_step
from novelcap.vocabulary import PLACEHOLDER, build_vocabulary, intersect_detectable

FILLING_MODES = ("dnoc", "no-memory")
MAX_STEPS = 12


@pytest.fixture(scope="module")
def placeholder_model():
    """60 records of 1-3 objects, and a seeded model trained on them for 150
    steps: it writes a placeholder for every detectable word."""
    world = make_world(names=("dog", "cat", "bus", "tree", "boat", "bird"), dim=8, seed=0, noise_scale=0.05,
                       latent_rank=4)
    records = generate_synthetic(world, 60, objects_per_image=(1, 3))
    vocab = build_vocabulary([ref for rec in records for ref in rec.references])
    det_map = intersect_detectable(vocab, list(world.names))
    model = CaptionModel(vocab.size, hidden_size=24, embed_size=16, image_dim=8, key_dim=8, seed=0)
    opt = AdamState.for_param(model.theta, lr=1e-2)
    examples = [TrainExample(r.feature, vocab.encode(ref, append_eos=True), r.detections)
                for r in records for ref in r.references]
    pairs = TrainingPairs.of(examples, det_map, go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4, key_dim=8)
    rng = np.random.default_rng(0)
    for _ in range(150):
        train_step(rng.permutation(len(examples))[:16], pairs, model, opt)
    return records, vocab, det_map, model


def captions(setup, mode, records=None, n_det=4, det_map=None):
    all_records, vocab, trained_map, model = setup
    captioner = make_captioner(model, vocab, det_map or trained_map, RunConfig(n_det=n_det, max_steps=MAX_STEPS),
                               mode)
    return [captioner(rec).tokens for rec in records or all_records]


def assert_decoupled(sentence, tokens):
    """``tokens`` has the length of ``sentence`` and equals it off its placeholders."""
    assert len(tokens) == len(sentence), (sentence, tokens)
    assert all(tok == word for tok, word in zip(tokens, sentence) if word != PLACEHOLDER), (sentence, tokens)


def test_every_sentence_has_placeholders_and_other_words(placeholder_model):
    for sentence in captions(placeholder_model, "no-placeholder"):
        assert 0 < sentence.count(PLACEHOLDER) < len(sentence), sentence


@pytest.mark.parametrize("mode", FILLING_MODES)
@pytest.mark.parametrize("n_det", range(1, 7))
def test_the_sentence_does_not_depend_on_n_det(placeholder_model, mode, n_det):
    sentences = captions(placeholder_model, "no-placeholder", n_det=n_det)
    assert sentences == captions(placeholder_model, "no-placeholder")
    for sentence, tokens in zip(sentences, captions(placeholder_model, mode, n_det=n_det)):
        assert_decoupled(sentence, tokens)
        assert PLACEHOLDER not in tokens  # every record has a detection: each placeholder was filled


@pytest.mark.parametrize("mode", FILLING_MODES)
def test_the_sentence_does_not_depend_on_the_order_of_the_detections(placeholder_model, mode):
    records = placeholder_model[0]
    rng = np.random.default_rng(5)
    orders = [rng.permutation(len(r.detections)) for r in records]
    assert sum((order != np.arange(len(order))).any() for order in orders) > len(records) // 2
    permuted = [dataclasses.replace(r, detections=r.detections.take(order))
                for r, order in zip(records, orders)]
    sentences = captions(placeholder_model, "no-placeholder")
    assert captions(placeholder_model, "no-placeholder", permuted) == sentences
    for sentence, tokens in zip(sentences, captions(placeholder_model, mode, permuted)):
        assert_decoupled(sentence, tokens)


@pytest.mark.parametrize("mode", FILLING_MODES)
def test_without_detections_the_caption_is_the_sentence(placeholder_model, mode):
    bare = [dataclasses.replace(r, detections=Detections(np.empty((0, 0)), (), ())) for r in placeholder_model[0]]
    sentences = captions(placeholder_model, "no-placeholder")
    assert captions(placeholder_model, mode, bare) == captions(placeholder_model, "no-placeholder", bare) == sentences


@pytest.mark.parametrize("mode", FILLING_MODES)
def test_swapping_two_class_words_changes_only_the_filled_words(placeholder_model, mode):
    det_map = placeholder_model[2]
    words = list(det_map.class_words)
    words[0], words[1] = words[1], words[0]
    swap = {words[0]: words[1], words[1]: words[0]}
    swapped = captions(placeholder_model, mode, det_map=dataclasses.replace(det_map, class_words=tuple(words)))
    sentences = captions(placeholder_model, "no-placeholder")
    before = captions(placeholder_model, mode)
    for sentence, old, new in zip(sentences, before, swapped):
        assert_decoupled(sentence, new)
        assert new == [swap.get(tok, tok) if word == PLACEHOLDER else tok for tok, word in zip(old, sentence)]
    assert sum(old != new for old, new in zip(before, swapped)) > 0  # the swapped words were read

import hashlib
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from novelcap.errors import DomainError
from novelcap.vocabulary import (PLACEHOLDER, SPECIAL_TOKENS, Vocabulary, build_vocabulary,
                                 intersect_detectable, mask_weights, rewrite_targets)


def vocab_from(words):
    return build_vocabulary([list(words)])


class TestBuildVocabulary:
    def test_tiny_corpus(self):
        v = build_vocabulary([["a", "dog"], ["a", "cat"]])
        assert v.size == 8
        assert set(v.words) == {"a", "dog", "cat", *SPECIAL_TOKENS}
        # every special appears exactly once and ids are dense and invertible
        for i, w in enumerate(v.words):
            assert v.index[w] == i
        assert v.encode(["a", "zebra"]) == [v.index["a"], v.unknown_id]  # a word outside the corpus

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_deterministic_ids(self, order):
        # a manifest may list its training records in any order: the vocabulary and its digest do not move
        corpus = [["the", "zebra", "runs"], ["a", "zebra", "sleeps"], ["the", "end"]]
        a = build_vocabulary(corpus)
        b = build_vocabulary([corpus[i] for i in order])
        assert a.words == b.words and a.digest() == b.digest()

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            build_vocabulary([])

    def test_index_is_built_from_the_words(self):
        words = ("dog", "a", *SPECIAL_TOKENS, "cat")
        v = Vocabulary(words=words)
        assert v.index == {w: i for i, w in enumerate(words)}
        assert [v.id_of(w) for w in words] == list(range(len(words)))

    def test_digest_is_the_sha256_of_the_text(self):
        v = build_vocabulary([["a", "dog"], ["a", "cat", "zébra"]])
        assert v.text() == "".join(w + "\n" for w in v.words)
        assert v.digest() == "sha256:" + hashlib.sha256(v.text().encode("utf-8")).hexdigest()
        # the bytes a saved vocabulary file held, so checkpoints written with one still load
        assert v.digest() == "sha256:63210f0f65b65036710807ed2d6a534ba044183e3f6d1a9166516b9b65e776f0"


def detectable_ids(det):
    """The word ids that carry a detection class."""
    return {i for i, c in enumerate(det.word_classes.tolist()) if c >= 0}


class TestIntersectDetectable:
    def test_partial_overlap(self):
        v = vocab_from(["a", "dog", "cat"])
        det = intersect_detectable(v, ["dog", "zebra"])
        assert detectable_ids(det) == {v.index["dog"]}
        assert det.class_words[1] == "zebra"
        assert det.word_classes.shape == (v.size,)
        assert det.word_classes[v.index["dog"]] == 0 and 1 not in det.word_classes.tolist()

    def test_disjoint(self):
        v = vocab_from(["a", "dog", "cat"])
        det = intersect_detectable(v, ["zebra", "pizza"])
        assert detectable_ids(det) == set()

    def test_full_overlap_excludes_specials(self):
        v = vocab_from(["a", "dog", "cat"])
        det = intersect_detectable(v, ["a", "dog", "cat"])  # a special class name is refused below
        assert detectable_ids(det) == {v.index["a"], v.index["dog"], v.index["cat"]}
        assert not (detectable_ids(det) & {v.index[tok] for tok in SPECIAL_TOKENS})

    def test_word_to_class_injective_on_non_novel(self):
        v = vocab_from(["a", "dog", "cat"])
        det = intersect_detectable(v, ["dog", "zebra", "cat"])
        classes = [c for c in det.word_classes.tolist() if c >= 0]
        assert len(classes) == len(set(classes))
        for c in range(det.n_classes):
            word = det.class_words[c]
            if word in v.index:
                assert det.word_classes[v.index[word]] == c

    def test_multiword_class_rejected(self):
        v = vocab_from(["a", "dog"])
        with pytest.raises(DomainError):
            intersect_detectable(v, ["hot dog"])

    @pytest.mark.parametrize("name, fault", [
        (PLACEHOLDER, "is a special token"),  # a filled caption would hold a literal <PL>
        ("<PAD>", "is a special token"),
        ("a\tb", "holds whitespace"),
        ("hot dog", "holds whitespace"),
        ("no\xa0break", "holds whitespace"),
        ("", "is empty"),
        (5, "is not a string")])
    def test_a_class_name_that_is_not_a_word_is_refused_by_name(self, name, fault):
        v = vocab_from(["a", "dog"])
        with pytest.raises(DomainError, match=f"^vocabulary: detection class {re.escape(repr(name))} {fault}$"):
            intersect_detectable(v, ["dog", name])


FIG_SENTENCE = ["a", "dog", "is", "looking", "at", "a", "cake"]


def fig_setup():
    v = vocab_from(FIG_SENTENCE + ["cat"])
    det = intersect_detectable(v, ["dog", "cake", "cat"])
    ids = v.encode(FIG_SENTENCE)
    return v, det, ids


class TestRewriteAndMask:
    def test_two_object_sentence(self):
        v, det, ids = fig_setup()
        rewritten = rewrite_targets(ids, det)
        assert [v.word_of(i) for i in rewritten] == ["a", PLACEHOLDER, "is", "looking", "at", "a",
                                                     PLACEHOLDER]

    def test_empty_set_is_identity(self):
        v = vocab_from(FIG_SENTENCE)
        det = intersect_detectable(v, ["zebra"])
        ids = v.encode(FIG_SENTENCE)
        assert rewrite_targets(ids, det) == ids
        assert mask_weights(ids, det) == [0] * len(ids)

    def test_total_replacement(self):
        v = vocab_from(["dog"])
        det = intersect_detectable(v, ["dog"])
        ids = v.encode(["dog", "dog", "dog"])
        assert rewrite_targets(ids, det) == [v.placeholder_id] * 3

    def test_mask_matches_positions(self):
        _, det, ids = fig_setup()
        assert mask_weights(ids, det) == [0, 1, 0, 0, 0, 0, 1]

    def test_mask_sum_equals_replacements(self):
        _, det, ids = fig_setup()
        rewritten = rewrite_targets(ids, det)
        changed = sum(1 for a, b in zip(ids, rewritten) if a != b)
        assert sum(mask_weights(ids, det)) == changed

    def test_idempotent(self):
        _, det, ids = fig_setup()
        once = rewrite_targets(ids, det)
        assert rewrite_targets(once, det) == once

    def test_specials_untouched(self):
        v, det, ids = fig_setup()
        seq = ids + [v.eos_id, v.pad_id]
        rewritten = rewrite_targets(seq, det)
        assert rewritten[-2:] == [v.eos_id, v.pad_id]
        assert rewritten.count(v.go_id) == seq.count(v.go_id)

    @given(st.data())
    def test_coupling_properties(self, data):
        words = [f"w{i}" for i in range(12)]
        v = vocab_from(words)
        pd_words = data.draw(st.sets(st.sampled_from(words)))
        det = intersect_detectable(v, sorted(pd_words) or ["zzz"])
        sentence = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=15))
        ids = v.encode(sentence)
        rewritten = rewrite_targets(ids, det)
        mask = mask_weights(ids, det)
        assert len(rewritten) == len(ids) == len(mask)
        for orig, new, m in zip(ids, rewritten, mask):
            assert (orig != new) == bool(m)
            if m:
                assert new == v.placeholder_id
        assert rewrite_targets(rewritten, det) == rewritten

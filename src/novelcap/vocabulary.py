"""Word/id bookkeeping, the detectable-word set, and target rewriting.

Sentences are plain lists of token ids. The placeholder token is an
ordinary trainable vocabulary entry; ``rewrite_targets`` swaps every
detectable word in a training sentence for it, and ``mask_weights``
marks exactly those positions so the memory loss knows where to fire.
A run's vocabulary is built from its training captions; ``Vocabulary.text``
encodes the id order and ``digest`` hashes it for the checkpoint.
"""

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

GO = "<GO>"
EOS = "<EOS>"
PAD = "<PAD>"
UNKNOWN = "<UNKNOWN>"
PLACEHOLDER = "<PL>"

SPECIAL_TOKENS = (GO, EOS, PAD, UNKNOWN, PLACEHOLDER)
_WHITESPACE = re.compile(r"\s")  # what str.split splits on


def word_fault(word: str) -> str | None:
    """Why ``word`` is not one vocabulary word (a non-empty string, no
    whitespace, not a special token), or None: the one word rule of reference
    tokens, world inventory names and templates, and detection class names."""
    if type(word) is not str:
        return "is not a string"
    if not word:
        return "is empty"
    if word in SPECIAL_TOKENS:
        return "is a special token"
    if _WHITESPACE.search(word):
        return "holds whitespace"
    return None


@dataclass(frozen=True)
class Vocabulary:
    """Dense bidirectional word <-> id map with the five special tokens.

    Ids are 0..size-1: corpus words first (by descending frequency, ties
    alphabetical), then the specials in a fixed order. Immutable after
    construction; ``index`` is derived from ``words``.
    """

    words: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})
        for tok in SPECIAL_TOKENS:
            if self.words.count(tok) != 1:
                raise DomainError(f"vocabulary: special token {tok} must appear exactly once")

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def go_id(self) -> int:
        return self.index[GO]

    @property
    def eos_id(self) -> int:
        return self.index[EOS]

    @property
    def pad_id(self) -> int:
        return self.index[PAD]

    @property
    def unknown_id(self) -> int:
        return self.index[UNKNOWN]

    @property
    def placeholder_id(self) -> int:
        return self.index[PLACEHOLDER]

    def id_of(self, word: str) -> int:
        """Id for a surface word; unknown words map to <UNKNOWN>."""
        return self.index.get(word, self.unknown_id)

    def word_of(self, word_id: int) -> str:
        return self.words[word_id]

    def encode(self, tokens: list[str], append_eos: bool = False) -> list[int]:
        ids = [self.id_of(t) for t in tokens]
        if append_eos:
            ids.append(self.eos_id)
        return ids

    def text(self) -> str:
        """One word per line, line number = id."""
        return "".join(w + "\n" for w in self.words)

    def digest(self) -> str:
        """``sha256:`` and the hex sha256 of ``text()``."""
        return "sha256:" + hashlib.sha256(self.text().encode("utf-8")).hexdigest()


def build_vocabulary(training_sentences: list[list[str]]) -> Vocabulary:
    """Vocabulary from tokenized, lowercased sentences: every corpus word,
    most frequent first, ties in string order, then the special tokens.
    Two builds from the same sentences, in any order, assign identical ids."""
    if not training_sentences:
        raise DomainError("vocabulary: cannot build from an empty corpus")
    counts = Counter()
    for sent in training_sentences:
        counts.update(sent)
    kept = sorted((w for w in counts if w not in SPECIAL_TOKENS), key=lambda w: (-counts[w], w))
    return Vocabulary(words=tuple(kept) + SPECIAL_TOKENS)


@dataclass(frozen=True)
class DetectableSet:
    """Words that appear both in the caption vocabulary and as detector classes.

    ``class_words[c]`` is the surface name of detection class c. Classes
    whose name is absent from the vocabulary are novel: they carry no word
    id and can enter captions only as raw strings. ``word_classes[i]`` is
    the class of word id i, or -1 where it has none: the detectable words
    are exactly the ids with a class.
    """

    class_words: tuple[str, ...]
    placeholder_id: int
    word_classes: np.ndarray = field(compare=False, repr=False)  # (vocabulary size,)

    @property
    def n_classes(self) -> int:
        return len(self.class_words)


def intersect_detectable(vocab: Vocabulary, detection_classes: list[str]) -> DetectableSet:
    """Intersect the vocabulary with the detector's class-name list.

    Class names must be words (``word_fault``); a name that is not, or
    that repeats, is refused by name. An empty intersection is legal;
    out-of-vocabulary classes are marked novel.
    """
    seen = set()
    for name in detection_classes:
        fault = word_fault(name)
        if fault:
            raise DomainError(f"vocabulary: detection class {name!r} {fault}")
        if name in seen:
            raise DomainError(f"vocabulary: duplicate detection class {name!r}")
        seen.add(name)
    word_classes = np.full(vocab.size, -1, dtype=np.intp)
    for c, name in enumerate(detection_classes):
        wid = vocab.index.get(name)
        if wid is not None:
            word_classes[wid] = c
    return DetectableSet(
        class_words=tuple(detection_classes),
        placeholder_id=vocab.placeholder_id,
        word_classes=word_classes,
    )


def rewrite_targets(sentence: list[int], pd: DetectableSet) -> list[int]:
    """Replace every detectable word id with the placeholder id.

    Length-preserving and idempotent; special tokens pass through.
    """
    return [pd.placeholder_id if pd.word_classes[i] >= 0 else i for i in sentence]


def mask_weights(original: list[int], pd: DetectableSet) -> list[int]:
    """Binary per-step weights: 1 exactly where the original word is detectable."""
    return [1 if pd.word_classes[i] >= 0 else 0 for i in original]

"""Per-image key-value object memory.

Each detection contributes one slot: the appearance feature is the key,
the class index is the value (the key-value read of Miller et al. 2016).
A read turns query/key similarity into addressing weights,
softmax(q . K^T), and sums the weights of the slots that carry each
class into a class distribution. The read loss is the cross-entropy of
that distribution against the annotated class.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, EmptyMemoryError, ShapeError
from .numerics import FLOAT, softmax
from .numerics import cross_entropy  # noqa: F401 -- not called here; the benchmark's traced run wraps it

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Detection:
    """One detector output: appearance feature, class index, confidence."""

    feature: np.ndarray
    label: int
    score: float

    def __post_init__(self):
        feat = np.asarray(self.feature, dtype=FLOAT)
        object.__setattr__(self, "feature", feat)
        if not np.all(np.isfinite(feat)):
            raise DomainError("memory: detection feature contains non-finite entries")
        if self.label < 0:
            raise DomainError(f"memory: detection label {self.label} is negative")
        if not 0.0 <= self.score <= 1.0:
            raise DomainError(f"memory: detection score {self.score} outside [0, 1]")


@dataclass
class QueryResult:
    """Outcome of one memory read."""

    distribution: np.ndarray
    argmax_class: int
    argmax_word: str | None = None


class ObjectMemory:
    """Append-only slot store with capacity ``n_det``, built fresh per image."""

    def __init__(self, capacity: int, key_dim: int, n_classes: int):
        if capacity < 1:
            raise DomainError(f"memory: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.key_dim = key_dim
        self.n_classes = n_classes
        self.n = 0
        self._keys = np.zeros((capacity, key_dim), dtype=FLOAT)
        self._labels = np.zeros(capacity, dtype=np.intp)

    @property
    def keys(self) -> np.ndarray:
        """(n, key_dim) view of the written keys, in insertion order."""
        return self._keys[:self.n]

    @property
    def labels(self) -> np.ndarray:
        """(n,) class index of each written slot."""
        return self._labels[:self.n]

    def write(self, det: Detection) -> "ObjectMemory":
        """Append one key-value slot; order of insertion is preserved."""
        if self.n >= self.capacity:
            raise CapacityError(f"memory: capacity {self.capacity} exceeded; select top detections first")
        if det.feature.shape != (self.key_dim,):
            raise ShapeError(f"memory: key shape {det.feature.shape} != ({self.key_dim},)")
        if det.label >= self.n_classes:
            raise DomainError(f"memory: label {det.label} out of range for {self.n_classes} classes")
        self._keys[self.n] = det.feature
        self._labels[self.n] = det.label
        self.n += 1
        return self


def select_top_detections(dets: list[Detection], n_det: int) -> list[Detection]:
    """The ``n_det`` highest-confidence detections, stable under score ties."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in order[:n_det]]


def build_memory(dets: list[Detection], n_det: int, key_dim: int, n_classes: int) -> ObjectMemory:
    """Memory from the top-``n_det`` detections, keyed by their features."""
    mem = ObjectMemory(n_det, key_dim, n_classes)
    for det in select_top_detections(dets, n_det):
        mem.write(det)
    return mem


def make_query(h_prev: np.ndarray, w_query: np.ndarray) -> np.ndarray:
    """Project a decoder hidden state into the detection-feature space."""
    if w_query.shape[1] != h_prev.shape[0]:
        raise ShapeError(f"memory: query transform {w_query.shape} does not accept hidden state {h_prev.shape}")
    return w_query @ h_prev


def _address(q: np.ndarray, mem: ObjectMemory) -> tuple[np.ndarray, np.ndarray]:
    """Slot weights softmax(K q) and the class distribution they mix into."""
    if mem.n == 0:
        raise EmptyMemoryError("memory: read on an empty memory")
    weights = softmax(mem.keys @ q)
    return weights, np.bincount(mem.labels, weights, minlength=mem.n_classes)


def memory_read(q: np.ndarray, mem: ObjectMemory, det_map=None) -> tuple[QueryResult, np.ndarray]:
    """Content-based read: similarity, addressing weights, mixed class scores.

    Returns the QueryResult and the class distribution it was read from.
    Argmax ties break toward the lowest class index.
    """
    _, distribution = _address(q, mem)
    argmax_class = int(np.argmax(distribution))  # np.argmax takes the first (lowest) index on ties
    word = det_map.word_for_class(argmax_class) if det_map is not None else None
    return QueryResult(distribution=distribution, argmax_class=argmax_class, argmax_word=word), distribution


@dataclass
class ReadCache:
    """Forward intermediates one read needs for its backward pass."""

    weights: np.ndarray
    target_prob: float
    target_class: int
    step: int


def read_loss_forward(q: np.ndarray, mem: ObjectMemory, target_class: int,
                      step: int) -> tuple[float, ReadCache]:
    """Cross-entropy of one read against the annotated class."""
    weights, distribution = _address(q, mem)
    p = distribution[target_class]
    return float(-np.log(p)), ReadCache(weights=weights, target_prob=p,
                                        target_class=target_class, step=step)


def read_loss_backward(cache: ReadCache, mem: ObjectMemory, scale: float = 1.0) -> np.ndarray:
    """Gradient of the read loss w.r.t. the query.

    ``scale`` multiplies the loss (batch averaging).
    """
    # loss = -log(sum of weights on slots labeled target)
    w = cache.weights
    dalpha = np.where(mem.labels == cache.target_class, -1.0 / cache.target_prob, 0.0)
    dsims = w * (dalpha - float(w @ dalpha))
    dsims = dsims * scale
    return mem.keys.T @ dsims


def memory_loss_forward(hiddens: list[np.ndarray], original: list[int], a: list[int],
                        det_map, mem: ObjectMemory,
                        w_query: np.ndarray) -> tuple[float, list[ReadCache]]:
    """Masked memory loss over one sentence.

    For each step with a[t] = 1: query from the pre-step hidden state,
    read the memory, cross-entropy against the class of the original
    word. Steps whose word has no detection class, or whose class has no
    slot in the memory (its probability would be exactly zero), are
    skipped with a warning.
    """
    total = 0.0
    caches: list[ReadCache] = []
    for t, weight in enumerate(a):
        if not weight:
            continue
        target_class = det_map.class_for_word_id(original[t])
        if target_class is None:
            log.warning("memory: masked word id %d at step %d has no detection class; step skipped",
                        original[t], t)
            continue
        if mem.n == 0:
            log.warning("memory: no detections available for a masked step; step skipped")
            continue
        if target_class not in mem.labels:
            # expected when the annotated object fell below the top-n_det
            # cut; its mixed probability would be exactly zero
            log.debug("memory: class %d absent from memory slots at step %d; step skipped",
                      target_class, t)
            continue
        q = make_query(hiddens[t], w_query)
        loss, cache = read_loss_forward(q, mem, target_class, step=t)
        total += loss
        caches.append(cache)
    return total, caches

"""Per-image key-value object memory.

An image's detections are one table, ``Detections``: row i holds
detection i's appearance feature (the key), class index (the value) and
confidence (the key-value read of Miller et al. 2016). ``ObjectMemory``
holds one row of slots per image, and ``build_memory`` is its one
builder: ``select_top_detections``, the one top-n cut, per table, then
one ``write`` of the tables, the one writer and its checks. Training
builds one memory of every training image; a caption builds one of its
image. A read (``read_slots``, the one read) turns query/key similarity
into addressing weights, softmax(q . K^T), and sums the weights of the
slots that carry each class into a class distribution. The read loss is
the cross-entropy of that distribution against the annotated class. A
caption reads its memory with a (P, key_dim) block of queries, one per
placeholder, and gets its (P, n_classes) class distribution. A table is
the one way detections enter a memory, read from a file or built by
hand.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import FLOAT, softmax
from .numerics import cross_entropy  # noqa: F401 -- not called here; the benchmark's traced run wraps it

log = logging.getLogger(__name__)


class Detections:
    """One image's detections as a table, one row per detection: features
    (n, key_dim), labels (n,) of an integer dtype, and scores (n,). Checked
    once, as a whole: a non-finite feature, a negative label and a score
    outside [0, 1] are refused, in that order, naming the first row at
    fault (an unsigned label past intp is refused before its cast); ``len``
    and truth count the rows."""

    __slots__ = ("features", "labels", "scores")

    def __init__(self, features, labels, scores):
        features = np.asarray(features, dtype=FLOAT)
        labels = np.asarray(labels)
        scores = np.asarray(scores, dtype=FLOAT)
        if labels.size and labels.dtype.kind not in "iu":  # a cast would make 2.7 class 2 and True class 1
            raise DomainError(f"memory: detection labels of dtype {labels.dtype} are not integers")
        if labels.dtype.kind == "u":  # a cast to intp would make a label past its largest value negative
            past = labels[labels > np.uint64(np.iinfo(np.intp).max)]
            if past.size:
                raise DomainError(f"memory: detection label {past[0].item()} is past the largest class index")
        labels = labels.astype(np.intp, copy=False)
        if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels) or scores.shape != labels.shape:
            raise ShapeError(f"memory: detection table of features {features.shape}, labels {labels.shape} "
                             f"and scores {scores.shape} is not one row per detection")
        finite = np.isfinite(features).all(axis=1)
        ok = finite & (labels >= 0) & (scores >= 0.0) & (scores <= 1.0)  # a NaN score is not ok
        if not ok.all():
            row = int(ok.argmin())
            if not finite[row]:
                raise DomainError("memory: detection feature contains non-finite entries")
            if labels[row] < 0:
                raise DomainError(f"memory: detection label {labels[row].item()} is negative")
            raise DomainError(f"memory: detection score {scores[row].item()} outside [0, 1]")
        self.features, self.labels, self.scores = features, labels, scores

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows) -> "Detections":
        """The rows ``rows`` (an index array), in that order; the rows of a
        checked table need no check."""
        out = object.__new__(Detections)
        out.features = self.features.take(rows, axis=0)
        out.labels = self.labels.take(rows)
        out.scores = self.scores.take(rows)
        return out


class ObjectMemory:
    """Key-value memories, one row per image (Miller et al. 2016): row r
    holds the rows of table r of its one write, in table order, zero-padded
    to the longest table and at least 1 wide. ``keys`` (R, width, key_dim),
    ``labels`` (R, width) and ``counts`` (R,), the written slots per row,
    are None until it is written; ``n`` is the number of written slots."""

    def __init__(self, key_dim: int, n_classes: int):
        self.key_dim = key_dim
        self.n_classes = n_classes
        self.n = 0
        self.keys, self.labels, self.counts = None, None, None

    def write(self, tables: list[Detections]) -> "ObjectMemory":
        """Copy table r's rows into row r. Each table is checked as a block,
        in order, so the first table at fault is the one refused: the first
        label past the classes is a DomainError, then keys of another length
        a ShapeError. A memory is written once: a second write is refused, as
        is a write that fails its checks, and either leaves the memory as it
        was."""
        if self.keys is not None:
            raise DomainError("memory: a memory is written once")
        counts = list(map(len, tables))
        keys = np.zeros((len(tables), max([1, *counts]), self.key_dim), dtype=FLOAT)
        labels = np.zeros(keys.shape[:2], dtype=np.intp)
        for r, (rows, n) in enumerate(zip(tables, counts)):
            if n:
                check_labels(rows.labels.tolist(), self.n_classes)
                if rows.features.shape[1:] != (self.key_dim,):
                    raise ShapeError(f"memory: key shape {rows.features.shape[1:]} != ({self.key_dim},)")
                keys[r, :n], labels[r, :n] = rows.features, rows.labels
        self.keys, self.labels, self.counts, self.n = keys, labels, np.array(counts, dtype=np.intp), sum(counts)
        return self

    def __getitem__(self, rows) -> "ObjectMemory":
        """The memory of the rows ``rows`` (an index or a mask array)."""
        out = ObjectMemory(self.key_dim, self.n_classes)
        out.keys, out.labels, out.counts = self.keys[rows], self.labels[rows], self.counts[rows]
        out.n = int(out.counts.sum())
        return out


def check_labels(labels: list[int], n_classes: int) -> None:
    """Refuse the first label past ``n_classes`` classes, naming it."""
    bad = next((label for label in labels if label >= n_classes), None)
    if bad is not None:
        raise DomainError(f"memory: label {bad} out of range for {n_classes} classes")


def select_top_detections(dets: Detections, n_det: int) -> Detections:
    """The ``n_det`` highest-confidence rows, stable under score ties."""
    if n_det < 1:
        raise DomainError(f"memory: capacity must be >= 1, got {n_det}")
    return dets.take((-dets.scores).argsort(kind="stable")[:n_det])


def build_memory(tables: list[Detections], n_det: int, key_dim: int, n_classes: int) -> ObjectMemory:
    """The memory of each table's top-``n_det`` detections, keyed by their
    features, one row per table: one ``select_top_detections`` each, then
    one write. An ``n_det`` past every table takes every row."""
    return ObjectMemory(key_dim, n_classes).write([select_top_detections(dets, n_det) for dets in tables])


def make_query(h_prev: np.ndarray, w_query: np.ndarray) -> np.ndarray:
    """Project a block of decoder hidden states (P, hidden) into the
    detection-feature space: the (P, key_dim) block ``memory_read`` takes."""
    if w_query.shape[1] != h_prev.shape[-1]:
        raise ShapeError(f"memory: query transform {w_query.shape} does not accept hidden state {h_prev.shape}")
    return h_prev @ w_query.T


def read_slots(queries: np.ndarray, mem: ObjectMemory) -> tuple[np.ndarray, np.ndarray]:
    """Content-based read: query row m of ``queries`` (M, key_dim) reads
    memory row m, or the one row of a one-row memory; a row needs one
    written slot. The addressing weights softmax(q . K^T) are exactly zero
    on unwritten slots; one bincount sums them by class in slot order.
    Returns the (M, width) weights and the (M, n_classes) distribution."""
    n_rows, width, n_classes = len(queries), mem.keys.shape[1], mem.n_classes
    sims = np.matmul(mem.keys, queries[:, :, None])[..., 0]
    if mem.n < mem.counts.size * width:  # some row has unwritten slots (n is counts.sum()): mask them out
        sims = np.where(np.arange(width) < mem.counts[:, None], sims, -np.inf)
    weights = softmax(sims)
    bins = np.arange(0, n_rows * n_classes, n_classes)[:, None] + mem.labels  # row m's: m*n_classes + label
    distribution = np.bincount(bins.ravel(), weights.ravel(), minlength=n_rows * n_classes)
    return weights, distribution.reshape(n_rows, n_classes)


def memory_read(q: np.ndarray, mem: ObjectMemory) -> np.ndarray:
    """The (P, n_classes) class distribution of ``read_slots`` for a block
    of queries (P, key_dim) against one image's memory, a memory of one
    row; an empty memory and a memory of other rows are refused."""
    if mem.n == 0:
        raise DomainError("memory: read on an empty memory")
    if len(mem.keys) != 1:  # read_slots would pair query row m with memory row m
        raise ShapeError(f"memory: a read takes one image's memory, not {len(mem.keys)} rows")
    if q.ndim != 2 or q.shape[1] != mem.key_dim:
        raise ShapeError(f"memory: query shape {q.shape} is not a (P, {mem.key_dim}) block")
    return read_slots(q, mem)[1]


@dataclass
class LossReads:
    """A batch's loss reads, one row per read, as the backward pass needs them."""

    steps: np.ndarray  # (M,) time step of each read
    rows: np.ndarray  # (M,) batch row (example) of each read
    keys: np.ndarray  # (M, width, key_dim) slot keys of the memory read
    dsims: np.ndarray  # (M, width) gradient of each read's loss w.r.t. its slot similarities

    def __len__(self) -> int:
        return len(self.steps)


def memory_loss_forward(hiddens: np.ndarray, original: np.ndarray, mask: np.ndarray, det_map,
                        mem: ObjectMemory, w_query: np.ndarray) -> tuple[float, LossReads]:
    """Masked memory loss over a time-major batch, every read at once.

    ``hiddens`` (T, B, hidden) are the pre-step hidden states, ``original``
    (T, B) the word ids before rewriting, ``mask`` their T*B weights
    flattened, and ``mem`` one memory row per batch row. Each masked step
    queries its row's slots with its hidden state; the loss is the
    cross-entropy of the read against the original word's class
    (``det_map.word_classes``). Steps whose word has no class, whose row has
    no slot, or whose class has no slot (probability exactly zero) are
    skipped and logged. A batch with no masked step reads nothing.
    """
    masked = np.flatnonzero(mask)
    if not masked.size:
        return 0.0, LossReads(masked, masked, np.empty((0,) + mem.keys.shape[1:]),
                              np.empty((0, mem.keys.shape[1])))
    steps, rows = np.divmod(masked, original.shape[1])
    words = original[steps, rows]
    classes = det_map.word_classes[words]
    picked = mem[rows]
    filled = np.arange(picked.labels.shape[1]) < picked.counts[:, None]
    hits = (picked.labels == classes[:, None]) & filled
    read = hits.any(axis=1)
    if not read.all():
        for t, word, cls, empty in zip(steps[~read], words[~read], classes[~read], ~filled[~read, 0]):
            if cls < 0:
                log.warning("memory: masked word id %d at step %d has no detection class; step skipped",
                            word, t)
            elif empty:
                log.warning("memory: no detections available for a masked step; step skipped")
            else:  # expected when the annotated object fell below the top-n_det cut
                log.debug("memory: class %d absent from memory slots at step %d; step skipped", cls, t)
        steps, rows, classes, hits, picked = steps[read], rows[read], classes[read], hits[read], picked[read]
    w, distribution = read_slots(make_query(hiddens[steps, rows], w_query), picked)
    target_prob = distribution[np.arange(len(rows)), classes]
    # loss = -log(target_prob), the summed weight of the slots labeled target
    dalpha = np.where(hits, -1.0 / target_prob[:, None], 0.0)
    dsims = w * (dalpha - (w * dalpha).sum(axis=1, keepdims=True))
    return float((-np.log(target_prob)).sum()), LossReads(steps, rows, picked.keys, dsims)


def read_loss_backward(reads: LossReads, scale: float = 1.0) -> np.ndarray:
    """Gradient of each read's loss w.r.t. its query, one (M, key_dim) row
    per read; ``scale`` multiplies the loss (batch averaging)."""
    return np.matmul((reads.dsims * scale)[:, None, :], reads.keys)[:, 0]

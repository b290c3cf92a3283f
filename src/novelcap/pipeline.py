"""End-to-end orchestration: joint training and three-step captioning.

Training: the pairs are built once as arrays (targets rewritten,
truncated and padded) with one memory of every image's top-n_det
detections, from the ``build_memory`` a caption's fill calls; a batch
gathers its columns, runs the teacher-forced decoder once, reads the
memory rows of all masked steps in one pass, and applies Adam to the
summed gradients of both losses in one update. The no-placeholder
baseline is the same training with no detectable word, so its memory
pass reads nothing.

Captioning: (i) decode greedily, emitting placeholders; (ii) if the
sentence has a placeholder, build the key-value memory from the image's
top detections, once; (iii) query the memory with the block of hidden
states recorded before the placeholders, in one read of their classes,
and substitute each class's word. Filling is a pure post-process:
non-placeholder positions are untouched. The ablations share steps (i)
and (iii) and swap only the filler. Since the decode never reads the
memory, a known split (validation, or the test split of ``eval`` and
``sweep-ndet``) is captioned in one pass on the first call: one batched
decode of its records, one memory of their tables and one read of every
placeholder. A record captioned alone takes the one-record decode.
"""

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation
from .config import TRAIN_MODES
from .data import HeldOutSplit
from .decoder import (CaptionModel, DecodeSnapshot, backward_pass, decode_batch, decode_block_rows, decode_greedy,
                      forward_teacher_forced, pad_sequences, sequence_loss, theta_within_budget)
from .errors import ConfigError, DomainError, NumericError
from .memory import (Detections, ObjectMemory, build_memory, check_labels, make_query, memory_loss_forward,
                     memory_read, read_loss_backward, read_slots, select_top_detections)
from .numerics import AdamState, adam_step
from .vocabulary import PLACEHOLDER, DetectableSet, Vocabulary, mask_weights, rewrite_targets

CLIP_NORM = 5.0  # global L2 bound on each batch's summed gradients
# theta-sized float64 vectors training holds at once: theta, its gradient, Adam's two moments and three work
# rows, the best snapshot and the last epoch's decode snapshot
TRAINING_VECTORS = 9
# sets of a decode snapshot's tables training holds at once: the last epoch's snapshot's, and a teacher-forced
# pass's gate table and recurrent block (counted with a w_out transpose it does not build)
TRAINING_TABLES = 2
CAPTION_MODES = ("dnoc", "no-memory", "no-placeholder")


@dataclass
class TrainExample:
    """One (image feature, encoded reference, detections) training pair."""

    feature: np.ndarray
    targets: list[int]
    detections: Detections


@dataclass
class Caption:
    """Finished caption: surface tokens, with novel words as raw strings."""

    tokens: list[str]
    placeholder_count_unfilled: int = 0


@dataclass
class TrainingPairs:
    """Training pairs as arrays, built once; a batch is a gather of columns.

    The (L, N) id arrays are time-major like the decoder's: column n is
    pair n, truncated at ``max_steps`` and padded with <PAD>. Pair n reads
    memory row ``slot_rows[n]``, shared by every pair of one image. Under a
    detectable set with no detectable word the targets are the original
    ids and the mask is all zero.
    """

    inputs: np.ndarray  # (L, N) <GO>, then the decoder targets shifted by one
    targets: np.ndarray  # (L, N) decoder targets: detectable words rewritten
    original: np.ndarray  # (L, N) word ids before rewriting
    mask: np.ndarray  # (L, N) 1 where the original word is detectable
    lengths: np.ndarray  # (N,) real positions per pair
    features: np.ndarray  # (N, image_dim)
    slot_rows: np.ndarray  # (N,)
    slots: ObjectMemory  # one row per image
    det_map: DetectableSet
    pad_id: int

    def __len__(self) -> int:
        return len(self.lengths)

    @classmethod
    def of(cls, examples: list[TrainExample], pd: DetectableSet, *, go_id: int, pad_id: int, n_det: int,
           key_dim: int, max_steps: int | None = None) -> "TrainingPairs":
        """The pairs of ``examples``. Rewriting and masking are lookups over
        every word id, and pairs with the same detections table (the
        references of one image) share one memory row. A target id outside the
        vocabulary is refused by value."""
        n_words = len(pd.word_classes)
        bad = next((t for ex in examples for t in ex.targets if not 0 <= t < n_words), None)
        if bad is not None:  # a negative id would index from the end and train another word
            raise DomainError(f"pipeline: target id {bad} is outside the {n_words}-word vocabulary")
        inputs, original, lengths = pad_sequences([ex.targets for ex in examples], go_id, pad_id, max_steps)
        words = list(range(n_words))
        rewritten = np.array(rewrite_targets(words, pd))
        mask = np.array(mask_weights(words, pd))[original]
        images = {id(ex.detections): ex.detections for ex in examples}  # one entry per image
        row_of = {key: r for r, key in enumerate(images)}
        slot_rows = np.array([row_of[id(ex.detections)] for ex in examples], dtype=np.intp)
        slots = build_memory(list(images.values()), n_det, key_dim, pd.n_classes)
        return cls(rewritten[inputs], rewritten[original], original, mask, lengths,
                   np.array([ex.feature for ex in examples]), slot_rows, slots, pd, pad_id)


def batch_losses(model: CaptionModel, pairs: TrainingPairs, rows) -> tuple[float, float, np.ndarray]:
    """Batch-mean losses of the pairs ``rows`` and their gradient, laid out
    like ``model.theta``, from one decoder pass and one memory pass."""
    scale = 1.0 / len(rows)
    n_steps = int(pairs.lengths[rows].max())
    cache = forward_teacher_forced(pairs.inputs[:n_steps, rows], pairs.lengths[rows], pairs.features[rows], model)
    loss_seq, dlogits = sequence_loss(cache.logits, pairs.targets[:n_steps, rows], pairs.pad_id)
    loss_mem, reads = memory_loss_forward(cache.hiddens, pairs.original[:n_steps, rows],
                                          pairs.mask[:n_steps, rows].ravel(), pairs.det_map,
                                          pairs.slots[pairs.slot_rows[rows]], model.w_query)
    dq = np.zeros(cache.hiddens.shape[:2] + (model.key_dim,))
    dq[reads.steps, reads.rows] = read_loss_backward(reads, scale=scale)
    grad = backward_pass(model, cache, dlogits * scale, dq)
    return loss_seq / len(rows), loss_mem / len(rows), grad


def example_losses(model: CaptionModel, feature, targets: list[int], detections: Detections,
                   pd: DetectableSet, *, go_id: int, pad_id: int, n_det: int,
                   max_steps: int | None = None) -> tuple[float, float, np.ndarray]:
    """Both losses and their gradient for a single example: a batch of one."""
    pairs = TrainingPairs.of([TrainExample(feature, targets, detections)], pd, go_id=go_id, pad_id=pad_id,
                             n_det=n_det, key_dim=model.key_dim, max_steps=max_steps)
    return batch_losses(model, pairs, np.arange(1))


def joint_loss(model: CaptionModel, feature, targets: list[int], detections: Detections, pd: DetectableSet,
               *, go_id: int, pad_id: int, n_det: int, max_steps: int | None = None) -> float:
    """Total loss of one example; the reference for finite-difference checks."""
    loss_seq, loss_mem, _ = example_losses(model, feature, targets, detections, pd, go_id=go_id,
                                           pad_id=pad_id, n_det=n_det, max_steps=max_steps)
    return loss_seq + loss_mem


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place down to an L2 norm of ``max_norm``;
    returns the norm before clipping, taken by one product, grad . grad."""
    total = math.sqrt(np.vdot(grad, grad))
    if total > max_norm:
        grad *= max_norm / total
    return total


def train_step(rows, pairs: TrainingPairs, model: CaptionModel, opt: AdamState) -> tuple[float, float, float]:
    """One joint update over the pairs ``rows``; returns (loss_seq, loss_mem, total).

    Losses are batch means; the sequence and memory gradients are summed
    and clipped to a global norm of ``CLIP_NORM`` before one Adam step on
    ``model.theta``, so one step minimizes their sum.
    """
    loss_seq, loss_mem, grad = batch_losses(model, pairs, rows)
    if not np.isfinite(loss_seq + loss_mem):
        raise NumericError(f"pipeline: non-finite training loss ({loss_seq}, {loss_mem})")
    clip_gradients(grad, CLIP_NORM)
    adam_step(model.theta, grad, opt)
    return loss_seq, loss_mem, loss_seq + loss_mem


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    loss_seq: float
    loss_mem: float
    total: float
    val_f1: float


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_f1: float = -1.0
    best_params: dict[str, np.ndarray] | None = None


def train_model(split: HeldOutSplit, vocab: Vocabulary, det_map: DetectableSet, cfg,
                mode: str = "dnoc", log_fn=None) -> TrainResult:
    """Train on the split per the run config; track the best-validation model.

    ``mode`` is "dnoc" (placeholder rewriting + memory loss) or
    "no-placeholder" (the plain-decoder baseline: the same training on a
    copy of ``det_map`` with no detectable word). The model snapshot with
    the best validation F1 is kept in ``best_params``. Selection scores
    the held-out words; for the baseline those are structurally zero (its
    vocabulary cannot contain them), so it is selected on ``det_map``'s
    detectable known words instead.
    """
    if mode not in TRAIN_MODES:
        raise ConfigError(f"pipeline: training mode must be {' or '.join(TRAIN_MODES)}, got {mode!r}")
    train_map, selection_words = det_map, split.held_out_words
    if mode == "no-placeholder":
        train_map = replace(det_map, word_classes=np.full_like(det_map.word_classes, -1))
        selection_words = tuple(sorted(vocab.word_of(i) for i in np.flatnonzero(det_map.word_classes >= 0)))
    sizes = (vocab.size, cfg.hidden_size, cfg.embed_size, cfg.image_dim, cfg.key_dim)
    theta_within_budget(sizes, TRAINING_VECTORS, f"the {TRAINING_VECTORS} theta-sized vectors and "
                        f"{TRAINING_TABLES} sets of decode tables training holds", tables=TRAINING_TABLES)
    model = CaptionModel(*sizes, seed=cfg.seed)
    opt = AdamState.for_param(model.theta, lr=cfg.lr, weight_decay=cfg.weight_decay)
    pairs = TrainingPairs.of([TrainExample(rec.feature, vocab.encode(ref, append_eos=True), rec.detections)
                              for rec in split.train for ref in rec.references], train_map,
                             go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=cfg.n_det, key_dim=cfg.key_dim,
                             max_steps=cfg.max_steps)
    result = TrainResult()
    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(pairs))
        starts, sums = range(0, len(order), cfg.batch_size), np.zeros(2)
        with np.errstate(all="ignore"):  # a step's float fault is refused by name: by its loss or adam_step check
            for start in starts:
                sums += train_step(order[start:start + cfg.batch_size], pairs, model, opt)[:2]
        loss_seq, loss_mem = sums / max(len(starts), 1)
        captioner = make_captioner(model, vocab, det_map, cfg, mode, records=split.val)
        val_f1 = evaluation.average_f1_over(split.val, captioner, selection_words)
        stats = EpochStats(epoch=epoch, loss_seq=loss_seq, loss_mem=loss_mem,
                           total=loss_seq + loss_mem, val_f1=val_f1)
        result.history.append(stats)
        if log_fn is not None:
            log_fn(f"epoch={epoch} loss_smp={loss_seq:.6f} loss_mem={loss_mem:.6f} "
                   f"total={stats.total:.6f} val_f1={val_f1!r}")
        if val_f1 > result.best_val_f1:
            result.best_val_f1 = val_f1
            result.best_epoch = epoch
            result.best_params = model.views(model.theta.copy())
    return result


def make_captioner(model: CaptionModel, vocab: Vocabulary, det_map: DetectableSet, cfg,
                   mode: str = "dnoc", records=()):
    """Record -> Caption callable for one of the three evaluation modes.

    Every mode decodes once; a sentence with placeholders is then filled
    by its mode's filler, which maps the (P, hidden) block of hidden
    states before the placeholders to P classes: one memory read of the
    block ("dnoc"), a seeded uniformly random top-detection label each
    ("no-memory"), or nothing ("no-placeholder"). Each class is written as
    its word; a placeholder without one stays as the literal token.

    A captioner told the ``records`` (a sequence) it will caption
    captions all of them in its first call for one of them, block by
    block (``decode_block_rows``): one ``decode_batch`` of the block, then,
    in dnoc mode, one ``build_memory`` of its records' tables and one read
    of all their placeholders; each call then returns its record's
    caption. Any other record is decoded on its own, by ``decode_greedy``.

    The captioner reads the model's weights once, here: it captions with
    a snapshot of them, and later updates to ``model`` do not reach it.
    """
    if mode not in CAPTION_MODES:
        raise ConfigError(f"pipeline: unknown captioning mode {mode!r}")
    snapshot = DecodeSnapshot.of(model)
    key_dim, w_query = snapshot.weights.key_dim, snapshot.weights.w_query
    if mode == "dnoc":
        def filler(rec, hiddens):
            mem = build_memory([rec.detections], cfg.n_det, key_dim, det_map.n_classes)
            if mem.n == 0:
                return None
            distribution = memory_read(make_query(hiddens, w_query), mem)
            return distribution.argmax(1).tolist()  # argmax takes the first, so a tie goes to the lowest class
    elif mode == "no-memory":
        def filler(rec, hiddens):
            labels = select_top_detections(rec.detections, cfg.n_det).labels.tolist()
            if not labels:
                return None
            check_labels(labels, det_map.n_classes)  # as the dnoc fill's memory write would
            rng = np.random.default_rng([cfg.seed, zlib.crc32(rec.image_id.encode())])
            return [labels[int(rng.integers(len(labels)))] for _ in hiddens]
    else:
        def filler(rec, hiddens):
            return None

    def fill_block(block, trace, bounds):
        """Each record's classes, or None where it has placeholders and no fill, from ``trace``, the
        ``decode_batch`` of ``block``, whose placeholders ``bounds`` splits by record."""
        hiddens = trace.placeholder_hiddens
        if mode != "dnoc":
            return [filler(rec, h) if len(h) else [] for rec, h in zip(block, np.split(hiddens, bounds))]
        mem = build_memory([rec.detections for rec in block], cfg.n_det, key_dim, det_map.n_classes)
        rows = trace.placeholder_rows
        # a read of no slot would be a softmax over -inf alone: such a record keeps its placeholders, as alone
        read = mem.counts[rows] > 0
        classes = np.full(len(rows), -1)
        if read.any():
            classes[read] = read_slots(make_query(hiddens[read], w_query), mem[rows[read]])[1].argmax(1)
        return [None if c and c[0] < 0 else c for c in map(np.ndarray.tolist, np.split(classes, bounds))]

    skip = {vocab.go_id, vocab.pad_id, vocab.eos_id}

    def caption_of(ids, n_placeholders, classes):
        tokens = [vocab.word_of(tok_id) for tok_id in ids if tok_id not in skip]  # a placeholder is <PL>
        if classes is None:
            return Caption(tokens=tokens, placeholder_count_unfilled=n_placeholders)
        fills = (det_map.class_words[c] for c in classes)
        return Caption(tokens=[next(fills) if tok == PLACEHOLDER else tok for tok in tokens])

    def caption_split():
        captions = []
        rows = decode_block_rows(snapshot, cfg.max_steps)
        for start in range(0, len(records), rows):
            block = records[start:start + rows]
            trace = decode_batch(np.array([rec.feature for rec in block]), snapshot, vocab.go_id, vocab.eos_id,
                                 vocab.placeholder_id, cfg.max_steps)
            counts = np.bincount(trace.placeholder_rows, minlength=len(block))
            fills = fill_block(block, trace, np.cumsum(counts)[:-1])
            captions += [caption_of(ids[:n], p, classes) for ids, n, p, classes
                         in zip(trace.ids.tolist(), trace.lengths.tolist(), counts.tolist(), fills)]
        return captions

    index = {id(rec): i for i, rec in enumerate(records)}  # the captioner holds records, so their ids stay theirs
    split_captions = None

    def captioner(rec):
        nonlocal split_captions
        i = index.get(id(rec))
        if i is not None:
            if split_captions is None:
                split_captions = caption_split()
            return split_captions[i]
        trace = decode_greedy(rec.feature, snapshot, vocab.go_id, vocab.eos_id,
                              vocab.placeholder_id, cfg.max_steps)
        positions = trace.placeholder_positions
        classes = filler(rec, trace.hiddens[positions]) if positions else []
        return caption_of(trace.ids, len(positions), classes)
    return captioner

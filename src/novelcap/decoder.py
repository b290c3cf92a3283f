"""Placeholder-emitting LSTM caption decoder with hand-derived gradients.

The trainable model is a single-layer LSTM over learned word embeddings,
an output projection onto the vocabulary, two image projections that
seed the initial hidden and cell states, and the linear transform that
turns hidden states into object-memory queries. There is no autodiff
graph: the teacher-forced forward over a padded, time-major batch has a
matching backward pass that walks its cached time steps in reverse.

All parameters are float64 views into one contiguous vector, ``theta``,
in the order and shapes of ``param_shapes``; gradients and the Adam
moments use the same layout, so one update steps the whole model.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import within_budget
from .errors import CheckpointError, ConfigError, DomainError, NumericError, ShapeError
from .numerics import FLOAT, cross_entropy

log = logging.getLogger(__name__)

INIT_SCALE = 0.08
CELL_SANITY_BOUND = 50.0


def param_shapes(vocab_size: int, hidden_size: int, embed_size: int, image_dim: int,
                 key_dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, in ``PARAM_NAMES`` (and ``theta``) order."""
    # embed holds a column per word id; lstm_w's gate order is [input, forget, output, candidate]
    v, h, e, d, k = vocab_size, hidden_size, embed_size, image_dim, key_dim
    return {"embed": (e, v), "lstm_w": (4 * h, e + h), "lstm_b": (4 * h,), "w_out": (v, h),
            "b_out": (v,), "w_img": (h, d), "b_img": (h,), "w_query": (k, h),
            "w_img_cell": (h, d), "b_img_cell": (h,)}


# every trainable array, in initialization and checkpoint order
PARAM_NAMES = tuple(param_shapes(1, 1, 1, 1, 1))


class CaptionModel:
    """All trainable parameters, as named views into one float64 vector, ``theta``.

    ``sizes`` is (vocab_size, hidden_size, embed_size, image_dim, key_dim),
    each also an attribute of its name. Matrices are initialized uniform in
    [-0.08, 0.08], drawn in ``PARAM_NAMES`` order; biases start at zero
    except the forget gate (1.0, for stable early training).
    """

    def __init__(self, vocab_size: int, hidden_size: int, embed_size: int, image_dim: int, key_dim: int,
                 seed: int = 0):
        sizes = (vocab_size, hidden_size, embed_size, image_dim, key_dim)
        within_budget(sum(math.prod(s) for s in param_shapes(*sizes).values()) * 8, ConfigError,
                      f"decoder: vocab_size {vocab_size}, hidden_size {hidden_size}, embed_size {embed_size}, "
                      f"image_dim {image_dim} and key_dim {key_dim}", "theta")
        self._allocate(sizes)
        rng = np.random.default_rng(seed)
        for p in self.params().values():
            if p.ndim == 2:
                p[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, p.shape)
        self.lstm_b[hidden_size:2 * hidden_size] = 1.0

    def _allocate(self, sizes: tuple[int, int, int, int, int]) -> None:
        """A zero ``theta`` laid out by ``param_shapes(*sizes)``, with its named views."""
        self.sizes = sizes
        self.vocab_size, self.hidden_size, self.embed_size, self.image_dim, self.key_dim = sizes
        shapes = param_shapes(*sizes)
        ends = np.cumsum([math.prod(s) for s in shapes.values()]).tolist()
        self._slices = {name: (a, b, s) for (name, s), a, b in zip(shapes.items(), [0] + ends, ends)}
        self.theta = np.zeros(ends[-1], dtype=FLOAT)
        self.__dict__.update(self.views(self.theta))

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """The named parts of ``vec``, a vector laid out like ``theta``
        (a gradient, an optimizer moment, a snapshot), as live views in
        ``PARAM_NAMES`` order."""
        if vec.shape != self.theta.shape:
            raise ShapeError(f"decoder: vector of shape {vec.shape} is not laid out like theta "
                             f"{self.theta.shape}")
        return {name: vec[start:end].reshape(shape) for name, (start, end, shape) in self._slices.items()}

    def copy(self) -> "CaptionModel":
        """A model with its own copy of ``theta``."""
        clone = CaptionModel.__new__(CaptionModel)
        clone._allocate(self.sizes)
        clone.theta[:] = self.theta
        return clone

    def params(self) -> dict[str, np.ndarray]:
        """Named parameter arrays (live views of ``theta``, fixed order)."""
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "CaptionModel":
        """Rebuild a model from named arrays (e.g. a loaded checkpoint),
        copied into a fresh ``theta``.

        Raises CheckpointError naming a parameter that is missing, unknown,
        shaped inconsistently with the others, or holding a non-finite entry.
        """
        for name in params:
            if name not in PARAM_NAMES:
                raise CheckpointError(f"decoder: unknown parameter {name!r}")
        for name in PARAM_NAMES:
            if name not in params:
                raise CheckpointError(f"decoder: parameter {name!r} is missing")
        # these four matrices fix the vocabulary, embedding, hidden, image and key sizes
        for name in ("embed", "w_out", "w_img", "w_query"):
            if np.ndim(params[name]) != 2:
                raise CheckpointError(f"decoder: parameter {name!r} has shape {np.shape(params[name])}, "
                                      f"expected a matrix")
        (e, v), h = np.shape(params["embed"]), np.shape(params["w_out"])[1]
        sizes = (v, h, e, np.shape(params["w_img"])[1], np.shape(params["w_query"])[0])
        for name, shape in param_shapes(*sizes).items():
            if np.shape(params[name]) != shape:
                raise CheckpointError(f"decoder: parameter {name!r} has shape {np.shape(params[name])}, "
                                      f"expected {shape}")
        model = cls.__new__(cls)
        model._allocate(sizes)
        for name, p in model.params().items():
            p[...] = params[name]
        if not np.isfinite(model.theta).all():
            bad = next(name for name, p in model.params().items() if not np.isfinite(p).all())
            raise CheckpointError(f"decoder: parameter {bad!r} has non-finite entries")
        return model


def init_state(image_feature: np.ndarray, model: CaptionModel) -> tuple[np.ndarray, np.ndarray]:
    """Image-conditioned initial state (h0, c0): h0 = tanh(W f + b) and
    c0 = tanh(W_cell f + b_cell), each through its own projection. A
    (B, image_dim) batch of features gives one state row per feature."""
    feature = np.asarray(image_feature, dtype=FLOAT)
    if feature.ndim not in (1, 2) or feature.shape[-1] != model.image_dim:
        raise ShapeError(f"decoder: image feature shape {feature.shape} != (..., {model.image_dim})")
    return (np.tanh(feature @ model.w_img.T + model.b_img),
            np.tanh(feature @ model.w_img_cell.T + model.b_img_cell))


def _halve_sigmoid_gates(a: np.ndarray) -> np.ndarray:
    """Halve in place the sigmoid gates (input, forget, output) of weights or
    pre-activations laid out (..., 4*hidden), and return ``a``. Halving is
    exact, and sigmoid(x) = (1 + tanh(x/2)) / 2, so ``_cell`` activates all
    four gates with one tanh."""
    a[..., :3 * (a.shape[-1] // 4)] *= 0.5
    return a


def _gate_weights(model: CaptionModel) -> tuple[np.ndarray, np.ndarray]:
    """The gate weights both passes read, halved as ``_cell`` takes them:
    the (vocab_size, 4*hidden) input table, each word id's input
    pre-activations with the bias folded in, and the C-order (hidden,
    4*hidden) recurrent block."""
    e = model.embed_size
    table = model.embed.T @ model.lstm_w[:, :e].T + model.lstm_b
    return _halve_sigmoid_gates(table), _halve_sigmoid_gates(np.ascontiguousarray(model.lstm_w[:, e:].T))


def _cell(gates: np.ndarray, ig: np.ndarray):
    """The LSTM step that teacher forcing and greedy decoding both take, over
    one gate buffer ``gates`` (..., 4*hidden) whose views are taken once. The
    returned ``step(z, c_prev, c, c_tanh, h)`` activates the pre-activations
    ``z``, sigmoid gates halved by ``_halve_sigmoid_gates``, into ``gates``,
    forms i*g in ``ig`` (..., hidden), and writes c = f*c_prev + i*g into
    ``c``, tanh(c) into ``c_tanh`` and h = o*tanh(c) into ``h`` (which may be
    ``c_tanh``); it returns ``c``."""
    nh = gates.shape[-1] // 4
    sig, (i, f, o, g) = gates[..., :3 * nh], (gates[..., k * nh:(k + 1) * nh] for k in range(4))

    def step(z: np.ndarray, c_prev: np.ndarray, c: np.ndarray, c_tanh: np.ndarray, h: np.ndarray) -> np.ndarray:
        np.tanh(z, gates)
        np.add(sig, 1.0, sig)
        np.multiply(sig, 0.5, sig)
        np.multiply(i, g, ig)
        np.multiply(f, c_prev, c)
        np.add(c, ig, c)
        np.tanh(c, c_tanh)
        np.multiply(o, c_tanh, h)
        return c
    return step


def _check_cell(c: np.ndarray) -> None:
    if not (np.abs(c) < CELL_SANITY_BOUND).all():  # NaN fails the comparison too
        raise NumericError("decoder: LSTM cell state left its sane range")


@dataclass
class ForwardCache:
    """What one teacher-forced pass over a batch computed, with the ids and
    features the backward reads. Arrays are time-major: row [t, b] is
    position t of sequence b, and positions at or past a sequence's length
    are <PAD> padding. No loss or gradient reads ``lengths``; it stays to
    count the real rows a pass stepped."""

    input_ids: np.ndarray  # (T, B): <GO>, then the targets shifted by one
    lengths: np.ndarray  # (B,) real positions per sequence, after truncation
    features: np.ndarray  # (B, image_dim)
    h: np.ndarray  # (T+1, B, hidden); h[0] is the image-derived h0
    c: np.ndarray  # (T+1, B, hidden); c[0] is the image-derived c0
    gates: np.ndarray  # (T, B, 4*hidden) activated, in lstm_w's gate order
    c_tanh: np.ndarray  # (T, B, hidden)
    logits: np.ndarray  # (T, B, vocab_size)

    @property
    def steps(self) -> range:
        """The time steps walked; each updates every sequence of the batch."""
        return range(len(self.logits))

    @property
    def hiddens(self) -> np.ndarray:
        """(T, B, hidden) pre-step hidden state of each position (the query inputs)."""
        return self.h[:-1]


def pad_sequences(seqs: list[list[int]], go_id: int, pad_id: int,
                  max_steps: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forcing arrays of sequences: (inputs, targets, lengths).

    ``targets`` is (L, N), time-major: column n is sequence n, truncated at
    max_steps (with a warning) and padded with <PAD> to the longest.
    ``inputs`` is <GO>, then the targets shifted by one, with <PAD> from the
    sequence's length on. ``lengths`` (N,) counts the real positions.
    """
    lengths = np.array([len(seq) for seq in seqs], dtype=np.intp)
    if lengths.size == 0 or not lengths.all():
        raise DomainError("decoder: cannot teacher-force an empty batch or sequence")
    if max_steps is not None and np.any(lengths > max_steps):
        if max_steps < 1:
            raise DomainError("decoder: cannot teacher-force with max_steps < 1")
        for n in lengths[lengths > max_steps]:
            log.warning("decoder: sequence of %d steps truncated to %d", n, max_steps)
        lengths = np.minimum(lengths, max_steps)
    targets = np.full((int(lengths.max()), len(seqs)), pad_id, dtype=np.intp)
    inputs = np.full_like(targets, pad_id)
    inputs[0] = go_id
    for b, (seq, n) in enumerate(zip(seqs, lengths)):
        targets[:n, b] = seq[:n]
        inputs[1:n, b] = seq[:n - 1]
    return inputs, targets, lengths


def forward_teacher_forced(input_ids: np.ndarray, lengths: np.ndarray, features: np.ndarray,
                           model: CaptionModel) -> ForwardCache:
    """Run the decoder with ground-truth inputs over a padded, time-major batch.

    ``input_ids`` is (T, B) as ``pad_sequences`` lays it out, ``lengths``
    (B,) the real positions and ``features`` (B, image_dim): the input at
    position t is the target at t-1, so the logits at position t predict
    the target at t, which the caller scores. The input pre-activations of
    every position are rows of the gate table that greedy decoding reads;
    each time step is one (B, 4*hidden) gate product.
    """
    n_steps, batch = input_ids.shape
    h0, c0 = init_state(features, model)
    if h0.shape != (batch, model.hidden_size):
        raise ShapeError(f"decoder: image features of shape {np.shape(features)} for {batch} sequences")
    nh = model.hidden_size
    table, w_h = _gate_weights(model)
    zx = table[input_ids]
    h = np.empty((n_steps + 1, batch, nh), dtype=FLOAT)
    c = np.empty_like(h)
    c_tanh = np.empty((n_steps, batch, nh), dtype=FLOAT)
    gates = np.empty_like(zx)
    ig = np.empty_like(h0)
    h[0], c[0] = h0, c0
    for t in range(n_steps):
        _cell(gates[t], ig)(zx[t] + h[t] @ w_h, c[t], c[t + 1], c_tanh[t], h[t + 1])
    _check_cell(c[1:][np.arange(n_steps)[:, None] < lengths])  # padding is never checked
    logits = (h[1:].reshape(-1, nh) @ model.w_out.T + model.b_out).reshape(n_steps, batch, -1)
    return ForwardCache(input_ids=input_ids, lengths=lengths, features=np.asarray(features, dtype=FLOAT),
                        h=h, c=c, gates=gates, c_tanh=c_tanh, logits=logits)


def sequence_loss(logits: np.ndarray, targets, pad_id: int) -> tuple[float, np.ndarray]:
    """Sum of the cross-entropies at every position whose target is not <PAD>.

    ``logits`` is (..., vocab_size) over the positions of ``targets``: a
    sequence (T,) or a time-major batch (T, B). Returns the scalar loss and
    dloss/dlogits with zero rows at skipped positions.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if logits.shape[:-1] != targets.shape:
        raise ShapeError(f"decoder: logits of shape {logits.shape} for targets of shape {targets.shape}")
    real = targets != pad_id
    dlogits = np.zeros_like(logits)
    loss, dlogits[real] = cross_entropy(logits[real], targets[real])
    return loss, dlogits


def backward_pass(model: CaptionModel, cache: ForwardCache, dlogits: np.ndarray,
                  dq: np.ndarray) -> np.ndarray:
    """Backpropagation through time over a batch.

    ``dlogits`` (T, B, vocab_size) and ``dq`` (T, B, key_dim), the memory
    loss gradient w.r.t. the query at each position (zero where nothing
    was read), come scaled as the loss is. The per-step local derivatives
    are computed for all steps at once, one (B, 4*hidden) product per step
    carries the gradient back, and each weight gradient is one product
    over all T*B rows. Padded positions receive exactly zero gradient.
    Returns the gradient as one vector laid out like ``model.theta``.
    """
    n_steps, batch, nh = cache.c_tanh.shape
    e = model.embed_size

    def rows(a):
        return a.reshape(n_steps * batch, -1)

    # gradient reaching each hidden state from outside the recurrence: the
    # logits read h after step t, the memory query reads h before it
    dh_in = np.zeros_like(cache.h)
    dh_in[1:] = dlogits @ model.w_out
    dh_in[:-1] += dq @ model.w_query
    gates = cache.gates.reshape(n_steps, batch, 4, nh)
    i, f, o, g = (gates[:, :, k] for k in range(4))
    # dz = [dc, dc, dh, dc] * local, gate by gate, with dc the total cell gradient and
    # local = [g*i * (1-i), c_prev*f * (1-f), c_tanh*o * (1-o), (1-g*g) * i]: two products
    # over all four gates, the second by 1 - gates with i in the candidate's place
    local = np.empty_like(gates)
    for k, factor in enumerate((g, cache.c[:-1], cache.c_tanh, g)):
        local[:, :, k] = factor
    local *= gates
    np.subtract(1.0, local[:, :, 3], out=local[:, :, 3])
    one_minus = np.subtract(1.0, gates)
    one_minus[:, :, 3] = i
    local *= one_minus
    o_dtanh = o * (1.0 - cache.c_tanh ** 2)
    w_h = model.lstm_w[:, e:]
    dz = np.empty((n_steps, batch, 4, nh), dtype=FLOAT)
    dh = dh_in[n_steps]
    dc = np.zeros((batch, nh), dtype=FLOAT)
    for t in range(n_steps - 1, -1, -1):
        dc += dh * o_dtanh[t]
        np.multiply(local[t], dc[:, None, :], out=dz[t])
        np.multiply(local[t, :, 2], dh, out=dz[t, :, 2])
        dc *= f[t]
        dh = dz[t].reshape(batch, 4 * nh) @ w_h + dh_in[t]
    dz = rows(dz)
    grad = np.empty_like(model.theta)  # every view is written below
    g = model.views(grad)
    one_hot = np.arange(model.vocab_size)[:, None] == cache.input_ids.ravel()
    g["embed"].T[...] = one_hot @ (dz @ model.lstm_w[:, :e])
    g["lstm_w"][:, :e] = dz.T @ model.embed.T[cache.input_ids.ravel()]
    g["lstm_w"][:, e:] = dz.T @ rows(cache.hiddens)
    g["lstm_b"][...] = dz.sum(axis=0)
    g["w_out"][...] = rows(dlogits).T @ rows(cache.h[1:])
    g["b_out"][...] = rows(dlogits).sum(axis=0)
    dz0 = dh * (1.0 - cache.h[0] ** 2)
    g["w_img"][...] = dz0.T @ cache.features
    g["b_img"][...] = dz0.sum(axis=0)
    g["w_query"][...] = rows(dq).T @ rows(cache.hiddens)
    dzc = dc * (1.0 - cache.c[0] ** 2)
    g["w_img_cell"][...] = dzc.T @ cache.features
    g["b_img_cell"][...] = dzc.sum(axis=0)
    return grad


@dataclass(frozen=True)
class DecodeSnapshot:
    """What greedy decoding reads, taken from a model once: a copy of its
    weights, and its gate weights as ``_gate_weights`` lays them out for
    the teacher-forced pass too."""

    weights: CaptionModel  # the image and query projections are read from this copy
    gate_table: np.ndarray  # (vocab_size, 4*hidden): each word id's input pre-activations, bias folded in
    w_h: np.ndarray  # (hidden, 4*hidden) recurrent weights
    w_out_t: np.ndarray  # (hidden, vocab_size)

    @classmethod
    def of(cls, model: CaptionModel) -> "DecodeSnapshot":
        weights = model.copy()
        return cls(weights, *_gate_weights(weights), np.ascontiguousarray(weights.w_out.T))


@dataclass
class DecodeTrace:
    """Greedy decode output: ids, the pre-step hidden state of each emission
    (one row per id, a view of the decode's state buffer), and where
    placeholders were emitted."""

    ids: list[int]
    hiddens: np.ndarray
    placeholder_positions: list[int]


def decode_greedy(image_feature: np.ndarray, snapshot: DecodeSnapshot, go_id: int, eos_id: int,
                  placeholder_id: int, max_steps: int) -> DecodeTrace:
    """Argmax decoding; the emitted token (placeholder included) feeds the
    next step. Ties break toward the lowest token id. Stops after <EOS>
    or max_steps emissions. A step is one gate-table row, one recurrent
    product, the LSTM step that teacher forcing takes too and one output
    product, each written into buffers allocated once per decode, and the
    gate views are taken once. The cell states are range-checked once,
    after the last step.
    """
    if np.ndim(image_feature) != 1:
        raise ShapeError(f"decoder: greedy decoding takes one image feature, got shape {np.shape(image_feature)}")
    table, w_h, w_out_t, b_out = snapshot.gate_table, snapshot.w_h, snapshot.w_out_t, snapshot.weights.b_out
    nh = w_h.shape[0]
    h = np.empty((max_steps + 1, nh), dtype=FLOAT)  # h[t] is the state step t reads
    c = np.empty((max_steps, nh), dtype=FLOAT)  # c[t] is the state step t writes
    h[0], c_prev = init_state(image_feature, snapshot.weights)
    z, gates, logits = np.empty(4 * nh, dtype=FLOAT), np.empty(4 * nh, dtype=FLOAT), np.empty_like(b_out)
    step = _cell(gates, np.empty(nh, dtype=FLOAT))
    ids = []
    tok = go_id
    for h_t, h_next, c_t in zip(h, h[1:], c):
        np.dot(h_t, w_h, z)
        z += table[tok]
        c_prev = step(z, c_prev, c_t, h_next, h_next)  # h_next holds tanh(c), then o*tanh(c)
        np.dot(h_next, w_out_t, logits)
        logits += b_out
        tok = int(logits.argmax())
        ids.append(tok)
        if tok == eos_id:
            break
    _check_cell(c[:len(ids)])
    return DecodeTrace(ids=ids, hiddens=h[:len(ids)],
                       placeholder_positions=[pos for pos, t in enumerate(ids) if t == placeholder_id])

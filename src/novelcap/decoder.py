"""Placeholder-emitting LSTM caption decoder with hand-derived gradients.

The trainable model is a single-layer LSTM over learned word embeddings,
an output projection onto the vocabulary, two image projections that
seed the initial hidden and cell states, and the linear transform that
turns hidden states into object-memory queries. There is no autodiff
graph: every layer carries a matching backward function, and
backpropagation through time walks the cached steps in reverse.

Shape conventions (all float64):
    embed    (embed_size, vocab_size)    column per word id
    lstm_w   (4*hidden, embed+hidden)    gate order [input, forget, output, candidate]
    lstm_b   (4*hidden,)                 forget-gate block initialized to 1.0
    w_out    (vocab_size, hidden)        b_out (vocab_size,)
    w_img    (hidden, image_dim)         b_img (hidden,)
    w_query  (key_dim, hidden)
    w_img_cell (hidden, image_dim)       b_img_cell (hidden,)
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, DomainError, NumericError, ShapeError
from .numerics import FLOAT, cross_entropy

log = logging.getLogger(__name__)

INIT_SCALE = 0.08
CELL_SANITY_BOUND = 50.0
# every trainable array, in initialization and checkpoint order
PARAM_NAMES = ("embed", "lstm_w", "lstm_b", "w_out", "b_out", "w_img", "b_img", "w_query",
               "w_img_cell", "b_img_cell")


def _sigmoid(x):
    # tanh form avoids exp overflow on large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class LstmState:
    """Hidden and cell vectors carried between decoder steps."""

    h: np.ndarray
    c: np.ndarray

    def copy(self) -> "LstmState":
        return LstmState(self.h.copy(), self.c.copy())


class CaptionModel:
    """All trainable parameters, initialized uniform in [-0.08, 0.08].

    Biases start at zero except the forget gate (1.0, for stable early
    training).
    """

    def __init__(self, vocab_size: int, hidden_size: int = 64, embed_size: int = 64,
                 image_dim: int = 32, key_dim: int = 32, seed: int = 0):
        rng = np.random.default_rng(seed)

        def u(*shape):
            return rng.uniform(-INIT_SCALE, INIT_SCALE, shape).astype(FLOAT)

        self.embed = u(embed_size, vocab_size)
        self.lstm_w = u(4 * hidden_size, embed_size + hidden_size)
        self.lstm_b = np.zeros(4 * hidden_size, dtype=FLOAT)
        self.lstm_b[hidden_size:2 * hidden_size] = 1.0
        self.w_out = u(vocab_size, hidden_size)
        self.b_out = np.zeros(vocab_size, dtype=FLOAT)
        self.w_img = u(hidden_size, image_dim)
        self.b_img = np.zeros(hidden_size, dtype=FLOAT)
        self.w_query = u(key_dim, hidden_size)
        self.w_img_cell = u(hidden_size, image_dim)
        self.b_img_cell = np.zeros(hidden_size, dtype=FLOAT)

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[1]

    @property
    def embed_size(self) -> int:
        return self.embed.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_out.shape[1]

    @property
    def image_dim(self) -> int:
        return self.w_img.shape[1]

    @property
    def key_dim(self) -> int:
        return self.w_query.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        """Named parameter arrays (live views, fixed order)."""
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "CaptionModel":
        """Rebuild a model from named arrays (e.g. a loaded checkpoint).

        Raises CheckpointError naming a parameter that is missing, unknown,
        or shaped inconsistently with the others.
        """
        expected = _expected_shapes(params)
        for name in params:
            if name not in expected:
                raise CheckpointError(f"decoder: unknown parameter {name!r}")
        for name in PARAM_NAMES:
            if name not in params:
                raise CheckpointError(f"decoder: parameter {name!r} is missing")
        for name, arr in params.items():
            if np.shape(arr) != expected[name]:
                raise CheckpointError(f"decoder: parameter {name!r} has shape {np.shape(arr)}, "
                                      f"expected {expected[name]}")
        model = cls.__new__(cls)
        for name in PARAM_NAMES:
            setattr(model, name, np.asarray(params[name], dtype=FLOAT))
        return model


def _expected_shapes(params: dict[str, np.ndarray]) -> dict[str, tuple[int, ...]]:
    """The shape of every known parameter, implied by the four matrices
    that fix the vocabulary, embedding, hidden, image and key sizes."""
    for name in ("embed", "w_out", "w_img", "w_query"):
        if name not in params:
            raise CheckpointError(f"decoder: parameter {name!r} is missing")
        if np.ndim(params[name]) != 2:
            raise CheckpointError(f"decoder: parameter {name!r} has shape {np.shape(params[name])}, "
                                  f"expected a matrix")
    e, v = np.shape(params["embed"])
    h = np.shape(params["w_out"])[1]
    d = np.shape(params["w_img"])[1]
    k = np.shape(params["w_query"])[0]
    return {"embed": (e, v), "lstm_w": (4 * h, e + h), "lstm_b": (4 * h,), "w_out": (v, h),
            "b_out": (v,), "w_img": (h, d), "b_img": (h,), "w_query": (k, h),
            "w_img_cell": (h, d), "b_img_cell": (h,)}


def init_state(image_feature: np.ndarray, model: CaptionModel) -> LstmState:
    """Image-conditioned initial state: h0 = tanh(W f + b) and
    c0 = tanh(W_cell f + b_cell), each through its own projection."""
    feature = np.asarray(image_feature, dtype=FLOAT)
    if feature.shape != (model.image_dim,):
        raise ShapeError(f"decoder: image feature shape {feature.shape} != ({model.image_dim},)")
    return LstmState(h=np.tanh(model.w_img @ feature + model.b_img),
                     c=np.tanh(model.w_img_cell @ feature + model.b_img_cell))


@dataclass
class StepCache:
    """Per-step activations kept for backpropagation through time."""

    xh: np.ndarray
    gate_i: np.ndarray
    gate_f: np.ndarray
    gate_o: np.ndarray
    gate_g: np.ndarray
    c_prev: np.ndarray
    c_tanh: np.ndarray


def lstm_step(x: np.ndarray, state: LstmState, lstm_w: np.ndarray,
              lstm_b: np.ndarray) -> tuple[LstmState, StepCache]:
    """One LSTM cell update: c = f*c_prev + i*g, h = o*tanh(c)."""
    nh = state.h.shape[0]
    xh = np.concatenate([x, state.h])
    if lstm_w.shape[1] != xh.shape[0]:
        raise ShapeError(f"decoder: lstm weights {lstm_w.shape} do not accept input of {xh.shape[0]}")
    z = lstm_w @ xh + lstm_b
    i = _sigmoid(z[:nh])
    f = _sigmoid(z[nh:2 * nh])
    o = _sigmoid(z[2 * nh:3 * nh])
    g = np.tanh(z[3 * nh:])
    c = f * state.c + i * g
    if not np.all(np.isfinite(c)) or np.any(np.abs(c) >= CELL_SANITY_BOUND):
        raise NumericError("decoder: LSTM cell state left its sane range")
    ct = np.tanh(c)
    h = o * ct
    cache = StepCache(xh=xh, gate_i=i, gate_f=f, gate_o=o, gate_g=g, c_prev=state.c, c_tanh=ct)
    return LstmState(h=h, c=c), cache


def lstm_step_backward(lstm_w: np.ndarray, cache: StepCache, dh: np.ndarray, dc: np.ndarray,
                       embed_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward through one cell update.

    Given gradients w.r.t. the step's outputs (dh, dc), returns
    (dx, dh_prev, dc_prev, d_lstm_w, d_lstm_b).
    """
    i, f, o, g = cache.gate_i, cache.gate_f, cache.gate_o, cache.gate_g
    do = dh * cache.c_tanh
    dc_total = dc + dh * o * (1.0 - cache.c_tanh ** 2)
    di = dc_total * g
    df = dc_total * cache.c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate([di * i * (1.0 - i),
                         df * f * (1.0 - f),
                         do * o * (1.0 - o),
                         dg * (1.0 - g ** 2)])
    d_w = np.outer(dz, cache.xh)
    d_b = dz
    dxh = lstm_w.T @ dz
    return dxh[:embed_size], dxh[embed_size:], dc_prev, d_w, d_b


@dataclass
class ForwardCache:
    """Everything one teacher-forced pass records for loss and backward."""

    input_ids: list[int]
    targets: list[int]
    feature: np.ndarray
    h_states: list[np.ndarray]  # length T+1; h_states[0] is the image-derived h0
    c0: np.ndarray
    steps: list[StepCache]
    logits: np.ndarray  # (T, vocab_size)
    truncated: bool = False

    @property
    def hiddens(self) -> list[np.ndarray]:
        """Pre-step hidden state for each output position (the query inputs)."""
        return self.h_states[:-1]


def forward_teacher_forced(targets: list[int], image_feature: np.ndarray, model: CaptionModel,
                           go_id: int, max_steps: int | None = None) -> ForwardCache:
    """Run the decoder with ground-truth inputs.

    The input at position t is the target at t-1 (position 0 consumes
    <GO>); the logits at position t predict targets[t]. Sequences longer
    than max_steps are truncated with a warning.
    """
    if len(targets) == 0:
        raise DomainError("decoder: cannot teacher-force an empty sequence")
    truncated = False
    if max_steps is not None and len(targets) > max_steps:
        if max_steps < 1:
            raise DomainError("decoder: cannot teacher-force with max_steps < 1")
        log.warning("decoder: sequence of %d steps truncated to %d", len(targets), max_steps)
        targets = targets[:max_steps]
        truncated = True
    input_ids = [go_id] + list(targets[:-1])
    state = init_state(image_feature, model)
    c0 = state.c
    h_states = [state.h]
    steps: list[StepCache] = []
    logits = np.empty((len(targets), model.vocab_size), dtype=FLOAT)
    for t, tok in enumerate(input_ids):
        x = model.embed[:, tok]
        state, cache = lstm_step(x, state, model.lstm_w, model.lstm_b)
        steps.append(cache)
        h_states.append(state.h)
        logits[t] = model.w_out @ state.h + model.b_out
    return ForwardCache(input_ids=input_ids, targets=list(targets),
                        feature=np.asarray(image_feature, dtype=FLOAT), h_states=h_states,
                        c0=c0, steps=steps, logits=logits, truncated=truncated)


def sequence_loss(logits: np.ndarray, targets: list[int], pad_id: int) -> tuple[float, np.ndarray]:
    """Sum of per-step cross-entropies, skipping <PAD> positions.

    Returns the scalar loss and dloss/dlogits with zero rows at skipped
    steps.
    """
    if logits.shape[0] != len(targets):
        raise ShapeError(f"decoder: {logits.shape[0]} logit rows for {len(targets)} targets")
    total = 0.0
    dlogits = np.zeros_like(logits)
    for t, tok in enumerate(targets):
        if tok == pad_id:
            continue
        loss, grad = cross_entropy(logits[t], tok)
        total += loss
        dlogits[t] = grad
    return total, dlogits


def backward_pass(model: CaptionModel, cache: ForwardCache, dlogits: np.ndarray,
                  dq_by_step: dict[int, np.ndarray] | None = None,
                  grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Backpropagation through time for one example.

    ``dq_by_step`` carries memory-loss gradients w.r.t. the query vector
    at each masked position; they feed the query transform and flow back
    into the hidden state that produced them. Gradients accumulate into
    ``grads`` (a fresh dict if not given).
    """
    if grads is None:
        grads = model.zero_grads()
    dq_by_step = dq_by_step or {}
    t_steps = len(cache.steps)
    dh = np.zeros(model.hidden_size, dtype=FLOAT)
    dc = np.zeros(model.hidden_size, dtype=FLOAT)
    for t in range(t_steps - 1, -1, -1):
        dlog = dlogits[t]
        grads["w_out"] += np.outer(dlog, cache.h_states[t + 1])
        grads["b_out"] += dlog
        dh += model.w_out.T @ dlog
        dx, dh_prev, dc_prev, d_w, d_b = lstm_step_backward(
            model.lstm_w, cache.steps[t], dh, dc, model.embed_size)
        grads["lstm_w"] += d_w
        grads["lstm_b"] += d_b
        dq = dq_by_step.get(t)
        if dq is not None:
            grads["w_query"] += np.outer(dq, cache.h_states[t])
            dh_prev = dh_prev + model.w_query.T @ dq
        grads["embed"][:, cache.input_ids[t]] += dx
        dh, dc = dh_prev, dc_prev
    h0 = cache.h_states[0]
    dz0 = dh * (1.0 - h0 ** 2)
    grads["w_img"] += np.outer(dz0, cache.feature)
    grads["b_img"] += dz0
    dzc = dc * (1.0 - cache.c0 ** 2)
    grads["w_img_cell"] += np.outer(dzc, cache.feature)
    grads["b_img_cell"] += dzc
    return grads


@dataclass
class DecodeTrace:
    """Greedy decode output: ids, the pre-step hidden per emission, and
    where placeholders were emitted."""

    ids: list[int]
    hiddens: list[np.ndarray]
    placeholder_positions: list[int]


def decode_greedy(image_feature: np.ndarray, model: CaptionModel, go_id: int, eos_id: int,
                  placeholder_id: int, max_steps: int) -> DecodeTrace:
    """Argmax decoding; the emitted token (placeholder included) feeds the
    next step. Ties break toward the lowest token id. Stops after <EOS>
    or max_steps emissions."""
    state = init_state(image_feature, model)
    ids: list[int] = []
    hiddens: list[np.ndarray] = []
    placeholder_positions: list[int] = []
    tok = go_id
    for _ in range(max_steps):
        hiddens.append(state.h)
        x = model.embed[:, tok]
        state, _ = lstm_step(x, state, model.lstm_w, model.lstm_b)
        logits = model.w_out @ state.h + model.b_out
        tok = int(np.argmax(logits))
        if tok == placeholder_id:
            placeholder_positions.append(len(ids))
        ids.append(tok)
        if tok == eos_id:
            break
    return DecodeTrace(ids=ids, hiddens=hiddens, placeholder_positions=placeholder_positions)

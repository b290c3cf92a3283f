"""Dense numerics used by every trainable component.

All training math runs in float64 so the finite-difference gradient
checks can hold a 1e-4 relative tolerance. Matrices are plain numpy
arrays; gradients are hand-derived by the callers and verified here
with ``finite_diff_check``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ShapeError

FLOAT = np.float64

# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; an entry of -inf gets weight zero."""
    x = np.asarray(x, dtype=FLOAT)
    if x.shape[-1:] in ((), (0,)):
        raise DomainError("numerics: softmax of an empty vector")
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))  # ufunc reductions skip ndarray.max/sum's wrappers
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Summed softmax cross-entropy of rows (n, classes) against n int
    ``targets``, and its gradient w.r.t. the logits.

    loss = -log softmax(logits)[target] per row, computed via logsumexp so
    saturated logits do not overflow. gradient = softmax(logits) - onehot.
    """
    logits = np.asarray(logits, dtype=FLOAT)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != logits.shape[:1]:
        raise ShapeError(f"numerics: cross_entropy logits {logits.shape} are not one row per target {targets.shape}")
    if np.any((targets < 0) | (targets >= logits.shape[1])):
        raise DomainError(f"numerics: cross_entropy target out of range for {logits.shape[1]} classes")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    picked = np.arange(len(logits)), targets
    loss = float(np.sum(m[:, 0] + np.log(total[:, 0]) - logits[picked]))
    grad = e / total
    grad[picked] -= 1.0
    return loss, grad


@dataclass
class AdamState:
    """Per-parameter Adam buffers, learning rate and weight decay.

    ``weight_decay`` is classic L2: it is added to the gradient before
    the moment updates, not applied decoupled.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    weight_decay: float = 0.0
    work: np.ndarray = field(init=False, repr=False, compare=False)  # a step's full-size temporaries

    def __post_init__(self):
        self.work = np.empty((3,) + self.m.shape, dtype=FLOAT)

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3, weight_decay: float = 0.0) -> "AdamState":
        return cls(m=np.zeros_like(param, dtype=FLOAT), v=np.zeros_like(param, dtype=FLOAT),
                   step=0, lr=lr, weight_decay=weight_decay)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update, in place on ``param``, ``state`` and ``state.work``.

    Both bias corrections are folded into the step size lr*sqrt(1-b2^t)/(1-b1^t)
    and the guard eps*sqrt(1-b2^t) (Kingma & Ba 2015, section 2), so no pass
    forms m_hat or v_hat. Squares cannot cancel, so a non-finite entry makes
    param . param non-finite and is refused at the step that made it (as is
    an entry past 1e154, whose square overflows).
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"numerics: adam_step shapes disagree: param {param.shape}, grad {grad.shape}, state {state.m.shape}")
    state.step += 1
    a, b, g = state.work
    if state.weight_decay != 0.0:
        grad = np.add(grad, np.multiply(state.weight_decay, param, out=g), out=g)
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
    state.v *= ADAM_BETA2
    state.v += np.multiply(1.0 - ADAM_BETA2, np.multiply(grad, grad, out=a), out=a)
    root = math.sqrt(1.0 - ADAM_BETA2 ** state.step)
    denom = np.add(np.sqrt(state.v, out=b), ADAM_EPS * root, out=b)
    param -= np.divide(np.multiply(state.lr * root / (1.0 - ADAM_BETA1 ** state.step), state.m, out=a),
                       denom, out=a)
    if not math.isfinite(np.vdot(param, param)):
        raise NumericError("numerics: adam_step produced non-finite parameter entries")
    return param, state


def finite_diff_check(loss_fn, params: dict[str, np.ndarray],
                      analytic_grads: dict[str, np.ndarray], h: float = 1e-5) -> float:
    """Compare analytic gradients against central differences.

    ``loss_fn(params) -> float`` must be deterministic. Each entry of each
    array in ``params`` is perturbed in place by +/- h; the relative error
    per entry is |g_a - g_n| / max(1e-8, |g_a| + |g_n|). Returns the worst
    entry over all parameters.
    """
    if h <= 0:
        raise DomainError("numerics: finite_diff_check requires h > 0")
    worst = 0.0
    for name, p in params.items():
        g_analytic = analytic_grads[name]
        if g_analytic.shape != p.shape:
            raise ShapeError(f"numerics: gradient shape {g_analytic.shape} != param shape {p.shape} for '{name}'")
        flat = p.reshape(-1)
        g_flat = g_analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"numerics: non-finite loss while probing '{name}'[{i}]")
            g_numeric = (up - down) / (2.0 * h)
            err = abs(g_flat[i] - g_numeric) / max(1e-8, abs(g_flat[i]) + abs(g_numeric))
            if err > worst:
                worst = err
    return worst

"""Verify the hand-derived gradients against finite differences.

Sets up a tiny model, computes the joint loss (sequence + memory) and its
analytic gradients, then probes every parameter entry with central
differences. All parameter groups should agree to better than 1e-4.

Run: python demos/02_gradient_check.py
"""

import time

import numpy as np

from novelcap.decoder import CaptionModel
from novelcap.memory import Detections
from novelcap.numerics import finite_diff_check
from novelcap.pipeline import example_losses, joint_loss
from novelcap.vocabulary import build_vocabulary, intersect_detectable

rng = np.random.default_rng(3)

sentences = [["a", "dog", "sees", "cake"], ["a", "cake", "sees", "dog"]]
vocab = build_vocabulary(sentences)
det_map = intersect_detectable(vocab, ["dog", "cake", "zebra"])

model = CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=11)
# O(1) weights keep every gradient entry well above the finite-difference
# noise floor
for p in model.params().values():
    p[...] = rng.uniform(-0.6, 0.6, p.shape)

feature = rng.normal(size=7)
targets = vocab.encode(["a", "dog", "sees", "cake"])
# three detections, features drawn row by row
detections = Detections([rng.normal(size=6) for _ in range(3)], [0, 1, 2], [0.9, 0.8, 0.7])

kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)
loss_seq, loss_mem, grad = example_losses(model, feature, targets, detections, det_map, **kw)
grads = model.views(grad)  # the gradient vector, named like model.params()
print(f"sequence loss {loss_seq:.4f}, memory loss {loss_mem:.4f}")

t0 = time.time()
print(f"{'parameter':12s} {'shape':>10s} {'max rel err':>12s}")
for name, param in model.params().items():
    err = finite_diff_check(lambda _p: joint_loss(model, feature, targets, detections, det_map, **kw),
                            {name: param}, {name: grads[name]}, h=1e-5)
    status = "ok" if err < 1e-4 else "MISMATCH"
    print(f"{name:12s} {str(param.shape):>10s} {err:12.3e}  {status}")
print(f"\nchecked every entry in {time.time() - t0:.2f}s")

"""Walk through the key-value object memory by hand.

Builds a three-slot memory from fake detections, reads it with a few
queries, and shows how the addressing weights move probability mass
between class labels.

Run: python demos/01_memory_addressing.py
"""

import numpy as np

from novelcap.memory import Detections, ObjectMemory, memory_read, select_top_detections

rng = np.random.default_rng(0)

# An image's detections as one table, one row each: two study subjects
# and one low-confidence distractor.
detections = Detections(features=[[2.0, 0.0, 0.0],    # "dog"
                                  [0.0, 2.0, 0.0],    # "cake"
                                  [0.0, 0.0, 2.0]],   # distractor
                        labels=[0, 1, 2],
                        scores=[0.95, 0.90, 0.55])
names = ["dog", "cake", "chair"]

print("top-2 selection keeps the highest-confidence detections:")
top = select_top_detections(detections, 2)
for label, score in zip(top.labels.tolist(), top.scores.tolist()):
    print(f"  label={names[label]} score={score}")

mem = ObjectMemory(key_dim=3, n_classes=3).write([detections])  # one image: one row, a slot per detection
print(f"\nmemory holds {mem.n} slots")

print("\nreads with increasingly dog-like queries:")
for alpha in (0.0, 0.5, 1.0, 2.0):
    q = np.array([alpha, 1.0 - min(alpha, 1.0), 0.0])
    [row] = memory_read(q[None], mem)  # a block of one query, one class distribution
    dist = ", ".join(f"{names[c]}={p:.3f}" for c, p in enumerate(row))
    print(f"  q={q} -> argmax={names[row.argmax()]:5s}  ({dist})")

print("\nslot order never matters (content-based addressing):")
shuffled = ObjectMemory(key_dim=3, n_classes=3).write([detections.take([2, 1, 0])])
q = rng.normal(size=(1, 3))
a = memory_read(q, mem)
b = memory_read(q, shuffled)
print(f"  max |difference| = {np.max(np.abs(a - b)):.2e}")

"""Walk through the key-value object memory by hand.

Builds a three-slot memory from fake detections, reads it with a few
queries, and shows how the addressing weights move probability mass
between class labels.

Run: python demos/01_memory_addressing.py
"""

import numpy as np

from novelcap.memory import Detection, Detections, ObjectMemory, memory_read, select_top_detections

rng = np.random.default_rng(0)

# Three detections: two study subjects and one low-confidence distractor.
detections = [
    Detection(feature=np.array([2.0, 0.0, 0.0]), label=0, score=0.95),   # "dog"
    Detection(feature=np.array([0.0, 2.0, 0.0]), label=1, score=0.90),   # "cake"
    Detection(feature=np.array([0.0, 0.0, 2.0]), label=2, score=0.55),   # distractor
]
names = ["dog", "cake", "chair"]

print("top-2 selection keeps the highest-confidence detections:")
top = select_top_detections(Detections.of(detections), 2)  # an image's detections as one table
for label, score in zip(top.labels.tolist(), top.scores.tolist()):
    print(f"  label={names[label]} score={score}")

mem = ObjectMemory(capacity=4, key_dim=3, n_classes=3)
for det in detections:
    mem.write(det)
print(f"\nmemory holds {mem.n} slots")

print("\nreads with increasingly dog-like queries:")
for alpha in (0.0, 0.5, 1.0, 2.0):
    q = np.array([alpha, 1.0 - min(alpha, 1.0), 0.0])
    result, _ = memory_read(q, mem)
    dist = ", ".join(f"{names[c]}={p:.3f}" for c, p in enumerate(result.distribution))
    print(f"  q={q} -> argmax={names[result.argmax_class]:5s}  ({dist})")

print("\nslot order never matters (content-based addressing):")
shuffled = ObjectMemory(capacity=4, key_dim=3, n_classes=3)
for det in reversed(detections):
    shuffled.write(det)
q = rng.normal(size=3)
a, _ = memory_read(q, mem)
b, _ = memory_read(q, shuffled)
print(f"  max |difference| = {np.max(np.abs(a.distribution - b.distribution)):.2e}")

"""Small end-to-end run: generate data, train briefly, caption held-out objects.

Uses a reduced corpus and epoch count so the whole script finishes in
about a minute; expect rough captions but visible placeholder filling.
The words "bus" and "zebra" are held out: no training sentence contains
them, and they can only enter captions through the detection memory.

Run: python demos/03_train_and_caption.py
"""

from novelcap.config import RunConfig
from novelcap.data import build_heldout_split, generate_synthetic, make_world
from novelcap.decoder import CaptionModel, DecodeSnapshot, decode_greedy
from novelcap.evaluation import evaluate_split
from novelcap.pipeline import make_captioner, train_model
from novelcap.vocabulary import build_vocabulary, intersect_detectable

held_out = ("bus", "zebra")
world = make_world(names=("dog", "cat", "bus", "tree", "boat", "bird", "car", "zebra"),
                   dim=16, seed=5, latent_rank=4, noise_scale=0.05,
                   distractor_score=(0.5, 0.7))
records = generate_synthetic(world, 600, objects_per_image=(1, 1))
split = build_heldout_split(records, held_out, seed=5)
vocab = build_vocabulary([ref for rec in split.train for ref in rec.references])
det_map = intersect_detectable(vocab, list(world.names))
print(f"{len(split.train)} train / {len(split.val)} val / {len(split.test)} test records")
print(f"vocabulary: {vocab.size} entries; held out: {', '.join(held_out)}")
assert all(w not in vocab.index for w in held_out)

cfg = RunConfig(hidden_size=32, embed_size=32, image_dim=16, key_dim=16,
                epochs=20, batch_size=8, lr=3e-3, weight_decay=1e-3, seed=5)
result = train_model(split, vocab, det_map, cfg, mode="dnoc",
                     log_fn=lambda line: print(" ", line))
model = CaptionModel.from_params(result.best_params)
# the decoder reads a snapshot of the weights; a captioner takes its own
# snapshot when it is made and keeps captioning with it
snapshot = DecodeSnapshot.of(model)
captioner = make_captioner(model, vocab, det_map, cfg, "dnoc")

print("\ncaptions for held-out-object test images:")
shown = 0
for rec in split.test:
    if not any(w in tok for w in held_out for tok in rec.references[0]):
        continue
    trace = decode_greedy(rec.feature, snapshot, vocab.go_id, vocab.eos_id,
                          vocab.placeholder_id, cfg.max_steps)
    raw = " ".join(vocab.word_of(i) for i in trace.ids)
    caption = captioner(rec)
    print(f"  reference : {' '.join(rec.references[0])}")
    print(f"  decoded   : {raw}")
    print(f"  filled    : {' '.join(caption.tokens)}\n")
    shown += 1
    if shown == 4:
        break

report = evaluate_split(split, captioner, known_words=[w for w in world.names if w not in held_out])
print(f"held-out average F1 {report.average_f1:.3f}, known average F1 {report.known_average_f1:.3f}")

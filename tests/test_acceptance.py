"""Acceptance gate: one test per criterion, thresholds pinned in
acceptance_config.json. The benchmark fixture trains the full system and
the no-placeholder baseline from scratch (a few minutes, CPU); every
criterion prints its own PASS line.

Run: pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from novelcap.cli import main as cli_main
from novelcap.config import RunConfig
from novelcap.data import DEFAULT_TEMPLATES, build_heldout_split, generate_synthetic, make_world
from novelcap.decoder import CaptionModel
from novelcap.evaluation import average_f1_over, evaluate_split
from novelcap.memory import Detections, ObjectMemory, memory_read
from novelcap.numerics import finite_diff_check
from novelcap.pipeline import example_losses, joint_loss, make_captioner, train_model
from novelcap.vocabulary import build_vocabulary, intersect_detectable, mask_weights, rewrite_targets

CONFIG = json.loads((Path(__file__).parent / "acceptance_config.json").read_text())
THRESH = CONFIG["thresholds"]


def report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


# ---------------------------------------------------------------------------
# The standard synthetic benchmark, trained once per session
# ---------------------------------------------------------------------------


class Benchmark:
    def __init__(self):
        spec = CONFIG["benchmark"]
        w = dict(spec["world"])
        w["present_score"] = tuple(w["present_score"])
        w["distractor_score"] = tuple(w["distractor_score"])
        t0 = time.time()
        self.world = make_world(**w)
        records = generate_synthetic(self.world, spec["n_images"],
                                     tuple(spec["objects_per_image"]))
        self.split = build_heldout_split(records, tuple(spec["held_out"]),
                                         tuple(spec["ratios"]), seed=spec["split_seed"])
        assert len(self.split.train) == spec["expected_train_records"]
        self.vocab = build_vocabulary([ref for r in self.split.train for ref in r.references])
        self.det_map = intersect_detectable(self.vocab, list(self.world.names))
        self.known = [n for n in self.world.names if n not in self.split.held_out_words]
        self.cfg = RunConfig(**spec["run"])

        dnoc = train_model(self.split, self.vocab, self.det_map, self.cfg, mode="dnoc")
        self.model = CaptionModel.from_params(dnoc.best_params)
        baseline = train_model(self.split, self.vocab, self.det_map, self.cfg,
                               mode="no-placeholder")
        self.baseline = CaptionModel.from_params(baseline.best_params)

        self.report_dnoc = self._evaluate(self.model, "dnoc")
        self.report_no_memory = self._evaluate(self.model, "no-memory")
        t_zero = time.time()
        self.report_baseline = self._evaluate(self.baseline, "no-placeholder")
        self.structural_zero_seconds = time.time() - t_zero

        t_sweep = time.time()
        self.sweep = {}
        for n_det in THRESH["sweep_values"]:
            cfg = dataclasses.replace(self.cfg, n_det=n_det)
            captioner = make_captioner(self.model, self.vocab, self.det_map, cfg, "dnoc")
            self.sweep[n_det] = average_f1_over(self.split.test, captioner,
                                                self.split.held_out_words)
        self.sweep_seconds = time.time() - t_sweep
        self.total_seconds = time.time() - t0

    def _evaluate(self, model, mode):
        captioner = make_captioner(model, self.vocab, self.det_map, self.cfg, mode)
        return evaluate_split(self.split, captioner, known_words=self.known, mode=mode)


@pytest.fixture(scope="module")
def bench():
    return Benchmark()


# ---------------------------------------------------------------------------
# 1. Gradient correctness over every parameter group
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(3)
    sentences = [["a", "dog", "sees", "cake"], ["a", "cake", "sees", "dog"]]
    vocab = build_vocabulary(sentences)
    assert vocab.size == 9
    det_map = intersect_detectable(vocab, ["dog", "cake", "zebra"])
    model = CaptionModel(vocab.size, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=11)
    # O(1) weights keep every gradient entry above the central-difference
    # noise floor; the analytic formulas are scale-independent
    for p in model.params().values():
        p[...] = rng.uniform(-0.6, 0.6, p.shape)
    assert all(p.dtype == np.float64 for p in model.params().values())

    feature = rng.normal(size=7)
    targets = vocab.encode(["a", "dog", "sees", "cake"])
    assert len(targets) == 4
    dets = Detections([rng.normal(size=6) for _ in range(3)], [0, 1, 2], [0.9, 0.8, 0.7])
    kw = dict(go_id=vocab.go_id, pad_id=vocab.pad_id, n_det=4)

    t0 = time.time()
    _, loss_mem, grad = example_losses(model, feature, targets, dets, det_map, **kw)
    grads = model.views(grad)
    assert loss_mem > 0.0  # the query/key groups must actually be exercised

    def loss_fn(_params):
        return joint_loss(model, feature, targets, dets, det_map, **kw)

    errors = {}
    for name, param in model.params().items():
        errors[name] = finite_diff_check(loss_fn, {name: param}, {name: grads[name]}, h=1e-5)
    elapsed = time.time() - t0

    expected_groups = {"embed", "lstm_w", "lstm_b", "w_out", "b_out", "w_img", "b_img",
                       "w_query", "w_img_cell", "b_img_cell"}
    assert expected_groups <= set(errors)
    tol = THRESH["gradient_tolerance"]
    assert all(err < tol for err in errors.values()), errors
    assert elapsed < THRESH["gradient_seconds"]
    worst = max(errors, key=errors.get)
    report(1, f"all {len(errors)} parameter groups < {tol} "
              f"(worst {errors[worst]:.2e} on {worst}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Structural zero for the no-placeholder baseline
# ---------------------------------------------------------------------------


def test_criterion_2_structural_zero(bench):
    rep = bench.report_baseline
    assert rep.average_f1 == 0.0
    for word in bench.split.held_out_words:
        assert rep.per_object[word].f1 == 0.0
        assert word not in bench.vocab.index  # vocabulary closure
    assert bench.structural_zero_seconds < THRESH["structural_zero_seconds"]
    report(2, f"baseline held-out F1 is exactly 0.0 for all 8 objects "
              f"(checked in {bench.structural_zero_seconds:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Ablation ordering with a 10-point gap
# ---------------------------------------------------------------------------


def test_criterion_3_ablation_ordering(bench):
    full = bench.report_dnoc.average_f1
    random_fill = bench.report_no_memory.average_f1
    assert full > random_fill > 0.0
    assert full - random_fill >= THRESH["min_gap_over_no_memory"]
    assert bench.total_seconds < THRESH["benchmark_seconds"]
    report(3, f"dnoc {full:.4f} > no-memory {random_fill:.4f} > 0, "
              f"gap {full - random_fill:.4f} >= {THRESH['min_gap_over_no_memory']}; "
              f"benchmark took {bench.total_seconds:.0f}s")


# ---------------------------------------------------------------------------
# 4. Absolute synthetic performance
# ---------------------------------------------------------------------------


def test_criterion_4_absolute_performance(bench):
    f1 = bench.report_dnoc.average_f1
    assert f1 >= THRESH["min_dnoc_heldout_f1"]
    report(4, f"dnoc held-out average F1 {f1:.4f} >= {THRESH['min_dnoc_heldout_f1']}")


# ---------------------------------------------------------------------------
# 5. Memory-capacity sweep shape
# ---------------------------------------------------------------------------


def test_criterion_5_sweep_shape(bench):
    sweep = bench.sweep
    smooth = [sweep[n] for n in THRESH["sweep_values"] if 2 <= n <= 10]
    variation = max(smooth) - min(smooth)
    drop = sweep[4] - sweep[1]
    assert drop > variation
    assert bench.sweep_seconds < THRESH["sweep_seconds"]
    table = " ".join(f"{n}:{sweep[n]:.3f}" for n in THRESH["sweep_values"])
    report(5, f"drop(4->1) {drop:.4f} > variation[2..10] {variation:.4f}; {table}")


# ---------------------------------------------------------------------------
# 6. Read vs independent brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_distribution(query, keys, labels, n_classes):
    """Explicit exp/sum softmax over slots, then per-slot label mixing."""
    sims = [sum(float(qc) * float(kc) for qc, kc in zip(query, key)) for key in keys]
    top = max(sims)
    exps = [math.exp(s - top) for s in sims]
    total = sum(exps)
    dist = [0.0] * n_classes
    for e, label in zip(exps, labels):
        dist[label] += e / total
    return dist


def test_criterion_6_read_oracle_equivalence():
    key_pool = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(1, 2), Fraction(-3, 2)), (Fraction(5, 4), Fraction(3, 4)),
                (Fraction(-2), Fraction(1, 3)), (Fraction(7, 3), Fraction(-1, 2))]
    queries = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)),
               (Fraction(3, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(5, 4)),
               (Fraction(2, 3), Fraction(2, 3))]
    tol = THRESH["read_oracle_tolerance"]
    checked = 0
    for n in (1, 2, 3):
        for n_classes in (2, 3, 4):
            for labels in itertools.product(range(n_classes), repeat=n):
                for offset in (0, 2):
                    keys = [key_pool[(offset + i) % len(key_pool)] for i in range(n)]
                    mem = ObjectMemory(key_dim=2, n_classes=n_classes).write(
                        [Detections([[float(k) for k in key] for key in keys], labels, [0.9] * n)])
                    for q in queries:
                        q_arr = np.array([[float(c) for c in q]])
                        dist = memory_read(q_arr, mem)
                        oracle = brute_force_distribution(q, keys, labels, n_classes)
                        assert np.max(np.abs(dist[0] - np.array(oracle))) <= tol
                        assert dist[0].argmax() == int(np.argmax(oracle))
                        checked += 1
    report(6, f"{checked} reads matched the brute-force mixture oracle within {tol}")


# ---------------------------------------------------------------------------
# 7. Rewrite/mask coupling properties
# ---------------------------------------------------------------------------


def test_criterion_7_rewrite_mask_properties():
    words = [f"w{i:02d}" for i in range(30)]
    vocab = build_vocabulary([words])
    rng = np.random.default_rng(123)
    trials = THRESH["property_trials"]
    for _ in range(trials):
        n_pd = int(rng.integers(0, 12))
        pd_words = [words[i] for i in rng.choice(len(words), size=n_pd, replace=False)]
        det_map = intersect_detectable(vocab, pd_words or ["notaword"])
        length = int(rng.integers(1, 16))
        sentence = [vocab.index[words[i]] for i in rng.integers(0, len(words), size=length)]
        rewritten = rewrite_targets(sentence, det_map)
        mask = mask_weights(sentence, det_map)
        assert len(rewritten) == len(sentence) == len(mask)  # length preservation
        assert rewrite_targets(rewritten, det_map) == rewritten  # idempotence
        for orig, new, m in zip(sentence, rewritten, mask):
            assert (orig != new) == bool(m)  # mask marks exactly the changes
            if m:
                assert new == vocab.placeholder_id
    report(7, f"{trials} random sentences: idempotence, mask-position equality, "
              f"length preservation all hold")


# ---------------------------------------------------------------------------
# 8. Known-object improvement direction
# ---------------------------------------------------------------------------


def test_criterion_8_known_object_direction(bench):
    dnoc_known = bench.report_dnoc.known_average_f1
    base_known = bench.report_baseline.known_average_f1
    assert dnoc_known >= base_known
    report(8, f"known-object average F1: dnoc {dnoc_known:.4f} >= baseline {base_known:.4f}")


# ---------------------------------------------------------------------------
# 9. Bit-level determinism of train + eval
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    world_path = tmp_path / "world.cfg"
    world_path.write_text("inventory = dog cat bus tree boat bird car horse\n"
                          f"templates = {' | '.join(DEFAULT_TEMPLATES)}\n"
                          "noise_scale = 0.05\nseed = 3\ndim = 8\nlatent_rank = 5\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in {
        "hidden_size": 24, "embed_size": 16, "image_dim": 8, "key_dim": 8,
        "epochs": 3, "batch_size": 8, "seed": 3, "max_steps": 12,
        "dataset": tmp_path / "dataset.jsonl", "manifest": tmp_path / "split.json",
        "checkpoint": tmp_path / "model.ckpt",
        "report": tmp_path / "report.json", "train_log": tmp_path / "train.log",
    }.items()))
    assert cli_main(["gen-data", "--config", str(cfg_path), "--world-config", str(world_path),
                     "--held-out", "bus,bird", "--n-images", "120"]) == 0

    artifacts = {}
    for attempt in ("first", "second"):
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["eval", "--config", str(cfg_path), "--mode", "dnoc"]) == 0
        artifacts[attempt] = {
            "report": (tmp_path / "report.json").read_bytes(),
            "checkpoint": (tmp_path / "model.ckpt").read_bytes(),
            "log": (tmp_path / "train.log").read_bytes(),
        }
    assert artifacts["first"]["report"] == artifacts["second"]["report"]
    assert artifacts["first"]["checkpoint"] == artifacts["second"]["checkpoint"]
    assert artifacts["first"]["log"] == artifacts["second"]["log"]
    report(9, "two identical train+eval runs produced byte-identical reports, "
              "checkpoints, and logs")

"""The benchmark's three workloads, driven through novelcap's public functions.

Every workload trains on a fixed corpus: the acceptance benchmark world of
``tests/acceptance_config.json`` (seed 7, split seed 7, run seed 7), or a
crowded twin of it. Training is pinned because quality after a short
training run depends strongly on the initial weights: over six
initialisation seeds, two epochs give held-out F1 from 0.27 to 0.40, which
would swamp any bound on ``heldout_f1``. The ``--seed`` draws the records
that are captioned and scored: fresh images of the same world, never seen
in training.

A workload has a set-up, which builds what the measured work needs, and a
unit of measured work. ``inputs`` makes the inputs of a unit outside the
timed region, ``unit`` does the timed work and returns its outputs, and
``quality`` turns the outputs of the first ``quality_units`` units into
the quality figures, outside the timed region. F1 over a few hundred
records moves by 20% from one seed to the next; the sizes below keep it
within a few percent.
"""

import dataclasses
import hashlib
import math
import statistics
from pathlib import Path

import numpy as np

from novelcap import checkpoint, data, evaluation, pipeline, vocabulary
from novelcap.config import RunConfig
from novelcap.data import DEFAULT_HELD_OUT, HeldOutSplit
from novelcap.decoder import CaptionModel

# The acceptance benchmark world and run, with two epochs instead of fifty.
WORLD = dict(seed=7, dim=32, latent_rank=6, noise_scale=0.05, distractors=3, refs_per_image=2,
             present_score=(0.55, 1.0), distractor_score=(0.5, 0.85))
RUN = dict(seed=7, epochs=2, lr=3e-3, weight_decay=1e-3, batch_size=8, hidden_size=64,
           embed_size=64, image_dim=32, key_dim=32, n_det=4, max_steps=15)
N_IMAGES = 1050
CROWDED_IMAGES = 2000  # the crowded split keeps only ~30% of its records for training
SPLIT_SEED = 7
RATIOS = (0.8, 0.1, 0.1)

TRAIN_EVAL_RECORDS = 4000  # scored once per run of the train workload, untimed
CAPTION_RECORDS = 2000  # per unit of the caption workload, each captioned once per mode
SWEEP_RECORDS = 300  # per unit of sweep-crowded, each captioned once per n_det
SWEEP_NDET = tuple(range(1, 17))


class Checks:
    """Output checks; each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclasses.dataclass
class Corpus:
    world: data.SyntheticWorld
    objects_per_image: tuple
    split: HeldOutSplit
    vocab: vocabulary.Vocabulary
    det_map: vocabulary.DetectableSet
    known: list
    cfg: RunConfig
    dataset_digest: str

    def draw(self, seed, k, n):
        """``n`` fresh records of this world for unit ``k`` of run ``seed``, as a test split."""
        draw_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        world = dataclasses.replace(self.world, seed=draw_seed)
        records = data.generate_synthetic(world, n, self.objects_per_image)
        return HeldOutSplit(train=[], val=[], test=records, held_out_words=self.split.held_out_words)

    def score(self, split, model, mode, cfg=None):
        captioner = pipeline.make_captioner(model, self.vocab, self.det_map, cfg or self.cfg, mode)
        return evaluation.evaluate_split(split, captioner, known_words=self.known, mode=mode)


def build_corpus(workdir, n_images, objects_per_image, distractors):
    """Generate the training corpus and pass it through a dataset file, as gen-data and train do."""
    world = data.make_world(**dict(WORLD, distractors=distractors))
    path = Path(workdir) / "dataset.jsonl"
    data.save_dataset(data.generate_synthetic(world, n_images, objects_per_image), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    records = data.load_dataset(path)
    split = data.build_heldout_split(records, DEFAULT_HELD_OUT, RATIOS, seed=SPLIT_SEED)
    vocab = vocabulary.build_vocabulary([ref for rec in split.train for ref in rec.references])
    det_map = vocabulary.intersect_detectable(vocab, list(world.names))
    known = [name for name in world.names if name not in split.held_out_words]
    return Corpus(world, objects_per_image, split, vocab, det_map, known, RunConfig(**RUN), digest)


@dataclasses.dataclass
class Trained:
    """A training run: per-epoch total losses and the digest of the best parameters."""

    losses: tuple
    digest: str
    params: dict = dataclasses.field(compare=False)


def train(corpus, checks):
    """Train from scratch and check the loss."""
    result = pipeline.train_model(corpus.split, corpus.vocab, corpus.det_map, corpus.cfg, mode="dnoc")
    losses = tuple(float(h.total) for h in result.history)
    checks.expect(all(math.isfinite(x) for x in losses), f"training loss is not finite: {losses}")
    checks.expect(losses[-1] < losses[0], f"last-epoch training loss is not below the first: {losses}")
    digest = hashlib.sha256(b"".join(p.tobytes() for p in result.best_params.values())).hexdigest()
    return Trained(losses, digest, result.best_params)


@dataclasses.dataclass
class State:
    corpus: Corpus
    fingerprint: str  # equal across set-ups of one run, or set-up is not deterministic
    model: CaptionModel | None = None
    train_loss: float | None = None


def trained_state(corpus, workdir, checks):
    """Train, then save and reload the best checkpoint the way train and eval do."""
    trained = train(corpus, checks)
    path = Path(workdir) / "model.ckpt"
    checkpoint.save_checkpoint(path, trained.params, vocab_ref="vocab.txt")
    params, _ = checkpoint.load_checkpoint(path)
    checks.expect(params.keys() == trained.params.keys()
                  and all(np.array_equal(params[k], v) for k, v in trained.params.items()),
                  "checkpoint round trip is not bit-exact")
    return State(corpus, fingerprint=hashlib.sha256(path.read_bytes()).hexdigest(),
                 model=CaptionModel.from_params(params), train_loss=trained.losses[-1])


class TrainWorkload:
    """Chosen because the teacher-forced decoder and Adam dominate it: batched
    training shows here, captioning work barely does. One unit trains the
    acceptance world from scratch for two epochs, with per-epoch validation
    captioning. Every unit repeats the same work and must reproduce the
    first bit for bit. The best model of the first unit is scored, untimed,
    on 4,000 records drawn from the seed."""

    name = "train"
    repeats_unit = True
    quality_units = 1

    def setup(self, seed, workdir, checks):
        corpus = build_corpus(workdir, N_IMAGES, (1, 1), WORLD["distractors"])
        return State(corpus, fingerprint=corpus.dataset_digest)

    def inputs(self, state, seed, k):
        return None

    def unit(self, state, inputs, checks):
        return train(state.corpus, checks)

    def quality(self, state, seed, outputs):
        eval_split = state.corpus.draw(seed, 0, TRAIN_EVAL_RECORDS)
        report = state.corpus.score(eval_split, CaptionModel.from_params(outputs[0].params), "dnoc")
        return {"train_loss": outputs[0].losses[-1], "heldout_f1": report.average_f1,
                "known_f1": report.known_average_f1}


class CaptionWorkload:
    """Chosen because greedy decoding dominates it, with no backward pass or
    Adam, and each record is decoded once per mode: a decode-once/fill-many
    change has nothing to reuse here, so its prediction on this workload is
    no change. The model is trained in set-up. One unit captions 2,000 fresh
    acceptance-world records in dnoc mode and then in no-memory mode; every
    unit draws new records, so no record repeats within a run and a
    per-record cache cannot pose as a gain."""

    name = "caption"
    repeats_unit = False
    quality_units = 4

    def setup(self, seed, workdir, checks):
        return trained_state(build_corpus(workdir, N_IMAGES, (1, 1), WORLD["distractors"]), workdir, checks)

    def inputs(self, state, seed, k):
        return state.corpus.draw(seed, k, CAPTION_RECORDS)

    def unit(self, state, split, checks):
        dnoc = state.corpus.score(split, state.model, "dnoc")
        no_memory = state.corpus.score(split, state.model, "no-memory")
        checks.expect(dnoc.average_f1 > no_memory.average_f1,
                      f"dnoc held-out F1 {dnoc.average_f1} does not exceed no-memory {no_memory.average_f1}")
        return dnoc.average_f1, dnoc.known_average_f1

    def quality(self, state, seed, outputs):
        return {"train_loss": state.train_loss, "heldout_f1": statistics.fmean(h for h, _ in outputs),
                "known_f1": statistics.fmean(k for _, k in outputs)}


class SweepCrowdedWorkload:
    """Chosen because every record is re-captioned at each n_det from 1 to 16
    and memories are large: images hold 1-3 objects and 12 distractor
    detections, so up to 15 slots, and multi-object captions emit several
    placeholders. Memory writes and reads take their largest share here, and
    a decode-once/fill-many change has 15 decodes per record to reuse. The
    model is trained on a 2,000-image crowded world in set-up. One unit
    sweeps 300 fresh crowded records; its F1 figures are means over the
    sweep."""

    name = "sweep-crowded"
    repeats_unit = False
    quality_units = 6

    def setup(self, seed, workdir, checks):
        return trained_state(build_corpus(workdir, CROWDED_IMAGES, (1, 3), 12), workdir, checks)

    def inputs(self, state, seed, k):
        return state.corpus.draw(seed, k, SWEEP_RECORDS)

    def unit(self, state, split, checks):
        reports = [state.corpus.score(split, state.model, "dnoc", dataclasses.replace(state.corpus.cfg, n_det=n))
                   for n in SWEEP_NDET]
        return (statistics.fmean(r.average_f1 for r in reports),
                statistics.fmean(r.known_average_f1 for r in reports))

    quality = CaptionWorkload.quality


WORKLOADS = {w.name: w for w in (TrainWorkload(), CaptionWorkload(), SweepCrowdedWorkload())}

"""Synthetic corpus generation, held-out splits, and dataset files.

The synthetic world replaces a CNN and an object detector at desk scale:
every object owns an anchor vector, an image feature is the sum of its
objects' anchors plus noise, and the mock detector emits one noisy
detection per present object plus a few lower-confidence distractor
detections of absent classes. Anchors are drawn from a shared low-rank
latent basis so the feature geometry of held-out objects is reachable
from the known ones, the way real detector features share one space.

Dataset files are line-delimited JSON records. Each float64 array is the
base64 text of its little-endian bytes, so it round-trips bit for bit with
no decimal formatting or parsing, and a record's detections are one table
(row-major features, JSON integer labels, scores), as in memory. One
record rule holds on both sides: ``save_dataset`` refuses, before it
opens the file, every record ``load_dataset`` would refuse, each by its
line. The world config is a plain key-value text file, each value parsed
at its line and every world rule checked by ``make_world``; the split
manifest is a single JSON document.
"""

import base64
import hashlib
import json
import string
import sys
from dataclasses import dataclass

import numpy as np

from .config import read_json, read_key_values, text_lines, within_budget
from .errors import CoverageError, DomainError, ParseError, SchemaError, ShapeError
from .memory import Detections
from .numerics import FLOAT
from .vocabulary import word_fault

DEFAULT_INVENTORY = (
    "apple", "bear", "bird", "boat", "bottle", "bus", "car", "cat", "chair", "couch",
    "dog", "elephant", "horse", "microwave", "motorcycle", "pizza", "racket",
    "suitcase", "table", "zebra",
)

DEFAULT_HELD_OUT = ("bottle", "bus", "couch", "microwave", "pizza", "racket", "suitcase", "zebra")

DEFAULT_TEMPLATES = (
    "a {} is in the picture",
    "there is a {} here",
    "a {} sits on the ground",
    "you can see a {} today",
    "a small {} is shown",
    "a {} is looking at a {}",
    "a {} is next to a {}",
    "there is a {} near a {}",
    "a {} and a {} are here",
    "a {} and a {} sit near a {}",
    "there is a {} with a {} and a {}",
)


@dataclass(slots=True)
class DatasetRecord:
    """One image worth of data: feature, reference sentences, and its
    detections as one table.

    Slotted, and each reference token is interned, so a corpus holds one
    string object per vocabulary word."""

    image_id: str
    feature: np.ndarray
    references: list[list[str]]
    detections: Detections


@dataclass
class HeldOutSplit:
    """Train/val/test partition where train never mentions a held-out word."""

    train: list[DatasetRecord]
    val: list[DatasetRecord]
    test: list[DatasetRecord]
    held_out_words: tuple[str, ...]


@dataclass
class SyntheticWorld:
    """Generator configuration: inventory, anchors, templates, noise."""

    names: tuple[str, ...]
    anchors: np.ndarray  # (n_objects, dim), unit rows, pairwise cosine below 0.95 (_make_anchors)
    templates: tuple[str, ...]
    noise_scale: float
    seed: int
    latent_rank: int
    distractors: int
    refs_per_image: int
    present_score: tuple[float, float]
    distractor_score: tuple[float, float]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


def _make_anchors(rng: np.random.Generator, n: int, dim: int, latent_rank: int) -> np.ndarray:
    """Unit anchors in a shared low-rank subspace of the feature space.

    The shared basis means every class, held-out ones included, lies in
    the subspace the known classes span, the way detector features of a
    novel object live in the same space as familiar ones. Pairwise cosine
    is capped so the classes stay separable.
    """
    rank = min(latent_rank, dim)
    basis = rng.normal(size=(dim, rank)) / np.sqrt(rank)
    anchors = np.empty((n, dim), dtype=FLOAT)
    for i in range(n):
        # farthest-of-50 draws keeps the worst anchor pair well separated
        best = None
        best_cos = np.inf
        for _ in range(50):
            z = rng.normal(size=rank)
            a = basis @ z
            a /= np.linalg.norm(a)
            worst = np.max(anchors[:i] @ a) if i else -1.0
            if worst < best_cos:
                best_cos = worst
                best = a
        if best_cos >= 0.95:
            raise DomainError("data: could not sample separable anchor vectors")
        anchors[i] = best
    # later draws are squeezed into gaps; shuffle the class assignment so
    # crowding is not systematic in class index
    return anchors[rng.permutation(n)]


def make_world(names: tuple[str, ...] = DEFAULT_INVENTORY, dim: int = 32, seed: int = 7,
               noise_scale: float = 0.03, templates: tuple[str, ...] = DEFAULT_TEMPLATES,
               latent_rank: int = 10, distractors: int = 3, refs_per_image: int = 2,
               present_score: tuple[float, float] = (0.55, 1.0),
               distractor_score: tuple[float, float] = (0.5, 0.85)) -> SyntheticWorld:
    pools = _templates_by_slots(templates)  # a malformed template is refused here
    band = "0 <= low <= high <= 1"
    bad_names = [name for name in names if word_fault(name)]
    bad_templates = [t for t in templates if any(word_fault(tok) for tok in t.split())]  # split: no empty token
    for key, value, ok, rule in (
            ("dim", dim, dim >= 1, ">= 1"), ("latent_rank", latent_rank, latent_rank >= 1, ">= 1"),
            ("seed", seed, seed >= 0, ">= 0"), ("distractors", distractors, distractors >= 0, ">= 0"),
            ("refs_per_image", refs_per_image, refs_per_image >= 1, ">= 1"),
            ("noise_scale", noise_scale, 0 <= noise_scale < np.inf, "finite and >= 0"),
            ("present_score", present_score, 0 <= present_score[0] <= present_score[1] <= 1, band),
            ("distractor_score", distractor_score, 0 <= distractor_score[0] <= distractor_score[1] <= 1, band),
            ("inventory", names, len(names) >= 1, "non-empty"),
            ("inventory", names, len(set(names)) == len(names), "free of repeated names"),
            ("inventory", bad_names, not bad_names, "words: non-empty strings, no whitespace, no special token"),
            ("templates", pools.get(0), 0 not in pools, "free of sentences with no {} slot"),
            ("templates", bad_templates, not bad_templates, "free of special tokens")):
        if not ok:  # refused before any anchor is drawn
            raise DomainError(f"data: world {key} must be {rule}, got {value}")
    within_budget((min(latent_rank, dim) + len(names)) * dim * 8, DomainError,  # _make_anchors' basis and anchors
                  f"data: world dim {dim}, latent_rank {latent_rank} and {len(names)} names", "the basis and anchors")
    rng = np.random.default_rng(seed)
    anchors = _make_anchors(rng, len(names), dim, latent_rank)
    return SyntheticWorld(names=tuple(names), anchors=anchors, templates=tuple(templates), noise_scale=noise_scale,
                          seed=seed, latent_rank=latent_rank, distractors=distractors, refs_per_image=refs_per_image,
                          present_score=present_score, distractor_score=distractor_score)


def _template_slots(template: str) -> int:
    """The object slots of a sentence template, each a bare ``{}`` (``{{`` and ``}}`` are literal
    braces). Any other field, or an unbalanced brace, is a DomainError naming the ``templates`` key."""
    try:
        fields = [field[1:] for field in string.Formatter().parse(template) if field[1] is not None]
    except ValueError as e:
        raise DomainError(f"data: world templates: {template!r}: {e}") from None
    if any(field != ("", "", None) for field in fields):
        raise DomainError(f"data: world templates: {template!r} has a field other than a bare {{}}")
    return len(fields)


def _templates_by_slots(templates) -> dict[int, list[str]]:
    pools: dict[int, list[str]] = {}
    for t in templates:
        pools.setdefault(_template_slots(t), []).append(t)
    return pools


def generate_synthetic(world: SyntheticWorld, n_images: int,
                       objects_per_image: tuple[int, int] = (1, 2)) -> list[DatasetRecord]:
    """Seeded corpus: sampled objects, summed-anchor features, mock detections.

    Object frequencies are kept balanced by redrawing the whole corpus if
    any object exceeds three times the median frequency. A corpus whose
    arrays would pass ``config.BUFFER_BUDGET`` is refused before any draw.
    """
    lo, hi = objects_per_image
    n_obj = len(world.names)
    if n_obj < 4:
        raise DomainError("data: inventory must contain at least 4 objects")
    if lo < 1 or hi < lo:
        raise DomainError(f"data: bad objects_per_image range ({lo}, {hi})")
    if hi > n_obj:
        raise DomainError(f"data: objects_per_image {hi} exceeds the {n_obj}-object inventory")
    pools = _templates_by_slots(world.templates)
    for k in range(lo, hi + 1):
        if k not in pools:
            raise DomainError(f"data: no sentence template with {k} object slots")
    # per image: the feature, a detection table of at most hi + distractors rows, the longest references
    rows, tokens = min(hi + world.distractors, n_obj), max(len(t.split()) for t in world.templates)
    within_budget(n_images * (world.dim + rows * (world.dim + 2) + world.refs_per_image * tokens) * 8, DomainError,
                  f"data: n_images {n_images}, refs_per_image {world.refs_per_image} and dim {world.dim}", "the corpus")
    rng = np.random.default_rng(world.seed)
    for _ in range(100):
        records = _generate_once(world, n_images, lo, hi, pools, rng)
        counts = mentions([rec.references for rec in records], world.names).sum(axis=0)
        median = max(float(np.median(counts)), 1.0)
        if counts.max() <= 3.0 * median:
            return records
    raise DomainError("data: could not draw a label-balanced corpus in 100 attempts")


def _generate_once(world, n_images, lo, hi, pools, rng) -> list[DatasetRecord]:
    n_obj = len(world.names)
    records = []
    for i in range(n_images):
        k = int(rng.integers(lo, hi + 1))
        present = np.sort(rng.choice(n_obj, size=k, replace=False))
        noise = rng.normal(0.0, 1.0, world.dim) * world.noise_scale
        feature = world.anchors[present].sum(axis=0) + noise
        references = []
        for _ in range(world.refs_per_image):
            template = pools[k][int(rng.integers(len(pools[k])))]
            # canonical mention order (class-index order) keeps the slot ->
            # object correspondence learnable from the summed feature
            sentence = template.format(*(world.names[j] for j in present))
            references.append([sys.intern(tok) for tok in sentence.split()])
        present_set = set(present.tolist())
        absent = [j for j in range(n_obj) if j not in present_set]
        n_distract = min(world.distractors, len(absent))
        # one row per detection, present objects first, drawn in row order
        features = np.empty((k + n_distract, world.dim), dtype=FLOAT)
        labels = np.empty(k + n_distract, dtype=np.intp)
        scores = np.empty(k + n_distract, dtype=FLOAT)
        for r, j in enumerate(present):
            features[r] = world.anchors[j] + rng.normal(0.0, 1.0, world.dim) * world.noise_scale
            labels[r], scores[r] = j, rng.uniform(*world.present_score)
        if n_distract > 0:
            for r, j in enumerate(rng.choice(absent, size=n_distract, replace=False), start=k):
                features[r] = world.anchors[j] + rng.normal(0.0, 1.0, world.dim) * world.noise_scale
                labels[r], scores[r] = j, rng.uniform(*world.distractor_score)
        records.append(DatasetRecord(image_id=f"synth-{i:05d}", feature=feature.astype(FLOAT),
                                     references=references, detections=Detections(features, labels, scores)))
    return records


def mentions(texts, words) -> np.ndarray:
    """(N, W) bool: whether any sentence (a token list) of ``texts[n]`` contains word w;
    the one mention rule, read by the held-out split and by per-object F1."""
    out = np.zeros((len(texts), len(words)), dtype=bool)
    for n, sentences in enumerate(texts):
        tokens = {tok for sentence in sentences for tok in sentence}
        out[n] = [w in tokens for w in words]
    return out


def build_heldout_split(records: list[DatasetRecord], held_out_words,
                        ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                        seed: int = 0) -> HeldOutSplit:
    """Partition records so no training reference mentions a held-out word.

    Records mentioning any held-out word form the evaluation pool and are
    dealt alternately to test and val (test first, and test coverage of
    every held-out word is enforced). The remaining records are split by
    ``ratios``. Detections are never filtered: the mock detector knows
    all classes, held-out ones included.
    """
    held = tuple(held_out_words)
    repeat = next((w for i, w in enumerate(held) if w in held[:i]), None)
    if repeat is not None:  # each held-out word is one entry of the F1 average
        raise DomainError(f"data: held-out word {repeat!r} is listed twice")
    if not (abs(sum(ratios) - 1.0) <= 1e-9 and all(r >= 0 for r in ratios)):  # NaN fails both comparisons
        raise DomainError(f"data: split ratios {ratios} must be non-negative and sum to 1")
    hits = mentions([rec.references for rec in records], held)
    for w, covered in zip(held, hits.any(axis=0)):
        if not covered:
            raise CoverageError(f"data: held-out word {w!r} appears in no record")
    rng = np.random.default_rng(seed)
    in_pool = hits.any(axis=1)
    pool, safe = np.flatnonzero(in_pool), np.flatnonzero(~in_pool)

    pool_order = pool[rng.permutation(len(pool))]
    eval_test, eval_val = list(pool_order[0::2]), list(pool_order[1::2])
    for j in range(len(held)):
        if not hits[eval_test, j].any():
            idx = next(i for i, r in enumerate(eval_val) if hits[r, j])
            eval_test.append(eval_val.pop(idx))

    safe_order = [records[i] for i in safe[rng.permutation(len(safe))]]
    n = len(safe_order)
    n_train = min(int(round(ratios[0] * n)), n)
    n_val = min(int(round(ratios[1] * n)), n - n_train)
    train = safe_order[:n_train]
    val = safe_order[n_train:n_train + n_val] + [records[i] for i in eval_val]
    test = safe_order[n_train + n_val:] + [records[i] for i in eval_test]
    return HeldOutSplit(train=train, val=val, test=test, held_out_words=held)


# ---------------------------------------------------------------------------
# Dataset files: one JSON object per line, float64 arrays as base64 bytes
# ---------------------------------------------------------------------------

_FIELDS = ("image_id", "feature", "references", "detections")
_TABLE_FIELDS = ("features", "labels", "scores")


def _b64(a: np.ndarray) -> str:
    """The base64 text of ``a``'s little-endian float64 bytes, in C order."""
    return base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode("ascii")


def _floats(text, field: str, rows: int | None = None) -> np.ndarray:
    """The float64 array that ``text``, the base64 text of its little-endian
    bytes, holds: a vector, or ``rows`` rows in C order (no rows hold no
    bytes). An owned copy, so the decoded bytes are freed. Text that is not
    base64 and bytes that are not whole float64s, or not whole rows, are
    refused naming ``field``."""
    if type(text) is not str:
        raise TypeError(f"{field} is not base64 text")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{field} is not base64 text ({e})") from None
    if len(raw) % 8:
        raise ValueError(f"{field} holds {len(raw)} bytes, not whole float64s")
    a = np.frombuffer(raw, "<f8")
    if rows is not None:
        width, rest = divmod(a.size, rows) if rows else (0, a.size)
        if rest:
            raise ValueError(f"{field} holds {a.size} float64s, not one row per label of {rows}")
        a = a.reshape(rows, width)
    return a.astype(FLOAT)


def _record(d) -> DatasetRecord:
    """The record a decoded JSON line holds, its detections one checked
    table. A value of the wrong JSON type is refused, not converted (a bool
    is not an int); the record rule checks the rest."""
    if type(d) is not dict:
        raise TypeError("a record is not a JSON object")
    missing = next((key for key in _FIELDS if key not in d), None)
    if missing is not None:
        raise ValueError(f"missing field {missing!r}")
    feature = _floats(d["feature"], "feature")
    table = d["detections"]
    if type(table) is not dict:
        raise TypeError("the detections are not a JSON object")
    missing = next((key for key in _TABLE_FIELDS if key not in table), None)
    if missing is not None:
        raise ValueError(f"the detections are missing field {missing!r}")
    labels = table["labels"]
    if type(labels) is not list:
        raise TypeError("the detection labels are not a JSON list")
    if any(type(x) is not int for x in labels):
        raise TypeError("a detection label is not a JSON integer")
    n = len(labels)
    features = _floats(table["features"], "detections.features", rows=n)
    scores = _floats(table["scores"], "detections.scores")
    if len(scores) != n:
        raise ValueError(f"detections.scores holds {len(scores)} float64s, not one per label of {n}")
    refs = d["references"]
    if isinstance(refs, list) and all(isinstance(ref, list) for ref in refs):  # else the record rule refuses them
        refs = [[sys.intern(t) if type(t) is str else t for t in ref] for ref in refs]
    return DatasetRecord(image_id=d["image_id"], feature=feature, references=refs,
                         detections=Detections(features, np.array(labels, dtype=np.intp), scores))


def _record_fault(rec: DatasetRecord, dim: int | None, det_dim: tuple | None, words: set) -> str | None:
    """Why ``rec`` breaks the record rule, given the image feature length,
    detection feature shape and reference words of the earlier records, or
    None. A new token that passes the word rule joins ``words``."""
    if type(rec.image_id) is not str:
        return "the image_id is not a JSON string"
    refs = rec.references
    if not isinstance(refs, list) or not all(isinstance(ref, list) for ref in refs):
        return "references must be a list of token lists"
    if not refs or not all(refs):
        return "references must be non-empty"
    for t in (t for ref in refs for t in ref):  # a vocabulary file holds one word a line
        if type(t) is not str:
            return "a reference token is not a JSON string"
        if t not in words:
            fault = word_fault(t)
            if fault:
                return f"reference token {t!r} {fault}"
            words.add(t)
    if rec.feature.ndim != 1 or not np.isfinite(rec.feature).all():
        return "the image feature is not a vector of finite numbers"
    if dim not in (None, len(rec.feature)):
        return f"feature length {len(rec.feature)} != {dim}"
    shape = rec.detections.features.shape[1:] if rec.detections else det_dim
    if det_dim not in (None, shape):
        return f"detection feature shape {shape} != {det_dim} of the earlier detections"
    return None


def _checked(numbered):
    """Each record of ``numbered``, (line number, record) pairs, once it
    passes the one record rule (``_record_fault``). A repeated image_id is
    refused once every record has passed, so a line's own fault is found
    first. Every fault is a SchemaError naming its line."""
    dim = det_dim = None
    first_line, repeats, words = {}, [], set()
    for line_no, rec in numbered:
        fault = _record_fault(rec, dim, det_dim, words)
        if fault:
            raise SchemaError(f"data: line {line_no}: {fault}")
        dim = len(rec.feature)
        det_dim = rec.detections.features.shape[1:] if rec.detections else det_dim
        if first_line.setdefault(rec.image_id, line_no) != line_no:
            repeats.append((line_no, rec.image_id))
        yield rec
    if repeats:
        line_no, image_id = repeats[0]
        raise SchemaError(f"data: line {line_no}: image_id {image_id!r} repeats line {first_line[image_id]}")


def _as_saved(records):
    """(line number, record) of each record as it is saved: its feature a
    float64 array and its table checked anew, as a loaded table is (a
    caller may have changed a table's arrays in place)."""
    for line_no, rec in enumerate(records, start=1):
        dets = rec.detections
        try:
            yield line_no, DatasetRecord(rec.image_id, np.asarray(rec.feature, dtype=FLOAT), rec.references,
                                         Detections(dets.features, dets.labels, dets.scores))
        except (TypeError, ValueError, DomainError, ShapeError) as e:
            raise SchemaError(f"data: line {line_no}: {e}") from e


def save_dataset(records: list[DatasetRecord], path) -> None:
    """Write one JSON line per record. Every record passes the record rule
    before the file is opened, so a refused save leaves the file as it was."""
    checked = list(_checked(_as_saved(records)))
    with open(path, "w", encoding="utf-8") as f:
        for rec in checked:
            dets = rec.detections
            f.write(json.dumps({"image_id": rec.image_id, "feature": _b64(rec.feature), "references": rec.references,
                                "detections": {"features": _b64(dets.features), "labels": dets.labels.tolist(),
                                               "scores": _b64(dets.scores)}}, separators=(",", ":")) + "\n")


def _decoded(path):
    """(line number, record) of each non-blank line of a dataset file."""
    for line_no, line in text_lines(path, "data"):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except (ValueError, RecursionError) as e:  # also an integer too long or nesting too deep
            raise ParseError(f"data: line {line_no}: malformed record ({getattr(e, 'msg', e)})") from e
        try:
            rec = _record(d)
        except (TypeError, ValueError, OverflowError, DomainError) as e:  # Overflow: a label past intp
            raise SchemaError(f"data: line {line_no}: {e}") from e
        yield line_no, rec


def load_dataset(path) -> list[DatasetRecord]:
    """The records of a dataset file, each line decoded and held to the
    record rule that ``save_dataset`` applies."""
    return list(_checked(_decoded(path)))


# ---------------------------------------------------------------------------
# World config: plain "key = value" text
# ---------------------------------------------------------------------------


def _band(raw: str) -> tuple[float, float]:
    low, high = raw.split()
    return float(low), float(high)


# file key: (make_world argument, parser of the raw value); the first four keys are required,
# the others take make_world's defaults
_WORLD_TABLE = {
    "inventory": ("names", str.split),
    "templates": ("templates", lambda raw: [t.strip() for t in raw.split("|")]),
    "noise_scale": ("noise_scale", float),
    "seed": ("seed", int),
    "dim": ("dim", int),
    "latent_rank": ("latent_rank", int),
    "distractors": ("distractors", int),
    "refs_per_image": ("refs_per_image", int),
    "present_score": ("present_score", _band),
    "distractor_score": ("distractor_score", _band),
}
_WORLD_KEYS = tuple(_WORLD_TABLE)


def load_world_config(path) -> SyntheticWorld:
    values = read_key_values(path, {key: parse for key, (_, parse) in _WORLD_TABLE.items()}, "data")
    missing = next((key for key in _WORLD_KEYS[:4] if key not in values), None)
    if missing is not None:
        raise ParseError(f"data: world config is missing required key {missing!r}")
    return make_world(**{_WORLD_TABLE[key][0]: value for key, value in values.items()})


# ---------------------------------------------------------------------------
# Split manifest
# ---------------------------------------------------------------------------


def save_manifest(split: HeldOutSplit, class_names, path) -> None:
    doc = {
        "held_out_words": list(split.held_out_words),
        "class_names": list(class_names),
        "known_words": [w for w in class_names if w not in split.held_out_words],
        **{part: [r.image_id for r in getattr(split, part)] for part in ("train", "val", "test")},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_manifest(path) -> dict:
    doc = read_json(path, "data: manifest")
    if not isinstance(doc, dict):
        raise SchemaError("data: manifest is not a JSON object")
    for key in ("held_out_words", "class_names", "known_words", "train", "val", "test"):
        if key not in doc:
            raise SchemaError(f"data: manifest is missing field {key!r}")
        if not (isinstance(doc[key], list) and all(isinstance(x, str) for x in doc[key])):
            raise SchemaError(f"data: manifest field {key!r} is not a list of strings")
    # a held-out or known word is one entry of its F1 average; a record id is in one part of the split
    for kind, items in (("held-out word", doc["held_out_words"]), ("known word", doc["known_words"]),
                        ("record id", doc["train"] + doc["val"] + doc["test"])):
        seen = set()
        for item in items:
            if item in seen:
                raise SchemaError(f"data: manifest {kind} {item!r} is listed twice")
            seen.add(item)
    return doc


def manifest_hash(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def split_from_manifest(records: list[DatasetRecord], manifest: dict) -> HeldOutSplit:
    """The manifest's partition of ``records``. Raises SchemaError naming the
    first record with a detection label outside the manifest's class list,
    or the first training record that mentions a held-out word."""
    n_classes = len(manifest["class_names"])
    for rec in records:
        outside = rec.detections.labels >= n_classes
        if outside.any():
            bad = rec.detections.labels[outside][0]
            raise SchemaError(f"data: record {rec.image_id!r} has detection label {bad}, outside the "
                              f"manifest's {n_classes} classes")
    by_id = {r.image_id: r for r in records}
    out = {}
    for part in ("train", "val", "test"):
        try:
            out[part] = [by_id[i] for i in manifest[part]]
        except KeyError as e:
            raise CoverageError(f"data: manifest names unknown record id {e.args[0]!r}") from e
    held = tuple(manifest["held_out_words"])
    for rec, mentioned in zip(out["train"], mentions([rec.references for rec in out["train"]], held)):
        if mentioned.any():
            raise SchemaError(f"data: training record {rec.image_id!r} mentions held-out word "
                              f"{held[mentioned.argmax()]!r}")
    return HeldOutSplit(train=out["train"], val=out["val"], test=out["test"], held_out_words=held)

"""Per-object F1 over generated captions, and the report.

An image counts as an actual positive for an object word when ANY of its
reference sentences mentions the word, and as a predicted positive when
the generated caption contains it: both are ``data.mentions``, the rule
the held-out split uses. Matching is exact lowercase token equality with
no stemming, so plural forms are distinct words. True negatives never
enter the score. A report file is written and never read back:
``write_report`` is its one encoder.
"""

import json
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .data import mentions
from .errors import ShapeError


@dataclass
class ObjectScore:
    """Image-level counts and derived scores for one object word."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0


@dataclass
class F1Report:
    per_object: dict[str, ObjectScore]
    average_f1: float
    known_average_f1: float = 0.0
    mode: str = ""
    split_hash: str = ""


def f1_for_object(actual: np.ndarray, predicted: np.ndarray) -> ObjectScore:
    """tp/fp/fn counted over images from two aligned (N,) bool columns;
    precision and recall guard empty denominators at zero."""
    if actual.shape != predicted.shape:
        raise ShapeError(f"evaluation: actual {actual.shape} and predicted {predicted.shape} columns differ")
    tp = int(np.count_nonzero(actual & predicted))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(actual & ~predicted))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ObjectScore(tp, fp, fn, precision, recall, f1)


def evaluate_records(records, captioner, words) -> dict[str, ObjectScore]:
    """Caption every record, in order, and score each word."""
    actual = mentions([rec.references for rec in records], words)
    predicted = mentions([[captioner(rec).tokens] for rec in records], words)
    return {w: f1_for_object(actual[:, j], predicted[:, j]) for j, w in enumerate(words)}


def average_f1_over(records, captioner, words) -> float:
    """Unweighted mean F1 of ``words`` over ``records`` (0.0 when empty)."""
    if not words or not records:
        return 0.0
    per_object = evaluate_records(records, captioner, words)
    return sum(s.f1 for s in per_object.values()) / len(words)


def evaluate_split(split, captioner, known_words=(), mode: str = "",
                   split_hash: str = "") -> F1Report:
    """Score the test records: per-object F1 for every held-out word (and
    the designated known words), averaged separately. A diverged model's
    NumericError aborts the whole report: a report that skipped its failed
    records would read as a weaker model, not a broken one."""
    held = list(split.held_out_words)
    known = [w for w in known_words if w not in split.held_out_words]
    per_object = evaluate_records(split.test, captioner, held + known)
    average_f1 = sum(per_object[w].f1 for w in held) / len(held) if held else 0.0
    known_average = sum(per_object[w].f1 for w in known) / len(known) if known else 0.0
    return F1Report(per_object=per_object, average_f1=average_f1,
                    known_average_f1=known_average, mode=mode, split_hash=split_hash)


# ---------------------------------------------------------------------------
# Report emission: a line table for stdout, a JSON document for diffing
# ---------------------------------------------------------------------------


def format_report_lines(report: F1Report) -> list[str]:
    lines = [f"mode={report.mode} split={report.split_hash}"]
    lines.append("\t".join(["object"] + [f.name for f in fields(ObjectScore)]))
    for word in sorted(report.per_object):
        lines.append("\t".join([word] + [repr(v) for v in astuple(report.per_object[word])]))
    lines.append(f"average_f1\t{report.average_f1!r}")
    lines.append(f"known_average_f1\t{report.known_average_f1!r}")
    return lines


def write_report(report: F1Report, path) -> None:
    doc = {
        "mode": report.mode,
        "split_hash": report.split_hash,
        "average_f1": report.average_f1,
        "known_average_f1": report.known_average_f1,
        "per_object": {word: asdict(s) for word, s in sorted(report.per_object.items())},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

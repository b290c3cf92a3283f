"""Per-object F1 over generated captions, and report files.

An image counts as an actual positive for an object word when ANY of its
reference sentences mentions the word, and as a predicted positive when
the generated caption contains it. Matching is exact lowercase token
equality with no stemming, so plural forms are distinct words. True
negatives never enter the score.
"""

import json
from dataclasses import dataclass

from .config import read_json
from .errors import CoverageError, SchemaError
from .pipeline import Caption


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


def f1_for_object(word: str, generated: dict[str, Caption],
                  references: dict[str, list[list[str]]]) -> ObjectScore:
    """tp/fp/fn counted over images; precision and recall guard empty
    denominators at zero."""
    if set(generated) != set(references):
        raise CoverageError("evaluation: generated captions and references cover different image ids")
    score = ObjectScore()
    for image_id, caption in generated.items():
        actual = any(word in ref for ref in references[image_id])
        predicted = word in caption.tokens
        if predicted and actual:
            score.tp += 1
        elif predicted and not actual:
            score.fp += 1
        elif actual and not predicted:
            score.fn += 1
    score.precision = score.tp / (score.tp + score.fp) if score.tp + score.fp else 0.0
    score.recall = score.tp / (score.tp + score.fn) if score.tp + score.fn else 0.0
    denom = score.precision + score.recall
    score.f1 = 2.0 * score.precision * score.recall / denom if denom else 0.0
    return score


def evaluate_records(records, captioner, words) -> dict[str, ObjectScore]:
    """Caption every record and score each word."""
    generated = {rec.image_id: captioner(rec) for rec in records}
    references = {rec.image_id: rec.references for rec in records}
    return {w: f1_for_object(w, generated, references) for w in words}


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
    lines.append("object\ttp\tfp\tfn\tprecision\trecall\tf1")
    for word in sorted(report.per_object):
        s = report.per_object[word]
        lines.append(f"{word}\t{s.tp}\t{s.fp}\t{s.fn}\t{s.precision!r}\t{s.recall!r}\t{s.f1!r}")
    lines.append(f"average_f1\t{report.average_f1!r}")
    lines.append(f"known_average_f1\t{report.known_average_f1!r}")
    return lines


def write_report(report: F1Report, path) -> None:
    doc = {
        "mode": report.mode,
        "split_hash": report.split_hash,
        "average_f1": report.average_f1,
        "known_average_f1": report.known_average_f1,
        "per_object": {
            word: {"tp": s.tp, "fp": s.fp, "fn": s.fn, "precision": s.precision,
                   "recall": s.recall, "f1": s.f1}
            for word, s in sorted(report.per_object.items())
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_report(path) -> F1Report:
    doc = read_json(path, "evaluation: report")
    if not isinstance(doc, dict) or not isinstance(doc.get("per_object", {}), dict):
        raise SchemaError("evaluation: report file is not a JSON object with a per_object object")
    try:
        per_object = {word: ObjectScore(**stats) for word, stats in doc["per_object"].items()}
        return F1Report(per_object=per_object, average_f1=doc["average_f1"],
                        known_average_f1=doc["known_average_f1"], mode=doc["mode"],
                        split_hash=doc["split_hash"])
    except KeyError as e:
        raise SchemaError(f"evaluation: report file is missing field {e}") from e
    except TypeError as e:
        raise SchemaError(f"evaluation: report file has a malformed per-object entry ({e})") from e

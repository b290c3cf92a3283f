import json

import numpy as np
import pytest

from novelcap.data import DatasetRecord, HeldOutSplit, generate_synthetic, make_world, mentions
from novelcap.errors import ShapeError
from novelcap.evaluation import (F1Report, ObjectScore, average_f1_over, evaluate_records, evaluate_split,
                                 f1_for_object, format_report_lines, write_report)
from novelcap.memory import Detections
from novelcap.pipeline import Caption
from novelcap.vocabulary import PLACEHOLDER


def cap(*tokens):
    return Caption(tokens=list(tokens))


def columns(word, captions, references):
    """The (actual, predicted) columns of ``word`` over images, by the one mention rule."""
    return mentions(references, [word])[:, 0], mentions([[c.tokens] for c in captions], [word])[:, 0]


class TestF1ForObject:
    def test_hand_counted_example(self):
        # 3 zebra images; model mentions zebra in 2 of them plus 1 non-zebra image
        captions = [cap("a", "zebra", "here"), cap("a", "zebra", "here"), cap("a", "horse", "here"),
                    cap("a", "zebra", "here"), cap("a", "dog", "here")]
        references = [[["a", "zebra"]], [["a", "zebra"]], [["a", "zebra"]], [["a", "dog"]], [["a", "dog"]]]
        s = f1_for_object(*columns("zebra", captions, references))
        assert (s.tp, s.fp, s.fn) == (2, 1, 1)
        assert abs(s.precision - 2 / 3) < 1e-12
        assert abs(s.recall - 2 / 3) < 1e-12
        assert abs(s.f1 - 2 / 3) < 1e-12

    def test_word_never_emitted_scores_zero(self):
        s = f1_for_object(np.array([True, True]), np.array([False, False]))
        assert s.f1 == 0.0 and s.precision == 0.0 and s.recall == 0.0

    def test_perfect_mentions(self):
        assert f1_for_object(np.array([True, False]), np.array([True, False])).f1 == 1.0

    def test_true_negatives_change_nothing(self):
        base = f1_for_object(np.array([True]), np.array([True]))
        again = f1_for_object(np.array([True, False]), np.array([True, False]))
        assert (base.tp, base.fp, base.fn) == (again.tp, again.fp, again.fn)

    def test_image_order_irrelevant(self):
        actual = np.ones(6, dtype=bool)
        predicted = np.arange(6) % 2 == 1
        order = np.random.default_rng(0).permutation(6)
        forward = f1_for_object(actual, predicted)
        assert f1_for_object(actual[::-1], predicted[::-1]) == forward
        assert f1_for_object(actual[order], predicted[order]) == forward

    def test_length_mismatch_is_shape_error(self):
        for n_actual, n_predicted in ((1, 2), (3, 0)):
            with pytest.raises(ShapeError, match="^evaluation: "):
                f1_for_object(np.zeros(n_actual, dtype=bool), np.zeros(n_predicted, dtype=bool))


def dict_scorer(records, captioner, words) -> dict[str, ObjectScore]:
    """The per-word scorer over dicts keyed by image id that evaluation once used: the oracle."""
    generated = {rec.image_id: captioner(rec) for rec in records}
    references = {rec.image_id: rec.references for rec in records}
    out = {}
    for word in words:
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
        out[word] = score
    return out


def noisy_captioner(names, seed):
    """Per record, a seeded caption: empty, or a few tokens drawn from the object names,
    filler words and the literal placeholder."""
    pool = list(names) + ["a", "is", "here", PLACEHOLDER]

    def captioner(rec):
        rng = np.random.default_rng([seed, int(rec.image_id.split("-")[1])])
        return cap(*(pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 6)))))
    return captioner


class TestAgainstDictScorer:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_corpus_scores_equal(self, seed):
        world = make_world(seed=seed, dim=8, latent_rank=4)
        records = generate_synthetic(world, 120, objects_per_image=(1, 3))
        words = list(world.names) + [PLACEHOLDER, "submarine", "a"]
        captioner = noisy_captioner(world.names, seed)
        assert any(not captioner(rec).tokens for rec in records)
        assert any(PLACEHOLDER in captioner(rec).tokens for rec in records)
        oracle = dict_scorer(records, captioner, words)
        assert evaluate_records(records, captioner, words) == oracle
        assert oracle["submarine"] == ObjectScore()
        assert 0 < sum(s.tp for s in oracle.values()) < sum(s.tp + s.fp + s.fn for s in oracle.values())
        mean = sum(oracle[w].f1 for w in world.names) / len(world.names)
        assert average_f1_over(records, captioner, world.names) == mean

    def test_captions_each_record_once_in_order(self):
        records = generate_synthetic(make_world(seed=5, dim=8, latent_rank=4), 30)
        seen = []

        def captioner(rec):
            seen.append(rec.image_id)
            return cap()
        evaluate_records(records, captioner, ["dog", "bus"])
        assert seen == [rec.image_id for rec in records]


def records_for(words_per_image):
    out = []
    for i, words in enumerate(words_per_image):
        out.append(DatasetRecord(image_id=f"r{i}", feature=np.zeros(2),
                                 references=[["a"] + list(words)], detections=Detections(np.empty((0, 0)), (), ())))
    return out


def split_with_test(records, held_out):
    return HeldOutSplit(train=[], val=[], test=records, held_out_words=tuple(held_out))


class TestEvaluateSplit:
    def test_echo_oracle_is_perfect(self):
        held = ("zebra", "pizza")
        records = records_for([("zebra",), ("pizza",), ("zebra", "pizza"), ("dog",)])
        split = split_with_test(records, held)
        report = evaluate_split(split, lambda rec: cap(*rec.references[0]), known_words=("dog",))
        assert report.average_f1 == 1.0
        assert report.known_average_f1 == 1.0

    def test_empty_captions_score_zero(self):
        held = ("zebra", "pizza")
        split = split_with_test(records_for([("zebra",), ("pizza",)]), held)
        report = evaluate_split(split, lambda rec: cap())
        assert report.average_f1 == 0.0

    def test_average_is_mean_of_eight(self):
        held = tuple(f"obj{i}" for i in range(8))
        records = records_for([(w,) for w in held])

        def captioner(rec):
            # mention the object only for the first four words
            word = rec.references[0][1]
            return cap(word) if word in held[:4] else cap("nothing")

        report = evaluate_split(split_with_test(records, held), captioner)
        assert len(report.per_object) >= 8
        assert abs(report.average_f1 - 4 / 8) < 1e-12
        per = [report.per_object[w].f1 for w in held]
        assert min(per) <= report.average_f1 <= max(per)


def old_report_lines(report: F1Report) -> list[str]:
    """The hand-written table formatter that ``format_report_lines`` replaced: the golden copy."""
    lines = [f"mode={report.mode} split={report.split_hash}"]
    lines.append("object\ttp\tfp\tfn\tprecision\trecall\tf1")
    for word in sorted(report.per_object):
        s = report.per_object[word]
        lines.append(f"{word}\t{s.tp}\t{s.fp}\t{s.fn}\t{s.precision!r}\t{s.recall!r}\t{s.f1!r}")
    lines.append(f"average_f1\t{report.average_f1!r}")
    lines.append(f"known_average_f1\t{report.known_average_f1!r}")
    return lines


def old_report_bytes(report: F1Report) -> bytes:
    """The hand-written report document that ``write_report`` replaced: the golden copy."""
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
    return (json.dumps(doc, indent=1) + "\n").encode()


class TestReportGolden:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_scored_split_matches_the_old_formatter(self, tmp_path, seed):
        world = make_world(seed=seed, dim=8, latent_rank=4)
        records = generate_synthetic(world, 80, objects_per_image=(1, 2))
        split = HeldOutSplit(train=[], val=[], test=records, held_out_words=world.names[:3])
        report = evaluate_split(split, noisy_captioner(world.names, seed), known_words=world.names[2:],
                                mode="dnoc", split_hash="0123abcd")
        assert {s.f1 for s in report.per_object.values()} - {0.0, 1.0}  # fractions, not only 0 and 1
        assert format_report_lines(report) == old_report_lines(report)
        write_report(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_bytes() == old_report_bytes(report)

    def test_empty_and_odd_reports_match_the_old_formatter(self, tmp_path):
        odd = F1Report(per_object={"b": ObjectScore(tp=10 ** 20, fp=0, fn=3, precision=1.0, recall=1e-300,
                                                    f1=float("nan")),
                                   "a": ObjectScore()}, average_f1=0.1 + 0.2, known_average_f1=-0.0)
        for report in (F1Report(per_object={}, average_f1=0.0), odd):
            assert format_report_lines(report) == old_report_lines(report)
            write_report(report, tmp_path / "report.json")
            assert (tmp_path / "report.json").read_bytes() == old_report_bytes(report)


class TestReports:
    def make_report(self):
        per = {"zebra": ObjectScore(tp=2, fp=1, fn=1, precision=2 / 3, recall=2 / 3, f1=2 / 3),
               "dog": ObjectScore(tp=1, fp=0, fn=0, precision=1.0, recall=1.0, f1=1.0)}
        return F1Report(per_object=per, average_f1=2 / 3, known_average_f1=1.0, mode="dnoc",
                        split_hash="cafe")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(self.make_report(), path)
        expected = {"mode": "dnoc", "split_hash": "cafe", "average_f1": 2 / 3, "known_average_f1": 1.0,
                    "per_object": {"dog": dict(tp=1, fp=0, fn=0, precision=1.0, recall=1.0, f1=1.0),
                                   "zebra": dict(tp=2, fp=1, fn=1, precision=2 / 3, recall=2 / 3, f1=2 / 3)}}
        doc = json.loads(path.read_text())
        assert doc == expected
        assert json.dumps(doc) == json.dumps(expected)  # key order too, at every level

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self.make_report(), a)
        write_report(self.make_report(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_table_lines_sorted_and_labeled(self):
        lines = format_report_lines(self.make_report())
        assert lines[0] == "mode=dnoc split=cafe"
        body = [l.split("\t")[0] for l in lines[2:4]]
        assert body == ["dog", "zebra"]
        assert lines[4:] == ["average_f1\t0.6666666666666666", "known_average_f1\t1.0"]

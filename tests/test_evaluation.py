import json

import numpy as np
import pytest

from novelcap.data import DatasetRecord, HeldOutSplit
from novelcap.errors import CoverageError
from novelcap.evaluation import (F1Report, ObjectScore, evaluate_split, f1_for_object,
                                 format_report_lines, read_report, write_report)
from novelcap.pipeline import Caption


def cap(*tokens):
    return Caption(tokens=list(tokens))


class TestF1ForObject:
    def test_hand_counted_example(self):
        # 3 zebra images; model mentions zebra in 2 of them plus 1 non-zebra image
        generated = {
            "z1": cap("a", "zebra", "here"),
            "z2": cap("a", "zebra", "here"),
            "z3": cap("a", "horse", "here"),
            "n1": cap("a", "zebra", "here"),
            "n2": cap("a", "dog", "here"),
        }
        references = {
            "z1": [["a", "zebra"]], "z2": [["a", "zebra"]], "z3": [["a", "zebra"]],
            "n1": [["a", "dog"]], "n2": [["a", "dog"]],
        }
        s = f1_for_object("zebra", generated, references)
        assert (s.tp, s.fp, s.fn) == (2, 1, 1)
        assert abs(s.precision - 2 / 3) < 1e-12
        assert abs(s.recall - 2 / 3) < 1e-12
        assert abs(s.f1 - 2 / 3) < 1e-12

    def test_word_never_emitted_scores_zero(self):
        generated = {"a": cap("a", "horse"), "b": cap("a", "horse")}
        references = {"a": [["a", "zebra"]], "b": [["a", "zebra"]]}
        s = f1_for_object("zebra", generated, references)
        assert s.f1 == 0.0 and s.precision == 0.0 and s.recall == 0.0

    def test_perfect_mentions(self):
        generated = {"a": cap("zebra"), "b": cap("dog")}
        references = {"a": [["zebra"]], "b": [["dog"]]}
        assert f1_for_object("zebra", generated, references).f1 == 1.0

    def test_true_negatives_change_nothing(self):
        generated = {"a": cap("zebra")}
        references = {"a": [["zebra"]]}
        base = f1_for_object("zebra", generated, references)
        generated["n"] = cap("dog")
        references["n"] = [["dog"]]
        again = f1_for_object("zebra", generated, references)
        assert (base.tp, base.fp, base.fn) == (again.tp, again.fp, again.fn)

    def test_image_order_irrelevant(self):
        generated = {f"i{k}": cap("zebra" if k % 2 else "dog") for k in range(6)}
        references = {f"i{k}": [["zebra"]] for k in range(6)}
        forward = f1_for_object("zebra", generated, references)
        backward = f1_for_object("zebra", dict(reversed(generated.items())),
                                 dict(reversed(references.items())))
        assert forward == backward

    def test_id_mismatch_is_coverage_error(self):
        with pytest.raises(CoverageError):
            f1_for_object("zebra", {"a": cap()}, {"b": [["zebra"]]})


def records_for(words_per_image):
    out = []
    for i, words in enumerate(words_per_image):
        out.append(DatasetRecord(image_id=f"r{i}", feature=np.zeros(2),
                                 references=[["a"] + list(words)], detections=[]))
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


class TestReports:
    def make_report(self):
        per = {"zebra": ObjectScore(tp=2, fp=1, fn=1, precision=2 / 3, recall=2 / 3, f1=2 / 3),
               "dog": ObjectScore(tp=1, fp=0, fn=0, precision=1.0, recall=1.0, f1=1.0)}
        return F1Report(per_object=per, average_f1=2 / 3, known_average_f1=1.0, mode="dnoc",
                        split_hash="cafe")

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = read_report(path)
        assert loaded == report

    def test_reads_a_report_that_carries_the_retired_unigram_field(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(self.make_report(), path)
        doc = json.loads(path.read_text())
        assert "diagnostic_unigram_precision" not in doc
        doc["diagnostic_unigram_precision"] = 0.5  # what reports written before its removal carry
        path.write_text(json.dumps(doc))
        assert read_report(path) == self.make_report()

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

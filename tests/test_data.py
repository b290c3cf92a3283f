import base64
import dataclasses
import hashlib
import json
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from novelcap import config, data as datamod
from novelcap.data import (_WORLD_KEYS, DEFAULT_HELD_OUT, DEFAULT_INVENTORY, DatasetRecord, build_heldout_split,
                           generate_synthetic, load_dataset, load_manifest, load_world_config,
                           make_world, mentions, save_dataset, split_from_manifest)
from novelcap.errors import CoverageError, DomainError, ParseError, SchemaError
from novelcap.memory import Detections

from support import world_text


def record_mentions(record, words) -> bool:
    """One record at a time, the oracle for the (N, W) ``mentions`` matrix."""
    words = set(words)
    return any(tok in words for ref in record.references for tok in ref)


def world_file_with(tmp_path, line):
    """The small world's config, every key set once, with the line for ``line``'s key replaced by ``line``."""
    path = tmp_path / "world.cfg"
    key = line.split(" =")[0]
    lines = [line if old.startswith(f"{key} =") else old for old in world_text(**SMALL_WORLD).splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return path


def b64(*values) -> str:
    """The base64 text of ``values`` as little-endian float64 bytes, as a dataset line holds an array."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


def line(image_id, feature, features=(), labels=(), scores=(), tokens=("dog",)) -> str:
    """One dataset line as save_dataset writes it: ``feature``, the detection ``features`` (row-major) and
    ``scores`` as base64 of little-endian float64 bytes, the ``labels`` as given."""
    return json.dumps({"image_id": image_id, "feature": b64(*feature), "references": [list(tokens)],
                       "detections": {"features": b64(*features), "labels": list(labels), "scores": b64(*scores)}},
                      separators=(",", ":"))


SMALL_WORLD = dict(names=("dog", "cat", "bus", "tree", "boat", "bird"), dim=8, seed=3, noise_scale=0.05, latent_rank=4)


def small_world(**kwargs):
    return make_world(**dict(SMALL_WORLD, **kwargs))


class TestGenerate:
    def test_zero_noise_single_object_matches_anchor(self):
        world = small_world(noise_scale=0.0, distractors=0)
        records = generate_synthetic(world, 6, objects_per_image=(1, 1))
        for rec in records:
            mentioned = {t for ref in rec.references for t in ref if t in world.names}
            assert len(mentioned) == 1
            idx = world.names.index(next(iter(mentioned)))
            assert np.allclose(rec.feature, world.anchors[idx])
            assert np.allclose(rec.detections.features[rec.detections.labels == idx][0], world.anchors[idx])

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_synthetic(small_world(), 25), a)
        save_dataset(generate_synthetic(small_world(), 25), b)
        assert a.read_bytes() == b.read_bytes()

    def test_coverage_statistics(self):
        world = make_world(seed=11)
        records = generate_synthetic(world, 500, objects_per_image=(1, 3))
        counts = {name: 0 for name in world.names}
        for rec in records:
            for name in world.names:
                if record_mentions(rec, [name]):
                    counts[name] += 1
        assert all(c >= 5 for c in counts.values())
        values = np.array(sorted(counts.values()))
        assert values.max() <= 3 * max(np.median(values), 1)

    def test_mention_matrix_matches_record_mentions(self):
        records = generate_synthetic(make_world(seed=4), 300, objects_per_image=(1, 3))
        words = DEFAULT_INVENTORY + ("a", "picture", "submarine")
        hits = mentions([r.references for r in records], words)
        assert hits.shape == (300, len(words)) and hits.dtype == bool
        assert hits.tolist() == [[record_mentions(r, [w]) for w in words] for r in records]
        assert hits[:, :len(DEFAULT_INVENTORY)].any() and not hits[:, -1].any()
        assert mentions([r.references for r in records], ()).shape == (300, 0)
        assert mentions([], words).shape == (0, len(words))
        assert mentions([[], [[]], [["a"], ["bus", "x"]]], ["bus", "a"]).tolist() == [
            [False, False], [False, False], [True, True]]

    def test_nearest_anchor_recovers_labels_at_zero_noise(self):
        world = small_world(noise_scale=0.0)
        records = generate_synthetic(world, 20, objects_per_image=(1, 2))
        for rec in records:
            sims = rec.detections.features @ world.anchors.T
            assert sims.argmax(axis=1).tolist() == rec.detections.labels.tolist()

    def test_scores_drawn_from_band_per_kind(self):
        world = small_world()
        records = generate_synthetic(world, 30, objects_per_image=(1, 2))
        for rec in records:
            present = {world.names.index(t) for ref in rec.references for t in ref
                       if t in world.names}
            for label, score in zip(rec.detections.labels.tolist(), rec.detections.scores.tolist()):
                lo, hi = world.present_score if label in present else world.distractor_score
                assert lo <= score <= hi

    def test_objects_per_image_exceeding_inventory(self):
        with pytest.raises(DomainError):
            generate_synthetic(small_world(), 5, objects_per_image=(1, 7))

    def test_small_inventory_rejected(self):
        world = make_world(names=("dog", "cat", "bus"), dim=4)
        with pytest.raises(DomainError):
            generate_synthetic(world, 3)

    @pytest.mark.parametrize("n_images, objects_per_image, distractors, corpus_bytes", [
        (1050, (1, 1), 3, 1_579_200), (2000, (1, 3), 12, 8_992_000)], ids=["benchmark", "crowded"])
    def test_the_corpus_budget_holds_features_tables_and_references_at_its_edge(
            self, monkeypatch, n_images, objects_per_image, distractors, corpus_bytes):
        # 20 objects of dim 32, at most hi + distractors rows of dim + 2 floats, two references of 10 tokens
        world = make_world(dim=32, latent_rank=6, distractors=distractors)

        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        monkeypatch.setattr(datamod, "_generate_once", drawn)
        monkeypatch.setattr(config, "BUFFER_BUDGET", corpus_bytes)
        with pytest.raises(Drawn):
            generate_synthetic(world, n_images, objects_per_image)
        monkeypatch.setattr(config, "BUFFER_BUDGET", corpus_bytes - 1)
        with pytest.raises(DomainError) as caught:
            generate_synthetic(world, n_images, objects_per_image)
        assert str(caught.value) == (f"data: n_images {n_images}, refs_per_image 2 and dim 32 size the corpus at "
                                     f"{corpus_bytes} bytes, past the {corpus_bytes - 1}-byte budget")


class TestHeldOutSplit:
    def records(self):
        world = make_world(seed=5)
        return world, generate_synthetic(world, 200, objects_per_image=(1, 2))

    def test_train_never_mentions_held_out(self, tmp_path):
        world, records = self.records()
        split = build_heldout_split(records, DEFAULT_HELD_OUT, seed=1)
        assert not any(record_mentions(r, DEFAULT_HELD_OUT) for r in split.train)
        # grep-style scan over the serialized training references
        path = tmp_path / "train.jsonl"
        save_dataset(split.train, path)
        text = path.read_text()
        import json
        for line in text.splitlines():
            refs = json.loads(line)["references"]
            for ref in refs:
                assert not set(ref) & set(DEFAULT_HELD_OUT)

    def test_partition_law(self):
        _, records = self.records()
        split = build_heldout_split(records, DEFAULT_HELD_OUT, seed=1)
        ids = [r.image_id for part in (split.train, split.val, split.test) for r in part]
        assert len(ids) == len(set(ids)) == len(records)

    def test_test_and_val_cover_every_held_word(self):
        _, records = self.records()
        split = build_heldout_split(records, DEFAULT_HELD_OUT, seed=1)
        for w in DEFAULT_HELD_OUT:
            assert any(record_mentions(r, [w]) for r in split.test)

    def test_empty_held_out_is_plain_ratio_split(self):
        _, records = self.records()
        split = build_heldout_split(records, (), ratios=(0.8, 0.1, 0.1), seed=1)
        assert len(split.train) == round(0.8 * len(records))
        assert len(split.train) + len(split.val) + len(split.test) == len(records)

    def test_missing_held_word_is_coverage_error(self):
        _, records = self.records()
        with pytest.raises(CoverageError):
            build_heldout_split(records, ("submarine",), seed=1)

    def test_repeated_held_word_is_domain_error(self):
        _, records = self.records()
        with pytest.raises(DomainError, match="'bus' is listed twice"):
            build_heldout_split(records, ("bus", "bird", "bus"), seed=1)

    @pytest.mark.parametrize("ratios", [(0.5, 0.2, 0.2), (np.nan, 0.5, 0.5), (0.5, np.nan, 0.5),
                                        (0.5, 0.5, np.nan)])
    def test_bad_ratios(self, ratios):
        _, records = self.records()
        with pytest.raises(DomainError, match=r"^data: split ratios \(.*\) must be non-negative and sum to 1$"):
            build_heldout_split(records, (), ratios=ratios, seed=1)

    def test_deterministic(self):
        _, records = self.records()
        a = build_heldout_split(records, DEFAULT_HELD_OUT, seed=9)
        b = build_heldout_split(records, DEFAULT_HELD_OUT, seed=9)
        assert [r.image_id for r in a.train] == [r.image_id for r in b.train]
        assert [r.image_id for r in a.test] == [r.image_id for r in b.test]


class TestDatasetFiles:
    def test_round_trip_structural_equality(self, tmp_path):
        # negative zero, subnormals, the extremes and the last bit of a mantissa survive too
        edge = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3,
                         np.nextafter(1.0, 2.0), -np.pi])
        records = generate_synthetic(small_world(), 12) + [
            DatasetRecord("edge", edge, [["dog"]], Detections([edge[::-1]], [3], [5e-324]))]
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.image_id == b.image_id
            assert a.feature.tobytes() == b.feature.tobytes()  # every float64 bit for bit
            assert a.references == b.references
            assert len(a.detections) == len(b.detections)
            for column in ("features", "labels", "scores"):
                x, y = getattr(a.detections, column), getattr(b.detections, column)
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_a_line_holds_each_array_as_base64_of_its_little_endian_bytes(self, tmp_path):
        rec = DatasetRecord("x", np.array([1.0, -2.5]), [["a", "dog"]],
                            Detections([[0.5, 0.25, 2.0], [1.0, 0.0, -1.0]], [3, 0], [0.9, 0.5]))
        path = tmp_path / "d.jsonl"
        save_dataset([rec], path)
        assert path.read_text() == line("x", [1.0, -2.5], [0.5, 0.25, 2.0, 1.0, 0.0, -1.0], [3, 0], [0.9, 0.5],
                                        tokens=["a", "dog"]) + "\n"
        table = json.loads(path.read_text())["detections"]  # little-endian and row-major, whatever the machine
        assert base64.b64decode(table["features"]) == struct.pack("<6d", 0.5, 0.25, 2.0, 1.0, 0.0, -1.0)
        assert base64.b64decode(table["scores"]) == struct.pack("<2d", 0.9, 0.5)

    def test_file_bytes_are_pinned(self, tmp_path):
        """The sha256 of a small fixed world's dataset file: a change to the record layout
        or to how features are written must leave every byte of the file as it was."""
        path = tmp_path / "d.jsonl"
        save_dataset(generate_synthetic(small_world(), 12, objects_per_image=(1, 3)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "ca999c954c0b4e20f633818db10847654fd2b662dae1736fdf61e91dcc052ecb"

    def test_empty_references_schema_error(self, tmp_path):
        rec = DatasetRecord("x", np.zeros(4), [], Detections([np.zeros(4)], [0], [0.5]))
        with pytest.raises(SchemaError):
            save_dataset([rec], tmp_path / "bad.jsonl")

    def test_a_record_with_no_detections_round_trips_as_an_empty_table(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [line("a", [1.0]), line("b", [2.0], [1.0, 2.0], [1], [0.5], tokens=["cat"])]
        assert '"detections":{"features":"","labels":[],"scores":""}' in lines[0]
        path.write_text("\n".join(lines) + "\n")
        bare, seen = load_dataset(path)
        assert isinstance(bare.detections, Detections) and len(bare.detections) == 0 and not bare.detections
        assert seen.detections and seen.detections.features.shape == (1, 2)
        again = tmp_path / "again.jsonl"
        save_dataset([bare, seen], again)
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file_names_line(self, tmp_path):
        records = generate_synthetic(small_world(), 3)
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 40])
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_inconsistent_feature_length(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(line("a", [1.0, 2.0]) + "\n" + line("b", [1.0], tokens=["cat"]) + "\n")
        with pytest.raises(SchemaError, match="^data: line 2: feature length 1 != 2$"):
            load_dataset(path)

    def test_inconsistent_detection_feature_length_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [line("0", [1.0], [1.0, 2.0], [0], [0.9]), line("1", [1.0]),  # an empty table has no width
                 line("2", [1.0], [1.0, 2.0, 3.0], [1], [0.8])]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"line 3: detection feature shape \(3,\)"):
            load_dataset(path)

    @pytest.mark.parametrize("label", [2.9, "3", True, 2.0, None, [1]])
    def test_non_integer_detection_label_names_line(self, tmp_path, label):
        path = tmp_path / "d.jsonl"
        good = line("a", [1.0])
        path.write_text(good + "\n" + line("b", [1.0], [1.0], [label], [0.9]) + "\n")
        with pytest.raises(SchemaError, match="line 2: a detection label is not a JSON integer"):
            load_dataset(path)
        path.write_text(good + "\n" + line("b", [1.0], [1.0], [2], [0.9]) + "\n")
        assert load_dataset(path)[1].detections.labels.tolist() == [2]

    def test_repeated_image_id_names_both_lines(self, tmp_path):
        records = generate_synthetic(small_world(), 5)
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)  # save refuses a repeated id: give line 4 line 2's id by hand
        path.write_text(path.read_text().replace(f'"{records[3].image_id}"', f'"{records[1].image_id}"'))
        with pytest.raises(SchemaError, match=f"data: line 4: image_id '{records[1].image_id}' repeats line 2"):
            load_dataset(path)
        # a line's own fault is found first: ids are compared once every line has parsed
        path.write_text(path.read_text() + '{"image_id": "x"}\n')
        with pytest.raises(SchemaError, match="data: line 6: missing field 'feature'"):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda recs: setattr(recs[3], "detections", Detections(np.zeros((1, 9)), [0], [0.5])),
         r"^data: line 4: detection feature shape \(9,\) != \(8,\) of the earlier detections$"),
        (lambda recs: recs[2].feature.__setitem__(1, np.inf),
         "^data: line 3: the image feature is not a vector of finite numbers$"),
        (lambda recs: recs[1].references[0].insert(1, "<PL>"),
         "^data: line 2: reference token '<PL>' is a special token$"),
        (lambda recs: setattr(recs[4], "image_id", recs[0].image_id),
         "^data: line 5: image_id 'synth-00000' repeats line 1$"),
        (lambda recs: setattr(recs[3], "feature", recs[3].feature[:5]), "^data: line 4: feature length 5 != 8$"),
        (lambda recs: setattr(recs[2], "feature", recs[2].feature.reshape(2, 4)),
         "^data: line 3: the image feature is not a vector of finite numbers$"),
        (lambda recs: recs[0].detections.scores.__setitem__(0, 1.5),
         r"^data: line 1: memory: detection score 1.5 outside \[0, 1\]$"),
    ], ids=["detection-width", "non-finite-feature", "special-token", "repeated-id", "feature-length", "not-a-vector",
            "score"])
    def test_a_refused_save_names_the_line_and_leaves_the_file_as_it_was(self, tmp_path, edit, message):
        """Save holds a record to the rule load holds it to, before it opens the file."""
        path = tmp_path / "d.jsonl"
        records = generate_synthetic(small_world(), 6)
        save_dataset(records, path)
        before = path.read_bytes()
        edit(records)
        with pytest.raises(SchemaError, match=message):
            save_dataset(records, path)
        assert path.read_bytes() == before

    def test_a_line_of_the_number_list_layout_is_refused_by_line_and_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        old = ('{"image_id":"synth-00001","feature":[0.1,0.2],"references":[["a","dog"]],'
               '"detections":[{"feature":[0.5,0.5],"label":0,"score":0.9}]}')
        path.write_text(line("synth-00000", [0.1, 0.2], [0.5, 0.5], [0], [0.9]) + "\n" + old + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert str(err.value) == "data: line 2: feature is not base64 text"

    def test_loaded_arrays_are_owned_writable_and_free_the_decoded_bytes(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(generate_synthetic(small_world(), 4), path)
        for rec in load_dataset(path):
            for a in (rec.feature, rec.detections.features, rec.detections.scores):
                assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
                assert a.flags.owndata and a.base is None  # not a view of the line's decoded bytes
            rec.detections.features[0, 0] += 1.0


class TestCompactRecords:
    """Records, detection tables and detections are slotted value types, a
    record's detections are one table, and every reference token is the
    interned string, so a corpus holds one string object per word."""

    def test_a_loaded_crowded_corpus_holds_little_beyond_its_features(self, tmp_path):
        """2,000 records of 1-3 objects and 12 distractors (27,982 detections):
        a record's detections are three arrays, not one object and one array
        per detection, so the loaded corpus holds at most 1.5x the bytes of
        its float64 features (about 1.3x; one object per detection is 1.9x)."""
        world = make_world(seed=7, dim=32, latent_rank=6, noise_scale=0.05, distractors=12)
        path = tmp_path / "crowded.jsonl"
        save_dataset(generate_synthetic(world, 2000, objects_per_image=(1, 3)), path)
        tracemalloc.start()
        try:
            records = load_dataset(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(rec.detections) for rec in records) == 27_982
        features = sum(rec.feature.nbytes + rec.detections.features.nbytes for rec in records)
        assert held <= 1.5 * features, held / features

    @staticmethod
    def assert_tokens_interned(records):
        tokens = [tok for rec in records for ref in rec.references for tok in ref]
        assert all(tok is sys.intern(tok) for tok in tokens)
        assert len({id(tok) for tok in tokens}) == len(set(tokens))

    def test_no_instance_dict(self):
        rec = generate_synthetic(small_world(), 1)[0]
        assert not hasattr(rec, "__dict__")
        assert not hasattr(rec.detections, "__dict__")

    def test_generated_and_loaded_tokens_are_interned(self, tmp_path):
        records = generate_synthetic(small_world(), 20, objects_per_image=(1, 3))
        self.assert_tokens_interned(records)
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        loaded = load_dataset(path)
        self.assert_tokens_interned(loaded)
        assert [rec.references for rec in loaded] == [rec.references for rec in records]

    def test_a_record_replaces_and_stays_mutable(self):
        rec = generate_synthetic(small_world(), 1)[0]
        renamed = dataclasses.replace(rec, image_id="other")
        assert renamed.image_id == "other" and renamed.references is rec.references
        rec.image_id = "changed"  # a record stays mutable
        assert rec.image_id == "changed"


class TestManifest:
    def test_repeated_held_out_word_is_schema_error(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{"held_out_words": ["bus", "bus", "bird"], "class_names": ["bus", "bird"], '
                        '"known_words": [], "train": [], "val": [], "test": []}\n')
        with pytest.raises(SchemaError, match="'bus' is listed twice"):
            load_manifest(path)

    def test_repeated_known_word_is_schema_error(self, tmp_path):
        doc = {"held_out_words": ["bus"], "class_names": ["bus", "bird", "dog"], "known_words": ["bird", "dog"],
               "train": [], "val": [], "test": []}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        assert load_manifest(path) == doc
        path.write_text(json.dumps(dict(doc, known_words=["bird", "dog", "bird"])))
        with pytest.raises(SchemaError, match="^data: manifest known word 'bird' is listed twice$"):
            load_manifest(path)

    @pytest.mark.parametrize("parts", [{"test": ["c", "a"]},  # a training record scored at test time
                                       {"val": ["b", "b"]},
                                       {"train": ["a", "d", "a"]}])
    def test_record_id_listed_twice_is_schema_error(self, tmp_path, parts):
        doc = {"held_out_words": ["bus"], "class_names": ["bus", "bird"], "known_words": ["bird"],
               "train": ["a", "d"], "val": ["b"], "test": ["c"]}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        assert load_manifest(path) == doc
        path.write_text(json.dumps(dict(doc, **parts)))
        repeated = "a" if "val" not in parts else "b"
        with pytest.raises(SchemaError, match=f"data: manifest record id '{repeated}' is listed twice"):
            load_manifest(path)

    def test_detection_label_outside_class_names_names_record(self):
        records = generate_synthetic(small_world(), 4)
        manifest = {"held_out_words": [], "class_names": list(small_world().names),
                    "train": [r.image_id for r in records], "val": [], "test": []}
        assert split_from_manifest(records, manifest).train == records
        records[2].detections.labels[-1] = 6  # 6 classes: 0..5
        with pytest.raises(SchemaError, match=f"record '{records[2].image_id}' has detection label 6"):
            split_from_manifest(records, manifest)


class TestTemplates:
    @pytest.mark.parametrize("template", ["a {} and {x}", "{0} {1}", "a {0}", "a {:>3}", "a {!r}", "a {} {",
                                          "a } {}", "a {} and {[0]}"])
    def test_a_field_that_is_not_a_bare_slot_is_refused_before_any_anchor(self, monkeypatch, template):
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        with pytest.raises(DomainError, match="^data: world templates: "):
            small_world(templates=("a {} is here", template))

    @pytest.mark.parametrize("template", ["hello there", "a {{}} here"])
    def test_a_template_with_no_slot_is_refused_before_any_anchor(self, monkeypatch, template):
        # generation draws a record's template from the pool of its object count, 1 or more
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        with pytest.raises(DomainError) as err:
            small_world(templates=("a {} is here", template))
        assert str(err.value) == f"data: world templates must be free of sentences with no {{}} slot, got {[template]}"

    @pytest.mark.parametrize("template", ["a {} is in the <PL>", "<EOS> {}", "a {} and <UNKNOWN> {}"])
    def test_a_template_holding_a_special_token_is_refused_before_any_anchor(self, monkeypatch, template):
        # generation would write the token into references, which load_dataset then refuses
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        with pytest.raises(DomainError) as err:
            small_world(templates=("a {} is here", template, "a {} and a {}"))
        assert str(err.value) == f"data: world templates must be free of special tokens, got {[template]}"

    def test_escaped_braces_are_literal_text_not_slots(self):
        world = small_world(templates=("a {} and {{}} here",))
        for rec in generate_synthetic(world, 12, objects_per_image=(1, 1)):
            name = world.names[rec.detections.labels[0]]  # the present object's detection comes first
            assert rec.references[0] == ["a", name, "and", "{}", "here"]
        with pytest.raises(DomainError, match="no sentence template with 2 object slots"):
            generate_synthetic(world, 12, objects_per_image=(2, 2))


class TestWorldConfig:
    def test_reads_every_key(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_text("inventory = dog cat bus tree boat bird\ntemplates = a {} here | a {} and a {}\n"
                        "noise_scale = 0.05\nseed = 3\ndim = 8\nlatent_rank = 4\ndistractors = 2\n"
                        "refs_per_image = 1\npresent_score = 0.6 0.9\ndistractor_score = 0.25 0.5\n")
        loaded = load_world_config(path)
        world = small_world(templates=("a {} here", "a {} and a {}"), distractors=2, refs_per_image=1,
                            present_score=(0.6, 0.9), distractor_score=(0.25, 0.5))
        attrs = ("names", "templates", "noise_scale", "seed", "dim", "latent_rank", "distractors",
                 "refs_per_image", "present_score", "distractor_score")
        default = make_world()
        for attr in attrs:  # every key, each at a value that is not its default
            assert getattr(loaded, attr) == getattr(world, attr) != getattr(default, attr), attr
        assert np.array_equal(loaded.anchors, world.anchors)  # same seed, same anchors

    @pytest.mark.parametrize("line, message", [
        ("present_score = 0.9 0.1", "present_score must be 0 <= low <= high <= 1, got (0.9, 0.1)"),
        ("present_score = 2 3", "present_score must be 0 <= low <= high <= 1, got (2.0, 3.0)"),
        ("distractor_score = -0.5 0.5", "distractor_score must be 0 <= low <= high <= 1, got (-0.5, 0.5)"),
        ("refs_per_image = 0", "refs_per_image must be >= 1, got 0"),
        ("distractors = -2", "distractors must be >= 0, got -2"),
        ("noise_scale = nan", "noise_scale must be finite and >= 0, got nan"),
        ("noise_scale = inf", "noise_scale must be finite and >= 0, got inf"),
        ("noise_scale = -0.1", "noise_scale must be finite and >= 0, got -0.1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("inventory = ", "inventory must be non-empty, got []"),
    ], ids=["present-reversed", "present-above-1", "distractor-below-0", "refs-0", "distractors-negative",
            "noise-nan", "noise-inf", "noise-negative", "seed-negative", "inventory-empty"])
    def test_out_of_range_value_is_refused_by_key(self, tmp_path, recwarn, line, message):
        with pytest.raises(DomainError) as caught:
            load_world_config(world_file_with(tmp_path, line))
        assert str(caught.value) == f"data: world {message}"
        assert not recwarn.list

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_text("inventory = dog cat\nbogus = 1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_world_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_text("inventory = dog cat bus tree\n")
        with pytest.raises(ParseError):
            load_world_config(path)

    @pytest.mark.parametrize("line, key", [("present_score = 0.5", "present_score"),
                                           ("present_score = 0.1 0.2 0.3", "present_score"),
                                           ("dim = x", "dim"), ("seed = 1.5", "seed"),
                                           ("noise_scale = ", "noise_scale")],
                             ids=["band-one-number", "band-three-numbers", "dim-word", "seed-float", "noise-empty"])
    def test_a_value_that_does_not_parse_is_refused_by_key(self, tmp_path, line, key):
        line_no = _WORLD_KEYS.index(key) + 1  # world_text writes its keys in table order
        with pytest.raises(ParseError, match=f"^data: line {line_no}: {key} = .* does not parse"):
            load_world_config(world_file_with(tmp_path, line))

    def test_a_repeated_inventory_name_is_refused_by_key_before_any_anchor(self, tmp_path, monkeypatch):
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        path = world_file_with(tmp_path, "inventory = dog dog cat bird")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        with pytest.raises(DomainError) as caught:
            load_world_config(path)
        assert str(caught.value) == ("data: world inventory must be free of repeated names, "
                                     "got ['dog', 'dog', 'cat', 'bird']")

    @pytest.mark.parametrize("name", ["<PL>", "<GO>", "ice cream", "big\tdog", "", 5])
    def test_an_inventory_name_that_is_not_a_word_is_refused_by_key_before_any_anchor(self, monkeypatch, name):
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        with pytest.raises(DomainError) as caught:
            small_world(names=("dog", "cat", name, "bus", "tree"))
        assert str(caught.value) == ("data: world inventory must be words: non-empty strings, no whitespace, "
                                     f"no special token, got {[name]}")

    @pytest.mark.parametrize("key", ["latent_rank", "dim"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rank_or_dim_below_one_is_refused_by_name(self, tmp_path, recwarn, key, value):
        with pytest.raises(DomainError, match=f"^data: world {key} must be >= 1, got {value}$"):
            load_world_config(world_file_with(tmp_path, f"{key} = {value}"))
        assert not recwarn.list  # refused before any anchor is drawn: no divide-by-zero warning

    @pytest.mark.parametrize("latent_rank", [10, 10 ** 12])
    def test_a_dim_past_the_budget_is_refused_by_name_before_any_anchor(self, monkeypatch, latent_rank):
        def no_anchors(*args):
            raise AssertionError("anchors drawn")
        monkeypatch.setattr(datamod, "_make_anchors", no_anchors)
        rank = min(latent_rank, 10 ** 12)  # the basis has min(latent_rank, dim) columns
        with pytest.raises(DomainError) as caught:
            small_world(dim=10 ** 12, latent_rank=latent_rank)
        assert str(caught.value) == (f"data: world dim 1000000000000, latent_rank {latent_rank} and 6 names size the "
                                     f"basis and anchors at {(rank + 6) * 10 ** 12 * 8} bytes, past the "
                                     f"1073741824-byte budget")

    def test_the_budget_holds_the_basis_and_anchors_at_its_edge(self, monkeypatch):
        # four names and a rank-4 basis take 64 bytes a dimension, so 2**24 dimensions fill 2**30 bytes
        monkeypatch.setattr(datamod, "_make_anchors", lambda rng, n, dim, rank: np.zeros((n, 1)))
        four = ("dog", "cat", "bus", "tree")
        assert small_world(names=four, dim=2 ** 24, latent_rank=4).names == four
        with pytest.raises(DomainError, match=f"at {64 * (2 ** 24 + 1)} bytes, past the 1073741824-byte budget$"):
            small_world(names=four, dim=2 ** 24 + 1, latent_rank=4)


class TestInventoryDefaults:
    def test_default_shape(self):
        assert len(DEFAULT_INVENTORY) == 20
        assert len(DEFAULT_HELD_OUT) == 8
        assert set(DEFAULT_HELD_OUT) <= set(DEFAULT_INVENTORY)

    def test_anchors_pairwise_distinct_and_unit(self):
        world = make_world(seed=2)
        norms = np.linalg.norm(world.anchors, axis=1)
        assert np.allclose(norms, 1.0)
        gram = world.anchors @ world.anchors.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.95

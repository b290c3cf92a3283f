"""Every file parser either loads its input or raises a NovelcapError that
names the module (and the line, where there is one): never a raw Python,
numpy, json or struct exception. The crafted cases pin inputs that once
escaped as raw exceptions; the fuzz tests throw bounded random input at
each parser."""

import base64
import dataclasses
import json
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novelcap import checkpoint
from novelcap.cli import main as cli_main
from novelcap.config import RunConfig, load_config, validate_config
from novelcap.data import _WORLD_KEYS, load_dataset, load_manifest, load_world_config
from novelcap.decoder import CaptionModel
from novelcap.errors import CheckpointError, ConfigError, NovelcapError, ParseError, SchemaError



def b64(*values) -> str:
    """The base64 text of ``values`` as little-endian float64 bytes, as a dataset line holds an array."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


def bits(*patterns) -> str:
    """The base64 text of float64 values given by their bit patterns."""
    return base64.b64encode(np.array(patterns, dtype="<u8").tobytes()).decode()


NO_DETECTIONS = {"features": "", "labels": [], "scores": ""}
GOOD_RECORD = {"image_id": "a", "feature": b64(1.0, 2.0), "references": [["a", "dog"]],
               "detections": {"features": b64(0.5, 0.5), "labels": [0], "scores": b64(0.9)}}
GOOD_MANIFEST = {"held_out_words": ["bus"], "class_names": ["bus", "dog"], "known_words": ["dog"],
                 "train": ["a"], "val": [], "test": []}
FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def loads_or_fails_by_name(parse, path):
    """What ``parse`` loads from ``path``, or None if it fails by name."""
    try:
        return parse(path)
    except NovelcapError as e:
        assert str(e).split(":")[0] in {"data", "config", "vocabulary", "checkpoint", "decoder", "memory"}, str(e)


# --- crafted cases --------------------------------------------------------


class TestDataset:
    @pytest.mark.parametrize("line", ["5", '"text"', "null", "[1, 2]"])
    def test_a_line_that_is_not_an_object(self, tmp_path, line):
        path = write_lines(tmp_path / "d.jsonl", json.dumps(GOOD_RECORD), line)
        with pytest.raises(SchemaError, match="data: line 2: a record is not a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize("references", [5, "dog", ["a", "dog"], {"a": 1}])
    def test_references_that_are_not_token_lists(self, tmp_path, references):
        path = write_lines(tmp_path / "d.jsonl", json.dumps(dict(GOOD_RECORD, references=references)))
        with pytest.raises(SchemaError, match="data: line 1: references must be a list of token lists"):
            load_dataset(path)

    @pytest.mark.parametrize("feature, message", [
        (5, "feature is not base64 text"),
        (None, "feature is not base64 text"),
        ({"x": 1.0}, "feature is not base64 text"),
        ([1.0, 2.0], "feature is not base64 text"),  # the number-list layout
        ("1.0", r"feature is not base64 text \(Only base64 data is allowed\)"),
        ("AAAA AAA", r"feature is not base64 text \(Only base64 data is allowed\)"),
        ("\u00e9", r"feature is not base64 text \(string argument should contain only ASCII characters\)"),
        (b64(1.0)[:-1], r"feature is not base64 text \(Incorrect padding\)"),
        (base64.b64encode(bytes(5)).decode(), "feature holds 5 bytes, not whole float64s"),
        (base64.b64encode(bytes(19)).decode(), "feature holds 19 bytes, not whole float64s")],
        ids=["number", "null", "object", "number-list", "dot", "space", "non-ascii", "padding", "5-bytes",
             "19-bytes"])
    def test_a_feature_that_is_not_base64_of_float64s(self, tmp_path, feature, message):
        path = write_lines(tmp_path / "d.jsonl", json.dumps(dict(GOOD_RECORD, feature=feature)))
        with pytest.raises(SchemaError, match=f"^data: line 1: {message}$"):
            load_dataset(path)

    @pytest.mark.parametrize("feature", [b64(float("nan")), b64(1.0, float("inf")), b64(-float("inf"), 0.0),
                                         bits(0x7FF0000000000001), bits(0xFFF8000000000000, 0)],
                             ids=["nan", "inf", "minus-inf", "signalling-nan-bits", "negative-nan-bits"])
    def test_an_image_feature_that_is_not_finite(self, tmp_path, feature):
        width = len(base64.b64decode(feature)) // 8
        first = dict(GOOD_RECORD, feature=b64(*[0.5] * width), detections=NO_DETECTIONS)
        bad = dict(first, image_id="b", feature=feature)
        path = write_lines(tmp_path / "d.jsonl", json.dumps(first), json.dumps(bad))
        with pytest.raises(SchemaError, match="^data: line 2: the image feature is not a vector of finite numbers$"):
            load_dataset(path)

    @pytest.mark.parametrize("table, message", [
        ({"features": b64(0.5, 0.5, 0.5), "labels": [0, 1], "scores": b64(0.9, 0.9)},
         "detections.features holds 3 float64s, not one row per label of 2"),
        ({"features": b64(0.5, 0.5), "labels": [], "scores": ""},
         "detections.features holds 2 float64s, not one row per label of 0"),
        ({"features": b64(0.5, float("nan")), "labels": [0], "scores": b64(0.9)},
         "memory: detection feature contains non-fin"),
        ({"features": b64(0.5, float("-inf")), "labels": [0], "scores": b64(0.9)},
         "memory: detection feature contains non-fin"),
        ({"features": b64(0.5, 0.5), "labels": [0], "scores": b64(1.5)}, "memory: detection score 1.5 outside"),
        ({"features": b64(0.5, 0.5), "labels": [0], "scores": b64(float("nan"))},
         r"memory: detection score nan outside \[0, 1\]"),
        ({"features": b64(0.5, 0.5), "labels": [-1], "scores": b64(0.5)}, "memory: detection label -1 is negative"),
        ({"features": b64(0.5, 0.5), "labels": [2 ** 63], "scores": b64(0.5)}, "Python int too large to convert"),
        ({"features": b64(0.5, 0.5), "labels": [2 ** 64], "scores": b64(0.5)}, "Python int too large to convert"),
        ({"features": b64(0.5, 0.5, 0.5, 0.5), "labels": [0, 1], "scores": b64(0.9)},
         "detections.scores holds 1 float64s, not one per label of 2"),
        ({"features": b64(0.5, 0.5), "labels": [0], "scores": b64(0.9, 0.9)},
         "detections.scores holds 2 float64s, not one per label of 1"),
        ({"features": base64.b64encode(bytes(15)).decode(), "labels": [0], "scores": b64(0.9)},
         "detections.features holds 15 bytes, not whole float64s"),
        ({"features": b64(0.5, 0.5), "labels": [0], "scores": "0.9"},
         r"detections.scores is not base64 text \(Only base64 data is allowed\)"),
        ({"features": b64(0.5, 0.5, 0.5), "labels": [0], "scores": b64(0.9)},
         r"detection feature shape \(3,\) != \(2,\) of the earlier detections"),
        ({"labels": [0], "scores": b64(0.9)}, "the detections are missing field 'features'")],
        ids=["not-whole-rows", "rows-for-no-labels", "nan-feature", "inf-feature", "score-above-1", "nan-score",
             "label-negative", "label-2**63", "label-2**64", "too-few-scores", "too-many-scores", "feature-bytes",
             "score-dot", "wider-than-the-earlier", "missing-features"])
    def test_a_bad_detection_table_names_its_line(self, tmp_path, table, message):
        bad = dict(GOOD_RECORD, image_id="b", detections=table)
        path = write_lines(tmp_path / "d.jsonl", json.dumps(GOOD_RECORD), json.dumps(bad))
        with pytest.raises(SchemaError, match=f"data: line 2: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("changes, message", [
        ({"image_id": ["x"]}, "the image_id is not a JSON string"),
        ({"image_id": 5}, "the image_id is not a JSON string"),
        ({"references": [["a", 5]]}, "a reference token is not a JSON string"),
        ({"references": [["a"], [None]]}, "a reference token is not a JSON string"),
        ({"detections": dict(GOOD_RECORD["detections"], scores=[0.9])}, "detections.scores is not base64 text"),
        ({"detections": dict(GOOD_RECORD["detections"], scores=True)}, "detections.scores is not base64 text"),
        ({"detections": dict(GOOD_RECORD["detections"], features=[[0.5, 0.5]])},
         "detections.features is not base64 text"),
        ({"detections": dict(GOOD_RECORD["detections"], labels=0)}, "the detection labels are not a JSON list"),
        ({"detections": dict(GOOD_RECORD["detections"], labels=[0.0])}, "a detection label is not a JSON integer"),
        ({"detections": dict(GOOD_RECORD["detections"], labels=[True])}, "a detection label is not a JSON integer"),
        ({"detections": []}, "the detections are not a JSON object"),
        ({"detections": ""}, "the detections are not a JSON object"),
        ({"detections": [[0.5, 0.5]]}, "the detections are not a JSON object"),
        ({"detections": [{"feature": [0.5, 0.5], "label": 0, "score": 0.9}]},  # the number-list layout
         "the detections are not a JSON object"),
    ], ids=["id-list", "id-number", "token-number", "token-null", "scores-list", "scores-bool", "features-list",
            "labels-number", "label-float", "label-bool", "detections-empty-list", "detections-empty-string",
            "detection-list", "detection-objects"])
    def test_a_value_of_the_wrong_json_type_is_refused_not_converted(self, tmp_path, changes, message):
        path = write_lines(tmp_path / "d.jsonl", json.dumps(GOOD_RECORD), json.dumps(dict(GOOD_RECORD, **changes)))
        with pytest.raises(SchemaError, match=f"^data: line 2: {message}$"):
            load_dataset(path)

    @pytest.mark.parametrize("token, message", [
        ("<PAD>", "is a special token"),  # never trained: the loss skips every pad target
        ("<EOS>", "is a special token"),  # trains a stop mid-sentence
        ("<GO>", "is a special token"),
        ("<UNKNOWN>", "is a special token"),
        ("<PL>", "is a special token"),
        ("big\ndog", "holds whitespace"),  # saves as two vocabulary lines
        ("big dog", "holds whitespace"),
        ("dog\t", "holds whitespace"),
        (" ", "holds whitespace"),
        ("no\xa0break", "holds whitespace"),  # str.split splits on it too
        ("", "is empty")])  # a vocabulary line of its own that no sentence can hold
    def test_a_reference_token_that_is_reserved_or_holds_whitespace(self, tmp_path, token, message):
        bad = dict(GOOD_RECORD, references=[["a", "dog"], ["a", token, "dog", "<PAD>"]])  # the first is named
        path = write_lines(tmp_path / "d.jsonl", json.dumps(GOOD_RECORD), json.dumps(bad))
        with pytest.raises(SchemaError, match=f"^data: line 2: reference token {re.escape(repr(token))} {message}$"):
            load_dataset(path)
        cased = dict(GOOD_RECORD, references=[["a", "<pad>", "dog"]])  # a word, not the special token
        (loaded,) = load_dataset(write_lines(tmp_path / "ok.jsonl", json.dumps(cased)))
        assert loaded.references == cased["references"]

    @pytest.mark.parametrize("line", ['{"image_id": ' + "9" * 5000 + "}", "[" * 100_000])
    def test_an_integer_too_long_or_nesting_too_deep_names_its_line(self, tmp_path, line):
        path = write_lines(tmp_path / "d.jsonl", json.dumps(GOOD_RECORD), line)
        with pytest.raises(ParseError, match="data: line 2: malformed record"):
            load_dataset(path)


@pytest.mark.parametrize("doc", ["[" * 100_000, '{"x": ' + "9" * 5000 + "}"])
def test_a_document_nested_too_deep_or_with_a_huge_integer(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    with pytest.raises(ParseError, match="^data: manifest: "):
        load_manifest(path)


class TestManifest:
    @pytest.mark.parametrize("field", list(GOOD_MANIFEST))
    def test_a_missing_field_is_refused_by_name(self, tmp_path, field):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({k: v for k, v in GOOD_MANIFEST.items() if k != field}))
        with pytest.raises(SchemaError, match=f"^data: manifest is missing field '{field}'$"):
            load_manifest(path)

    def test_a_syntax_error_names_its_line_as_every_reader_does(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text('{\n"a": \n')
        with pytest.raises(ParseError) as err:
            load_manifest(path)
        assert str(err.value) == "data: manifest: line 3: Expecting value"

    @pytest.mark.parametrize("doc", ["[1, 2]", '"split"', "7", "null"])
    def test_a_document_that_is_not_an_object(self, tmp_path, doc):
        path = tmp_path / "split.json"
        path.write_text(doc)
        with pytest.raises(SchemaError, match="data: manifest is not a JSON object"):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", [("held_out_words", 5), ("held_out_words", "bus"),
                                              ("class_names", [1, 2]), ("train", {"a": 1}),
                                              ("known_words", [["dog"]])])
    def test_a_field_that_is_not_a_list_of_strings(self, tmp_path, field, value):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(dict(GOOD_MANIFEST, **{field: value})))
        with pytest.raises(SchemaError, match=f"data: manifest field '{field}' is not a list of strings"):
            load_manifest(path)


def test_a_checkpoint_entry_of_more_than_two_dimensions(tmp_path):
    # 105 dimensions of size 1 hold one float64 and once failed numpy's reshape, not the loader
    path = tmp_path / "bad.ckpt"
    checkpoint.save_checkpoint(path, {"w": np.ones(1)})
    raw = path.read_bytes()
    at = raw.index(b"w") + 1
    path.write_bytes(raw[:at] + (105).to_bytes(4, "little") + (1).to_bytes(4, "little") * 105 + raw[at + 8:])
    with pytest.raises(CheckpointError, match="checkpoint: parameter 'w' has 105 dimensions, not 1 or 2"):
        checkpoint.load_checkpoint(path)


NOT_UTF8 = b"\xff\xfe bad"
# each reader with three lines it reads without fault: a key-value file sets each key once
NOT_UTF8_CASES = [
    pytest.param(load_config, "config", ("seed = 3\n", "epochs = 2\n", "n_det = 4\n"), id="load_config-config"),
    pytest.param(load_world_config, "data", ("seed = 3\n", "dim = 8\n", "distractors = 1\n"),
                 id="load_world_config-data"),
    (load_dataset, "data", json.dumps(GOOD_RECORD) + "\n"),
    (load_manifest, "data: manifest", "{\n"),
]


def three_lines(good):
    return good if isinstance(good, tuple) else (good,) * 3


class TestNotUtf8:
    @pytest.mark.parametrize("parse, owner, good", NOT_UTF8_CASES)
    def test_names_the_module_and_the_line(self, tmp_path, parse, owner, good):
        lines = three_lines(good)
        path = tmp_path / "file"
        path.write_bytes("".join(lines).encode() + NOT_UTF8 + b"\n" + lines[0].encode())
        with pytest.raises(ParseError, match=f"^{owner}: line 4: not UTF-8 text$"):
            parse(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("parse, owner, good", NOT_UTF8_CASES)
    def test_numbers_the_line_as_text_mode_splits_it(self, tmp_path, parse, owner, good, ending):
        lines = [line.replace("\n", ending) for line in three_lines(good)]
        path = tmp_path / "file"
        path.write_bytes("".join(lines).encode() + NOT_UTF8 + ending.encode() + lines[0].encode())
        with pytest.raises(ParseError, match=f"^{owner}: line 4: not UTF-8 text$"):
            parse(path)

    @pytest.mark.parametrize("padded", [False, True], ids=["as-written", "padded-past-8-KB"])
    @pytest.mark.parametrize("parse, owner", [(load_config, "config"), (load_world_config, "data")])
    def test_a_repeated_key_before_a_bad_byte_is_refused_at_its_line(self, tmp_path, parse, owner, padded):
        # the key repeats on line 2 and the bad byte follows, inside the first 8 KB read block or past it
        padding = b"# a comment line the reader skips, one of many\n" * (200 if padded else 0)
        path = tmp_path / "file"
        path.write_bytes(b"seed = 3\n" * 2 + padding + b"seed = 3\n" + NOT_UTF8 + b"\n" + b"seed = 3\n")
        assert (path.stat().st_size > 8192) == padded
        with pytest.raises(ParseError, match=f"^{owner}: line 2: key 'seed' is set twice \\(first on line 1\\)$"):
            parse(path)

    def test_a_bad_byte_past_the_first_read_block_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes((json.dumps(GOOD_RECORD) + "\n").encode() * 400 + NOT_UTF8 + b"\n")
        with pytest.raises(ParseError, match="^data: line 401: not UTF-8 text$"):
            load_dataset(path)

    def test_the_cli_reports_it_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 3\n" + NOT_UTF8 + b"\n")
        assert cli_main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "novelcap: ParseError: config: line 2: not UTF-8 text\n", err


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, as some editors write it first
# each reader with a text it reads
BOM_CASES = [
    pytest.param(load_config, b"seed = 3\nepochs = 2\n", id="load_config"),
    pytest.param(load_world_config, b"inventory = dog cat bus tree\ntemplates = a {} here\nnoise_scale = 0.05\n"
                 b"seed = 3\ndim = 4\n", id="load_world_config"),
    pytest.param(load_dataset, (json.dumps(GOOD_RECORD) + "\n").encode(), id="load_dataset"),
    pytest.param(load_manifest, json.dumps(GOOD_MANIFEST, indent=1).encode(), id="load_manifest"),
]


class TestByteOrderMark:
    @pytest.mark.parametrize("parse, raw", BOM_CASES)
    def test_a_leading_mark_reads_as_the_text_without_it(self, tmp_path, parse, raw):
        path = tmp_path / "file"
        path.write_bytes(raw)
        without = outcome(parse, path)
        assert without[0] == "read", without
        path.write_bytes(BOM + raw)
        assert outcome(parse, path) == without

    def test_a_mark_past_the_start_is_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 3\n" + BOM + b"epochs = 2\n")
        with pytest.raises(ParseError) as caught:
            load_config(path)
        assert str(caught.value) == r"config: line 2: unknown key '\ufeffepochs'"


# --- fuzzing ---------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.text(max_size=6)
                | st.floats(allow_nan=True, allow_infinity=True))
# base64 of any bytes, sometimes of whole float64s (NaN and Inf included), sometimes cut short
BASE64_TEXT = (st.binary(max_size=40) | st.lists(st.floats(), max_size=5).map(lambda xs: np.array(xs, "<f8").tobytes())
               ).map(lambda raw: base64.b64encode(raw).decode()).flatmap(
                   lambda text: st.just(text) | st.integers(0, len(text)).map(lambda k: text[:k]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


def mutated(doc: dict):
    """``doc`` with some of its fields dropped or replaced by random JSON."""
    return st.fixed_dictionaries({}, optional={key: st.just(value) | JSON_VALUES
                                               for key, value in doc.items()})


@st.composite
def dataset_bytes(draw):
    def record():
        rec = dict(draw(mutated(GOOD_RECORD)))
        if "detections" in rec and draw(st.booleans()):
            n_dets = draw(st.integers(0, 2))
            table = {"features": b64(*[0.5] * 2 * n_dets), "labels": list(range(n_dets)),
                     "scores": b64(*[0.9] * n_dets)}
            rec["detections"] = dict(draw(mutated(table)))
        for owner, key in ((rec, "feature"), (rec.get("detections"), "features"), (rec.get("detections"), "scores")):
            if isinstance(owner, dict) and key in owner and draw(st.booleans()):
                owner[key] = draw(BASE64_TEXT)
        return json.dumps(rec).encode()
    junk = st.binary(max_size=30) | JSON_VALUES.map(lambda v: json.dumps(v).encode())
    lines = [draw(st.none() | junk) for _ in range(draw(st.integers(0, 3)))]
    return b"\n".join(record() if line is None else line for line in lines)


def plain(value):
    """``value`` as nested tuples that are equal exactly when two reads agree: an array by its dtype, shape
    and bytes, a dataclass or slotted object by its fields, any other leaf by its repr (so NaN equals NaN)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple((key, plain(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(plain, value))
    names = ([f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value)
             else getattr(type(value), "__slots__", ()))
    return tuple(plain(getattr(value, name)) for name in names) if names else repr(value)


def outcome(parse, path):
    """("read", what ``parse`` reads from ``path`` as ``plain`` parts), or ("refused", its error and message)."""
    try:
        return "read", plain(parse(path))
    except NovelcapError as e:
        return "refused", f"{type(e).__name__}: {e}"


LINE_ENDINGS = (b"\n", b"\r\n", b"\r")
LINE_PICK = st.integers(0, 63)  # a line, or an offset in it, modulo what the text has


def reads_alike_at_every_line_ending(parse, owner, path, raw, k, at):
    """A text that holds no \\r reads as it did (``path`` holds ``raw``) with its line endings rewritten
    to \\r\\n and to \\r; if the text is read, a \\xff byte put into its line k (``k`` and the
    offset ``at`` taken modulo the lines and the line) is refused as line k at all three endings."""
    if b"\r" in raw:
        return
    first = outcome(parse, path)
    for ending in LINE_ENDINGS[1:]:
        path.write_bytes(raw.replace(b"\n", ending))
        assert outcome(parse, path) == first, ending
    if first[0] == "refused":
        return
    lines = raw.split(b"\n")
    k %= len(lines)
    at %= len(lines[k]) + 1
    lines[k] = lines[k][:at] + b"\xff" + lines[k][at:]
    for ending in LINE_ENDINGS:
        path.write_bytes(ending.join(lines))
        with pytest.raises(ParseError, match=f"^{re.escape(owner)}: line {k + 1}: not UTF-8 text$"):
            parse(path)


def key_value_text(keys, values):
    line = st.tuples(st.sampled_from(keys) | st.text(string.ascii_lowercase + "_-", max_size=5), values).map(
        lambda kv: f"{kv[0]} = {kv[1]}")
    junk = st.text(string.printable, max_size=12)
    return st.lists(line | junk, max_size=8).map("\n".join)


# small numbers only: a world config may ask for arrays of any size
SMALL_VALUES = (st.integers(-3, 12).map(str) | st.floats(-2, 2).map(repr)
                | st.lists(st.sampled_from(["dog", "cat", "bus", "tree", "a", "|", "{}", "0.5", "x"]),
                           max_size=6).map(" ".join))
# a world config that loads, in any line order, so the line-ending checks see texts that are read
GOOD_WORLD = ("inventory = dog cat bus tree", "templates = a {} here | a {} and a {}", "noise_scale = 0.05",
              "seed = 3", "dim = 4", "latent_rank = 2", "distractors = 1", "present_score = 0.55 1.0")
GOOD_WORLDS = st.permutations(GOOD_WORLD).map(lambda lines: ("\n".join(lines) + "\n").encode())


# records that load together: one per image id
GOOD_DATASETS = st.lists(st.sampled_from("abcd"), unique=True, max_size=4).map(
    lambda ids: "".join(json.dumps(dict(GOOD_RECORD, image_id=i)) + "\n" for i in ids).encode())


@FUZZ
@given(raw=dataset_bytes() | GOOD_DATASETS, k=LINE_PICK, at=LINE_PICK)
def test_dataset_lines(workdir, raw, k, at):
    path = workdir / "fuzz.jsonl"
    path.write_bytes(raw)
    loads_or_fails_by_name(load_dataset, path)
    reads_alike_at_every_line_ending(load_dataset, "data", path, raw, k, at)


@FUZZ
@given(raw=key_value_text(_WORLD_KEYS, SMALL_VALUES).map(str.encode) | st.binary(max_size=40) | GOOD_WORLDS,
       k=LINE_PICK, at=LINE_PICK)
def test_world_config(workdir, raw, k, at):
    path = workdir / "fuzz-world.cfg"
    path.write_bytes(raw)
    with np.errstate(all="raise"):  # a floating-point fault while loading fails the case
        loads_or_fails_by_name(load_world_config, path)
        reads_alike_at_every_line_ending(load_world_config, "data", path, raw, k, at)


RUN_KEYS = tuple(RunConfig.__dataclass_fields__)
# 10**12 is past every budget; no mid-sized value is drawn, since a run given one would really allocate
RUN_VALUES = SMALL_VALUES | st.just(str(10 ** 12)) | st.text(max_size=8)
# each key once, so more of the drawn configs load and reach validate_config
ASSIGNMENTS = st.dictionaries(st.sampled_from(RUN_KEYS), RUN_VALUES, max_size=6).map(
    lambda kv: "\n".join(f"{k} = {v}" for k, v in kv.items()))
# default values, which load, for a few keys in any order
GOOD_CONFIGS = st.lists(st.sampled_from(RUN_KEYS), unique=True, max_size=6).map(
    lambda keys: "".join(f"{k} = {getattr(RunConfig(), k)}\n" for k in keys))


@FUZZ
@given(raw=(key_value_text(RUN_KEYS, RUN_VALUES) | ASSIGNMENTS | GOOD_CONFIGS).map(str.encode)
       | st.binary(max_size=40), k=LINE_PICK, at=LINE_PICK)
def test_run_config(workdir, raw, k, at):
    """A config the reader accepts is returned by ``validate_config`` or refused as a ConfigError."""
    path = workdir / "fuzz-run.cfg"
    path.write_bytes(raw)
    cfg = loads_or_fails_by_name(load_config, path)
    if cfg is not None:
        try:
            assert validate_config(cfg) is cfg
        except ConfigError as e:
            assert str(e).startswith("config: "), str(e)
    reads_alike_at_every_line_ending(load_config, "config", path, raw, k, at)


@FUZZ
@given(raw=st.binary(max_size=40) | mutated(GOOD_MANIFEST).map(lambda d: json.dumps(d).encode())
       | JSON_VALUES.map(lambda v: json.dumps(v).encode())
       | st.sampled_from([None, 0, 1]).map(lambda indent: json.dumps(GOOD_MANIFEST, indent=indent).encode()),
       k=LINE_PICK, at=LINE_PICK)
def test_manifest(workdir, raw, k, at):
    path = workdir / "fuzz-split.json"
    path.write_bytes(raw)
    loads_or_fails_by_name(load_manifest, path)
    reads_alike_at_every_line_ending(load_manifest, "data: manifest", path, raw, k, at)


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    path = workdir / "good.ckpt"
    model = CaptionModel(7, hidden_size=2, embed_size=2, image_dim=2, key_dim=2)
    checkpoint.save_checkpoint(path, model.params(), vocab_ref="sha256:00")
    return path.read_bytes()


def load_model(path):
    params, _ = checkpoint.load_checkpoint(path)
    CaptionModel.from_params(params)


@FUZZ
@given(data=st.data())
def test_checkpoint_bytes(workdir, checkpoint_bytes, data):
    raw = bytearray(checkpoint_bytes)
    for _ in range(data.draw(st.integers(0, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    raw = raw[:data.draw(st.integers(0, len(raw)))] if data.draw(st.booleans()) else raw
    path = workdir / "fuzz.ckpt"
    path.write_bytes(bytes(data.draw(st.just(raw) | st.binary(max_size=64))))
    loads_or_fails_by_name(load_model, path)

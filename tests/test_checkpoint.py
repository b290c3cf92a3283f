import struct

import numpy as np
import pytest

from novelcap.checkpoint import load_checkpoint, save_checkpoint
from novelcap.decoder import CaptionModel
from novelcap.errors import CheckpointError


def test_round_trip_bit_exact(tmp_path):
    model = CaptionModel(vocab_size=9, hidden_size=6, embed_size=5, image_dim=7, key_dim=6, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params(), vocab_ref="sha256:00")
    params, vocab_ref = load_checkpoint(path)
    assert vocab_ref == "sha256:00"
    assert set(params) == set(model.params())
    for name, p in model.params().items():
        assert params[name].dtype == np.float64
        assert np.array_equal(params[name], p)
    rebuilt = CaptionModel.from_params(params)
    assert rebuilt.hidden_size == 6 and rebuilt.vocab_size == 9


def test_identical_saves_are_byte_identical(tmp_path):
    model = CaptionModel(vocab_size=9, hidden_size=4, embed_size=4, image_dim=4, key_dim=4, seed=1)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model.params())
    save_checkpoint(b, model.params())
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    model = CaptionModel(vocab_size=9, hidden_size=4, embed_size=4, image_dim=4, key_dim=4, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params())
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    model = CaptionModel(vocab_size=9, hidden_size=4, embed_size=4, image_dim=4, key_dim=4, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params())
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_repeated_parameter_name_is_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"embed": np.ones((2, 3))}, vocab_ref="v.txt")
    raw = path.read_bytes()
    count_at = len(b"NVCP") + 4 + 4 + len(b"v.txt")
    save_checkpoint(path, {"embed": np.zeros((2, 3))}, vocab_ref="v.txt")
    entries = raw[count_at + 4:] + path.read_bytes()[count_at + 4:]
    path.write_bytes(raw[:count_at] + struct.pack("<I", 2) + entries)
    with pytest.raises(CheckpointError, match="'embed' appears twice"):
        load_checkpoint(path)


def header(vocab_ref=b"v.txt", name=b"w", shape=(2,)):
    """A version-1 checkpoint header announcing one parameter, with no data."""
    raw = b"NVCP" + struct.pack("<I", 1)
    raw += struct.pack("<I", len(vocab_ref)) + vocab_ref + struct.pack("<I", 1)
    raw += struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
    return raw + b"".join(struct.pack("<I", d) for d in shape)


@pytest.mark.parametrize("raw", [
    header(vocab_ref=b"\xff\xfe") + b"\x00" * 16,
    header(shape=(0xFFFFFFFF, 0xFFFFFFFF)),
    header(shape=(0xFFFFFFFF,) * 3),
], ids=["non-utf8-ref", "int64-wrapping-shape", "huge-shape"])
def test_corrupt_header_is_checkpoint_error(tmp_path, raw):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

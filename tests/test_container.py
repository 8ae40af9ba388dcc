"""The binary container shared by `.bin` clips and checkpoints: one fault
table run against both loaders, and the CLI exit code for each fault."""

import json
import struct

import numpy as np
import pytest

import skelflow.cli as cli
from skelflow import data, flow
from skelflow.data import ClipFormatError, ClipParseError, MotionClip
from skelflow.flow import CheckpointFormatError

from conftest import make_tiny_config


def _split(raw):
    """(magic, header dict, payload bytes) of a well-formed container."""
    hlen = int.from_bytes(raw[8:16], "little")
    return raw[:8], json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join(magic, header_bytes, payload):
    return magic + len(header_bytes).to_bytes(8, "little") + header_bytes + payload


def _with_header(raw, edit):
    magic, header, payload = _split(raw)
    edit(header)
    return _join(magic, json.dumps(header).encode("ascii"), payload)


def _duplicated_parameter(raw):
    """steps.0.actnorm.scale listed a second time, with its values appended
    once more, so the header and the payload sizes still agree."""
    magic, header, payload = _split(raw)
    entries = header["params"]
    k = [name for name, _ in entries].index("steps.0.actnorm.scale")
    start = 8 * sum(int(np.prod(shape)) for _, shape in entries[:k])
    values = payload[start:start + 8 * int(np.prod(entries[k][1]))]
    entries.append(entries[k])
    return _join(magic, json.dumps(header).encode("ascii"), payload + values)


# Each row maps the bytes of a good file to a malformed one.
CONTAINER_FAULTS = {
    "magic_only": lambda raw: raw[:8],
    "length_field_cut_short": lambda raw: raw[:12],
    "header_length_past_eof": lambda raw: (
        raw[:8] + (len(raw)).to_bytes(8, "little") + raw[16:]),
    "non_object_json_header": lambda raw: _join(
        raw[:8], b"[1,2,3]", _split(raw)[2]),
    "truncated_payload": lambda raw: raw[:-8],
    "partial_float_payload": lambda raw: raw[:-3],
    "eight_trailing_bytes": lambda raw: raw + bytes(8),
}

CHECKPOINT_FAULTS = {
    "header_without_config": lambda raw: _with_header(
        raw, lambda h: h.pop("config")),
    "unknown_config_key": lambda raw: _with_header(
        raw, lambda h: h["config"].update(wings=2)),
    "partial_config": lambda raw: _with_header(
        raw, lambda h: h.update(config={"markers": h["config"]["markers"]})),
    "string_config_value": lambda raw: _with_header(
        raw, lambda h: h["config"].update(history=str(h["config"]["history"]))),
    "stmg_history_shorter_than_temporal_padding": lambda raw: _with_header(
        raw, lambda h: h["config"].update(temporal_kernel=9)),
    "bad_skeleton_text": lambda raw: _with_header(
        raw, lambda h: h.update(skeleton_text="markers two\n")),
    "numeric_skeleton_text": lambda raw: _with_header(
        raw, lambda h: h.update(skeleton_text=5)),
    "list_skeleton_text": lambda raw: _with_header(
        raw, lambda h: h.update(skeleton_text=h["skeleton_text"].splitlines())),
    "non_numeric_shape": lambda raw: _with_header(
        raw, lambda h: h["params"][0].__setitem__(1, ["x"])),
    "negative_shape": lambda raw: _with_header(
        raw, lambda h: h["params"][0].__setitem__(1, [-1] + h["params"][0][1])),
    "shape_mismatch": lambda raw: _with_header(
        raw, lambda h: h["params"][0].__setitem__(1, h["params"][0][1][::-1] + [1])),
    "duplicated_parameter": _duplicated_parameter,
}

CLIP_FAULTS = {
    "header_without_markers": lambda raw: _with_header(
        raw, lambda h: h.pop("markers")),
    "negative_marker_count": lambda raw: _with_header(
        raw, lambda h: h.update(markers=-1, frames=0)),
}

# Rows for text clips: optional header values that do not parse.
TEXT_CLIP_FAULTS = {
    "frames_not_a_number": lambda raw: raw.replace(b"# frames 11", b"# frames abc"),
    "root_relative_not_a_number": lambda raw: raw.replace(
        b"# root_relative 0", b"# root_relative yes"),
}


def _zero_frame_bin(root_relative):
    def write(path):
        header = {"channels": 3, "fps": 20.0, "frames": 0, "markers": 21,
                  "root_relative": root_relative, "source": "", "version": 1}
        data.write_container(path, data.CLIP_MAGIC, header,
                             (np.empty((21, 3, 0)), np.empty((3, 0))))
    return write


def _infinite_fps_text(path):
    clip, _ = data.synth_gait("line:speed=70", steps=8)
    data.save_clip(clip, path, "text")
    raw = path.read_bytes()
    assert b"# fps 20\n" in raw
    path.write_bytes(raw.replace(b"# fps 20\n", b"# fps inf\n"))


# Clip files that parse but break a MotionClip invariant (at least one
# frame, finite positive fps); each row writes one to the given path.
INVALID_CLIPS = {
    "zero_frames_root_relative.bin": _zero_frame_bin(True),
    "zero_frames_world.bin": _zero_frame_bin(False),
    "infinite_fps.txt": _infinite_fps_text,
}


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory, tiny_skeleton):
    path = tmp_path_factory.mktemp("ckpt") / "good.ckpt"
    model = flow.FlowModel.create(make_tiny_config(), tiny_skeleton, seed=3,
                                  init="random")
    flow.save_checkpoint(model, path, meta={"seed": 3})
    return path


@pytest.fixture(scope="module")
def good_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("clip") / "good.bin"
    rng = np.random.default_rng(7)
    clip = MotionClip(rng.normal(size=(5, 3, 11)), rng.normal(size=(3, 11)), 20.0)
    data.save_clip(clip, path, "binary")
    return path


@pytest.fixture(scope="module")
def good_text_clip(tmp_path_factory, good_clip):
    path = tmp_path_factory.mktemp("clip") / "good.txt"
    data.save_clip(data.load_clip(good_clip), path, "text")
    return path


def _corrupt(good, fault, tmp_path, name):
    bad = tmp_path / name
    bad.write_bytes(fault(good.read_bytes()))
    return bad


def test_good_files_load(good_checkpoint, good_clip):
    model, meta = flow.load_checkpoint(good_checkpoint)
    assert meta == {"seed": 3}
    assert data.load_clip(good_clip).positions.shape == (5, 3, 11)


def test_writers_keep_the_version_1_layout(good_checkpoint, good_clip):
    for path, magic in ((good_checkpoint, b"SKFLOW01"), (good_clip, b"SKCLIP01")):
        raw = path.read_bytes()
        _, header, payload = _split(raw)
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        assert raw == magic + struct.pack("<Q", len(blob)) + blob + payload
    clip = data.load_clip(good_clip)
    assert _split(good_clip.read_bytes())[2] == (
        clip.positions.astype("<f8").tobytes() + clip.controls.astype("<f8").tobytes())


def test_container_round_trip_keeps_header_and_values(tmp_path):
    arrays = (np.arange(6.0).reshape(2, 3), np.array(-0.5))
    data.write_container(tmp_path / "c", b"TESTMAG1", {"b": 1, "a": [2]}, arrays)
    raw = (tmp_path / "c").read_bytes()
    assert raw[16:16 + int.from_bytes(raw[8:16], "little")] == b'{"a":[2],"b":1}'
    header, payload = data.read_container(tmp_path / "c", b"TESTMAG1", KeyError)
    assert header == {"a": [2], "b": 1}
    assert payload.dtype == np.float64
    assert np.array_equal(payload, [0, 1, 2, 3, 4, 5, -0.5])


@pytest.mark.parametrize("fault", sorted(CONTAINER_FAULTS))
def test_checkpoint_container_fault_is_typed(good_checkpoint, tmp_path, fault):
    bad = _corrupt(good_checkpoint, CONTAINER_FAULTS[fault], tmp_path, "bad.ckpt")
    with pytest.raises(CheckpointFormatError):
        flow.load_checkpoint(bad)


@pytest.mark.parametrize("fault", sorted(CONTAINER_FAULTS))
def test_clip_container_fault_is_typed(good_clip, tmp_path, fault):
    bad = _corrupt(good_clip, CONTAINER_FAULTS[fault], tmp_path, "bad.bin")
    with pytest.raises(ClipFormatError):
        data.load_clip(bad)


@pytest.mark.parametrize("fault", sorted(CLIP_FAULTS))
def test_clip_header_fault_is_typed(good_clip, tmp_path, fault):
    bad = _corrupt(good_clip, CLIP_FAULTS[fault], tmp_path, "bad.bin")
    with pytest.raises(ClipFormatError):
        data.load_clip(bad)


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_checkpoint_header_fault_is_typed(good_checkpoint, tmp_path, fault):
    bad = _corrupt(good_checkpoint, CHECKPOINT_FAULTS[fault], tmp_path, "bad.ckpt")
    with pytest.raises(CheckpointFormatError):
        flow.load_checkpoint(bad)


@pytest.mark.parametrize("fault", sorted(CONTAINER_FAULTS) + sorted(CHECKPOINT_FAULTS))
def test_generate_with_bad_checkpoint_exits_io(good_checkpoint, tmp_path, capsys, fault):
    table = {**CONTAINER_FAULTS, **CHECKPOINT_FAULTS}
    bad = _corrupt(good_checkpoint, table[fault], tmp_path, "bad.ckpt")
    code = cli.main(["generate", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fault", sorted(CONTAINER_FAULTS) + sorted(CLIP_FAULTS))
def test_evaluate_with_bad_binary_clip_exits_io(good_clip, tmp_path, capsys, fault):
    clips = tmp_path / "clips"
    clips.mkdir()
    table = {**CONTAINER_FAULTS, **CLIP_FAULTS}
    _corrupt(good_clip, table[fault], clips, "clip_000.bin")
    code = cli.main(["evaluate", "--clips", str(clips),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and "Traceback" not in err


def test_evaluate_with_non_ascii_clip_exits_io(tmp_path, capsys):
    clips = tmp_path / "clips"
    clips.mkdir()
    (clips / "clip_000.bin").write_bytes(b"\xff\xfe not a clip")
    code = cli.main(["evaluate", "--clips", str(clips),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fault", sorted(TEXT_CLIP_FAULTS))
def test_evaluate_with_bad_text_clip_exits_io(good_text_clip, tmp_path, capsys, fault):
    clips = tmp_path / "clips"
    clips.mkdir()
    bad = _corrupt(good_text_clip, TEXT_CLIP_FAULTS[fault], clips, "clip_000.txt")
    assert bad.read_bytes() != good_text_clip.read_bytes()
    with pytest.raises(ClipParseError):
        data.load_clip(bad)
    code = cli.main(["evaluate", "--clips", str(clips),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(INVALID_CLIPS))
def test_evaluate_with_invalid_clip_exits_io(tmp_path, capsys, name):
    clips = tmp_path / "clips"
    clips.mkdir()
    INVALID_CLIPS[name](clips / name)
    with pytest.raises(ClipFormatError):
        data.load_clip(clips / name)
    code = cli.main(["evaluate", "--clips", str(clips),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err.startswith("error: ") and "Traceback" not in err

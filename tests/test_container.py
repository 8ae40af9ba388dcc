"""The binary container shared by `.bin` clips and checkpoints: one fault
table run against both loaders, and the CLI exit code for each fault."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

import skelflow.cli as cli
from skelflow import data, flow
from skelflow import skeleton as sk
from skelflow.data import ClipFormatError, ClipParseError, MotionClip
from skelflow.flow import CheckpointFormatError

from conftest import make_tiny_config, random_model


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


def _first_frame_with_header(raw, edit):
    """A clip container cut to its first frame, with its header edited."""
    magic, header, payload = _split(raw)
    m, t = header["markers"], header["frames"]
    values = np.frombuffer(payload, dtype="<f8")
    first = np.concatenate([values[:m * 3 * t].reshape(m, 3, t)[:, :, 0].ravel(),
                            values[m * 3 * t:].reshape(3, t)[:, 0]])
    header["frames"] = 1
    edit(header)
    return _join(magic, json.dumps(header).encode("ascii"), first.tobytes())


def _blocks(raw):
    """(magic, header, [(entry, payload bytes of that entry)]) of a good
    checkpoint, one pair per entry of the header's params."""
    magic, header, payload = _split(raw)
    blocks, start = [], 0
    for entry in header["params"]:
        stop = start + 8 * int(np.prod(entry[1]))
        blocks.append((entry, payload[start:stop]))
        start = stop
    return magic, header, blocks


def _rearranged(rearrange):
    """A row that rearranges the checkpoint's (entry, bytes) pairs, keeping
    each header entry with its payload block, so the header and the payload
    sizes still agree."""
    def fault(raw):
        magic, header, blocks = _blocks(raw)
        blocks = rearrange(blocks)
        header["params"] = [entry for entry, _ in blocks]
        return _join(magic, json.dumps(header).encode("ascii"),
                     b"".join(block for _, block in blocks))
    return fault


def _find(blocks, name):
    return [entry[0] for entry, _ in blocks].index(name)


def _duplicated(blocks):
    """steps.0.actnorm.scale listed a second time, with its values."""
    return blocks + [blocks[_find(blocks, "steps.0.actnorm.scale")]]


def _swapped(blocks):
    """The first two parameters (of different shapes) trade places."""
    assert blocks[0][0][1] != blocks[1][0][1]
    return [blocks[1], blocks[0]] + blocks[2:]


def _dropped(blocks):
    k = _find(blocks, "steps.1.mix.weight")
    return blocks[:k] + blocks[k + 1:]


def _renamed(blocks):
    (name, shape), block = blocks[0]
    return [((name + "_old", shape), block)] + blocks[1:]


def _with_values(name, index, value):
    """A row that sets entry `index` of the named array to `value`."""
    def set_value(blocks):
        k = _find(blocks, name)
        values = np.frombuffer(blocks[k][1], dtype="<f8").copy()
        values[index] = value
        return blocks[:k] + [(blocks[k][0], values.tobytes())] + blocks[k + 1:]
    return _rearranged(set_value)


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
    "duplicated_parameter": _rearranged(_duplicated),
    "swapped_parameters": _rearranged(_swapped),
    "dropped_parameter": _rearranged(_dropped),
    "renamed_parameter": _rearranged(_renamed),
    "inflated_lstm_hidden": lambda raw: _with_header(
        raw, lambda h: h["config"].update(lstm_hidden=1200)),
    "format_version_true": lambda raw: _with_header(
        raw, lambda h: h.update(format_version=True)),
    "format_version_float": lambda raw: _with_header(
        raw, lambda h: h.update(format_version=1.0)),
    "negative_data_std_entry": _with_values("buffers.data_std", 5, -1.0),
    "zero_data_std_entry": _with_values("buffers.data_std", 5, 0.0),
    "nan_data_std_entry": _with_values("buffers.data_std", 5, np.nan),
    "infinite_data_mean_entry": _with_values("buffers.data_mean", 0, np.inf),
    "nan_parameter_value": _with_values("steps.0.mix.weight", 1, np.nan),
    "infinite_parameter_value": _with_values("encoder.blocks.0.sgcn.weight", 2, -np.inf),
}

CLIP_FAULTS = {
    "header_without_markers": lambda raw: _with_header(
        raw, lambda h: h.pop("markers")),
    "negative_marker_count": lambda raw: _with_header(
        raw, lambda h: h.update(markers=-1, frames=0)),
    "header_without_version": lambda raw: _with_header(
        raw, lambda h: h.pop("version")),
    "unsupported_version": lambda raw: _with_header(
        raw, lambda h: h.update(version=2)),
    "float_version": lambda raw: _with_header(
        raw, lambda h: h.update(version=1.0)),
    "root_relative_string": lambda raw: _with_header(
        raw, lambda h: h.update(root_relative="false")),
    "root_relative_number": lambda raw: _with_header(
        raw, lambda h: h.update(root_relative=1)),
    "float_marker_count": lambda raw: _with_header(
        raw, lambda h: h.update(markers=h["markers"] + 0.9)),
    "string_marker_count": lambda raw: _with_header(
        raw, lambda h: h.update(markers=str(h["markers"]))),
    "bool_frame_count": lambda raw: _first_frame_with_header(
        raw, lambda h: h.update(frames=True)),
    "string_fps": lambda raw: _with_header(
        raw, lambda h: h.update(fps=str(h["fps"]))),
    "bool_fps": lambda raw: _with_header(
        raw, lambda h: h.update(fps=True)),
    "four_channels": lambda raw: _with_header(
        raw, lambda h: h.update(channels=4)),
    "header_without_channels": lambda raw: _with_header(
        raw, lambda h: h.pop("channels")),
    "list_source": lambda raw: _with_header(
        raw, lambda h: h.update(source=[1, 2])),
}

# Rows for text clips: optional header values that do not parse.
TEXT_CLIP_FAULTS = {
    "frames_not_a_number": lambda raw: raw.replace(b"# frames 11", b"# frames abc"),
    "root_relative_not_a_number": lambda raw: raw.replace(
        b"# root_relative 0", b"# root_relative yes"),
    "root_relative_not_a_flag": lambda raw: raw.replace(
        b"# root_relative 0", b"# root_relative 2"),
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
    model = random_model(make_tiny_config(), tiny_skeleton, seed=3)
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


def test_load_makes_no_random_draw(good_checkpoint, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")
    want = flow.load_checkpoint(good_checkpoint)[0]
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    model, _ = flow.load_checkpoint(good_checkpoint)
    assert [k for k, _ in model.named_parameters()] == \
        [k for k, _ in want.named_parameters()]
    for (_, got), (_, ref) in zip(model.named_parameters(), want.named_parameters()):
        assert np.array_equal(got, ref)


def test_inflated_header_is_rejected_before_it_allocates(tmp_path):
    """A desk checkpoint whose header claims lstm_hidden 1200: the model
    that header describes would hold hundreds of MB, and the check against
    the header's params must fail before any of it is allocated."""
    path = tmp_path / "desk.ckpt"
    flow.save_checkpoint(
        flow.FlowModel.create(flow.desk_config(), sk.default_skeleton()), path)
    bad = _corrupt(path, CHECKPOINT_FAULTS["inflated_lstm_hidden"], tmp_path, "bad.ckpt")
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match="params"):
            flow.load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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


def test_clip_header_fields_that_load(good_clip, tmp_path):
    """A JSON int fps reads as a float, an absent source as "", and a
    one-frame cut of the good clip loads."""
    bad = _corrupt(good_clip, lambda raw: _with_header(
        raw, lambda h: (h.update(fps=20), h.pop("source"))), tmp_path, "int_fps.bin")
    clip = data.load_clip(bad)
    assert clip.fps == 20.0 and type(clip.fps) is float and clip.source == ""
    one = _corrupt(good_clip, lambda raw: _first_frame_with_header(raw, lambda h: None),
                   tmp_path, "one_frame.bin")
    assert np.array_equal(data.load_clip(one).positions,
                          data.load_clip(good_clip).positions[:, :, :1])


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

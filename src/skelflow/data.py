"""Motion clips: file formats, resampling, windowing, augmentation, control
extraction and a synthetic gait generator with analytic ground truth.

Conventions used throughout the package:

* positions are (M, 3, T) float64 centimetres; channel order in the local
  (root-relative) frame is x = lateral (towards the left), y = forward,
  z = up; world-frame clips use fixed world axes with z up
* controls are (3, T): row 0 forward and row 1 sideways per-frame
  displacement in cm, row 2 per-frame heading change in radians, each
  expressed in the heading frame of the previous frame; column 0 repeats
  column 1 so the track has no bogus leading zero; `_controls_from_path`
  and `_path_from_controls` are the one codec between path and controls
* time reversal (`reverse_sequence`) negates all three control rows (velocities)
* a clip is either world-frame or root-relative; `to_root_relative` and
  `world_positions` convert between the two using a smoothed reference
  trajectory, so the root marker keeps a little residual motion instead of
  degenerating to a constant channel
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, replace

import numpy as np

from .skeleton import default_skeleton

CLIP_MAGIC = b"SKCLIP01"
DEFAULT_WINDOW_FRAMES = 80
SMOOTH_WINDOW = 7
STD_FLOOR = 1e-6


class ClipFormatError(ValueError):
    """Structurally invalid clip data or container."""


class ClipParseError(ClipFormatError):
    """Text clip failed to parse; the message carries the line number."""


class UpsampleRequestError(ValueError):
    """resample was asked to raise the frame rate."""


class MissingMirrorMapError(ValueError):
    """Mirroring requested on a skeleton without mirror pairs."""


class PathSpecError(ValueError):
    """Malformed or physically infeasible walker path parameters."""


@dataclass
class MotionClip:
    """A marker sequence with its control track; a training window is a
    MotionClip too.

    positions: (M, 3, T) cm with T >= 1.  controls: (3, T).  fps finite and
    > 0.  root_relative tells whether positions live in the heading-aligned
    root frame (True) or in world coordinates (False).
    """

    positions: np.ndarray
    controls: np.ndarray
    fps: float
    root_relative: bool = False
    source: str = ""

    def __post_init__(self):
        self.positions = np.ascontiguousarray(np.asarray(self.positions, dtype=np.float64))
        self.controls = np.ascontiguousarray(np.asarray(self.controls, dtype=np.float64))
        self.fps = float(self.fps)
        self.root_relative = bool(self.root_relative)
        if self.positions.ndim != 3 or self.positions.shape[1] != 3:
            raise ClipFormatError(
                f"positions must be (markers, 3, frames), got {self.positions.shape}")
        frames = self.positions.shape[2]
        if frames < 1:
            raise ClipFormatError("clip has no frames")
        if self.controls.shape != (3, frames):
            raise ClipFormatError(
                f"controls must be (3, {frames}), got {self.controls.shape}")
        if not 0 < self.fps < math.inf:
            raise ClipFormatError(f"fps must be finite and positive, got {self.fps}")
        # `.all()` as a method costs less per call than `np.all`, and every
        # training window from `windows` and `augment` pays these checks
        if not np.isfinite(self.positions).all():
            raise ClipFormatError("positions contain non-finite values")
        if not np.isfinite(self.controls).all():
            raise ClipFormatError("controls contain non-finite values")

    @property
    def marker_count(self):
        return self.positions.shape[0]

    @property
    def frame_count(self):
        return self.positions.shape[2]

    @property
    def duration(self):
        return (self.frame_count - 1) / self.fps

    def copy(self):
        return MotionClip(self.positions.copy(), self.controls.copy(),
                          self.fps, self.root_relative, self.source)


# -- clip files ---------------------------------------------------------------------


def _column_names(markers):
    names = []
    for m in range(markers):
        names.extend([f"m{m}x", f"m{m}y", f"m{m}z"])
    names.extend(["c_fwd", "c_side", "c_rot"])
    return names


def _write_text(clip, path):
    m, _, t = clip.positions.shape
    rows = np.concatenate(
        [clip.positions.reshape(m * 3, t), clip.controls], axis=0).T
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# motion clip v1\n")
        fh.write(f"# fps {clip.fps:.17g}\n")
        fh.write(f"# markers {m}\n")
        fh.write(f"# frames {t}\n")
        fh.write(f"# root_relative {int(clip.root_relative)}\n")
        if clip.source:
            fh.write(f"# source {clip.source}\n")
        fh.write(f"# columns {' '.join(_column_names(m))}\n")
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def _bad_token_error(line_no, tokens):
    """The ClipParseError for the first of a data line's tokens that
    `float()` rejects, for a line whose one-call conversion failed."""
    for i, tok in enumerate(tokens):
        try:
            float(tok)
        except ValueError:
            return ClipParseError(f"line {line_no}, column {i + 1}: invalid number '{tok}'")


def _read_text(path):
    header = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                parts = body.split(None, 1)
                if len(parts) == 2 and parts[0] in ("fps", "markers", "frames",
                                                    "root_relative", "source"):
                    header[parts[0]] = parts[1]
                continue
            tokens = line.split()
            # one conversion per line, with float()'s grammar; only a line
            # with a bad token is scanned token by token
            try:
                values = np.array(tokens, dtype=np.float64)
            except ValueError:
                raise _bad_token_error(line_no, tokens) from None
            rows.append((line_no, values))
    if "fps" not in header:
        raise ClipParseError("missing '# fps' header")
    if "markers" not in header:
        raise ClipParseError("missing '# markers' header")
    try:
        fps = float(header["fps"])
        markers = int(header["markers"])
        frames = int(header["frames"]) if "frames" in header else None
    except ValueError as exc:
        raise ClipParseError(f"bad header value: {exc}") from None
    flag = header.get("root_relative", "0")
    if flag not in ("0", "1"):
        raise ClipParseError(f"bad header value: root_relative must be 0 or 1, got {flag!r}")
    if not rows:
        raise ClipParseError("clip has no frames")
    want = markers * 3 + 3
    for line_no, values in rows:
        if values.shape[0] != want:
            raise ClipParseError(
                f"line {line_no}: marker-count mismatch, expected {want} "
                f"columns for {markers} markers, got {values.shape[0]}")
    if frames is not None and frames != len(rows):
        raise ClipParseError(
            f"header declares {frames} frames but file has {len(rows)}")
    table = np.stack([v for _, v in rows], axis=1)
    positions = table[:markers * 3].reshape(markers, 3, len(rows))
    controls = table[markers * 3:]
    return MotionClip(positions, controls, fps, root_relative=flag == "1",
                      source=header.get("source", ""))


def write_container(path, magic, header, arrays):
    """Write the binary container shared by clips and checkpoints.

    Layout: 8 magic bytes, the header length as a little-endian u64, the
    header as canonical (sorted, compact) ASCII JSON, then every array as
    little-endian float64 in C order, back to back.
    """
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path, magic, error):
    """Read a `write_container` file; returns (header dict, float64 payload).

    Raises `error` on a wrong magic, a prefix shorter than 16 bytes, a header
    length past the end of the file, a header that is not a JSON object or a
    payload that is not a whole number of float64 values.  The caller checks
    that the payload holds exactly the values its header declares.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(16)
        if prefix[:8] != magic:
            raise error(f"{path}: bad magic {prefix[:8]!r}, expected {magic!r}")
        if len(prefix) < 16:
            raise error(f"{path}: truncated header length")
        hlen = int.from_bytes(prefix[8:], "little")
        rest = os.fstat(fh.fileno()).st_size - 16 - hlen
        if rest < 0:
            raise error(f"{path}: header length {hlen} runs past the end of the file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{path}: unreadable header: {exc}") from None
        if not isinstance(header, dict):
            raise error(f"{path}: header is not a JSON object")
        if rest % 8:
            raise error(f"{path}: payload of {rest} bytes is not whole float64 values")
        payload = np.fromfile(fh, dtype="<f8")
    return header, payload


def config_fields(cls, d, prefix=""):
    """Keyword arguments for config dataclass `cls` from a JSON object: each
    value has the type of its field's default (a bool is no int, an int may
    stand for a float, a list for a tuple); a factory field uses `from_dict`."""
    if not isinstance(d, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'config'} must be a JSON object, "
                         f"got {type(d).__name__}")
    fields = cls.__dataclass_fields__
    kwargs = {}
    for key, value in d.items():
        if key not in fields:
            raise ValueError(f"unknown config key '{prefix}{key}'")
        default = fields[key].default
        if default is MISSING:
            kwargs[key] = fields[key].default_factory.from_dict(value)
        else:
            kwargs[key] = _config_value(prefix + key, value, default)
    return kwargs


def _config_value(name, value, default):
    kind = list if isinstance(default, tuple) else type(default)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is list:
        return tuple(_config_value(name, item, default[0]) for item in value)
    return value


def _write_binary(clip, path):
    m, _, t = clip.positions.shape
    header = {
        "channels": 3,
        "fps": clip.fps,
        "frames": t,
        "markers": m,
        "root_relative": clip.root_relative,
        "source": clip.source,
        "version": 1,
    }
    write_container(path, CLIP_MAGIC, header, (clip.positions, clip.controls))


def _read_binary(path):
    header, payload = read_container(path, CLIP_MAGIC, ClipFormatError)
    version = header.get("version")
    if type(version) is not int or version != 1:
        raise ClipFormatError(f"{path}: unsupported clip version {version!r}")
    root_relative = header.get("root_relative", False)
    if type(root_relative) is not bool:
        raise ClipFormatError(f"{path}: root_relative must be a JSON bool, got {root_relative!r}")

    def field(key, types, what):
        if key not in header:
            raise ClipFormatError(f"{path}: incomplete clip header: no {key!r}")
        # `type` rather than isinstance, so a JSON bool is not an int
        if type(header[key]) not in types:
            raise ClipFormatError(f"{path}: {key} must be {what}, got {header[key]!r}")
        return header[key]

    m, t = field("markers", (int,), "a JSON int"), field("frames", (int,), "a JSON int")
    fps = field("fps", (int, float), "a JSON number")
    if field("channels", (int,), "a JSON int") != 3:
        raise ClipFormatError(f"{path}: channels must be 3, got {header['channels']!r}")
    source = header.get("source", "")
    if type(source) is not str:
        raise ClipFormatError(f"{path}: source must be a JSON string, got {source!r}")
    if min(m, t) < 0 or payload.size != (m * 3 + 3) * t:
        raise ClipFormatError(
            f"payload holds {payload.size} values, header declares {m} markers x {t} frames")
    positions = payload[:m * 3 * t].reshape(m, 3, t)
    controls = payload[m * 3 * t:].reshape(3, t)
    return MotionClip(positions, controls, fps, root_relative=root_relative, source=source)


def save_clip(clip, path, format="text"):
    """Write a clip as tabular text or as the binary container."""
    if format == "text":
        _write_text(clip, path)
    elif format == "binary":
        _write_binary(clip, path)
    else:
        raise ValueError(f"unknown clip format '{format}'")


def load_clip(path):
    """Read a clip, binary if it starts with the container magic, else text."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == CLIP_MAGIC:
        return _read_binary(path)
    try:
        return _read_text(path)
    except UnicodeDecodeError as exc:
        raise ClipParseError(f"{path}: not an ASCII text clip: {exc}") from None


# -- reference trajectory and controls ----------------------------------------------


def _smooth1(track, window):
    """Centered moving average with linear end extrapolation.

    Exact on affine signals, so straight constant-velocity trajectories and
    steady turns survive smoothing unchanged.
    """
    track = np.asarray(track, dtype=np.float64)
    n = track.shape[0]
    w = int(window)
    if w % 2 == 0:
        w -= 1
    if w > n:
        w = n if n % 2 == 1 else n - 1
    if w <= 1:
        return track.copy()
    pad = w // 2
    left = track[0] - np.arange(pad, 0, -1) * (track[1] - track[0])
    right = track[-1] + np.arange(1, pad + 1) * (track[-1] - track[-2])
    ext = np.concatenate([left, track, right])
    return np.convolve(ext, np.full(w, 1.0 / w), mode="valid")


def _reference_trajectory(positions, skeleton_spec=None):
    """Smoothed root path (2, T) and heading (T,) from world positions.

    Heading is the planar angle of the lateral left-minus-right marker axis,
    unwrapped over time.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if skeleton_spec is None:
        skeleton_spec = default_skeleton()
    if positions.ndim != 3 or positions.shape[0] != skeleton_spec.marker_count:
        raise ValueError(
            f"positions must be ({skeleton_spec.marker_count}, 3, T), got {positions.shape}")
    if positions.shape[2] < 2:
        raise ValueError("need at least 2 frames to extract controls")
    if skeleton_spec.lateral_markers is None:
        raise ValueError("skeleton config must name a lateral marker pair")
    left_ix, right_ix = skeleton_spec.lateral_markers
    late = positions[left_ix, 0:2, :] - positions[right_ix, 0:2, :]
    if np.any(np.hypot(late[0], late[1]) < 1e-9):
        raise ValueError("lateral markers coincide; heading undefined")
    theta = np.unwrap(np.arctan2(late[1], late[0]))
    root_xy = positions[skeleton_spec.root_marker, 0:2, :]
    ref_xy = np.stack([_smooth1(root_xy[0], SMOOTH_WINDOW),
                       _smooth1(root_xy[1], SMOOTH_WINDOW)])
    return ref_xy, _smooth1(theta, SMOOTH_WINDOW)


def _controls_from_path(xy, theta):
    """Control track (3, T) of a planar path xy (2, T) with heading theta
    (T,); `_path_from_controls` from the pose (xy[:, 0], theta[0]) inverts it."""
    dxy = xy[:, 1:] - xy[:, :-1]
    cos, sin = np.cos(theta[:-1]), np.sin(theta[:-1])
    controls = np.zeros((3, theta.shape[0]))
    controls[0, 1:] = -sin * dxy[0] + cos * dxy[1]
    controls[1, 1:] = cos * dxy[0] + sin * dxy[1]
    controls[2, 1:] = theta[1:] - theta[:-1]
    controls[:, 0] = controls[:, 1]
    return controls


def _path_from_controls(controls, initial_xy, initial_heading):
    """Integrate a control track (3, T) into a planar path (2, T) and its
    heading (T,), starting at the given pose; column 0 is not used."""
    c = controls
    theta = np.empty(c.shape[1])
    theta[0] = initial_heading
    theta[1:] = initial_heading + np.cumsum(c[2, 1:])
    cos_p, sin_p = np.cos(theta[:-1]), np.sin(theta[:-1])
    xy = np.empty((2, c.shape[1]))
    xy[:, 0] = initial_xy
    xy[0, 1:] = xy[0, 0] + np.cumsum(cos_p * c[1, 1:] - sin_p * c[0, 1:])
    xy[1, 1:] = xy[1, 0] + np.cumsum(sin_p * c[1, 1:] + cos_p * c[0, 1:])
    return xy, theta


def extract_controls(positions, skeleton_spec=None):
    """Per-frame forward/sideways/rotational velocities of the root path.

    Displacements are expressed in the heading frame of the previous frame;
    column 0 repeats column 1.
    """
    return _controls_from_path(*_reference_trajectory(positions, skeleton_spec))


def to_root_relative(clip, skeleton_spec=None):
    """Re-express a world clip in the smoothed heading-aligned root frame.

    The reference trajectory is folded into the control track; vertical
    coordinates stay absolute.  Root-relative input is returned as a copy.
    """
    if clip.root_relative:
        return clip.copy()
    ref_xy, theta = _reference_trajectory(clip.positions, skeleton_spec)
    cos, sin = np.cos(theta)[None], np.sin(theta)[None]
    dx = clip.positions[:, 0, :] - ref_xy[0][None]
    dy = clip.positions[:, 1, :] - ref_xy[1][None]
    local = clip.positions.copy()
    local[:, 0, :] = cos * dx + sin * dy
    local[:, 1, :] = -sin * dx + cos * dy
    return MotionClip(local, _controls_from_path(ref_xy, theta), clip.fps,
                      root_relative=True, source=clip.source)


def world_positions(clip, initial_xy=(0.0, 0.0), initial_heading=0.0):
    """Recompose world-frame positions from a root-relative clip.

    The root path is re-integrated from the control track starting at the
    given pose; world clips are returned unchanged (copy).
    """
    if not clip.root_relative:
        return clip.positions.copy()
    ref, theta = _path_from_controls(clip.controls, initial_xy, initial_heading)
    cos, sin = np.cos(theta)[None], np.sin(theta)[None]
    lx, ly = clip.positions[:, 0, :], clip.positions[:, 1, :]
    world = clip.positions.copy()
    world[:, 0, :] = ref[0][None] + cos * lx - sin * ly
    world[:, 1, :] = ref[1][None] + sin * lx + cos * ly
    return world


# -- resampling ----------------------------------------------------------------------


def resample(clip, target_fps=20.0):
    """Downsample a clip to target_fps by linear interpolation.

    Positions interpolate per channel; controls integrate to a cumulative
    path, interpolate, and re-difference so they stay per-frame velocities
    at the new rate.  Asking for a higher rate raises UpsampleRequestError;
    the same rate returns a bit-exact copy.
    """
    target_fps = float(target_fps)
    if target_fps <= 0:
        raise ValueError("target fps must be positive")
    if target_fps > clip.fps:
        raise UpsampleRequestError(
            f"cannot upsample {clip.fps:g} fps to {target_fps:g} fps")
    if target_fps == clip.fps:
        return clip.copy()
    t = clip.frame_count
    if t < 2:
        raise ValueError("clip too short to resample")
    ratio = clip.fps / target_fps
    t_new = int(np.floor((t - 1) / ratio + 1e-9)) + 1
    if t_new < 2:
        raise ValueError("clip too short at the target rate")
    grid = np.minimum(np.arange(t_new) * ratio, t - 1)
    src = np.arange(t)

    m = clip.marker_count
    flat = clip.positions.reshape(m * 3, t)
    positions = np.stack([np.interp(grid, src, row) for row in flat])
    positions = positions.reshape(m, 3, t_new)

    path, theta = _path_from_controls(clip.controls, (0.0, 0.0), 0.0)
    path_q = np.stack([np.interp(grid, src, path[0]), np.interp(grid, src, path[1])])
    controls = _controls_from_path(path_q, np.interp(grid, src, theta))
    return MotionClip(positions, controls, target_fps,
                      root_relative=clip.root_relative, source=clip.source)


# -- windowing and augmentation -------------------------------------------------------


def windows(clip, length=DEFAULT_WINDOW_FRAMES, overlap=0.5):
    """Slice a clip into fixed-length windows; trailing partials drop.

    Stride is length * (1 - overlap); a clip shorter than one window yields
    an empty list.  Each window is a MotionClip that owns its arrays.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    stride = max(1, int(round(length * (1.0 - overlap))))
    out = []
    for start in range(0, clip.frame_count - length + 1, stride):
        out.append(replace(
            clip, positions=clip.positions[:, :, start:start + length].copy(),
            controls=clip.controls[:, start:start + length].copy()))
    return out


def mirror_window(window, skeleton_spec):
    """Lateral mirror: negate the x channel, swap left/right markers,
    negate the sideways and rotational controls."""
    if not window.root_relative:
        raise ValueError("mirroring is defined on root-relative data")
    if not skeleton_spec.mirror_pairs:
        raise MissingMirrorMapError("skeleton config declares no mirror pairs")
    perm = skeleton_spec.mirror_permutation()
    positions = window.positions[perm].copy()
    positions[:, 0, :] = -positions[:, 0, :]
    controls = window.controls.copy()
    controls[1] = -controls[1]
    controls[2] = -controls[2]
    return replace(window, positions=positions, controls=controls)


def reverse_sequence(frames, controls):
    """Reverse a clip in time.

    Frame order flips; the control track flips and every channel negates,
    because forward, sideways and rotational controls are per-frame
    velocities.  Applying the operation twice returns the input.
    """
    frames = np.asarray(frames, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2 or controls.shape[0] != 3:
        raise ValueError(f"controls must be (3, T), got {controls.shape}")
    if frames.shape[-1] != controls.shape[-1]:
        raise ValueError(
            f"frames cover {frames.shape[-1]} steps but controls cover {controls.shape[-1]}")
    return frames[..., ::-1].copy(), (-controls[:, ::-1]).copy()


def reverse_window(window):
    """Time reversal of a window (`reverse_sequence`)."""
    positions, controls = reverse_sequence(window.positions, window.controls)
    return replace(window, positions=positions, controls=controls)


def augment(window, skeleton_spec):
    """Original, mirrored, time-reversed and mirrored-reversed variants."""
    mirrored = mirror_window(window, skeleton_spec)
    return [window, mirrored, reverse_window(window), reverse_window(mirrored)]


def standardize_fit(window_list):
    """Per-(marker, channel) mean and std over all frames of all windows.

    Stds floor at 1e-6 so constant channels stay harmless.
    """
    if len(window_list) < 2:
        raise ValueError("need at least 2 windows to fit statistics")
    stacked = np.concatenate([w.positions for w in window_list], axis=2)
    mean = stacked.mean(axis=2)
    std = np.maximum(stacked.std(axis=2), STD_FLOOR)
    return mean, std


# -- walker paths ---------------------------------------------------------------------

_PATH_DEFAULTS = {
    "line": {"speed": 70.0},
    "circle": {"speed": 70.0, "radius": 200.0},
    "s_curve": {"speed": 70.0, "sway": 0.5, "wavelength": 400.0},
}


def parse_path_spec(spec):
    """Parse 'kind:key=value,key=value' into a validated parameter dict."""
    if not isinstance(spec, str):
        raise PathSpecError(f"path spec must be a string, got {type(spec).__name__}")
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _PATH_DEFAULTS:
        raise PathSpecError(
            f"unknown path kind '{kind}'; expected one of {sorted(_PATH_DEFAULTS)}")
    params = dict(_PATH_DEFAULTS[kind])
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise PathSpecError(
                    f"bad parameter '{item.strip()}' for path '{kind}'; "
                    f"known keys: {sorted(params)}")
            try:
                params[key] = float(value)
            except ValueError:
                raise PathSpecError(
                    f"parameter '{key}' needs a number, got '{value.strip()}'") from None
            if not math.isfinite(params[key]):
                raise PathSpecError(
                    f"parameter '{key}' must be finite, got {value.strip()}")
    if not params["speed"] > 0:
        raise PathSpecError("speed must be positive")
    if kind == "circle" and abs(params["radius"]) < 1.0:
        raise PathSpecError("circle radius must be at least 1 cm in magnitude")
    if kind == "s_curve":
        if params["wavelength"] <= 0:
            raise PathSpecError("wavelength must be positive")
        if params["sway"] < 0:
            raise PathSpecError("sway must be non-negative")
    return {"kind": kind, **params}


def path_spec_string(params):
    """Canonical 'kind:key=value,...' form of a parameter dict."""
    kind = params["kind"]
    keys = sorted(k for k in params if k != "kind")
    return kind + ":" + ",".join(f"{k}={params[k]:g}" for k in keys)


class _Path:
    """Planar path by arclength: pos(s) -> (2, ...), heading(s) -> radians.

    Heading 0 faces world +y; the left lateral axis is then world +x.
    s_curve paths integrate their heading profile over a dense arclength
    table once and interpolate afterwards.
    """

    def __init__(self, params, s_min, s_max):
        self.kind = params["kind"]
        self.params = params
        if self.kind == "s_curve":
            ds = 0.5
            n = int(np.ceil((s_max - s_min) / ds)) + 2
            s = s_min + np.arange(n) * ds
            psi = params["sway"] * np.sin(2.0 * np.pi * s / params["wavelength"])
            f = np.stack([-np.sin(psi), np.cos(psi)])
            pos = np.zeros((2, n))
            pos[:, 1:] = np.cumsum(0.5 * ds * (f[:, 1:] + f[:, :-1]), axis=1)
            origin = np.stack([np.interp(0.0, s, pos[0]), np.interp(0.0, s, pos[1])])
            self._table_s = s
            self._table_pos = pos - origin[:, None]

    def heading(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "line":
            return np.zeros_like(s)
        if self.kind == "circle":
            return s / self.params["radius"]
        return self.params["sway"] * np.sin(2.0 * np.pi * s / self.params["wavelength"])

    def pos(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "line":
            return np.stack([np.zeros_like(s), s])
        if self.kind == "circle":
            r = self.params["radius"]
            psi = s / r
            return np.stack([r * (np.cos(psi) - 1.0), r * np.sin(psi)])
        return np.stack([np.interp(s, self._table_s, self._table_pos[0]),
                         np.interp(s, self._table_s, self._table_pos[1])])


# -- synthetic gait -------------------------------------------------------------------

_PELVIS_HEIGHT = 86.0
_HIP_OFFSET = np.array([9.0, 0.0, -4.0])
_THIGH = 45.0
_SHANK = 45.0
_FOOT = 14.0
_HEEL_HEIGHT = 5.0
_FOOT_LATERAL = 8.0
_LIFT = 7.0
_DUTY = 0.4
_SWAY = 2.0
_BOB = 1.5
_SURGE = 1.0
_LOWER_SPINE = 20.0
_UPPER_SPINE = 18.0
_NECK = 12.0
_HEAD = 13.0
_SHOULDER_OFFSET = np.array([18.0, 0.0, 4.0])
_UPPER_ARM = 28.0
_FOREARM = 25.0
_HAND = 10.0
_ARM_SWING = 0.4
_LEG_REACH_LIMIT = _THIGH + _SHANK - 1.0


@dataclass(frozen=True)
class GaitTruth:
    """Analytic ground truth emitted alongside a synthetic clip."""

    step_count: int
    cadence: float
    speed: float
    duty: float
    footstep_intervals: tuple  # (start_s, end_s, heel marker index) per stance
    bone_lengths: tuple  # cm, aligned with the skeleton's edge order
    heel_markers: tuple = (3, 7)


def _smooth5(u):
    """Quintic smoothstep: zero velocity and acceleration at both ends."""
    return u * u * u * (10.0 + u * (6.0 * u - 15.0))


def _rotations(axis, angles):
    """Rotations about world axis 0 (x), 1 (y) or 2 (z): (T, 3, 3) for (T,)
    angles, one (3, 3) for a scalar."""
    c, s = np.cos(angles), np.sin(angles)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    rot = np.zeros(np.shape(angles) + (3, 3))
    rot[..., axis, axis] = 1.0
    rot[..., i, i] = rot[..., j, j] = c
    rot[..., i, j] = -s
    rot[..., j, i] = s
    return rot


def _segment(yaw, lean, roll, length):
    """Bone vectors of exact length, (T, 3): rotations applied to (0, 0, length)."""
    return (_rotations(2, yaw) @ _rotations(0, -lean) @ _rotations(1, roll)
            @ np.array([0.0, 0.0, length]))


def _expected_bone_lengths(skeleton_spec):
    hip = float(np.linalg.norm(_HIP_OFFSET))
    shoulder = float(np.linalg.norm(_SHOULDER_OFFSET))
    by_edge = {
        (0, 1): hip, (1, 2): _THIGH, (2, 3): _SHANK, (3, 4): _FOOT,
        (0, 5): hip, (5, 6): _THIGH, (6, 7): _SHANK, (7, 8): _FOOT,
        (0, 9): _LOWER_SPINE, (9, 10): _UPPER_SPINE,
        (10, 11): _NECK, (11, 12): _HEAD,
        (10, 13): shoulder, (13, 15): _UPPER_ARM,
        (15, 16): _FOREARM, (16, 17): _HAND,
        (10, 14): shoulder, (14, 18): _UPPER_ARM,
        (18, 19): _FOREARM, (19, 20): _HAND,
    }
    return tuple(by_edge[edge] for edge in skeleton_spec.edges)


def _dot(a, b):
    """Dot products over the last axis, kept as a length-1 axis.  Stacked
    1 x 3 @ 3 x 1 products round like a per-frame np.dot; a row sum, einsum
    or np.linalg.norm(axis=-1) can differ in the last bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _leg_chains(hips, heels, forward):
    """Two-bone knee solves, (T, 2, 3) hips and heels -> knees; thigh and
    shank lengths hold exactly.  The first leg out of reach in frame order,
    left before right, raises PathSpecError."""
    delta = heels - hips
    dist = np.sqrt(_dot(delta, delta))
    over = np.flatnonzero(dist > _LEG_REACH_LIMIT)
    if over.size:
        raise PathSpecError(
            f"invalid path parameters: leg span {dist.flat[over[0]]:.1f} cm exceeds "
            f"{_LEG_REACH_LIMIT:.1f} cm reach")
    axis = delta / dist
    half = 0.5 * dist
    bend = np.sqrt(_THIGH * _THIGH - half * half)
    side = forward - _dot(forward, axis) * axis
    # |side| >= |axis_z| >= 0.77: the hip sits at least 68.5 cm above the
    # heel and the reach is at most 89 cm, so the knee plane is never degenerate.
    norm = np.sqrt(_dot(side, side))
    return hips + half * axis + bend * (side / norm)


def synth_gait(path_spec, steps=20, fps=20.0, seed=0, cadence=2.0, noise_std=0.0):
    """Procedural 21-marker walker along a planar path.

    Returns (clip, truth).  The clip is world-frame with extracted controls;
    the truth carries the exact footstep intervals (each stance covers
    [n/cadence, (n+0.4)/cadence] seconds, feet alternating left first) and
    the constant bone lengths of the rigid construction.  Between stances
    both feet travel, so each heel is stationary exactly during its own
    stances; the clip ends at the last stance's liftoff, which keeps the
    detectable footstep count equal to `steps`.  noise_std > 0 adds
    measurement jitter to every marker for training realism, which breaks
    the exact-rigidity guarantees.
    """
    params = parse_path_spec(path_spec)
    steps = int(steps)
    if steps < 2:
        raise ValueError("need at least 2 footsteps")
    fps = float(fps)
    cadence = float(cadence)
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    if fps < 5.0 * cadence:
        raise ValueError(
            f"fps {fps:g} too low to resolve stances; need fps >= {5.0 * cadence:g}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    skeleton_spec = default_skeleton()

    speed = params["speed"]
    frames = int(round(fps * (steps - 1 + _DUTY) / cadence)) + 1
    seconds = np.arange(frames) / fps
    s_body = speed * seconds
    stride = 2.0 * speed / cadence
    s_lo = speed * (-1 + _DUTY) / cadence - stride - 10.0
    s_hi = float(s_body[-1]) + stride + 10.0
    path = _Path(params, s_lo, s_hi)

    # Footfall n = -2 .. steps + 2: world x, y and frozen heading of stance n.
    fall_n = np.arange(-2, steps + 3)
    fall_s = speed * (fall_n + _DUTY) / cadence
    fall_psi = path.heading(fall_s)
    lateral = np.where(fall_n % 2 == 0, _FOOT_LATERAL, -_FOOT_LATERAL)
    fall_xy = path.pos(fall_s) + lateral * np.stack([np.cos(fall_psi), np.sin(fall_psi)])
    fall = np.vstack([fall_xy, fall_psi]).T

    psi = path.heading(s_body)
    base = path.pos(s_body)
    phase = np.pi * cadence * seconds
    osc = np.sin(phase)
    osc2 = np.sin(2.0 * np.pi * cadence * seconds)
    osc2b = np.sin(2.0 * np.pi * cadence * seconds + 1.1)
    surge = np.sin(2.0 * np.pi * cadence * seconds + 0.3)
    left_axis = np.stack([np.cos(psi), np.sin(psi)])
    fwd_axis = np.stack([-np.sin(psi), np.cos(psi)])

    # Every track below is (T, 3), or (T, 2, 3) for a left/right pair.
    pelvis = np.vstack([base + _SWAY * osc * left_axis + _SURGE * surge * fwd_axis,
                        _PELVIS_HEIGHT + _BOB * osc2b]).T
    yaw_pelvis = psi + 0.06 * osc
    yaw_chest = psi - 0.05 * osc
    lean = 0.05 + 0.02 * osc2
    roll = 0.03 * osc
    mirror = np.array([-1.0, 1.0, 1.0])

    rz_pelvis = _rotations(2, yaw_pelvis)
    hips = np.stack([pelvis + rz_pelvis @ _HIP_OFFSET,
                     pelvis + rz_pelvis @ (_HIP_OFFSET * mirror)], axis=1)

    m9 = pelvis + _segment(yaw_pelvis + 0.3 * (yaw_chest - yaw_pelvis), lean, roll,
                           _LOWER_SPINE)
    m10 = m9 + _segment(yaw_chest, lean + 0.02, roll, _UPPER_SPINE)
    m11 = m10 + _segment(yaw_chest, 0.02 * osc2, 0.0, _NECK)
    m12 = m11 + _segment(yaw_chest, 0.03 + 0.02 * osc2, 0.0, _HEAD)

    rz_chest = _rotations(2, yaw_chest)
    shoulders = np.stack([m10 + rz_chest @ _SHOULDER_OFFSET,
                          m10 + rz_chest @ (_SHOULDER_OFFSET * mirror)], axis=1)
    alpha = (_ARM_SWING * np.sin(phase + np.pi))[:, None] * np.array([1.0, -1.0])
    flex = 0.55 + 0.15 * np.sin(np.stack([phase + np.pi + 0.8, phase + 0.8], axis=1))
    arm = np.zeros_like(alpha)
    upper = np.stack([arm, _UPPER_ARM * np.sin(alpha), -_UPPER_ARM * np.cos(alpha)], axis=-1)
    fore_dir = np.stack([arm, np.sin(alpha + flex), -np.cos(alpha + flex)], axis=-1)
    upper = (rz_chest[:, None] @ upper[..., None])[..., 0]
    fore_dir = (rz_chest[:, None] @ fore_dir[..., None])[..., 0]
    elbows = shoulders + upper
    wrists = elbows + _FOREARM * fore_dir
    hands = wrists + _HAND * fore_dir

    # Each heel holds footfall n through stance n (left even n, right odd)
    # and swings to footfall n + 2 after liftoff.
    now = seconds[:, None]
    n = np.floor(cadence * now + 1e-12).astype(np.int64)
    n = n - (n - np.arange(2)) % 2
    lift_time = (n + _DUTY) / cadence
    stance = now <= lift_time + 1e-12
    u = (now - lift_time) / ((2.0 - _DUTY) / cadence)
    w = _smooth5(u)[..., None]
    a, b = fall[n + 2], fall[n + 4]
    xy_chi = np.where(stance[..., None], a, (1.0 - w) * a + w * b)
    # float_power is libm pow, as the scalar `** 2` of the per-frame walker;
    # an array `** 2` squares instead and differs in the last bit.
    z = np.where(stance, _HEEL_HEIGHT,
                 _HEEL_HEIGHT + _LIFT * np.float_power(np.sin(np.pi * u), 2))
    heels = np.concatenate([xy_chi[..., :2], z[..., None]], axis=-1)
    forward = np.stack([fwd_axis[0], fwd_axis[1], np.zeros(frames)], axis=-1)[:, None]
    knees = _leg_chains(hips, heels, forward)
    horiz = np.sqrt(_FOOT * _FOOT - _HEEL_HEIGHT * _HEEL_HEIGHT)
    chi = xy_chi[..., 2]
    toe_dir = np.stack([-np.sin(chi), np.cos(chi), np.zeros_like(chi)], axis=-1)
    toes = heels + horiz * toe_dir - np.array([0.0, 0.0, _HEEL_HEIGHT])

    legs = np.stack([hips, knees, heels, toes], axis=2).reshape(frames, 8, 3)
    arms = np.stack([elbows, wrists, hands], axis=2).reshape(frames, 6, 3)
    tracks = np.concatenate([pelvis[:, None], legs, np.stack([m9, m10, m11, m12], axis=1),
                             shoulders, arms], axis=1)
    positions = np.ascontiguousarray(tracks.transpose(1, 2, 0))

    if noise_std > 0:
        rng = np.random.default_rng(seed)
        positions = positions + rng.normal(0.0, noise_std, positions.shape)

    controls = extract_controls(positions, skeleton_spec)
    clip = MotionClip(positions, controls, fps, root_relative=False,
                      source=f"synth:{path_spec_string(params)}")
    intervals = tuple(
        (n / cadence, (n + _DUTY) / cadence, 3 if n % 2 == 0 else 7)
        for n in range(steps))
    truth = GaitTruth(
        step_count=steps, cadence=cadence, speed=speed, duty=_DUTY,
        footstep_intervals=intervals,
        bone_lengths=_expected_bone_lengths(skeleton_spec))
    return clip, truth

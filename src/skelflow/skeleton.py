"""Skeleton graphs: marker topology and the hop-distance partitioning
used by the spatial graph convolutions.

A skeleton is an undirected connected tree/graph over M markers.  Config is
plain text, one directive per line:

    markers 21
    center 10
    heels 3 7
    root 0
    lateral 1 5
    edge 0 1
    mirror 1 5
    group right_arm 18 19 20
    bone_cm 0 1 12.5

`markers`, `center`, `heels` and at least M-1 `edge` lines are required; the
rest are optional.  Lines starting with '#' are comments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

try:
    from importlib import resources as _resources
except ImportError:  # pragma: no cover
    _resources = None


class SkeletonConfigError(ValueError):
    """Malformed or inconsistent skeleton config."""


class DisconnectedGraphError(SkeletonConfigError):
    """The edge list does not connect all markers."""


@dataclass(frozen=True)
class SkeletonSpec:
    marker_count: int
    edges: tuple
    center_marker: int
    heel_markers: tuple
    root_marker: int = 0
    lateral_markers: tuple = None
    mirror_pairs: tuple = ()
    groups: dict = field(default_factory=dict)
    bone_lengths_cm: tuple = None

    def __post_init__(self):
        # read-only, so a spec can be shared (see `default_skeleton`)
        object.__setattr__(self, "groups", MappingProxyType(dict(self.groups)))

    def mirror_permutation(self):
        """Index permutation swapping each mirror pair, identity elsewhere."""
        perm = np.arange(self.marker_count)
        for a, b in self.mirror_pairs:
            perm[a], perm[b] = b, a
        return perm


def _check_index(value, m, what, line_no):
    if not (0 <= value < m):
        raise SkeletonConfigError(f"line {line_no}: {what} {value} out of range [0, {m})")


def build_skeleton(config_text):
    """Parse skeleton config text into a validated SkeletonSpec."""
    if not isinstance(config_text, str):
        raise SkeletonConfigError(
            f"skeleton config must be text, got {type(config_text).__name__}")
    markers = None
    center = None
    heels = None
    root = 0
    lateral = None
    edges = []
    edge_lines = []
    mirror = []
    groups = {}
    bones = {}

    for line_no, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "markers":
                markers = int(parts[1])
            elif key == "center":
                center = int(parts[1])
            elif key == "heels":
                heels = (int(parts[1]), int(parts[2]))
            elif key == "root":
                root = int(parts[1])
            elif key == "lateral":
                lateral = (int(parts[1]), int(parts[2]))
            elif key == "edge":
                edges.append((int(parts[1]), int(parts[2])))
                edge_lines.append(line_no)
            elif key == "mirror":
                mirror.append((int(parts[1]), int(parts[2])))
            elif key == "group":
                groups[parts[1]] = tuple(int(p) for p in parts[2:])
            elif key == "bone_cm":
                bones[(int(parts[1]), int(parts[2]))] = float(parts[3])
            else:
                raise SkeletonConfigError(f"line {line_no}: unknown directive '{key}'")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, SkeletonConfigError):
                raise
            raise SkeletonConfigError(f"line {line_no}: cannot parse '{raw.strip()}'") from exc

    if markers is None or markers < 1:
        raise SkeletonConfigError("config must declare a positive marker count")
    if center is None:
        raise SkeletonConfigError("config must declare a center marker")
    if heels is None:
        raise SkeletonConfigError("config must declare two heel markers")
    if len(edges) < markers - 1:
        raise SkeletonConfigError(
            f"{markers} markers need at least {markers - 1} edge lines, got {len(edges)}")

    _check_index(center, markers, "center marker", 0)
    _check_index(root, markers, "root marker", 0)
    for h in heels:
        _check_index(h, markers, "heel marker", 0)
    if heels[0] == heels[1]:
        raise SkeletonConfigError("heel markers must be distinct")
    if lateral is not None:
        for l in lateral:
            _check_index(l, markers, "lateral marker", 0)

    seen = set()
    norm_edges = []
    for (i, j), line_no in zip(edges, edge_lines):
        _check_index(i, markers, "edge endpoint", line_no)
        _check_index(j, markers, "edge endpoint", line_no)
        if i == j:
            raise SkeletonConfigError(f"line {line_no}: self loop on marker {i}")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise SkeletonConfigError(f"line {line_no}: duplicate edge {e}")
        seen.add(e)
        norm_edges.append(e)
    norm_edges.sort()

    # connectivity: every marker is reachable from marker 0
    hops = _hops_from(_adjacency_lists(markers, norm_edges), 0)
    missing = [i for i, d in enumerate(hops) if d < 0]
    if missing:
        more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
        raise DisconnectedGraphError(
            f"markers {missing[:3]}{more} are not reachable from marker 0")

    used = set()
    for a, b in mirror:
        _check_index(a, markers, "mirror marker", 0)
        _check_index(b, markers, "mirror marker", 0)
        if a == b or a in used or b in used:
            raise SkeletonConfigError(f"bad mirror pair ({a}, {b})")
        used.update((a, b))

    bone_lengths = None
    if bones:
        bl = []
        for e in norm_edges:
            if e not in bones:
                raise SkeletonConfigError(f"bone_cm missing for edge {e}")
            if not 0 < bones[e] < np.inf:
                raise SkeletonConfigError(
                    f"bone_cm for edge {e} must be positive and finite, got {bones[e]}")
            bl.append(bones[e])
        bone_lengths = tuple(bl)

    for name, members in groups.items():
        for m in members:
            _check_index(m, markers, f"group '{name}' marker", 0)

    return SkeletonSpec(
        marker_count=markers,
        edges=tuple(norm_edges),
        center_marker=center,
        heel_markers=heels,
        root_marker=root,
        lateral_markers=lateral,
        mirror_pairs=tuple(tuple(p) for p in mirror),
        groups=groups,
        bone_lengths_cm=bone_lengths,
    )


def load_skeleton(path):
    with open(path, "r", encoding="utf-8") as fh:
        return build_skeleton(fh.read())


def to_config_text(spec):
    """Canonical config text; build_skeleton(to_config_text(s)) == s."""
    lines = [f"markers {spec.marker_count}",
             f"center {spec.center_marker}",
             f"heels {spec.heel_markers[0]} {spec.heel_markers[1]}",
             f"root {spec.root_marker}"]
    if spec.lateral_markers is not None:
        lines.append(f"lateral {spec.lateral_markers[0]} {spec.lateral_markers[1]}")
    for i, j in spec.edges:
        lines.append(f"edge {i} {j}")
    for a, b in spec.mirror_pairs:
        lines.append(f"mirror {a} {b}")
    for name in sorted(spec.groups):
        members = " ".join(str(m) for m in spec.groups[name])
        lines.append(f"group {name} {members}")
    if spec.bone_lengths_cm is not None:
        for (i, j), length in zip(spec.edges, spec.bone_lengths_cm):
            lines.append(f"bone_cm {i} {j} {length!r}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def default_skeleton():
    """The 21-marker locomotion skeleton shipped with the package, built
    once per process; every call returns the same spec."""
    text = _resources.files("skelflow").joinpath("skeletons/locomotion21.txt").read_text()
    return build_skeleton(text)


def _adjacency_lists(m, edges):
    """Adjacency lists of m markers joined by `edges`."""
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _hops_from(adj, src):
    """Hop counts from marker src by one BFS over adjacency lists `adj`;
    -1 where a marker is unreachable."""
    row = [-1] * len(adj)
    row[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = d
                    nxt.append(v)
        frontier = nxt
    return row


def _rings(adj, src, radius):
    """The markers 1, 2, ..., `radius` hops from marker src, one list per
    hop count, by a BFS over adjacency lists `adj` that expands no marker
    at the last hop count."""
    seen = {src}
    rings = [[src]]
    for _ in range(radius):
        ring = []
        for u in rings[-1]:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    ring.append(v)
        rings.append(ring)
    return rings[1:]


@dataclass(frozen=True)
class PartitionedAdjacency:
    """Per-subset averaging matrices for one kernel scale.

    Marker i's subset k averages over S_k(i): 1/|S_k(i)| at each member j,
    else zero.  Subset 0 is {i} itself; for each hop ring r = 1..R there is a
    closer-to-center subset (2r-1) and a farther subset (2r); ties on center
    distance go to the farther subset.

    The partition is stored once, read-only and row-interleaved as the
    (M*D, M) `stacked`, whose row i*D + k is subset k of marker i: the form
    a graph conv mixes with, shared by every conv at this scale.
    """

    kernel_scale: int
    hop_radius: int
    stacked: np.ndarray  # (M*D, M)

    @property
    def marker_count(self):
        return self.stacked.shape[1]

    @property
    def matrices(self):
        """The (D, M, M) view of `stacked`: matrices[k][i] is subset k of
        marker i."""
        m = self.marker_count
        return self.stacked.reshape(m, self.kernel_scale, m).transpose(1, 0, 2)


def partition(spec, kernel_scale):
    """Distance partitioning of the skeleton at an odd kernel scale D >= 3."""
    d = int(kernel_scale)
    if d < 3 or d % 2 == 0:
        raise ValueError(f"kernel scale must be odd and >= 3, got {kernel_scale}")
    radius = (d - 1) // 2
    m = spec.marker_count
    # one search from the center, and one out to the radius per marker
    adj = _adjacency_lists(m, spec.edges)
    to_center = np.array(_hops_from(adj, spec.center_marker))
    subsets = np.zeros((m, d, m), dtype=np.float64)  # [i, k]: subset k of marker i
    for i in range(m):
        subsets[i, 0, i] = 1.0
        for r, ring in enumerate(_rings(adj, i, radius), start=1):
            if not ring:
                break
            ring = np.array(ring)
            closer = ring[to_center[ring] < to_center[i]]
            farther = ring[to_center[ring] >= to_center[i]]
            if closer.size:
                subsets[i, 2 * r - 1, closer] = 1.0 / closer.size
            if farther.size:
                subsets[i, 2 * r, farther] = 1.0 / farther.size
    stacked = subsets.reshape(m * d, m)
    stacked.flags.writeable = False
    return PartitionedAdjacency(kernel_scale=d, hop_radius=radius, stacked=stacked)


def partition_subsets(spec, kernel_scale):
    """Same partitioning as `partition`, as index sets: list over markers of
    list over subsets of sorted marker tuples.  Convenience for inspection."""
    pa = partition(spec, kernel_scale)
    out = []
    for i in range(spec.marker_count):
        subsets = []
        for k in range(pa.kernel_scale):
            subsets.append(tuple(np.where(pa.matrices[k, i] > 0)[0].tolist()))
        out.append(subsets)
    return out

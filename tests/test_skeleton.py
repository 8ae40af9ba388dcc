import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelflow import skeleton as sk

from oracles import hop_distances, partition_from_hop_table


# --- oracles ---------------------------------------------------------------

def floyd_warshall(m, edges):
    inf = 10 ** 9
    d = np.full((m, m), inf, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in edges:
        d[i, j] = 1
        d[j, i] = 1
    for k in range(m):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def enumerate_subsets(m, edges, center, kernel_scale):
    """Brute-force distance partitioning, independent of the library code."""
    hop = floyd_warshall(m, edges)
    radius = (kernel_scale - 1) // 2
    table = []
    for i in range(m):
        subsets = [{i}]
        for r in range(1, radius + 1):
            ring = {j for j in range(m) if hop[i, j] == r}
            closer = {j for j in ring if hop[j, center] < hop[i, center]}
            farther = ring - closer
            subsets.append(closer)
            subsets.append(farther)
        table.append(subsets)
    return table


def random_tree(rng, m):
    """Uniform-ish random labelled tree: attach each node to a random earlier one."""
    edges = []
    for v in range(1, m):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    return edges


def spec_from_edges(m, edges, center=0):
    lines = [f"markers {m}", f"center {center}", "heels 0 1" if m > 1 else "heels 0 0"]
    lines += [f"edge {i} {j}" for i, j in edges]
    return sk.build_skeleton("\n".join(lines))


# --- parsing ---------------------------------------------------------------

def test_default_skeleton_parses():
    spec = sk.default_skeleton()
    assert spec.marker_count == 21
    assert spec.center_marker == 10
    assert spec.heel_markers == (3, 7)
    assert len(spec.edges) == 20
    assert spec.groups["right_arm"] == (18, 19, 20)
    assert spec.groups["left_leg"] == (2, 3, 4)
    assert len(spec.mirror_pairs) == 8


def test_default_skeleton_is_built_once():
    assert sk.default_skeleton() is sk.default_skeleton()


def test_groups_are_read_only():
    spec = sk.default_skeleton()
    with pytest.raises(TypeError):
        spec.groups["right_arm"] = (0,)
    with pytest.raises(TypeError):
        spec.groups["new"] = (1, 2)
    assert spec.groups["right_arm"] == (18, 19, 20)


def test_groups_do_not_alias_the_callers_dict():
    groups = {"pair": (0, 1)}
    spec = sk.SkeletonSpec(marker_count=2, edges=((0, 1),), center_marker=0,
                           heel_markers=(0, 1), groups=groups)
    groups["pair"] = (1,)
    assert spec.groups["pair"] == (0, 1)


def test_mirror_permutation_is_involution():
    spec = sk.default_skeleton()
    perm = spec.mirror_permutation()
    assert np.array_equal(perm[perm], np.arange(21))
    assert perm[1] == 5 and perm[18] == 15


def test_parse_rejects_disconnected():
    # M-1 edges, but 2-3-4 is a cycle apart from 0-1
    text = "markers 5\ncenter 0\nheels 0 1\nedge 0 1\nedge 2 3\nedge 3 4\nedge 2 4"
    with pytest.raises(sk.DisconnectedGraphError,
                       match=r"^markers \[2, 3, 4\] are not reachable from marker 0$"):
        sk.build_skeleton(text)


def test_disconnected_error_lists_a_few_markers():
    text = ("markers 8\ncenter 0\nheels 0 1\nedge 0 1\n"
            + "".join(f"edge {i} {i + 1}\n" for i in range(2, 7)) + "edge 2 7\n")
    with pytest.raises(sk.DisconnectedGraphError,
                       match=r"^markers \[2, 3, 4\] and 3 more are not reachable"):
        sk.build_skeleton(text)


def test_too_few_edge_lines_rejected_before_graph_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("graph searched")
    monkeypatch.setattr(sk, "_hops_from", no_search)
    monkeypatch.setattr(sk, "_rings", no_search)
    with pytest.raises(sk.SkeletonConfigError,
                       match=r"^3000 markers need at least 2999 edge lines, got 0$"):
        sk.build_skeleton("markers 3000\ncenter 0\nheels 0 1\n")
    with pytest.raises(sk.SkeletonConfigError, match="need at least 3 edge lines"):
        sk.build_skeleton("markers 4\ncenter 0\nheels 0 1\nedge 0 1\nedge 2 3")


def test_long_chain_connectivity_is_one_search(monkeypatch):
    """Connectivity is one BFS from marker 0, not one per marker."""
    def no_rings(*args):
        raise AssertionError("per-marker search run")
    searches = []
    hops_from = sk._hops_from

    def counted(adj, src):
        searches.append(src)
        return hops_from(adj, src)

    monkeypatch.setattr(sk, "_rings", no_rings)
    monkeypatch.setattr(sk, "_hops_from", counted)
    m = 2000
    spec = sk.build_skeleton(f"markers {m}\ncenter 0\nheels 0 1\n"
                             + "".join(f"edge {i} {i + 1}\n" for i in range(m - 1)))
    assert spec.marker_count == m and len(spec.edges) == m - 1
    assert searches == [0]


# a 3-marker chain; each row below drops its directive's line, if any,
# and adds one naming marker 7, which the error must report by line
CHAIN3 = ["# three markers in a chain", "markers 3", "center 1", "heels 0 2",
          "edge 0 1", "edge 1 2"]
OUT_OF_RANGE = {
    "center": ("center 7", "center marker 7"),
    "root": ("root 7", "root marker 7"),
    "heels": ("heels 0 7", "heel marker 7"),
    "lateral": ("lateral 7 0", "lateral marker 7"),
    "mirror": ("mirror 0 7", "mirror marker 7"),
    "group": ("group arm 1 7", "group 'arm' marker 7"),
}


@pytest.mark.parametrize("directive", sorted(OUT_OF_RANGE))
def test_out_of_range_index_reports_its_line(directive):
    bad, what = OUT_OF_RANGE[directive]
    lines = [line for line in CHAIN3 if line.split()[0] != directive]
    lines += ["", bad, "# trailing comment"]
    with pytest.raises(sk.SkeletonConfigError, match=re.escape(
            f"line {len(lines) - 1}: {what} out of range [0, 3)")):
        sk.build_skeleton("\n".join(lines))


@pytest.mark.parametrize("text", [5, ["markers 2"], None, b"markers 2\n"])
def test_parse_rejects_non_text(text):
    with pytest.raises(sk.SkeletonConfigError, match="must be text"):
        sk.build_skeleton(text)


def test_parse_rejects_bad_configs():
    base = "markers 3\ncenter 0\nheels 0 1\nedge 0 1\nedge 1 2\n"
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton(base + "edge 1 5")  # out of range
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton(base + "edge 1 1")  # self loop
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton(base + "edge 1 0")  # duplicate of 0 1
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton("markers 3\ncenter 0\nedge 0 1\nedge 1 2")  # no heels
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton("markers 3\ncenter 0\nheels 1 1\nedge 0 1\nedge 1 2")
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton(base + "wibble 3")


def test_parse_ignores_comments_and_blank_lines():
    text = "# hi\nmarkers 2\n\ncenter 0  # trailing\nheels 0 1\nedge 0 1\n"
    spec = sk.build_skeleton(text)
    assert spec.marker_count == 2


def test_bone_lengths_require_all_edges():
    text = "markers 3\ncenter 0\nheels 0 1\nedge 0 1\nedge 1 2\nbone_cm 0 1 10.0\n"
    with pytest.raises(sk.SkeletonConfigError):
        sk.build_skeleton(text)
    spec = sk.build_skeleton(text + "bone_cm 1 2 20.0\n")
    assert spec.bone_lengths_cm == (10.0, 20.0)


@pytest.mark.parametrize("length", ["nan", "inf", "-inf", "0", "-2.5"])
def test_bone_lengths_must_be_positive_and_finite(length):
    text = ("markers 3\ncenter 0\nheels 0 1\nedge 0 1\nedge 1 2\n"
            f"bone_cm 0 1 {length}\nbone_cm 1 2 20.0\n")
    with pytest.raises(sk.SkeletonConfigError, match="positive and finite"):
        sk.build_skeleton(text)


# --- hop distances ----------------------------------------------------------

def test_hop_distances_match_floyd_warshall_on_random_graphs():
    """The reference table, the library's BFS rows and its radius-bounded
    rings all agree with Floyd-Warshall."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = int(rng.integers(2, 15))
        edges = random_tree(rng, m)
        # sprinkle a couple of extra edges to leave tree-land
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, m, size=2)
            e = (min(int(i), int(j)), max(int(i), int(j)))
            if i != j and e not in edges:
                edges.append(e)
        spec = spec_from_edges(m, edges)
        want = floyd_warshall(m, edges)
        assert np.array_equal(hop_distances(spec), want)
        adj = sk._adjacency_lists(m, spec.edges)
        for src in range(m):
            assert sk._hops_from(adj, src) == want[src].tolist()
            rings = sk._rings(adj, src, 3)
            assert len(rings) == 3
            for r, ring in enumerate(rings, start=1):
                assert sorted(ring) == np.flatnonzero(want[src] == r).tolist()


def test_hop_distances_path_graph():
    spec = spec_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    d = hop_distances(spec)
    assert d[0, 3] == 3 and d[1, 2] == 1 and d[2, 2] == 0
    adj = sk._adjacency_lists(4, spec.edges)
    assert sk._rings(adj, 1, 3) == [[0, 2], [3], []]


# --- partitioning -----------------------------------------------------------

def test_partition_marker0_default_skeleton():
    # pelvis ring 1 = {1, 5, 9}: spine marker 9 is closer to the chest,
    # both hips are farther
    spec = sk.default_skeleton()
    subsets = sk.partition_subsets(spec, 3)
    assert subsets[0][0] == (0,)
    assert subsets[0][1] == (9,)
    assert subsets[0][2] == (1, 5)


def test_partition_matches_enumeration_oracle_random_graphs():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        m = int(rng.integers(3, 14))
        edges = random_tree(rng, m)
        center = int(rng.integers(0, m))
        spec = spec_from_edges(m, edges, center=center)
        for d in (3, 5, 7):
            got = sk.partition_subsets(spec, d)
            want = enumerate_subsets(m, edges, center, d)
            for i in range(m):
                for k in range(d):
                    assert set(got[i][k]) == want[i][k], (trial, i, k)


def test_partition_rows_normalized_by_cardinality():
    spec = sk.default_skeleton()
    pa = sk.partition(spec, 5)
    ones = np.ones(21)
    for k in range(5):
        out = pa.matrices[k] @ ones
        nonempty = pa.matrices[k].sum(axis=1) > 0
        assert np.allclose(out[nonempty], 1.0)
        assert np.allclose(out[~nonempty], 0.0)


def test_partition_subsets_disjoint_and_cover_ball():
    spec = sk.default_skeleton()
    hop = hop_distances(spec)
    pa = sk.partition(spec, 7)
    for i in range(21):
        seen = set()
        for k in range(7):
            members = set(np.where(pa.matrices[k, i] > 0)[0])
            assert not (seen & members)
            seen |= members
        ball = set(np.where(hop[i] <= 3)[0])
        assert seen == ball


def test_partition_rejects_even_or_small_scale():
    spec = sk.default_skeleton()
    with pytest.raises(ValueError):
        sk.partition(spec, 4)
    with pytest.raises(ValueError):
        sk.partition(spec, 1)


def test_partition_center_node_has_empty_closer_sets():
    # rings around the center marker itself can never be closer to the center
    spec = sk.default_skeleton()
    pa = sk.partition(spec, 5)
    c = spec.center_marker
    assert pa.matrices[1, c].sum() == 0.0
    assert pa.matrices[3, c].sum() == 0.0
    assert pa.matrices[2, c].sum() > 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
def test_partition_union_property_random_trees(m, seed):
    rng = np.random.default_rng(seed)
    edges = random_tree(rng, m)
    center = int(rng.integers(0, m))
    spec = spec_from_edges(m, edges, center=center)
    hop = hop_distances(spec)
    pa = sk.partition(spec, 5)
    union = (pa.matrices > 0).any(axis=0)
    for i in range(m):
        ball = hop[i] <= pa.hop_radius
        assert np.array_equal(union[i], ball)


def test_partition_bit_identical_to_hop_table(tiny_skeleton):
    """The per-marker searches give the matrices the all-pairs table gives,
    bit for bit, on the default, the tiny and random tree skeletons."""
    rng = np.random.default_rng(7)
    specs = [sk.default_skeleton(), tiny_skeleton]
    for _ in range(6):
        m = int(rng.integers(2, 30))
        specs.append(spec_from_edges(m, random_tree(rng, m), center=int(rng.integers(0, m))))
    for spec in specs:
        for d in (3, 5, 7):
            got = sk.partition(spec, d).matrices
            assert np.array_equal(got, partition_from_hop_table(spec, d))


class CountingLists(list):
    """Adjacency lists that count the markers a search expands."""

    visits = 0

    def __getitem__(self, i):
        self.visits += 1
        return super().__getitem__(i)


def test_long_chain_partition_bfs_visits(monkeypatch):
    """Partitioning a 2,000-marker chain at scale 3 expands each marker
    once in the center search and once in its own radius-1 search, not
    every marker from every marker."""
    m = 2000
    spec = spec_from_edges(m, [(i, i + 1) for i in range(m - 1)], center=m // 2)
    lists = []
    adjacency_lists = sk._adjacency_lists

    def counted(*args):
        lists.append(CountingLists(adjacency_lists(*args)))
        return lists[-1]

    monkeypatch.setattr(sk, "_adjacency_lists", counted)
    pa = sk.partition(spec, 3)
    assert len(lists) == 1
    assert lists[0].visits <= 2 * m
    assert np.array_equal(pa.matrices[1, 0], np.eye(m)[1])  # marker 1 is closer
    assert pa.matrices[2, 0].sum() == 0.0
    assert pa.matrices[1, m // 2].sum() == 0.0
    assert np.array_equal(pa.matrices[2, m // 2, m // 2 - 1:m // 2 + 2], [0.5, 0.0, 0.5])


def test_oversized_partition_raises_before_allocating(monkeypatch):
    """The same 2,000-marker chain at scale 7 would hold 28 M values
    (224 MB): `partition` raises before it searches or allocates."""
    m = 2000
    spec = spec_from_edges(m, [(i, i + 1) for i in range(m - 1)], center=m // 2)
    assert m * 7 * m > sk.PARTITION_MAX_VALUES >= m * 3 * m

    def no_search(*args):
        raise AssertionError("searched past the bound")

    monkeypatch.setattr(sk, "_adjacency_lists", no_search)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2000 markers at kernel scale 7"):
            sk.partition(spec, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_partition_matrices_are_a_read_only_view_of_stacked(tiny_skeleton):
    """The partition is stored once: row i*D + k of `stacked` is subset k of
    marker i, and `matrices` views the same memory without copying it."""
    for spec in (sk.default_skeleton(), tiny_skeleton):
        for d in (3, 5, 7):
            pa = sk.partition(spec, d)
            m = spec.marker_count
            assert pa.stacked.shape == (m * d, m) and pa.stacked.flags.c_contiguous
            assert np.shares_memory(pa.matrices, pa.stacked)
            assert not pa.stacked.flags.writeable and not pa.matrices.flags.writeable
            for i in range(m):
                for k in range(d):
                    assert np.array_equal(pa.stacked[i * d + k], pa.matrices[k, i])

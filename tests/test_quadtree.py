import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann.geometry import (
    CanonicalCube,
    InputError,
    InternalInvariantError,
    max_level_for_dim,
)
from ballann.quadtree import (
    CompressedQuadtree,
    _bit_length_i64,
    _dedupe_keys,
    build_from_cubes,
    build_from_points,
    cube_to_key,
    encode_point,
    encode_points,
    key_to_cube,
    morton_decode,
    morton_encode,
    overlay,
)


def reference_encode(coords: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Bit-at-a-time interleave, the definition the fast paths must reproduce."""
    M = max_level_for_dim(dim)
    out = np.zeros(coords.shape[0], dtype=np.int64)
    for bit in range(level):
        for j in range(dim):
            out |= ((coords[:, j] >> np.int64(bit)) & np.int64(1)) << np.int64(
                bit * dim + (dim - 1 - j)
            )
    return out << np.int64(dim * (M - level))


# -- morton codes ---------------------------------------------------------------


@given(st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_morton_matches_reference(dim, data):
    M = max_level_for_dim(dim)
    level = data.draw(st.integers(0, M))
    m = data.draw(st.integers(1, 8))
    top = 1 << level
    coords = np.array(
        [[data.draw(st.integers(0, top - 1)) for _ in range(dim)] for _ in range(m)],
        dtype=np.int64,
    )
    z = morton_encode(coords, level, dim)
    assert np.array_equal(z, reference_encode(coords, level, dim))
    assert np.array_equal(morton_decode(z, level, dim), coords)


def test_morton_exhaustive_small():
    for dim in (1, 2, 3):
        level = 3
        top = 1 << level
        grids = np.meshgrid(*([np.arange(top)] * dim), indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        z = morton_encode(coords, level, dim)
        assert len(set(z.tolist())) == len(z)  # injective
        assert np.array_equal(morton_decode(z, level, dim), coords)
        assert np.array_equal(z, reference_encode(coords, level, dim))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_morton_round_trip_bit_loop_dims(dim):
    # d >= 4 runs the bit-at-a-time path; take every level up to the deepest,
    # with coordinates 0, 2^level - 1 and random values in between.
    rng = np.random.default_rng(dim)
    for level in range(max_level_for_dim(dim) + 1):
        top = 1 << level
        coords = np.concatenate(
            [
                np.zeros((1, dim), dtype=np.int64),
                np.full((1, dim), top - 1, dtype=np.int64),
                np.eye(dim, dtype=np.int64) * (top - 1),
                rng.integers(0, top, size=(20, dim)),
            ]
        )
        z = morton_encode(coords, level, dim)
        assert np.array_equal(z, reference_encode(coords, level, dim))
        assert np.array_equal(morton_decode(z, level, dim), coords)
        assert z.min() >= 0


def test_morton_order_is_hierarchical():
    # A child's key range nests inside its parent's: sorting keys lists
    # ancestors immediately before their descendants.
    dim = 2
    parent = CanonicalCube(2, (1, 3))
    child = CanonicalCube(3, (2, 7))
    zp, lp = cube_to_key(parent)
    zc, lc = cube_to_key(child)
    assert parent.contains_cube(child)
    shift = dim * (max_level_for_dim(dim) - lp)
    assert (zc >> shift) == (zp >> shift)
    assert zp <= zc


def test_key_round_trip():
    cube = CanonicalCube(4, (5, 9, 2))
    z, level = cube_to_key(cube)
    assert key_to_cube(z, level, 3) == cube


def test_encode_points_floor_semantics():
    pts = np.array([[0.0, 0.0], [0.999999, 0.5]])
    codes = encode_points(pts, 2)
    M = max_level_for_dim(2)
    back = morton_decode(codes, M, 2)
    top = 1 << M
    assert np.array_equal(back, np.floor(pts * top).astype(np.int64))


# -- key kernels --------------------------------------------------------------------


def test_bit_length_matches_int_bit_length():
    values = {0, 1, int(np.iinfo(np.int64).max)}
    for k in range(1, 63):
        values.update((2**k - 1, 2**k, 2**k + 1))
    values = sorted(v for v in values if v <= np.iinfo(np.int64).max)
    got = _bit_length_i64(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [v.bit_length() for v in values]


def _shared_corner_keys(rng, dim, m, top_level):
    """(z, level) keys where many cubes share z across levels: each key at
    level l is also drawn at deeper levels (its low corner is theirs too),
    with repeats."""
    M = max_level_for_dim(dim)
    lev = rng.integers(0, top_level + 1, size=m)
    z = np.array(
        [
            morton_encode(rng.integers(0, 1 << int(l), size=(1, dim)), int(l), dim)[0]
            for l in lev
        ],
        dtype=np.int64,
    )
    deeper = np.minimum(lev + rng.integers(0, 4, size=m), M)
    pick = rng.integers(0, m, size=m // 2)
    z = np.concatenate([z, z, z[pick]])
    lev = np.concatenate([lev, deeper, lev[pick]])
    order = rng.permutation(z.size)
    return z[order], lev[order].astype(np.int64)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_dedupe_keys_matches_lexsort(dim):
    rng = np.random.default_rng(300 + dim)
    M = max_level_for_dim(dim)
    # Shallow keys pack into one int64; keys at the deepest level do not.
    for top_level in (3, min(12, M), M):
        z, lev = _shared_corner_keys(rng, dim, 400, top_level)
        order = np.lexsort((lev, z))
        zs, ls = z[order], lev[order]
        keep = np.ones(zs.size, dtype=bool)
        keep[1:] = (zs[1:] != zs[:-1]) | (ls[1:] != ls[:-1])
        got_z, got_l = _dedupe_keys(z, lev)
        assert got_z.dtype == np.int64 and got_l.dtype == np.int64
        assert np.array_equal(got_z, zs[keep]) and np.array_equal(got_l, ls[keep])
    empty = _dedupe_keys(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert [a.size for a in empty] == [0, 0]
    for z, l in ((0, 0), (5 << dim, M - 1), (1, M)):
        one = _dedupe_keys(np.array([z], dtype=np.int64), np.array([l], dtype=np.int64))
        assert one[0].tolist() == [z] and one[1].tolist() == [l]


def _check_find_keys(tree):
    index = {key: i for i, key in enumerate(zip(tree.z.tolist(), tree.level.tolist()))}
    # Stored keys, their z at a deeper level, and a key past the last node.
    qz = np.concatenate([tree.z, tree.z, tree.z[-1:] + 1])
    ql = np.concatenate([tree.level, tree.level + 1, tree.level[-1:]])
    got = tree.find_keys(qz, ql)
    assert got.tolist() == [index.get(key, -1) for key in zip(qz.tolist(), ql.tolist())]


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_find_keys_matches_key_set(dim):
    rng = np.random.default_rng(320 + dim)
    z, lev = _shared_corner_keys(rng, dim, 300, min(10, max_level_for_dim(dim)))
    _check_find_keys(build_from_cubes((z, lev, dim)))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_find_keys_on_point_trees(dim):
    """A cube tree has room to pack (z, level) into one search key; a point
    tree, whose leaves sit at the deepest level, has none at d >= 2 and
    walks runs of equal z instead."""
    _check_find_keys(build_from_points(np.random.default_rng(330 + dim).random((300, dim)), dim))


# -- tree construction ------------------------------------------------------------


def _random_cubes(rng, dim, m, max_level=8):
    out = []
    for _ in range(m):
        lev = int(rng.integers(0, max_level + 1))
        out.append(CanonicalCube(lev, tuple(int(c) for c in rng.integers(0, 1 << lev, dim))))
    return out


def _keys(tree):
    return set(zip(tree.z.tolist(), tree.level.tolist()))


def _brute_deepest(cubes, p):
    best = None
    for c in cubes:
        if c.contains_point(p) and (best is None or c.level > best.level):
            best = c
    return best


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_point_location_matches_brute_force(dim):
    rng = np.random.default_rng(dim)
    cubes = _random_cubes(rng, dim, 40)
    # A chain of nested cubes on one low corner: a point inside the coarsest
    # but outside the next starts its search at the deepest, the longest walk.
    chain = min(12, max_level_for_dim(dim))
    cubes += [CanonicalCube(lev, (0,) * dim) for lev in range(1, chain + 1)]
    tree = build_from_cubes(cubes, dim=dim)
    stored = [key_to_cube(int(z), int(l), dim) for z, l in zip(tree.z, tree.level)]
    for c in cubes:
        assert (cube_to_key(c)) in {(int(z), int(l)) for z, l in zip(tree.z, tree.level)}
    points = [tuple(rng.random(dim)) for _ in range(400)]
    # Dyadic cell faces, the domain's corners, and the chain's faces from
    # both sides.
    edge = [0.0, 0.5, 0.25, 0.375, math.nextafter(1.0, 0.0)]
    points += [tuple(float(v) for v in rng.choice(edge, size=dim)) for _ in range(100)]
    for lev in range(1, chain + 1):
        face = 2.0 ** (-lev)
        for x in (face, math.nextafter(face, 0.0)):
            points.append((x,) * dim)
            points.append((x,) + (0.0,) * (dim - 1))
    for p in points:
        assert encode_point(p, dim) == int(encode_points(np.array([p]), dim)[0])
        node = tree.point_location(p)
        assert stored[node] == _brute_deepest(stored, p)
    # Both encoders clip points outside the unit cube to its boundary cells.
    for p in [(-0.25,) * dim, (1.0,) * dim, (1.5,) + (0.3,) * (dim - 1)]:
        assert encode_point(p, dim) == int(encode_points(np.array([p]), dim)[0])


def test_tree_orders_parents_before_children():
    rng = np.random.default_rng(7)
    tree = build_from_cubes(_random_cubes(rng, 2, 60), dim=2)
    cubes = [key_to_cube(int(z), int(l), 2) for z, l in zip(tree.z, tree.level)]
    for i in range(1, tree.size):
        par = int(tree.parent[i])
        assert par < i
        assert cubes[par].contains_cube(cubes[i])
        # No stored node sits strictly between a child and its parent.
        for j in range(tree.size):
            if j in (i, par):
                continue
            assert not (
                cubes[par].contains_cube(cubes[j]) and cubes[j].contains_cube(cubes[i])
            )


def test_lca_closure_makes_sibling_fork_nodes():
    # Two deep cubes whose common ancestor is shallow: the fork must be stored.
    a = CanonicalCube(5, (0,))
    b = CanonicalCube(5, (31,))
    tree = build_from_cubes([a, b], dim=1)
    keys = _keys(tree)
    assert cube_to_key(a) in keys and cube_to_key(b) in keys
    assert (0, 0) in keys  # root is the fork here
    assert tree.size == 3


def _stack_sweep(tree):
    """Parent links and child CSR by a stack sweep over (z asc, level asc)
    order: the reference the array construction must reproduce."""
    z_l, lv_l, sh_l = tree.z.tolist(), tree.level.tolist(), tree.shift.tolist()
    parent = [-1] * tree.size
    stack = [0]
    for i in range(1, tree.size):
        while True:
            t = stack[-1]
            if (z_l[i] >> sh_l[t]) == (z_l[t] >> sh_l[t]) and lv_l[t] < lv_l[i]:
                break
            stack.pop()
        parent[i] = stack[-1]
        stack.append(i)
    child_off = [0] * (tree.size + 1)
    for p in parent[1:]:
        child_off[p + 1] += 1
    for i in range(tree.size):
        child_off[i + 1] += child_off[i]
    fill = child_off[:-1]
    child_idx = [0] * (tree.size - 1)
    for i in range(1, tree.size):
        child_idx[fill[parent[i]]] = i
        fill[parent[i]] += 1
    return parent, child_off, child_idx


def _cubes_sharing_corners(rng, dim, m, max_level=8):
    """Random cubes, each with descendants on its own low corner at deeper
    levels, so that one z repeats over several levels."""
    out = []
    for c in _random_cubes(rng, dim, m, max_level):
        out.append(c)
        for deeper in rng.integers(c.level + 1, max_level + 3, size=int(rng.integers(0, 3))):
            out.append(CanonicalCube(int(deeper), tuple(x << int(deeper - c.level) for x in c.coords)))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_parents_and_children_match_stack_sweep(dim):
    rng = np.random.default_rng(40 + dim)
    most_levels = 0
    for _ in range(12):
        tree = build_from_cubes(_cubes_sharing_corners(rng, dim, int(rng.integers(1, 60))), dim=dim)
        most_levels = max(most_levels, int(np.unique(tree.z, return_counts=True)[1].max()))
        parent, child_off, child_idx = _stack_sweep(tree)
        assert tree.parent.tolist() == parent
        assert tree.child_off.tolist() == child_off
        assert tree.child_idx.tolist() == child_idx
    assert most_levels >= 3
    tree = build_from_points(rng.random((80, dim)), dim=dim)
    assert [a.tolist() for a in (tree.parent, tree.child_off, tree.child_idx)] == list(
        _stack_sweep(tree)
    )


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_children_tile_a_cube_iff_all_quadrants_are_children(dim):
    """In an LCA-closed tree no quadrant of a cube holds two of its children,
    so the children tile the cube exactly when 2^d of them sit one level
    down: the test the certification sweep makes with one bincount."""
    rng = np.random.default_rng(60 + dim)
    M = max_level_for_dim(dim)
    nodes = tiled_nodes = 0
    for _ in range(25):
        cubes = _cubes_sharing_corners(rng, dim, int(rng.integers(1, 40)))
        for c in cubes[: len(cubes) // 2]:  # full quadrant sets, some under other cubes
            cubes += [
                CanonicalCube(c.level + 1, tuple(2 * x + ((off >> j) & 1) for j, x in enumerate(c.coords)))
                for off in range(1 << dim)
            ]
        tree = build_from_cubes(cubes, dim=dim)
        kids = tree.parent[1:]
        deeper = tree.level[1:] == tree.level[kids] + 1
        tiled = np.bincount(kids[deeper], minlength=tree.size) == 1 << dim
        z, lev = tree.z.tolist(), tree.level.tolist()
        for v in range(tree.size):
            children = tree.children(v).tolist()
            cover = sum(1 << dim * (M - lev[c]) for c in children)
            assert (cover >= 1 << dim * (M - lev[v])) == tiled[v]
            quadrants = [z[c] >> dim * (M - lev[v] - 1) for c in children]
            assert len(set(quadrants)) == len(quadrants)
        nodes += tree.size
        tiled_nodes += int(tiled.sum())
    assert 0 < tiled_nodes < nodes


def test_tree_without_its_lcas_is_refused():
    # Two sibling cubes at level 5 whose parent (level 4) is not stored.
    z = np.array([0, 0, 1 << (max_level_for_dim(1) - 5)], dtype=np.int64)
    with pytest.raises(InternalInvariantError):
        CompressedQuadtree(1, z, np.array([0, 5, 5], dtype=np.int64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_overlay_back_pointers_match_top_down_sweep(dim):
    rng = np.random.default_rng(60 + dim)
    for _ in range(6):
        ta = build_from_cubes(_cubes_sharing_corners(rng, dim, 20), dim=dim)
        tb = build_from_cubes(_cubes_sharing_corners(rng, dim, 20), dim=dim)
        # overlay points back into its second tree; both orders cover both.
        for first, src in ((ta, tb), (tb, ta)):
            tree, back = overlay(first, src)
            keys = _keys(src)
            want = [-1] * tree.size
            for j in range(tree.size):
                inside = (int(tree.z[j]), int(tree.level[j])) in keys
                want[j] = j if inside else want[int(tree.parent[j])]
            assert back.tolist() == want


@pytest.mark.parametrize("dim", [1, 2])
def test_point_counts_match_brute_force(dim):
    rng = np.random.default_rng(17 + dim)
    pts = rng.random((120, dim))
    tree = build_from_points(pts, dim=dim)
    assert tree.has_points
    for _ in range(120):
        lev = int(rng.integers(0, 7))
        cube = CanonicalCube(lev, tuple(int(c) for c in rng.integers(0, 1 << lev, dim)))
        z, level = cube_to_key(cube)
        brute = sum(1 for p in pts if cube.contains_point(p))
        got = tree.count_points_in_cubes(np.array([z]), level)[0]
        assert got == brute


def test_count_in_node_and_witness():
    # The k-th center frontier reads a node's count as span_hi - span_lo and
    # its witness as point_perm[span_lo].
    rng = np.random.default_rng(5)
    pts = rng.random((50, 2))
    tree = build_from_points(pts, dim=2)
    assert sorted(tree.point_perm.tolist()) == list(range(50))
    for i in range(tree.size):
        cube = tree.node_cube(i)
        brute = {j for j, p in enumerate(pts) if cube.contains_point(p)}
        ids = tree.point_perm[tree.span_lo[i] : tree.span_hi[i]]
        assert set(ids.tolist()) == brute and len(ids) == len(brute)
        if brute:
            assert cube.contains_point(pts[tree.point_perm[tree.span_lo[i]]])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_low_corners_match_node_cubes(dim):
    rng = np.random.default_rng(31 + dim)
    deep = max_level_for_dim(dim)
    cubes = _random_cubes(rng, dim, 30)
    cubes.append(CanonicalCube(deep, tuple(int(c) for c in rng.integers(0, 1 << deep, dim))))
    tree = build_from_cubes(cubes, dim=dim)
    low = tree.low_corners()
    assert low.shape == (tree.size, dim)
    for i in range(tree.size):
        assert tuple(low[i]) == tree.node_cube(i).low


def test_overlay_contains_both_trees():
    rng = np.random.default_rng(23)
    ca = _random_cubes(rng, 2, 25)
    cb = _random_cubes(rng, 2, 25)
    ta = build_from_cubes(ca, dim=2)
    tb = build_from_cubes(cb, dim=2)
    za = np.concatenate([ta.z, tb.z])
    la = np.concatenate([ta.level, tb.level])
    overlay = build_from_cubes((za, la, 2))
    keys = _keys(overlay)
    assert _keys(ta) <= keys and _keys(tb) <= keys
    # Point location in the overlay refines both inputs.
    cubes = {k: key_to_cube(k[0], k[1], 2) for k in keys}
    for _ in range(300):
        p = tuple(rng.random(2))
        co = overlay.node_cube(overlay.point_location(p))
        for t in (ta, tb):
            ci = t.node_cube(t.point_location(p))
            assert ci.contains_cube(co)


def test_point_location_rejects_outside_domain():
    tree = build_from_cubes([CanonicalCube(1, (0,))], dim=1)
    with pytest.raises(InputError):
        tree.point_location((1.0,))
    with pytest.raises(InputError):
        tree.point_location((-0.1,))
    with pytest.raises(InputError):
        tree.point_location((0.5, 0.5))

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
    _morton_rounds,
    _pair_lcas,
    _spread_bits,
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32, 64])
def test_morton_round_trip_bit_loop_dims(dim):
    # Against the bit-at-a-time reference at every level up to the deepest,
    # with coordinates 0, 2^level - 1, one axis at its top and random values
    # in between; d = 32 has one level below the root (M = 1) and d = 64
    # none (M = 0).
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32, 64])
def test_encode_point_matches_encode_points_on_faces_and_corners(dim):
    # Dyadic faces, the domain's corners from both sides, and points outside
    # the cube, which both encoders clip to its boundary cells.
    rng = np.random.default_rng(400 + dim)
    values = [0.0, 0.5, 0.25, 0.375, math.nextafter(0.5, 0.0), math.nextafter(1.0, 0.0), 1.0, -0.25, 1.5]
    points = rng.choice(values, size=(60, dim))
    points = np.concatenate([points, rng.random((20, dim)), np.full((1, dim), math.nextafter(1.0, 0.0))])
    want = encode_points(points, dim)
    assert [encode_point(tuple(float(x) for x in p), dim) for p in points] == want.tolist()


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
    # Shallow keys, keys of mid depth and keys at the deepest level.
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
    """On cubes of shared corners, and with every cube (0, l), l = 0..M,
    added: one run of M + 1 nodes on the key 0, the longest the lookup
    walks, which the query at level M + 1 walks to the end."""
    rng = np.random.default_rng(320 + dim)
    M = max_level_for_dim(dim)
    z, lev = _shared_corner_keys(rng, dim, 300, min(10, M))
    _check_find_keys(build_from_cubes((z, lev, dim)))
    z, lev = _shared_corner_keys(rng, dim, 200, M)
    z = np.concatenate([np.zeros(M + 1, dtype=np.int64), z])
    tree = build_from_cubes((z, np.concatenate([np.arange(M + 1), lev]), dim))
    assert tree.z[: M + 1].tolist() == [0] * (M + 1) and tree.level[: M + 1].tolist() == list(range(M + 1))
    _check_find_keys(tree)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_find_keys_on_point_trees(dim):
    """A point tree, whose leaves sit at the deepest level, as the centers
    tree does."""
    _check_find_keys(build_from_points(np.random.default_rng(330 + dim).random((300, dim)), dim))


# -- tree construction ------------------------------------------------------------


def _random_cubes(rng, dim, m, max_level=8):
    out = []
    for _ in range(m):
        lev = int(rng.integers(0, max_level + 1))
        out.append(CanonicalCube(lev, tuple(int(c) for c in rng.integers(0, 1 << lev, dim))))
    return out


def _cube_tree(cubes, dim):
    """build_from_cubes over CanonicalCubes, through their keys."""
    keys = np.array([cube_to_key(c) for c in cubes], dtype=np.int64).reshape(-1, 2)
    return build_from_cubes((keys[:, 0], keys[:, 1], dim))


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
    tree = _cube_tree(cubes, dim)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_encode_point_at_a_level_clears_the_low_bits(dim):
    """encode_point at each level is the full-depth key with its low
    dim*(M - level) bits cleared, and that key decodes at the level to the
    clipped floor of p * 2^level and equals the interleave of those floors
    spread by the _morton_rounds of the level, so the byte table spreads
    as the rounds do: on dyadic faces from both sides, at levels on either
    side of the table's byte edges too, the cube's far corner, points
    outside the cube and random points."""
    M = max_level_for_dim(dim)
    rng = np.random.default_rng(600 + dim)
    values = [0.0, math.nextafter(1.0, 0.0), 1.0, -0.25, -1e-300, 1.5, 7.0]
    for lev in sorted({1, 2, 3, 7, 8, 9, 15, 16, 17, M // 2, M - 1, M} & set(range(1, M + 1))):
        for j in rng.integers(0, 1 << lev, size=3).tolist():
            face = j * 2.0**-lev
            values += [face, math.nextafter(face, 0.0), math.nextafter(face, 1.0)]
    points = [tuple(float(x) for x in p) for p in rng.choice(values, size=(60, dim))]
    points += [tuple(rng.random(dim).tolist()) for _ in range(20)]
    points.append((math.nextafter(1.0, 0.0),) * dim)
    for p in points:
        full = encode_point(p, dim)
        assert full == int(encode_points(np.array([p]), dim)[0])
        for level in range(M + 1):
            got = encode_point(p, dim, level)
            assert got == full & ~((1 << dim * (M - level)) - 1), (p, level)
            top = 1 << level
            want = [min(max(math.floor(x * top), 0), top - 1) for x in p]
            assert morton_decode(np.array([got]), level, dim)[0].tolist() == want
            spread = _morton_rounds(dim, level)[0]
            rounds = 0
            for c in want:
                rounds = rounds << 1 | _spread_bits(c, spread)
            assert got == rounds << dim * (M - level), (p, level)


_DEPTHS = ["root", "one", "mid", "max", "7", "8", "9", "15", "16", "17"]


@pytest.mark.parametrize(
    "depth,dim",
    [(t, d) for t in _DEPTHS for d in range(1, 6) if not t.isdigit() or int(t) <= max_level_for_dim(d)],
)
def test_point_location_at_every_tree_depth(depth, dim):
    """point_location encodes at the tree's deepest stored level L and
    still finds the deepest stored cube: trees whose deepest level is 0,
    1, about M/2 and M, and 7, 8, 9, 15, 16 and 17 (where M allows), on
    either side of the encode table's byte edges, probed at random
    points, on the faces of the deepest cubes from both sides, and on
    dyadic faces finer than L."""
    M = max_level_for_dim(dim)
    L = {"root": 0, "one": 1, "mid": M // 2, "max": M}[depth] if not depth.isdigit() else int(depth)
    rng = np.random.default_rng(700 + 10 * dim + L)

    def cube(lev):
        return CanonicalCube(lev, tuple(int(c) for c in rng.integers(0, 1 << lev, size=dim)))

    deepest = [cube(L) for _ in range(6)]
    # A cube at L with the far corner of the unit cube, and a chain down to it.
    deepest.append(CanonicalCube(L, ((1 << L) - 1,) * dim))
    cubes = deepest + [cube(int(lev)) for lev in rng.integers(0, L + 1, size=30)]
    cubes += [CanonicalCube(lev, (((1 << L) - 1) >> (L - lev),) * dim) for lev in range(L)]
    tree = _cube_tree(cubes, dim)
    assert tree.deepest_level == L
    stored = [key_to_cube(int(z), int(l), dim) for z, l in zip(tree.z, tree.level)]
    points = [tuple(rng.random(dim).tolist()) for _ in range(150)]
    for c in deepest:
        lo, hi = c.low, c.high
        points.append(lo)
        points.append(tuple(math.nextafter(x, 0.0) for x in hi))
        points.append(tuple(math.nextafter(x, 0.0) for x in lo))
        points.append(tuple(min(x, math.nextafter(1.0, 0.0)) for x in hi))
    for lev in (L + 1, M):
        for j in rng.integers(0, 1 << lev, size=(10, dim)).tolist():
            points.append(tuple(x * 2.0**-lev for x in j))
    for p in points:
        assert stored[tree.point_location(p)] == _brute_deepest(stored, p), p


def test_tree_orders_parents_before_children():
    rng = np.random.default_rng(7)
    tree = _cube_tree(_random_cubes(rng, 2, 60), 2)
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
    tree = _cube_tree([a, b], 1)
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
        tree = _cube_tree(_cubes_sharing_corners(rng, dim, int(rng.integers(1, 60))), dim)
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
        tree = _cube_tree(cubes, dim)
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


def _point_sets(rng, dim):
    """Random points with coincident copies, points on dyadic faces (every
    coordinate a multiple of 2^-l, l up to M, 0 and the top cell's corner
    among them), a single point, and many copies of one point."""
    M = max_level_for_dim(dim)
    pts = rng.random((150, dim))
    copies = np.concatenate([pts, pts[rng.integers(0, 150, 60)]])[rng.permutation(210)]
    lev = rng.integers(0, M + 1, size=(150, 1))
    faces = rng.integers(0, 1 << 62, size=(150, dim)) % (1 << lev) * 2.0**-lev
    faces[:2] = [[0.0] * dim, [1.0 - 2.0**-M] * dim]
    return {
        "copies": copies,
        "faces": faces,
        "single": rng.random((1, dim)),
        "equal": np.full((40, dim), rng.random()),
    }


_TREE_ARRAYS = ("z", "level", "shift", "z_hi", "parent", "child_off", "child_idx")


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_point_tree_from_one_sort_matches_cube_tree(dim):
    """build_from_points (one encode, one stable argsort, the adjacent
    leaves' LCAs) gives the tree build_from_cubes builds over the distinct
    level-M keys, every array bit for bit, and its point order and spans
    equal the lexsort and searchsorted reference."""
    rng = np.random.default_rng(700 + dim)
    M = max_level_for_dim(dim)
    for name, pts in _point_sets(rng, dim).items():
        tree = build_from_points(pts, dim)
        codes = encode_points(pts, dim)
        leaves = np.unique(codes)
        want = build_from_cubes((leaves, np.full(leaves.size, M, dtype=np.int64), dim))
        for attr in _TREE_ARRAYS:
            got, ref = getattr(tree, attr), getattr(want, attr)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, attr)
        assert (tree.size, tree.deepest_level) == (want.size, want.deepest_level), name
        order = np.lexsort((np.arange(codes.size), codes))
        assert tree.point_perm.dtype == np.int64 and tree.point_perm.tolist() == order.tolist(), name
        assert tree.point_codes.tolist() == codes[order].tolist(), name
        lo = np.searchsorted(codes[order], tree.z, side="left")
        hi = np.searchsorted(codes[order], tree.z_hi, side="right")
        assert tree.span_lo.tolist() == lo.tolist() and tree.span_hi.tolist() == hi.tolist(), name
        assert tree.has_points and tree.span_hi[0] - tree.span_lo[0] == len(pts)
        if name == "equal":
            assert tree.size == 2 and tree.level.tolist() == [0, M]


def test_point_tree_at_a_root_only_dimension():
    """At d = 64 the maximum level is 0: every point's key is 0, and the
    tree is the root alone, holding every point."""
    assert max_level_for_dim(64) == 0
    tree = build_from_points(np.random.default_rng(1).random((5, 64)), 64)
    assert tree.z.tolist() == [0] and tree.level.tolist() == [0] and tree.parent.tolist() == [-1]
    assert tree.point_perm.tolist() == list(range(5))
    assert (tree.span_lo.tolist(), tree.span_hi.tolist()) == ([0], [5])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_parent_rule_matches_find_keys_on_lca_pairs(dim):
    """The parent of node i, the last node before i at the level of
    LCA(i - 1, i), is the node find_keys finds for that LCA, on point trees
    and on trees of cubes that share corners."""
    rng = np.random.default_rng(720 + dim)
    trees = [build_from_points(pts, dim) for pts in _point_sets(rng, dim).values()]
    trees += [_cube_tree(_cubes_sharing_corners(rng, dim, int(m)), dim) for m in (1, 5, 40)]
    for tree in trees:
        lca_z, lca_l = _pair_lcas(tree.z[:-1], tree.level[:-1], tree.z[1:], tree.level[1:], dim)
        assert tree.parent[0] == -1
        assert tree.parent[1:].tolist() == tree.find_keys(lca_z, lca_l).tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_overlay_back_pointers_match_top_down_sweep(dim):
    rng = np.random.default_rng(60 + dim)
    for _ in range(6):
        ta = _cube_tree(_cubes_sharing_corners(rng, dim, 20), dim)
        tb = _cube_tree(_cubes_sharing_corners(rng, dim, 20), dim)
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


def test_overlay_contains_both_trees():
    rng = np.random.default_rng(23)
    ca = _random_cubes(rng, 2, 25)
    cb = _random_cubes(rng, 2, 25)
    ta = _cube_tree(ca, 2)
    tb = _cube_tree(cb, 2)
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
    tree = _cube_tree([CanonicalCube(1, (0,))], 1)
    with pytest.raises(InputError):
        tree.point_location((1.0,))
    with pytest.raises(InputError):
        tree.point_location((-0.1,))
    with pytest.raises(InputError):
        tree.point_location((0.5, 0.5))

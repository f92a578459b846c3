import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann import build_registry, generate_instance, normalize
from ballann.geometry import (
    Ball,
    InputError,
    ball_distance,
    ball_distances,
    cells_meet_ball,
    grid_cell,
    grid_coords,
    grid_level_for_diameter,
)
import ballann.knn as knn
from ballann.knn import (
    KnnAnswer,
    constant_factor_detail,
    constant_factor_kth,
    kth_balls,
    kth_by_value_id,
    query,
    refine,
)
from ballann.registry import Registry
from ballann.oracle import exact_kth_distance

from conftest import make_registry


def _truth(reg, q, k):
    return exact_kth_distance(reg.instance, q, k).value


# -- constant-factor stage -------------------------------------------------------


@pytest.mark.parametrize("dim,profile", [(1, "uniform"), (2, "clustered"), (2, "nested-huge")])
def test_constant_factor_sandwich(dim, profile):
    reg = make_registry(60 + dim, dim, 48, profile=profile)
    rng = np.random.default_rng(dim)
    seen = set()
    for _ in range(250):
        q = tuple(rng.random(dim))
        k = int(rng.integers(1, reg.n + 1))
        x, step, witness = constant_factor_detail(reg, q, k)
        seen.add(step)
        truth = _truth(reg, q, k)
        if x == 0.0:
            assert truth == 0.0
            assert witness >= 0
        else:
            assert x / 4.0 - 1e-12 <= truth <= 4.0 * x + 1e-12
    assert "A" in seen or "B" in seen


def test_nested_huge_forces_descent_branch():
    # Huge shells around a tight core make the k-th distance ride on big
    # balls, which is exactly the halving branch's regime.
    reg = make_registry(66, 1, 48, profile="nested-huge")
    rng = np.random.default_rng(3)
    steps = set()
    for _ in range(400):
        # Sample inside the nest: uniform cube points mostly miss the tiny
        # normalized bounding box, and the descent case needs nearby shells.
        b = reg.instance.balls[int(rng.integers(reg.n))]
        q = tuple(
            min(max(c + rng.normal() * (b.radius + 1e-6), 0.0), math.nextafter(1.0, 0.0))
            for c in b.center
        )
        k = int(rng.integers(1, reg.n + 1))
        _, step, _ = constant_factor_detail(reg, q, k)
        steps.add(step)
    assert "C" in steps


def test_constant_factor_zero_inside_k_balls():
    reg = make_registry(1, 2, 30)
    b = reg.instance.balls[7]
    x, step, witness = constant_factor_detail(reg, b.center, 1)
    assert x == 0.0 and step == "zero" and witness == 7


def test_constant_factor_rejects_bad_k():
    reg = make_registry(0, 1, 10)
    with pytest.raises(InputError):
        constant_factor_kth(reg, (0.5,), 0)
    with pytest.raises(InputError):
        constant_factor_kth(reg, (0.5,), 11)


# -- refinement --------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_refine_accepts_any_valid_bracket(dim):
    reg = make_registry(70 + dim, dim, 40)
    rng = np.random.default_rng(19)
    for _ in range(60):
        q = tuple(rng.random(dim))
        k = int(rng.integers(1, reg.n + 1))
        eps = float(rng.choice([0.5, 0.2]))
        truth = _truth(reg, q, k)
        if truth == 0.0:
            continue
        # Anywhere inside the contract window [truth/4, 4*truth] must work,
        # including both edges.
        for x in (truth, truth / 4.0 * 1.001, 4.0 * truth * 0.999):
            ans = refine(reg, q, k, x, eps)
            assert (1.0 - eps) * truth - 1e-12 <= ans.distance <= (1.0 + eps) * truth + 1e-12
            lo, hi = ans.certified_interval
            assert lo - 1e-12 <= truth <= hi + 1e-12


def test_refine_zero_x_answers_inside_queries():
    reg = make_registry(2, 1, 30)
    b = reg.instance.balls[3]
    ans = refine(reg, b.center, 1, 0.0, 0.5)
    assert ans.distance == 0.0
    assert ball_distances(b.center, reg.centers, reg.radii)[ans.ball_id] == 0.0


def _refine_reference(reg, q, k, x, eps):
    """Witness id of the refinement without the prefilter: the registry's
    large-ball retrieval and its exact small-center cell test, then the
    weighted selection."""
    ehat = eps / knn.EPS_HAT_SHRINK
    r_q = 4.0 * x * (1.0 + ehat)
    level, clamped = grid_level_for_diameter(2.0 * r_q, ehat / 16.0, reg.dim)
    if clamped:  # the grid would be too fine: exact k-th (distance, id)
        d = ball_distances(q, reg.centers, reg.radii).tolist()
        return sorted(range(reg.n), key=lambda i: (d[i], i))[k - 1]
    large = reg.large_balls_intersecting(q, r_q, 2.0 * ehat * x)
    est = list(zip(ball_distances(q, reg.centers[large], reg.radii[large]).tolist(), large.tolist()))
    weight = [1] * len(est)
    rest = np.setdiff1d(np.arange(reg.n), large)
    snapped = grid_coords(reg.centers[rest], level)
    small = rest[cells_meet_ball(snapped, np.asarray(q, dtype=np.float64), r_q + ehat * x, level)]
    cells = {}
    for i in small.tolist():
        cells.setdefault(tuple(grid_coords(reg.centers[i : i + 1], level)[0].tolist()), []).append(i)
    for coords, ids in cells.items():
        cc = (np.array(coords) + 0.5) * 2.0 ** (-level)
        est.append((ball_distance(list(q), cc.tolist(), 0.0), min(ids)))
        weight.append(len(ids))
    order = sorted(range(len(est)), key=lambda j: est[j])
    total = 0
    for j in order:
        total += weight[j]
        if total >= k:
            return est[j][1]
    raise AssertionError("ran out of candidates")


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_cells_meet_matches_brute_force(dim):
    """refine's cell test, geometry.cells_meet_ball, against brute force:
    each center's closed level cell (geometry.grid_cell) against the closed
    ball, from points inside and just outside the cube."""
    reg = make_registry(60 + dim, dim, 60, profile="clustered")
    rng = np.random.default_rng(dim)
    hits = 0
    for _ in range(40):
        q = rng.uniform(-0.1, 1.1, size=dim)
        level = int(rng.integers(1, 10))
        radius = float(10.0 ** rng.uniform(-2.3, -0.3))
        want = [i for i in range(reg.n) if grid_cell(level, reg.centers[i]).min_dist_to_point(q) <= radius]
        meet = cells_meet_ball(grid_coords(reg.centers, level), q, radius, level)
        assert np.flatnonzero(meet).tolist() == want
        hits += 0 < len(want) < reg.n
    assert hits > 0  # some ball met some cells and missed others


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_refine_picks_the_reference_witness(monkeypatch, dim):
    """refine picks the reference's witness, and every answer is within
    (1 +- eps) of the true k-th distance with an interval around it, on
    points inside a ball, outside the cube, among the balls and uniform,
    and on one whose grid would be deeper than the exact levels."""
    reg = make_registry(90 + dim, dim, 40, profile="nested-huge" if dim % 2 else "uniform")
    taken = []

    def counted(name):
        real = getattr(knn, name)

        def wrapper(*args):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(knn, name, wrapper)

    counted("_select_with_cells")
    counted("_exact_answer")
    rng = np.random.default_rng(41 + dim)
    eps = 0.25
    exact_rows = zero_rows = 0
    for k in (1, int(rng.integers(2, reg.n)), reg.n):
        for i in range(25):
            if i < 3:
                q = np.array(reg.instance.balls[i].center)  # inside >= 1 ball
            elif i < 9:
                q = rng.random(dim) * 2.0 - 0.5  # mostly outside the unit cube
            elif i < 18:
                q = 0.5 + (rng.random(dim) - 0.5) * 0.15  # among the balls
            else:
                q = rng.random(dim)
            truth = _truth(reg, q, k)
            # The last point's grid would be deeper than the exact levels.
            x = 1e-20 if i == 24 else truth * float(rng.uniform(0.26, 3.9))
            del taken[:]
            ans = refine(reg, q, k, x, eps)
            # Every row with x > 0 takes the cell selection, unless its grid
            # would be deeper than the exact levels: then the exact scan.
            want = []
            if x > 0.0:
                ehat = eps / knn.EPS_HAT_SHRINK
                clamped = grid_level_for_diameter(2.0 * (4.0 * x * (1.0 + ehat)), ehat / 16.0, dim)[1]
                want = ["_exact_answer" if clamped else "_select_with_cells"]
            assert taken == want
            exact_rows += want == ["_exact_answer"]
            zero_rows += x == 0.0
            if x > 0.0:
                assert ans.ball_id == _refine_reference(reg, q, k, x, eps)
            tol = 1e-12 * max(1.0, truth)
            assert (1.0 - eps) * truth - tol <= ans.distance <= (1.0 + eps) * truth + tol
            lo, hi = ans.certified_interval
            assert lo - tol <= truth <= hi + tol
    assert zero_rows >= 3 and exact_rows >= 3


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_refine_breaks_tied_cell_estimates_by_id(monkeypatch, dim):
    """Rings of tiny balls about q = (1/2, ..., 1/2), each ring every sign
    flip and axis order of one offset, so mirror centers fall in mirror grid
    cells and a ring's cell estimates tie exactly; then 2d large balls on the
    axes, their exact distances tied too.  Ids go ring by ring, so with
    every ball in the net, each its own cell of weight 1, the k-th witness
    is ball k - 1: k = 1, the candidate count, and ks in between."""
    u, v = 2.0**-9, 2.0**-30  # v keeps every center off the grid lines
    inst = normalize(generate_instance(0, dim, 2), 0.5)
    balls = []
    for base in ((3, 1, 2), (5, 2, 4), (7, 4, 1)):
        ring = set()
        for perm in itertools.permutations(base[:dim]):
            for signs in itertools.product((-1, 1), repeat=dim):
                ring.add(tuple(s * (m * u + v) for s, m in zip(signs, perm)))
        balls += [Ball(tuple(0.5 + o for o in off), u / 64) for off in sorted(ring)]
    group = len(balls) // 3
    for j in range(dim):
        for s in (-1, 1):
            c = [0.5] * dim
            c[j] += s * 12 * u
            balls.append(Ball(tuple(c), 2 * u))
    reg = Registry(replace(inst, centers=[b.center for b in balls], radii=[b.radius for b in balls]))
    calls = []
    real_select = knn._select_with_cells

    def counted(*args):
        calls.append(1)
        return real_select(*args)

    monkeypatch.setattr(knn, "_select_with_cells", counted)
    q = np.full(dim, 0.5)
    eps = 0.5
    for k in sorted({1, group // 2 + 1, group + 3, reg.n}):
        truth = _truth(reg, q, k)
        for x in (truth, 3.0 * truth):
            del calls[:]
            ans = refine(reg, q, k, x, eps)
            assert calls  # the row took the cell selection
            assert ans.ball_id == _refine_reference(reg, q, k, x, eps) == k - 1
            assert (1.0 - eps) * truth <= ans.distance <= (1.0 + eps) * truth


def test_refine_breaks_distance_ties_by_id():
    # Five coincident balls and one apart: every ball is large, so the
    # selection has no small candidate, and equal distances order by id.
    balls = [Ball((0.0, 0.0), 1.0)] * 5 + [Ball((6.0, 0.0), 1.0)]
    reg = build_registry(normalize(balls, 0.5))
    q = reg.instance.to_unit((0.0, 1.5))
    truth = _truth(reg, q, 3)
    assert refine(reg, q, 3, truth, 0.5).ball_id == 2
    ans = refine(reg, q, 5, truth, 0.5)
    assert ans.ball_id == 4 and ans.distance == pytest.approx(truth)


def test_refine_validation():
    reg = make_registry(3, 2, 20)
    q = (0.3, 0.4)
    with pytest.raises(InputError):
        refine(reg, q, 0, 0.1, 0.5)
    with pytest.raises(InputError):
        refine(reg, q, 3, 0.1, 1.0)
    with pytest.raises(InputError):
        refine(reg, q, 3, -0.1, 0.5)
    with pytest.raises(InputError):
        refine(reg, q, 3, float("nan"), 0.5)
    with pytest.raises(InputError):
        refine(reg, [q], 3, 0.1, 0.5)
    with pytest.raises(InputError):
        refine(reg, (0.3, 0.4, 0.5), 3, 0.1, 0.5)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError):
            refine(reg, (bad, 0.4), 3, 0.1, 0.5)


# -- full query ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_query_two_sided_and_interval(dim):
    reg = make_registry(80 + dim, dim, 50)
    rng = np.random.default_rng(29)
    for _ in range(150):
        q = tuple(rng.random(dim))
        k = int(rng.integers(1, reg.n + 1))
        eps = float(rng.choice([0.5, 0.2, 0.1]))
        ans = query(reg, q, k, eps)
        truth = _truth(reg, q, k)
        tol = 1e-12 * max(1.0, truth)
        assert (1.0 - eps) * truth - tol <= ans.distance <= (1.0 + eps) * truth + tol
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        assert lo - tol <= ans.distance <= hi + tol
        if lo > 0.0:
            assert hi / lo <= (1.0 + eps) / (1.0 - eps) + 1e-9
        # The reported distance is the distance of the reported ball, bit
        # for bit.
        assert ans.distance == ball_distances(q, reg.centers, reg.radii)[ans.ball_id]
        assert not ans.out_of_domain


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_query_outside_unit_cube_is_flagged_and_certified(dim):
    reg = make_registry(90 + dim, dim, 60)
    rng = np.random.default_rng(41)
    for _ in range(40):
        q = rng.random(dim)
        j = int(rng.integers(dim))
        q[j] = float(rng.choice([-1.0, 1.0, 2.0, 6.0])) + (0.0 if rng.random() < 0.3 else float(rng.random()))
        if 0.0 <= q[j] < 1.0:
            q[j] = 1.0  # the closed upper face is outside [0,1)^d
        q = tuple(float(x) for x in q)
        k = int(rng.integers(1, reg.n + 1))
        eps = float(rng.choice([0.5, 0.2]))
        ans = query(reg, q, k, eps)
        assert ans.out_of_domain
        truth = _truth(reg, q, k)
        tol = 1e-12 * max(1.0, truth)
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        assert (1.0 - eps) * truth - tol <= ans.distance <= (1.0 + eps) * truth + tol
        assert ans.distance == ball_distances(q, reg.centers, reg.radii)[ans.ball_id]


def test_query_k_edges():
    reg = make_registry(4, 2, 25)
    rng = np.random.default_rng(31)
    for k in (1, reg.n):
        for _ in range(40):
            q = tuple(rng.random(2))
            ans = query(reg, q, k, 0.3)
            truth = _truth(reg, q, k)
            assert (0.7) * truth - 1e-12 <= ans.distance <= 1.3 * truth + 1e-12


def test_query_large_eps():
    reg = make_registry(5, 1, 30)
    rng = np.random.default_rng(37)
    for _ in range(60):
        q = tuple(rng.random(1))
        k = int(rng.integers(1, 31))
        ans = query(reg, q, k, 0.9)
        truth = _truth(reg, q, k)
        assert 0.1 * truth - 1e-12 <= ans.distance <= 1.9 * truth + 1e-12


def test_query_validation():
    reg = make_registry(0, 1, 10)
    with pytest.raises(InputError):
        query(reg, (0.5,), 0, 0.5)
    with pytest.raises(InputError):
        query(reg, (0.5,), 3, 0.0)
    with pytest.raises(InputError):
        query(reg, (0.5,), 3, 1.0)
    with pytest.raises(InputError):
        query(reg, (0.5, 0.5), 3, 0.5)
    with pytest.raises(InputError):
        constant_factor_detail(reg, (0.5, 0.5), 3)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError):
            query(reg, (bad,), 3, 0.5)
        with pytest.raises(InputError):
            knn.two_stage_query(reg, (bad,), 3, 0.5)
        with pytest.raises(InputError):
            constant_factor_detail(reg, (bad,), 3)


def test_answer_type_is_frozen():
    ans = KnnAnswer(0, 1.0, (0.5, 2.0))
    with pytest.raises(Exception):
        ans.distance = 2.0


# -- exact k-th selection ------------------------------------------------------------


def _kth_reference(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k-th entry in (value, column) order, by lexsort."""
    cols = np.arange(values.shape[1])
    wid = np.array([np.lexsort((cols, row))[k - 1] for row in values], dtype=np.int64)
    return values[np.arange(values.shape[0]), wid], wid


_ROW_KINDS = ("distinct", "few values", "all equal", "inf")


@given(
    st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
    st.integers(1, 40),
    st.sampled_from(["1", "n", "any"]),
    st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_kth_by_value_id_matches_lexsort(kinds, n, which, seed):
    """The selection (a partitioned copy, one equality pass and argmax, and
    the column ranking on rows with more than one value at the k-th) is
    the k-th in (value, column) order: on rows of many equal values, on
    all-equal rows and on rows with +inf entries, for k = 1, n and
    between, and values is left as it was."""
    rng = np.random.default_rng(seed)
    k = {"1": 1, "n": n, "any": int(rng.integers(1, n + 1))}[which]
    rows = []
    for kind in kinds:
        if kind == "distinct":
            rows.append(rng.random(n))
        elif kind == "few values":
            rows.append(rng.integers(0, 3, n) * 0.25)
        elif kind == "all equal":
            rows.append(np.full(n, float(rng.random())))
        else:
            rows.append(np.where(rng.random(n) < 0.5, rng.integers(0, 4, n) * 0.5, np.inf))
    values = np.array(rows)
    before = values.tobytes()
    want_kth, want_col = _kth_reference(values, k)
    kth, col = kth_by_value_id(values, k, np.empty_like(values))
    assert kth.tobytes() == want_kth.tobytes()
    assert col.tolist() == want_col.tolist()
    assert values.tobytes() == before


def test_kth_chunk_rows_floor():
    """A chunk holds _KTH_CHUNK_PAIRS pairs of rows, 16 at n = 1,024, and at
    least 4 rows while they fit in 4 times that: 4 up to n = 16,384, then
    as many as fit, 2 at 32,768 and 1 from 65,536 on."""
    rows = {n: knn._kth_chunk_rows(n) for n in (1, 1024, 4096, 5000, 16384, 20000, 32768, 65536, 1 << 20)}
    assert rows == {1: 1 << 14, 1024: 16, 4096: 4, 5000: 4, 16384: 4, 20000: 3, 32768: 2, 65536: 1, 1 << 20: 1}


def _tied_registry() -> Registry:
    """40 uniform balls at d=2 and a coincident copy of the first 8, so that
    distances tie at every point, at 0 inside the copied balls."""
    balls = generate_instance(91, 2, 40)
    return build_registry(normalize(balls + balls[:8], 0.5))


@pytest.mark.parametrize(
    "regime,m",
    [("below one chunk", 13), ("ragged last chunk", 13), ("n pairs", 9), ("below n pairs", 9), ("one pair", 9)],
)
def test_kth_balls_matches_a_dense_row_in_every_chunk_regime(monkeypatch, regime, m):
    """kth_balls equals, bit for bit, one dense ball_distances row per point
    and its k-th (distance, id) by lexsort, whether the rows fit in one
    chunk, end in a short chunk, take the floor of _KTH_MIN_ROWS rows or
    fewer because n is at least the chunk's pairs, or fill a chunk one at a
    time."""
    reg = _tied_registry()
    n = reg.n
    pairs = {
        "below one chunk": knn._KTH_CHUNK_PAIRS,
        "ragged last chunk": 5 * n,
        "n pairs": n,
        "below n pairs": n - 1,
        "one pair": 1,
    }[regime]
    assert (pairs // n < m) == (regime != "below one chunk")
    monkeypatch.setattr(knn, "_KTH_CHUNK_PAIRS", pairs)
    rng = np.random.default_rng(m)
    pts = np.concatenate([reg.centers[: m // 2], rng.uniform(-0.5, 1.5, (m - m // 2, 2))])
    dense = np.stack([ball_distances(p, reg.centers, reg.radii) for p in pts])
    for k in (1, 2, 9, n // 2, n):
        want_kth, want_wid = _kth_reference(dense, k)
        kth, wid = kth_balls(reg, pts, k)
        assert kth.tobytes() == want_kth.tobytes()
        assert wid.tolist() == want_wid.tolist()
    kth, wid = kth_balls(reg, pts[:0], 1)
    assert kth.shape == wid.shape == (0,)

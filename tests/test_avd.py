import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballann.knn as knn
from ballann import build_registry, generate_instance, normalize
from ballann.avd import (
    ZETA1_PRACTICAL,
    ZETA1_STRICT,
    AVDIndex,
    _assign_sites,
    _far_field,
    audit_cells,
    avd_query,
    build_avd,
    near_certifies,
    near_test,
)
from ballann.geometry import InputError, ball_distance, ball_distances
from ballann.io import load_index, save_index
from ballann.oracle import exact_kth_distance
from ballann.quadtree import build_from_cubes, encode_points
from ballann.quorum import ball_quorum

from conftest import make_registry


def _build(seed, dim, n, k, eps, mode="practical", **kw):
    reg = make_registry(seed, dim, n, eps=eps)
    return build_avd(reg, k, eps, mode, **kw)


def _check_queries(a, n_q, seed, require_no_fallback=False):
    rng = np.random.default_rng(seed)
    inst = a.registry.instance
    before = dict(a.query_counts)
    for _ in range(n_q):
        q = tuple(rng.random(a.registry.dim))
        ans = avd_query(a, q)
        truth = exact_kth_distance(inst, q, a.k).value
        tol = 1e-12 * max(1.0, truth)
        assert (1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        # The reported distance is the distance of the reported ball, bit
        # for bit.
        reg = a.registry
        assert ans.distance == ball_distances(q, reg.centers, reg.radii)[ans.ball_id]
    counted = sum(a.query_counts.values()) - sum(before.values())
    assert counted == n_q
    if require_no_fallback:
        assert a.query_counts["fallback"] == before.get("fallback", 0)


# -- end-to-end correctness -----------------------------------------------------


@pytest.mark.parametrize(
    "seed,dim,n,k,eps",
    [(51, 1, 8, 7, 0.5), (52, 1, 64, 16, 0.25), (53, 1, 64, 8, 0.5), (54, 2, 100, 25, 0.5)],
)
def test_avd_two_sided_sweeps(seed, dim, n, k, eps):
    a = _build(seed, dim, n, k, eps)
    assert a.stats["uncertified"] == 0
    _check_queries(a, 300, seed + 1)


def test_d3_practical_build_certifies_every_cell():
    a = _build(55, 3, 256, 64, 0.5)
    assert a.stats["uncertified"] == 0
    assert a.stats["I"] == a.stats["S"] == 0 and a.stats["overlay_pre_split"] == 1
    _check_queries(a, 300, 56, require_no_fallback=True)


def test_near_branch_constant_meets_both_sides_of_the_chain():
    """h = eps/(2 + eps) d_k is where the near window closes at a cell's
    worst points: t = d_k + h meets (1 + eps)(d_k - h) with equality, and t
    = d_k - h clears (1 - eps)(d_k + h) by 2 eps^2/(2 + eps) d_k.  The
    float test accepts both at a relative 1e-4 inside that bound, more than
    NEAR_MARGIN costs there (about NEAR_MARGIN/eps), and refuses the upper
    one 1e-7 outside it, at every eps from 1e-4 and across scales of d_k."""
    for eps in np.linspace(1e-4, 1.0, 10_001)[:-1]:
        h = eps / (2.0 + eps)
        assert (1.0 + eps) * (1.0 - h) == pytest.approx(1.0 + h, rel=1e-14)
        assert (1.0 - h) - (1.0 - eps) * (1.0 + h) == pytest.approx(2.0 * eps**2 / (2.0 + eps), rel=1e-9)
        for d_k in (1e-9, 0.37, 3.0):
            inside, outside = h * d_k * (1.0 - 1e-4), h * d_k * (1.0 + 1e-7)
            assert near_test(d_k + inside, d_k, inside, eps)
            assert near_test(d_k - inside, d_k, inside, eps)
            assert not near_test(d_k + outside, d_k, outside, eps)


def test_queries_at_the_near_boundary_stay_in_the_window():
    """Around each live cell's representative, points just inside and just
    outside offset = eps/(2 + eps) * kdist.  Just inside, in any direction,
    the near test holds and the stored witness is in the window; just
    outside, straight away from the witness, where its distance is kdist +
    offset, the test fails.  avd_query answers in the window on both
    sides, and each cell's low corner, its farthest point from the
    representative, takes the near branch."""
    a = _build(57, 2, 100, 25, 0.5)
    reg, balls = a.registry, a.registry.instance.balls
    eps = a.eps
    rng = np.random.default_rng(58)
    live = np.flatnonzero((a.flags & 1) == 0)
    inside = 0
    for v in live[rng.permutation(live.size)[:120]]:
        rep, kd = a.rep[v], float(a.kdist[v])
        w = int(a.kdist_witness[v])
        edge = eps / (2.0 + eps) * kd
        u = rng.normal(size=2)
        away = rep - reg.centers[w]
        for q, expect in ((rep + (1.0 - 1e-6) * edge * u / np.linalg.norm(u), True),
                          (rep + (1.0 + 1e-3) * edge * away / np.linalg.norm(away), False)):
            truth = exact_kth_distance(balls, q, a.k).value
            lo, hi = (1.0 - eps) * truth - 1e-12, (1.0 + eps) * truth + 1e-12
            offset = ball_distance(q.tolist(), rep.tolist(), 0.0)
            t = ball_distance(q.tolist(), reg.centers[w].tolist(), float(reg.radii[w]))
            assert near_test(t, kd, offset, eps) == expect
            if expect:
                inside += 1
                assert lo <= t <= hi
            if np.all((0.0 <= q) & (q < 1.0)):
                assert lo <= avd_query(a, q).distance <= hi
        corner = rep - 0.5 * 2.0 ** (-float(a.tree.level[v]))
        before = dict(a.query_counts)
        ans = avd_query(a, corner)
        truth = exact_kth_distance(balls, corner, a.k).value
        assert (1.0 - eps) * truth - 1e-12 <= ans.distance <= (1.0 + eps) * truth + 1e-12
        assert a.query_counts["near"] == before["near"] + 1
    assert inside >= 100


def test_avd_query_at_stored_representative_uses_stored_witness():
    a = _build(60, 1, 32, 8, 0.5)
    live = [i for i in range(a.tree.size) if not (a.flags[i] & 1)]
    before = dict(a.query_counts)
    hits = 0
    for i in live[:50]:
        ans = avd_query(a, tuple(a.rep[i]))
        assert ans.ball_id >= 0
        hits += 1
    # Representative points sit squarely inside certified cells: the stored
    # paths must answer them, never the fallback.
    assert a.query_counts["fallback"] == before["fallback"]
    assert hits > 0


def test_avd_branch_mix_and_counts():
    a = _build(61, 1, 64, 16, 0.5)
    rng = np.random.default_rng(2)
    for _ in range(500):
        avd_query(a, tuple(rng.random(1)))
    c = a.query_counts
    assert c["near"] + c["cluster"] > 0
    assert c["fallback"] == 0
    assert sum(c.values()) == 500


def test_avd_out_of_domain_is_certified():
    a = _build(62, 1, 16, 7, 0.5)
    inst = a.registry.instance
    queries = [(1.5,), (1.0,), (-0.25,), (7.0,)]
    for q in queries:
        ans = avd_query(a, q)
        assert ans.out_of_domain
        truth = exact_kth_distance(inst, q, a.k).value
        tol = 1e-12 * max(1.0, truth)
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        assert (1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol
        assert ans.distance == ball_distances(q, a.registry.centers, a.registry.radii)[ans.ball_id]
    assert a.query_counts["out_of_domain"] == len(queries)


@pytest.mark.parametrize("dim,seed,n,k", [(1, 62, 16, 7), (2, 75, 100, 25), (3, 76, 60, 56)])
def test_avd_out_of_domain_answers_are_knn_query(dim, seed, n, k):
    """A point outside the cube gets knn.query's answer bit for bit, inside
    the oracle window and flagged: just outside every face, edge and corner,
    and at distance 10 and 1,000 from the cube's center."""
    a = _build(seed, dim, n, k, 0.5, cell_budget=6_000)
    reg, inst = a.registry, a.registry.instance
    # -1e-9 and 1.0 lie just outside [0, 1); 0.5 keeps a coordinate inside.
    points = [p for p in itertools.product((-1e-9, 0.5, 1.0), repeat=dim) if p != (0.5,) * dim]
    rng = np.random.default_rng(dim)
    for far in (10.0, 1000.0):
        for u in rng.normal(size=(4, dim)):
            points.append(tuple(0.5 + far * u / np.linalg.norm(u)))
    before = dict(a.query_counts)
    for q in points:
        ans = avd_query(a, q)
        assert ans == knn.query(reg, q, a.k, a.eps)
        assert ans.out_of_domain
        truth = exact_kth_distance(inst, q, a.k).value
        tol = 1e-12 * max(1.0, truth)
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        assert (1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol
    assert a.query_counts == {**before, "out_of_domain": before["out_of_domain"] + len(points)}


@pytest.mark.parametrize(
    "seed,dim,n,k,mode,budget",
    [(54, 2, 100, 25, "practical", 400_000), (54, 2, 100, 25, "practical", 20), (69, 1, 8, 7, "strict", 400_000)],
    ids=["practical", "practical_fallback", "strict"],
)
def test_avd_query_input_forms_agree(seed, dim, n, k, mode, budget):
    """One point as a tuple, a list, a 1-d float64 array or float32
    coordinates gets one answer: on the near branch, on the fallback of a
    build cut short by its cell budget, and outside the cube."""
    a = _build(seed, dim, n, k, 0.5, mode=mode, cell_budget=budget)
    rng = np.random.default_rng(5)
    points32 = np.concatenate([rng.random((40, dim)), rng.uniform(-0.5, 1.5, size=(10, dim))]).astype(np.float32)
    for p32 in points32:
        p = [float(x) for x in p32]
        want = avd_query(a, tuple(p))
        assert avd_query(a, p) == want
        assert avd_query(a, np.array(p)) == want
        assert avd_query(a, p32) == want
        assert avd_query(a, tuple(p32)) == want
    assert sum(a.query_counts.values()) == 5 * len(points32)
    assert a.query_counts["near"] > 0 and a.query_counts["out_of_domain"] > 0
    assert (a.query_counts["fallback"] > 0) == (budget == 20)


def _reference_location(t, qt: list[float]) -> int:
    """point_location on numpy: the full-depth key by encode_points, then
    np.searchsorted and the parent walk on the tree's arrays."""
    code = int(encode_points(np.array([qt]), t.dim)[0])
    v = int(np.searchsorted(t.z, code, side="right")) - 1
    while t.z_hi[v] < code:
        v = int(t.parent[v])
    return v


def _reference_avd_query(a, q) -> knn.KnnAnswer:
    """avd_query as the numpy path answers it: _reference_location, the
    cell row by rep[v].tolist() and ndarray.item, and two ball_distance
    calls."""
    qt = [float(x) for x in q]
    reg, eps = a.registry, a.eps
    if not all(0.0 <= x < 1.0 for x in qt):
        return knn.query(reg, qt, a.k, eps)
    v = _reference_location(a.tree, qt)
    assert not a.flags[v] & 1
    offset = ball_distance(qt, a.rep[v].tolist(), 0.0)
    kd, w = a.kdist.item(v), a.kdist_witness.item(v)
    dist = ball_distance(qt, reg.centers[w].tolist(), reg.radii.item(w))
    if not near_test(dist, kd, offset, eps):
        lower = kd - offset
        if not (lower > 0.0 and a.site.item(v) >= 0):
            return knn.query(reg, qt, a.k, eps)
        cl = a.clusters[a.site.item(v)]
        lam1 = float(np.linalg.norm(np.array(qt) - np.asarray(cl.center))) + cl.radius
        if not (2.0 * cl.radius <= eps * lower and lam1 <= (1.0 + eps) * lower):
            return knn.query(reg, qt, a.k, eps)
        w = int(cl.witness)
        dist = ball_distance(qt, reg.centers[w].tolist(), reg.radii.item(w))
    return knn.KnnAnswer(w, dist, (dist / (1.0 + eps), dist / (1.0 - eps)))


def _answer_bits(ans: knn.KnnAnswer) -> tuple:
    return ans.ball_id, ans.distance.hex(), tuple(x.hex() for x in ans.certified_interval), ans.out_of_domain


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("config", ["practical-d1", "practical-d2", "practical-d2-budget", "practical-d3", "strict-c6"])
def test_avd_query_matches_the_numpy_reference_path(tmp_path, config, loaded):
    """avd_query, on its memoryviews and one-pass distances, answers as
    _reference_avd_query does, ids and floats bit for bit, and point
    location finds the reference's cell: on practical indexes at d = 1, 2
    and 3 (one cut short by its cell budget, so that it falls back) and
    criterion 6's strict index, as built and after save_index/load_index,
    at random points, on the dyadic faces of the stored cells and one step
    below them, at nextafter(1, 0) and outside the cube."""
    if config == "strict-c6":
        a = build_avd(build_registry(normalize(generate_instance(6025, 1, 8), 0.5)), 7, 0.5, "strict")
    else:
        dim = int(config[len("practical-d")])
        seed, n, k = {1: (52, 64, 16), 2: (54, 100, 25), 3: (55, 256, 64)}[dim]
        a = _build(seed, dim, n, k, 0.5, cell_budget=20 if config.endswith("budget") else 400_000)
    if loaded:
        path = tmp_path / "index.bin"
        save_index(str(path), a)
        a = load_index(str(path))
    t, reg = a.tree, a.registry
    views = [(a._rep_view, a.rep), (a._kdist_view, a.kdist), (a._witness_view, a.kdist_witness)]
    views += [(a._flags_view, a.flags), (a._centers_view, reg.centers), (a._radii_view, reg.radii)]
    views += [(t._z_view, t.z), (t._z_hi_view, t.z_hi), (t._parent_view, t.parent)]
    for view, arr in views:  # the query reads the index's own arrays, copying none
        assert np.shares_memory(np.asarray(view), arr) and view.nbytes == arr.nbytes
    dim = a.registry.dim
    rng = np.random.default_rng(31)
    points = rng.random((300, dim)).tolist()
    top = math.nextafter(1.0, 0.0)
    points += [[top] * dim, [0.0] * dim, [top] + [0.0] * (dim - 1)]
    side = np.ldexp(1.0, -a.tree.level)[:, None]
    for v in rng.choice(a.tree.size, size=100).tolist():
        lo = (a.rep[v] - side[v] / 2.0).tolist()
        hi = (a.rep[v] + side[v] / 2.0).tolist()
        points += [lo, [math.nextafter(x, 0.0) for x in lo], [min(x, top) for x in hi]]
        points.append([math.nextafter(x, 0.0) if rng.random() < 0.5 else x for x in hi])
    points += rng.uniform(-0.5, 1.5, size=(20, dim)).tolist()
    for p in points:
        assert _answer_bits(avd_query(a, p)) == _answer_bits(_reference_avd_query(a, p)), p
        if all(0.0 <= x < 1.0 for x in p):
            assert a.tree.point_location(p) == _reference_location(a.tree, p), p
    if config == "practical-d2-budget":
        assert a.query_counts["fallback"] > 0
    assert a.query_counts["near"] > 0 and a.query_counts["out_of_domain"] > 0


def test_avd_dimension_mismatch_rejected():
    """A point of the wrong dimension, or with a coordinate that is not
    finite, is the caller's error, and no branch counts it."""
    a = _build(63, 1, 16, 7, 0.5)
    for q in ((0.5, 0.5), (float("nan"),), (float("inf"),), (-float("inf"),)):
        with pytest.raises(InputError):
            avd_query(a, q)
    assert not any(a.query_counts.values())


# -- cells and audit --------------------------------------------------------------


def test_cell_view_fields_are_consistent():
    a = _build(64, 1, 32, 8, 0.5)
    s = _build(69, 1, 8, 7, 0.5, mode="strict")
    assert a.clusters == [] and np.all(a.site == -1)
    for b in (a, s):
        balls = b.registry.instance.balls
        live = [i for i in range(b.tree.size) if not (b.flags[i] & 1)]
        for i in live[:60]:
            rep = tuple(float(x) for x in b.rep[i])
            assert b.tree.node_cube(i).contains_point(rep)
            truth = exact_kth_distance(balls, rep, b.k).value
            assert truth - 1e-12 <= b.kdist[i] <= (1.0 + b.eps / 4.0) * truth + 1e-12
            assert 0 <= b.kdist_witness[i] < len(balls)
    # In the strict index, each cell's owning cluster's witness is a ball
    # assigned to that cluster.
    for i in np.flatnonzero((s.flags & 1) == 0)[:60]:
        cl = s.clusters[int(s.site[i])]
        assert cl.witness in cl.assigned.tolist()


def test_audit_cells_clean_on_standard_build():
    a = _build(65, 1, 64, 16, 0.25)
    rep = audit_cells(a, samples=150, seed=5)
    assert rep["ok"]
    assert rep["violations"] == []
    assert rep["cells"] > 0 and rep["points"] > 0


def test_audit_cells_clean_at_d2():
    a = _build(66, 2, 60, 20, 0.5)
    rep = audit_cells(a, samples=80, seed=6)
    assert rep["ok"], rep["violations"]


def test_audit_cells_clean_on_strict_build():
    """Criterion 6's strict instance: the cluster checks (anchor, cluster
    witness containment, cluster branch) run on every sampled point."""
    reg = build_registry(normalize(generate_instance(6025, 1, 8), 0.5))
    a = build_avd(reg, 7, 0.5, mode="strict")
    rep = audit_cells(a, samples=150, seed=8)
    assert rep["ok"], rep["violations"]
    assert rep["cells"] > 0 and rep["anchor"] == rep["points"] > 0


# -- degraded and degenerate configurations ----------------------------------------


def test_adversarial_window_stays_correct_and_honest():
    # No split budget (cell_budget=0) keeps the index at the root cell alone.
    # The index must report uncertified cells and missed stored-path windows
    # while every answer stays inside (1 +- eps) through the fallback.
    reg = make_registry(51, 1, 8, eps=0.5)
    a = build_avd(reg, 7, 0.5, cell_budget=0)
    assert a.stats["uncertified"] > 0
    rep = audit_cells(a, samples=120, seed=7)
    assert rep["ok"], rep["violations"]  # a valid index has zero violations
    assert rep["else_branch_misses"] > 0  # the tightened window is observable
    _check_queries(a, 200, 8)


def test_k_equals_n_degenerate_cluster_count():
    a = _build(68, 1, 16, 16, 0.5)
    # ell = k - c_d < n always, so one full batch plus a remainder appear.
    clusters = ball_quorum(a.registry, 16)
    assert len(clusters) == 2
    assert clusters[-1].is_remainder
    _check_queries(a, 150, 9)


def test_practical_build_runs_no_quorum(monkeypatch):
    import ballann.avd as avd

    def refuse(*args, **kwargs):
        raise AssertionError("a practical build called ball_quorum")

    monkeypatch.setattr(avd, "ball_quorum", refuse)
    a = _build(54, 2, 100, 25, 0.5)
    assert a.clusters == [] and a.stats["clusters"] == 0
    assert a.site.shape == (a.tree.size,) and np.all(a.site == -1)
    assert a.stats["uncertified"] == 0
    _check_queries(a, 200, 55, require_no_fallback=True)
    with pytest.raises(AssertionError, match="ball_quorum"):
        _build(69, 1, 8, 7, 0.5, mode="strict")


def test_small_condition_implies_near():
    """The deleted small-cell branch: diam <= (eps/8)(kdist + offset) with
    offset <= h = diam/2 gives h <= eps/(16 - eps) kdist, which puts the
    query on the near branch whatever the witness's distance t in [kdist -
    offset, kdist + offset], at every eps in (0, 1)."""
    rng = np.random.default_rng(77)
    eps = np.concatenate([np.linspace(1e-4, 1.0, 2_001)[:-1], rng.uniform(0.0, 1.0, 20_000)])
    eps = eps[(eps > 0.0) & (eps < 1.0)]
    kdist = 10.0 ** rng.uniform(-9.0, 1.0, eps.size)
    # Offsets at a fraction of the half-diameter, and diameters up to the
    # largest one the small condition admits there, 2 eps kdist/(16 - eps frac).
    for frac in (np.ones(eps.size), rng.uniform(0.0, 1.0, eps.size)):
        diam = 2.0 * eps * kdist / (16.0 - eps * frac) * rng.uniform(0.0, 1.0, eps.size) ** 0.1
        offset = frac * diam / 2.0
        small = diam <= (eps / 8.0) * (kdist + offset)
        assert small.mean() > 0.99
        for i in np.flatnonzero(small).tolist():
            for t in (kdist[i] + offset[i], max(0.0, kdist[i] - offset[i])):
                assert near_test(t, kdist[i], offset[i], eps[i])
    # The margin: eps/(16 - eps) stays below eps/(2 + eps).
    assert np.all(eps / (16.0 - eps) < 0.2 * eps / (2.0 + eps))


@given(
    st.integers(1, 3),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.sampled_from(["uniform", "clustered"]),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_near_test_matches_oracle_at_edges(dim, eps, profile, seed):
    """avd_query against the oracle at the cell index's edges: at cell
    corners (offset = h), on dyadic cell faces, on ball surfaces (some
    outside the cube) and inside balls.  Every answer lies in the oracle
    window with an interval around d_k and the distance of its ball, bit
    for bit, and every query that lands in a cell the sweep certified takes
    the near branch.  The cell budget cuts the largest builds short, so
    their uncertified cells send queries to the fallback; an index of the
    root cell alone (budget 0) answers the same points, so the near test
    decides there at offsets up to the root's half-diameter."""
    n, k = {1: (24, 8), 2: (60, 20), 3: (60, 56)}[dim]
    rng = np.random.default_rng(seed)
    reg = build_registry(normalize(generate_instance(seed, dim, n, profile), 0.5))
    a = build_avd(reg, k, eps, cell_budget=20_000)
    live = np.flatnonzero((a.flags & 1) == 0)
    certified = near_certifies(a.kdist, np.ldexp(0.5 * math.sqrt(dim), -a.tree.level), eps)
    assert a.stats["uncertified"] == np.count_nonzero(~certified[live])
    points = []
    for v in rng.choice(live, size=min(live.size, 12), replace=False).tolist():
        side = 2.0 ** -float(a.tree.level[v])
        lo = a.rep[v] - side / 2.0
        # The low corner, and another corner pulled just inside the
        # half-open cube on its high sides.
        bits = rng.integers(0, 2, size=dim).astype(bool)
        points += [lo, np.where(bits, np.nextafter(lo + side, -np.inf), lo)]
        face = lo + rng.random(dim) * side
        j = int(rng.integers(dim))
        face[j] = lo[j] + side * int(rng.integers(0, 2))
        points.append(face)
    for b in rng.choice(n, size=8, replace=False).tolist():
        c, r = reg.centers[b], float(reg.radii[b])
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        axis = c.copy()
        axis[int(rng.integers(dim))] += r
        points += [c + r * u, axis, c + 0.5 * r * u, c.copy()]
    root = build_avd(reg, k, eps, cell_budget=0)
    near_hits = 0
    for q in points:
        truth = exact_kth_distance(reg.instance, q, k).value
        tol = 1e-12 * max(1.0, truth)
        before = a.query_counts["near"]
        for index in (a, root):
            ans = avd_query(index, q)
            assert (1.0 - eps) * truth - tol <= ans.distance <= (1.0 + eps) * truth + tol
            lo_i, hi_i = ans.certified_interval
            assert lo_i - tol <= truth <= hi_i + tol
            assert ans.distance == ball_distances(q, reg.centers, reg.radii)[ans.ball_id]
        if np.all((0.0 <= q) & (q < 1.0)) and certified[a.tree.point_location(q.tolist())]:
            assert a.query_counts["near"] == before + 1
            near_hits += 1
    assert near_hits > 0


def test_strict_mode_d1():
    a = _build(69, 1, 8, 7, 0.5, mode="strict")
    assert a.mode == "strict"
    assert a.zeta1 == ZETA1_STRICT == 3072.0
    _check_queries(a, 200, 10, require_no_fallback=True)


def test_practical_zeta1_constant():
    a = _build(70, 1, 16, 7, 0.5)
    assert a.zeta1 == ZETA1_PRACTICAL == 192.0


def test_build_validation():
    reg = make_registry(71, 1, 16, eps=0.5)
    with pytest.raises(InputError):
        build_avd(reg, 6, 0.5)  # k <= 2*c_d
    with pytest.raises(InputError):
        build_avd(reg, 17, 0.5)  # k > n
    with pytest.raises(InputError):
        build_avd(reg, 8, 0.0)
    with pytest.raises(InputError):
        build_avd(reg, 8, 1.0)
    with pytest.raises(InputError):
        build_avd(reg, 8, 0.5, mode="fast")


def test_build_deterministic():
    a = _build(72, 1, 48, 12, 0.5)
    b = _build(72, 1, 48, 12, 0.5)
    assert np.array_equal(a.tree.z, b.tree.z)
    assert np.array_equal(a.tree.level, b.tree.level)
    for name in ("rep", "kdist", "kdist_witness", "site", "flags"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_stats_inventory():
    a = _build(73, 1, 32, 8, 0.5)
    phases = ("quorum_s", "fields_s", "overlay_s", "sweep_s", "assemble_s")
    for key in (
        "n", "dim", "k", "eps", "mode", "zeta1", "clusters", "I", "S", "W",
        "overlay_pre_split", "splits", "uncertified", "empty_cells",
        "sweep_layers", "build_seconds", *phases,
    ):
        assert key in a.stats
    assert a.stats["W"] == a.tree.size
    for name in phases:
        assert a.stats[name] >= 0.0
    assert sum(a.stats[name] for name in phases) == pytest.approx(a.stats["build_seconds"], abs=1e-6)
    # The overlay layer plus one layer per round of splits.
    assert a.stats["sweep_layers"] >= 1 + (a.stats["splits"] > 0)


@pytest.mark.parametrize(
    "seed,dim,n,k,eps,budget",
    [
        (74, 1, 64, 16, 0.25, 400_000),
        (75, 2, 100, 25, 0.5, 400_000),
        (75, 2, 100, 25, 0.5, 400),
        (76, 3, 60, 56, 0.5, 2_000),
    ],
)
def test_block_sweep_matches_cell_by_cell_sweep(monkeypatch, seed, dim, n, k, eps, budget):
    """The block sweep builds the index a cell-by-cell sweep builds: one
    row per selection chunk changes nothing."""
    a = _build(seed, dim, n, k, eps, cell_budget=budget)
    monkeypatch.setattr(knn, "_KTH_CHUNK_PAIRS", 1)
    b = _build(seed, dim, n, k, eps, cell_budget=budget)
    assert a.stats["splits"] > 0 and a.stats["sweep_layers"] >= 2
    if budget < 400_000:
        # The budget stopped the splitting partway through a layer.
        assert a.stats["uncertified"] > 0
        assert a.stats["W"] <= budget
    assert np.array_equal(a.tree.z, b.tree.z)
    assert np.array_equal(a.tree.level, b.tree.level)
    for name in ("rep", "kdist", "kdist_witness", "site", "flags"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for key in ("splits", "uncertified", "sweep_layers"):
        assert a.stats[key] == b.stats[key], key


def _cell_d2_index(monkeypatch):
    """The `cell-d2` benchmark index of seed 1."""
    from pathlib import Path

    from ballann.geometry import Ball

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    w = workloads.WORKLOADS["cell-d2"]
    centers, radii, _, _, _ = workloads.make_inputs(w, 1)
    balls = [Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    return build_avd(build_registry(normalize(balls, w.floor)), w.cell_k, w.cell_eps)


@pytest.mark.parametrize("config", ["cell-d2", "strict-d1", "practical-d3"])
def test_stored_estimates_are_exact(monkeypatch, config):
    """Every live cell stores d_k(rep) itself, bit for bit, and a witness
    at distance d_k(rep)."""
    if config == "cell-d2":
        a = _cell_d2_index(monkeypatch)
    elif config == "strict-d1":
        a = build_avd(build_registry(normalize(generate_instance(6025, 1, 8), 0.5)), 7, 0.5, "strict")
    else:
        a = _build(55, 3, 256, 64, 0.5)
    reg = a.registry
    live = np.flatnonzero((a.flags & 1) == 0)
    assert live.size > 0
    for v in live.tolist():
        d_k = exact_kth_distance(a.registry.instance, a.rep[v], a.k).value
        assert a.kdist[v] == d_k, v
        assert ball_distances(a.rep[v], reg.centers, reg.radii)[a.kdist_witness[v]] == d_k, v


# -- far-field quality property ------------------------------------------------------


@pytest.mark.parametrize(
    "centers,radii,eps",
    [
        ([[0.12], [0.45], [0.52], [0.91]], [0.03, 0.18, 0.02, 0.07], 0.5),
        ([[0.12], [0.45], [0.52], [0.91]], [0.03, 0.18, 0.02, 0.07], 0.25),
        ([[0.25, 0.3], [0.7, 0.65], [0.4, 0.8]], [0.2, 0.3, 0.12], 0.5),
    ],
)
def test_far_field_assignment_quality(centers, radii, eps):
    """Locating any point in the far-field subdivision and inheriting the
    stored site must approximate its true nearest lifted site within 1 + eps/8.

    This conformance bound is the design obligation of the ring construction;
    the certification sweep then only has to handle the k-distance side.
    """
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    dim = centers.shape[1]
    z, lev = _far_field(centers, radii, eps, dim)
    tree = build_from_cubes((z, lev, dim))
    site = _assign_sites(tree, z, lev, centers, radii)
    assert site.shape == (tree.size,) and site.min() >= 0
    rng = np.random.default_rng(13)
    worst = 1.0
    for _ in range(400):
        q = rng.random(dim)
        s = int(site[tree.point_location(tuple(q))])
        lifted = np.linalg.norm(centers - q, axis=1) + radii
        got = float(lifted[s])
        best = float(lifted.min())
        worst = max(worst, got / best)
        assert got <= (1.0 + eps / 8.0) * best + 1e-12
    assert worst <= 1.0 + eps / 8.0 + 1e-12

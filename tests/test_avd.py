import math

import numpy as np
import pytest

from ballann import build_registry, generate_instance, normalize
from ballann.avd import (
    _NEAR,
    _KDIST_SHRINK,
    ZETA1_PRACTICAL,
    ZETA1_STRICT,
    AVDIndex,
    _assign_sites,
    _far_field,
    audit_cells,
    avd_query,
    build_avd,
)
from ballann.geometry import InputError, ball_distance, ball_distances
from ballann.oracle import exact_kth_distance
from ballann.quadtree import build_from_cubes
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
    """c = 3/8 eps keeps the stored witness inside (1 +- eps) for queries at
    offset <= c * lower, with estimates at eps/9 and the eps/4 sandwich."""
    assert _KDIST_SHRINK == 9.0
    for eps in np.linspace(1e-4, 1.0, 10_001)[:-1]:
        c, e = _NEAR * eps, eps / _KDIST_SHRINK
        assert (1.0 + e) * (1.0 + c) + c <= 1.0 + eps - 0.09 * eps
        assert (2.0 - e) * c <= (1.0 - e) - (1.0 - eps) - 0.1 * eps
        # The stored estimate (1 + e)/(1 - e) * d_k stays inside the sandwich.
        assert (1.0 + e) / (1.0 - e) <= 1.0 + eps / 4.0


def test_queries_at_the_near_boundary_stay_in_the_window():
    """Around each live cell's representative, points just inside and just
    outside offset = c * lower: the stored witness is in the window inside,
    and avd_query answers in the window on both sides.  Each cell's low
    corner, its farthest point from the representative, takes the near
    branch."""
    a = _build(57, 2, 100, 25, 0.5)
    balls = a.registry.instance.balls
    sandwich = 1.0 + a.eps / 4.0
    c = _NEAR * a.eps
    rng = np.random.default_rng(58)
    live = np.flatnonzero((a.flags & 1) == 0)
    inside = 0
    for v in live[rng.permutation(live.size)[:120]]:
        rep, kd = a.rep[v], float(a.kdist[v])
        # offset = c * (kd/sandwich - offset) at the boundary.
        edge = c * (kd / sandwich) / (1.0 + c)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        for scale in (1.0 - 1e-6, 1.0 + 1e-3):
            q = rep + scale * edge * u
            truth = exact_kth_distance(balls, q, a.k).value
            lo, hi = (1.0 - a.eps) * truth - 1e-12, (1.0 + a.eps) * truth + 1e-12
            offset = float(np.linalg.norm(q - rep))
            if offset <= c * (kd / sandwich - offset):
                inside += 1
                w = balls[int(a.kdist_witness[v])]
                assert lo <= ball_distance(q, w.center, w.radius) <= hi
            if np.all((0.0 <= q) & (q < 1.0)):
                assert lo <= avd_query(a, q).distance <= hi
        corner = rep - 0.5 * 2.0 ** (-float(a.tree.level[v]))
        before = dict(a.query_counts)
        ans = avd_query(a, corner)
        truth = exact_kth_distance(balls, corner, a.k).value
        assert (1.0 - a.eps) * truth - 1e-12 <= ans.distance <= (1.0 + a.eps) * truth + 1e-12
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


def test_avd_dimension_mismatch_rejected():
    a = _build(63, 1, 16, 7, 0.5)
    with pytest.raises(InputError):
        avd_query(a, (0.5, 0.5))


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
    # No split budget (cell_budget=0) keeps the index at the root cell alone;
    # zeta1 is not read by a practical build.  The index must report
    # uncertified cells and missed stored-path windows while every answer
    # stays inside (1 +- eps) through the fallback.
    reg = make_registry(51, 1, 8, eps=0.5)
    a = build_avd(reg, 7, 0.5, zeta1=4.0, cell_budget=0)
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
    offset <= diam puts the query on the near branch, lower > 0 and offset
    <= c * lower, at every eps in (0, 1)."""
    rng = np.random.default_rng(77)
    eps = np.concatenate([np.linspace(1e-4, 1.0, 2_001)[:-1], rng.uniform(0.0, 1.0, 20_000)])
    eps = eps[(eps > 0.0) & (eps < 1.0)]
    kdist = 10.0 ** rng.uniform(-9.0, 1.0, eps.size)
    # Offsets at a fraction of the diameter, and diameters up to the largest
    # one the small condition admits there, eps*kdist/(8 - eps*frac).
    for frac in (np.ones(eps.size), rng.uniform(0.0, 1.0, eps.size)):
        diam = eps * kdist / (8.0 - eps * frac) * rng.uniform(0.0, 1.0, eps.size) ** 0.1
        offset = frac * diam
        small = diam <= (eps / 8.0) * (kdist + offset)
        assert small.mean() > 0.99
        lower = kdist / (1.0 + eps / 4.0) - offset
        near = (lower > 0.0) & (offset <= (_NEAR * eps) * lower)
        assert np.all(near[small])
    # The margin: eps/(8 - eps) stays below c/((1 + eps/4)(1 + c)).
    c = _NEAR * eps
    assert np.all(eps / (8.0 - eps) < c / ((1.0 + eps / 4.0) * (1.0 + c)))
    assert np.all(0.75 * eps**2 + 8.0 * eps - 16.0 < 0.0)


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
    "seed,dim,n,k,eps,zeta1,budget",
    [
        (74, 1, 64, 16, 0.25, 8.0, 400_000),
        (75, 2, 100, 25, 0.5, None, 400_000),
        (75, 2, 100, 25, 0.5, None, 1_000),
        (76, 3, 60, 56, 0.5, None, 6_000),
    ],
)
def test_block_sweep_matches_cell_by_cell_sweep(monkeypatch, seed, dim, n, k, eps, zeta1, budget):
    """The block sweep builds the index a cell-by-cell sweep builds: one
    row per selection chunk changes nothing."""
    import ballann.avd as avd

    a = _build(seed, dim, n, k, eps, zeta1=zeta1, cell_budget=budget)
    monkeypatch.setattr(avd, "_KTH_CHUNK_PAIRS", 1)
    b = _build(seed, dim, n, k, eps, zeta1=zeta1, cell_budget=budget)
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
    """Every live cell stores d_k(rep)/(1 - eps/9), bit for bit, and a
    witness at distance d_k(rep)."""
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
        assert a.kdist[v] == d_k / (1.0 - a.eps / _KDIST_SHRINK), v
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

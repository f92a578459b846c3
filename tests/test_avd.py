import math

import numpy as np
import pytest

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
    cell_view,
)
from ballann.geometry import InputError, dist_point_ball
from ballann.oracle import exact_kth_distance
from ballann.quadtree import build_from_cubes

from conftest import make_registry


def _build(seed, dim, n, k, eps, mode="practical", **kw):
    reg = make_registry(seed, dim, n, eps=eps)
    return build_avd(reg, k, eps, mode, **kw)


def _check_queries(a, n_q, seed, require_no_fallback=False):
    rng = np.random.default_rng(seed)
    balls = a.registry.instance.balls
    before = dict(a.query_counts)
    for _ in range(n_q):
        q = tuple(rng.random(a.registry.dim))
        ans = avd_query(a, q)
        truth = exact_kth_distance(balls, q, a.k).value
        tol = 1e-12 * max(1.0, truth)
        assert (1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        real = dist_point_ball(q, balls[ans.ball_id])
        assert ans.distance == pytest.approx(real, rel=1e-12, abs=1e-12)
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
    assert c["small"] + c["near"] + c["cluster"] > 0
    assert c["fallback"] == 0
    assert sum(c.values()) == 500


def test_avd_out_of_domain_is_certified():
    a = _build(62, 1, 16, 7, 0.5)
    balls = a.registry.instance.balls
    queries = [(1.5,), (1.0,), (-0.25,), (7.0,)]
    for q in queries:
        ans = avd_query(a, q)
        assert ans.out_of_domain
        truth = exact_kth_distance(balls, q, a.k).value
        tol = 1e-12 * max(1.0, truth)
        lo, hi = ans.certified_interval
        assert lo - tol <= truth <= hi + tol
        assert (1.0 - a.eps) * truth - tol <= ans.distance <= (1.0 + a.eps) * truth + tol
        assert ans.distance == pytest.approx(dist_point_ball(q, balls[ans.ball_id]), abs=1e-12)
    assert a.query_counts["out_of_domain"] == len(queries)


def test_avd_dimension_mismatch_rejected():
    a = _build(63, 1, 16, 7, 0.5)
    with pytest.raises(InputError):
        avd_query(a, (0.5, 0.5))


# -- cells and audit --------------------------------------------------------------


def test_cell_view_fields_are_consistent():
    a = _build(64, 1, 32, 8, 0.5)
    balls = a.registry.instance.balls
    live = [i for i in range(a.tree.size) if not (a.flags[i] & 1)]
    for i in live[:60]:
        cv = cell_view(a, i)
        assert cv.cell.contains_point(cv.rep_point)
        truth = exact_kth_distance(balls, cv.rep_point, a.k).value
        assert truth - 1e-12 <= cv.kdist_at_rep <= (1.0 + a.eps / 4.0) * truth + 1e-12
        assert 0 <= cv.kdist_witness < len(balls)
        # rep_cluster mirrors the owning cluster; cluster_witness is the ball
        # inside that cluster recorded as its witness.
        cl = a.clusters[int(a.site[i])]
        assert cv.rep_cluster.spatial == tuple(float(x) for x in np.asarray(cl.center))
        assert cv.rep_cluster.last == cl.radius
        assert cv.cluster_witness == cl.witness
        assert cv.cluster_witness in cl.assigned.tolist()


def test_cell_view_rejects_split_parents():
    a = _build(64, 1, 32, 8, 0.5)
    dead = [i for i in range(a.tree.size) if a.flags[i] & 1]
    if dead:
        with pytest.raises(InputError):
            cell_view(a, dead[0])


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


# -- degraded and degenerate configurations ----------------------------------------


def test_adversarial_window_stays_correct_and_honest():
    # A deliberately undersized zeta1 with no split budget: the index must
    # report uncertified cells and missed stored-path windows while every
    # answer stays inside (1 +- eps) through the fallback.
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
    assert len(a.clusters) == 2
    assert a.clusters[-1].is_remainder
    _check_queries(a, 150, 9)


def test_strict_mode_d1():
    a = _build(69, 1, 8, 7, 0.5, mode="strict")
    assert a.mode == "strict"
    assert a.zeta1 == ZETA1_STRICT == 3072.0
    assert a.stats["coarsened_near"] == 0 and a.stats["coarsened_far"] == 0
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
    for name in ("rep", "kdist", "kdist_witness", "site", "cert", "flags"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_stats_inventory():
    a = _build(73, 1, 32, 8, 0.5)
    for key in (
        "n", "dim", "k", "eps", "mode", "zeta1", "clusters", "I", "S", "W",
        "overlay_pre_split", "splits", "uncertified", "coarsened_near",
        "coarsened_far", "empty_cells", "build_seconds",
    ):
        assert key in a.stats
    assert a.stats["W"] == a.tree.size


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
    z, lev, _ = _far_field(centers, radii, eps, dim, None)
    site = _assign_sites(z, lev, centers, radii, dim)
    tree = build_from_cubes((z, lev, dim))
    original = {}
    for j in range(z.size):
        key = tree.find_key(int(z[j]), int(lev[j]))
        assert key >= 0
        if key not in original:
            original[key] = int(site[j])
        else:
            original[key] = min(original[key], int(site[j]))
    rng = np.random.default_rng(13)
    worst = 1.0
    for _ in range(400):
        q = rng.random(dim)
        node = tree.point_location(tuple(q))
        while node >= 0 and node not in original:
            node = int(tree.parent[node])
        assert node >= 0
        s = original[node]
        lifted = np.linalg.norm(centers - q, axis=1) + radii
        got = float(lifted[s])
        best = float(lifted.min())
        worst = max(worst, got / best)
        assert got <= (1.0 + eps / 8.0) * best + 1e-12
    assert worst <= 1.0 + eps / 8.0 + 1e-12

import math

import numpy as np
import pytest

import ballann.knn as knn
from ballann.geometry import InputError, ball_distances
from ballann.oracle import exact_kth_distance, smallest_enclosing_ball_of_l_points
from ballann.quorum import XI, ball_quorum, point_quorum, verify_quorum

from conftest import make_registry


# -- point stage -----------------------------------------------------------------


def test_point_quorum_partitions_input():
    rng = np.random.default_rng(0)
    pts = rng.random((37, 2))
    rounds = point_quorum(pts, 5)
    all_ids = np.concatenate([r.assigned for r in rounds])
    assert sorted(all_ids.tolist()) == list(range(37))
    for r in rounds[:-1]:
        assert r.assigned.size == 5
    assert rounds[-1].assigned.size == 37 % 5 or rounds[-1].assigned.size == 5


def test_point_quorum_ball_covers_its_batch():
    rng = np.random.default_rng(1)
    pts = rng.random((40, 2))
    for r in point_quorum(pts, 7):
        span = np.linalg.norm(pts[r.assigned] - r.center, axis=1)
        assert float(span.max()) <= r.radius + 1e-12


def test_point_quorum_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.random((30, 1))
    a = point_quorum(pts, 4)
    b = point_quorum(pts, 4)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.assigned, rb.assigned)
        assert ra.radius == rb.radius


@pytest.mark.parametrize("dim", [1, 2])
def test_point_quorum_chain_against_optimum(dim):
    # Each round's radius sits between the optimum over the remaining points
    # and three times it (d >= 2 within the oracle's grid resolution).
    rng = np.random.default_rng(dim + 10)
    pts = rng.random((24, dim))
    ell = 6
    alive = np.arange(24)
    for r in point_quorum(pts, ell):
        take = int(r.assigned.size)
        rep = smallest_enclosing_ball_of_l_points(pts[alive].tolist(), take)
        res = rep.resolution or 0.0
        assert r.radius >= rep.value - res - 1e-9
        assert r.radius <= 3.0 * rep.value + 1e-9
        alive = np.setdiff1d(alive, r.assigned)


def test_point_quorum_validation():
    with pytest.raises(InputError):
        point_quorum(np.empty((0, 2)), 3)
    with pytest.raises(InputError):
        point_quorum(np.random.default_rng(0).random((5, 2)), 0)


# -- ball stage ------------------------------------------------------------------


def test_ball_quorum_rejects_small_k():
    reg = make_registry(0, 1, 20)
    with pytest.raises(InputError) as err:
        ball_quorum(reg, 6)  # 2*c_d at d=1
    assert "registry" in str(err.value)
    with pytest.raises(InputError):
        ball_quorum(reg, 0)
    with pytest.raises(InputError):
        ball_quorum(reg, 21)


@pytest.mark.parametrize("dim,n,k", [(1, 20, 7), (1, 48, 11), (2, 40, 19), (2, 64, 23)])
def test_ball_quorum_defining_guarantees(dim, n, k):
    reg = make_registry(100 + n, dim, n)
    clusters = ball_quorum(reg, k)
    ell = k - reg.instance.c_d
    # Batch sizes: full batches of ell, an optional short remainder pinned last.
    sizes = [c.assigned.size for c in clusters]
    assert all(s == ell for s in sizes[:-1])
    assert sizes[-1] == (n % ell or ell)
    assert all(not c.is_remainder for c in clusters[:-1])
    assert clusters[-1].is_remainder == (n % ell != 0)
    # Full batches come back radius-sorted.
    full = [c.radius for c in clusters if not c.is_remainder]
    assert full == sorted(full)
    for c in clusters:
        assert np.array_equal(c.assigned, np.sort(c.assigned))
        # (A) containment of every assigned ball
        reach = np.linalg.norm(reg.centers[c.assigned] - c.center, axis=1) + reg.radii[c.assigned]
        assert float(reach.max()) <= c.radius * (1 + 1e-9)
        # (B) the cluster ball meets at least k input balls
        hits = int((ball_distances(c.center, reg.centers, reg.radii) <= c.radius * (1 + 1e-9)).sum())
        assert hits >= k
        # The witness is assigned and is the closest assigned center.
        assert c.witness in c.assigned.tolist()


@pytest.mark.parametrize("dim,n,k", [(1, 48, 11), (2, 100, 25), (3, 200, 60)])
def test_ball_quorum_gamma_is_the_exact_kth_distance(monkeypatch, dim, n, k):
    """Every cluster's gamma is the exact k-th ball distance at its center,
    bit for bit, and one row per selection chunk gives the same clusters."""
    reg = make_registry(300 + dim, dim, n)
    clusters = ball_quorum(reg, k)
    assert len(clusters) >= 3
    for c in clusters:
        assert c.gamma == exact_kth_distance(reg.instance, c.center, k).value
        assert c.radius >= 2.0 * c.gamma
    monkeypatch.setattr(knn, "_KTH_CHUNK_PAIRS", 1)
    rows = ball_quorum(reg, k)
    assert len(rows) == len(clusters)
    for ca, cb in zip(clusters, rows):
        assert np.array_equal(ca.center, cb.center)
        assert np.array_equal(ca.assigned, cb.assigned)
        for name in ("radius", "rho", "gamma", "witness", "round_index", "is_remainder"):
            assert getattr(ca, name) == getattr(cb, name), name


@pytest.mark.parametrize("dim,n,k", [(1, 24, 8), (2, 40, 20)])
def test_verify_quorum_passes_and_bounds_ratio(dim, n, k):
    reg = make_registry(200 + n + dim, dim, n)
    clusters = ball_quorum(reg, k)
    report = verify_quorum(reg, clusters, k)
    assert report["ok"], report["violations"]
    assert report["optimal_checked"]
    assert report["worst_ratio"] <= XI * (1 + 1e-9)


def test_verify_quorum_flags_tampered_clusters():
    reg = make_registry(7, 1, 24)
    clusters = ball_quorum(reg, 8)
    import dataclasses

    bad = [dataclasses.replace(clusters[0], radius=clusters[0].radius * 1e-3)] + clusters[1:]
    report = verify_quorum(reg, bad, 8)
    assert not report["ok"]
    assert any("escapes" in v or "intersects" in v for v in report["violations"])


def test_ball_quorum_deterministic():
    reg = make_registry(9, 2, 40)
    a = ball_quorum(reg, 19)
    b = ball_quorum(reg, 19)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.assigned, cb.assigned)
        assert ca.radius == cb.radius and ca.witness == cb.witness

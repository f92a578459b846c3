"""Acceptance gate: nine end-to-end requirements, one verdict line each.

Every test here checks structure output against independent brute-force
computation at the stated tolerances and appends a PASS/FAIL line that the
conftest summary hook prints after the run.  The sweeps are seeded, so a
failure reproduces exactly.
"""

import functools
import itertools
import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES

from ballann import generate_instance, normalize, build_registry
from ballann.avd import ZETA1_PRACTICAL, ZETA1_STRICT, avd_query, build_avd
from ballann.geometry import (
    Ball,
    CanonicalCube,
    grid_approx,
    max_level_for_dim,
    packing_constant,
    product_norm,
)
from ballann.knn import constant_factor_detail, query
from ballann.oracle import smallest_enclosing_ball_of_l_points
from ballann.quadtree import build_from_points, morton_encode, overlay
from ballann.quorum import ball_quorum, point_quorum, verify_quorum

PROFILE_CYCLE = ("uniform", "clustered", "nested-huge")
SWEEP_DIMS = (1, 2, 3)
SWEEP_SEEDS = range(10)
SWEEP_SIZES = (50, 200)

# Caches shared between criteria that reuse one sweep (1+2, 7+8).
_SWEEP: dict[tuple[int, int, int], tuple] = {}
_SCALING: dict[int, tuple] = {}


def _sweep_registry(dim: int, seed: int, n: int):
    key = (dim, seed, n)
    if key not in _SWEEP:
        profile = PROFILE_CYCLE[seed % 3]
        balls = generate_instance(seed, dim, n, profile)
        _SWEEP[key] = (build_registry(normalize(balls, 0.1)), profile)
    return _SWEEP[key]


def _scaling_cell(n: int):
    if n not in _SCALING:
        k = n // 4
        balls = generate_instance(4000 + n, 1, n, "uniform")
        reg = build_registry(normalize(balls, 0.5))
        _SCALING[n] = (reg, build_avd(reg, k, 0.5, mode="practical"), k)
    return _SCALING[n]


def _kth_brute(centers: np.ndarray, radii: np.ndarray, q, k: int) -> float:
    d = np.maximum(np.linalg.norm(centers - np.asarray(q, dtype=np.float64), axis=1) - radii, 0.0)
    return float(np.partition(d, k - 1)[k - 1])


def _sample_query(rng, centers, radii, dim, near: bool):
    if not near:
        return rng.random(dim)
    j = int(rng.integers(centers.shape[0]))
    q = centers[j] + rng.normal(size=dim) * (radii[j] + 1e-6)
    return np.clip(q, 0.0, math.nextafter(1.0, 0.0))


def _criterion(num: int):
    """Wrap a check returning (ok, detail) so the verdict line always lands."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                ok, detail = fn()
            except Exception as exc:
                ACCEPTANCE_LINES.append(f"criterion {num}: FAIL - crashed: {str(exc)[:140]}")
                raise
            ACCEPTANCE_LINES.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
            assert ok, f"criterion {num}: {detail}"

        return wrapper

    return deco


# -- 1: two-sided k-NN over the seeded sweep ---------------------------------------


@_criterion(1)
def test_c1_two_sided_knn_over_seeded_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    total = miss = 0
    n_instances = 0
    for dim in SWEEP_DIMS:
        for seed in SWEEP_SEEDS:
            for n in SWEEP_SIZES:
                reg, _ = _sweep_registry(dim, seed, n)
                inst = reg.instance
                centers = inst.centers
                radii = inst.radii
                n_instances += 1
                for t in range(300):
                    q = _sample_query(rng, centers, radii, dim, near=t % 2 == 1)
                    k = int(rng.integers(1, n + 1))
                    eps = float(rng.choice((0.5, 0.2, 0.1)))
                    ans = query(reg, tuple(q), k, eps)
                    truth = _kth_brute(centers, radii, q, k)
                    total += 1
                    lo = (1.0 - eps) * truth - 1e-12
                    hi = (1.0 + eps) * truth + 1e-12
                    if not (lo <= ans.distance <= hi):
                        miss += 1
    elapsed = time.perf_counter() - t0
    ok = miss == 0 and elapsed < 120.0
    return ok, (
        f"{total} queries on {n_instances} instances (d=1,2,3; n=50,200; eps=0.5,0.2,0.1), "
        f"{miss} outside [(1-eps)d_k, (1+eps)d_k], {elapsed:.1f}s < 120s"
    )


# -- 2: constant-factor sandwich with descent coverage -----------------------------


@_criterion(2)
def test_c2_constant_factor_sandwich_and_descent():
    rng = np.random.default_rng(2202)
    total = miss = 0
    descent_instances: set[tuple[int, int, int]] = set()
    nested = 0

    def check(reg, centers, radii, q, k):
        nonlocal total, miss
        x, step, _ = constant_factor_detail(reg, tuple(q), k)
        truth = _kth_brute(centers, radii, q, k)
        total += 1
        if truth == 0.0:
            good = x == 0.0
        else:
            good = x / 4.0 <= truth * (1 + 1e-9) and truth <= 4.0 * x * (1 + 1e-9)
        if not good:
            miss += 1
        return step

    for dim in SWEEP_DIMS:
        for seed in SWEEP_SEEDS:
            for n in SWEEP_SIZES:
                reg, profile = _sweep_registry(dim, seed, n)
                inst = reg.instance
                centers = inst.centers
                radii = inst.radii
                for t in range(100):
                    q = _sample_query(rng, centers, radii, dim, near=t % 2 == 1)
                    check(reg, centers, radii, q, int(rng.integers(1, n + 1)))
                if profile != "nested-huge":
                    continue
                nested += 1
                # Queries just outside a ball surface make the center probe a
                # gross overestimate, which is the halving branch's regime.
                for _ in range(30):
                    j = int(rng.integers(n))
                    u = rng.normal(size=dim)
                    u /= max(float(np.linalg.norm(u)), 1e-12)
                    off = float(10 ** rng.uniform(-6, -1.5))
                    q = np.clip(centers[j] + u * radii[j] * (1.0 + off), 0.0, math.nextafter(1.0, 0.0))
                    step = check(reg, centers, radii, q, 1)
                    if step == "C":
                        descent_instances.add((dim, seed, n))
    ok = miss == 0 and len(descent_instances) >= 5
    return ok, (
        f"x/4 <= d_k <= 4x held on {total - miss}/{total} probes; dyadic descent exercised on "
        f"{len(descent_instances)}/{nested} nested-huge instances (need >= 5)"
    )


# -- 3: counting sandwich and delta-monotonicity -----------------------------------


@_criterion(3)
def test_c3_count_sandwich_and_monotonicity():
    rng = np.random.default_rng(303)
    regs = [
        _sweep_registry(1, 0, 200)[0],
        _sweep_registry(1, 1, 50)[0],
        _sweep_registry(2, 4, 200)[0],
        _sweep_registry(2, 2, 50)[0],
        _sweep_registry(3, 0, 50)[0],
        _sweep_registry(3, 7, 200)[0],
    ]
    arrays = [(r, r.instance.centers, r.instance.radii) for r in regs]
    triples = 10_000
    miss = 0
    for i in range(triples):
        reg, centers, radii = arrays[i % len(arrays)]
        dim = centers.shape[1]
        q = rng.random(dim)
        dists = np.maximum(np.linalg.norm(centers - q, axis=1) - radii, 0.0)
        if i % 2 == 0:
            x = float(10 ** rng.uniform(-4, 0.3))
        else:
            anchor = float(dists[int(rng.integers(dists.size))])
            x = anchor * float(rng.uniform(0.5, 2.0)) if anchor > 0 else float(10 ** rng.uniform(-9, -6))
        delta = float(10 ** rng.uniform(math.log10(0.05), 0.0))
        nhat = reg.approx_ball_count(tuple(q), delta, x)
        n_lo = int((dists <= x).sum())
        n_hi = int((dists <= (1.0 + delta) * x).sum())
        if not (n_lo <= nhat <= n_hi):
            miss += 1
    mono_checks = mono_miss = 0
    for reg, centers, radii in arrays:
        dim = centers.shape[1]
        for _ in range(4):
            q = tuple(rng.random(dim))
            delta = float(10 ** rng.uniform(math.log10(0.05), 0.0))
            for x in np.geomspace(1e-4, 1.2, 50):
                lo = reg.approx_ball_count(q, delta, float(x) / (1.0 + delta))
                hi = reg.approx_ball_count(q, delta, float(x))
                mono_checks += 1
                if lo > hi:
                    mono_miss += 1
    ok = miss == 0 and mono_miss == 0
    return ok, (
        f"N(x) <= Nhat <= N((1+delta)x) on {triples - miss}/{triples} triples; "
        f"monotone in x on {mono_checks - mono_miss}/{mono_checks} sweep points"
    )


# -- 4: grid cover equals the brute filter -----------------------------------------


def _brute_level(diam: float, delta: float, d: int) -> int:
    # side = 2^floor(log2(delta*diam/sqrt(d))); frexp gives the exact floor.
    _, e = math.frexp(delta * diam / math.sqrt(d))
    return min(max(-(e - 1), 0), max_level_for_dim(d))


def _brute_ball_cells(center, radius: float, level: int) -> set[CanonicalCube]:
    d = len(center)
    top = 1 << level
    side = 2.0 ** (-level)
    axes = []
    for j in range(d):
        lo = max(int(math.floor((center[j] - radius) / side)) - 1, 0)
        hi = min(int(math.floor((center[j] + radius) / side)) + 1, top - 1)
        if lo > hi:
            return set()
        axes.append(range(lo, hi + 1))
    out = set()
    for idx in itertools.product(*axes):
        gap2 = 0.0
        for j, i in enumerate(idx):
            a = i * side
            g = max(a - center[j], center[j] - (a + side), 0.0)
            gap2 += g * g
        if gap2 <= radius * radius:
            out.add(CanonicalCube(level, tuple(int(v) for v in idx)))
    return out


def _brute_box_cells(lo, hi, level: int) -> set[CanonicalCube]:
    d = len(lo)
    top = 1 << level
    side = 2.0 ** (-level)
    axes = []
    for j in range(d):
        a = max(int(math.floor(lo[j] / side)) - 1, 0)
        b = min(int(math.floor(hi[j] / side)) + 1, top - 1)
        cells = [i for i in range(a, b + 1) if i * side <= hi[j] and (i + 1) * side >= lo[j]]
        if not cells:
            return set()
        axes.append(cells)
    return {CanonicalCube(level, tuple(int(v) for v in idx)) for idx in itertools.product(*axes)}


@_criterion(4)
def test_c4_grid_cover_matches_brute_filter():
    rng = np.random.default_rng(404)
    cases = 1000
    miss = 0
    for i in range(cases):
        d = int(rng.integers(1, 4))
        delta = float(rng.uniform({1: 0.02, 2: 0.1, 3: 0.3}[d], 1.0))
        if i % 2 == 0:
            center = rng.uniform(0.15, 0.85, d)
            radius = float(10 ** rng.uniform(-3, math.log10(0.14)))
            got = grid_approx(Ball(tuple(float(c) for c in center), radius), delta)
            exp = _brute_ball_cells(center, radius, _brute_level(2.0 * radius, delta, d))
        else:
            lo = rng.uniform(0.1, 0.7, d)
            hi = lo + rng.uniform(1e-3, 0.25, d)
            got = grid_approx((tuple(float(v) for v in lo), tuple(float(v) for v in hi)), delta)
            exp = _brute_box_cells(lo, hi, _brute_level(float(np.linalg.norm(hi - lo)), delta, d))
        if got != exp:
            miss += 1
    ok = miss == 0
    return ok, f"cover set equals the brute filter on {cases - miss}/{cases} random (shape, delta) cases"


# -- 5: cluster guarantees and the per-round radius chain --------------------------


@_criterion(5)
def test_c5_cluster_guarantees_and_radius_chain():
    rng = np.random.default_rng(505)
    clusters_checked = 0
    violations = []
    worst_ratio = 0.0
    for dim in (1, 2):
        kmin = 2 * packing_constant(dim) + 1
        for seed in range(5):
            for n in (32, 64):
                balls = generate_instance(700 + seed, dim, n, PROFILE_CYCLE[seed % 3])
                reg = build_registry(normalize(balls, 0.5))
                for k in sorted({kmin, 2 * kmin, n // 2, n}):
                    if not (kmin <= k <= n):
                        continue
                    clusters = ball_quorum(reg, k)
                    for ci, c in enumerate(clusters):
                        a = np.asarray(c.assigned, dtype=np.int64)
                        reach = np.linalg.norm(reg.centers[a] - c.center, axis=1) + reg.radii[a]
                        if float(reach.max()) > c.radius * (1 + 1e-9) + 1e-12:
                            violations.append(f"d{dim} s{seed} n{n} k{k} cluster {ci}: containment")
                        body = np.maximum(np.linalg.norm(reg.centers - c.center, axis=1) - reg.radii, 0.0)
                        if int((body <= c.radius * (1 + 1e-9) + 1e-12).sum()) < k:
                            violations.append(f"d{dim} s{seed} n{n} k{k} cluster {ci}: k-intersection")
                        clusters_checked += 1
                    rep = verify_quorum(reg, clusters, k)
                    if not rep["ok"] or not rep["optimal_checked"]:
                        violations.append(f"d{dim} s{seed} n{n} k{k}: audit {rep['violations'][:2]}")
                    full = [r["ratio"] for r in rep["ratios"] if not r["is_remainder"] and math.isfinite(r["ratio"])]
                    if full:
                        worst_ratio = max(worst_ratio, max(full))

    pairs = 0
    chain_bad = 0
    for dim in (1, 2):
        for seed in range(10):
            for n in (32, 48, 64):
                balls = generate_instance(730 + seed, dim, n, PROFILE_CYCLE[seed % 3])
                pts = normalize(balls, 0.5).centers
                for ell in sorted({3, 9, 21, n // 2}):
                    rounds = point_quorum(pts, ell)
                    pairs += 1
                    alive = np.arange(n, dtype=np.int64)
                    for r in rounds:
                        take = len(r.assigned)
                        rep = smallest_enclosing_ball_of_l_points(pts[alive], take)
                        res = rep.resolution or 0.0
                        if not (rep.value - res - 1e-9 <= r.radius <= 3.0 * rep.value + 1e-9):
                            chain_bad += 1
                        alive = np.setdiff1d(alive, r.assigned, assume_unique=True)
    ok = not violations and chain_bad == 0 and pairs >= 200
    return ok, (
        f"containment and k-intersection exact on {clusters_checked} clusters, audited ratio "
        f"<= 12 (worst {worst_ratio:.2f}); radius chain within [optimal, 3x] on {pairs} "
        f"(instance, batch) pairs" if ok else f"{len(violations)} cluster violations, {chain_bad} chain misses"
    )


# -- 6: cell-index answers, practical and strict -----------------------------------


PRACTICAL_CONFIGS = (
    # (dim, n, k, eps); k hits ceil(sqrt(n)) and n/4 in both dimensions.
    (1, 64, 8, 0.5),
    (1, 64, 8, 0.25),
    (1, 64, 16, 0.5),
    (1, 64, 16, 0.25),
    (2, 400, 20, 0.5),
    (2, 400, 20, 0.25),
    (2, 100, 25, 0.5),
    (2, 100, 25, 0.25),
)


def _avd_query_sweep(a, centers, radii, dim, n_q, rng):
    miss = 0
    for t in range(n_q):
        q = _sample_query(rng, centers, radii, dim, near=t % 2 == 1)
        ans = avd_query(a, tuple(q))
        truth = _kth_brute(centers, radii, q, a.k)
        lo = (1.0 - a.eps) * truth - 1e-12
        hi = (1.0 + a.eps) * truth + 1e-12
        if not (lo <= ans.distance <= hi):
            miss += 1
    return miss


@_criterion(6)
def test_c6_cell_index_practical_and_strict():
    rng = np.random.default_rng(606)
    total = miss = 0
    for dim, n, k, eps in PRACTICAL_CONFIGS:
        balls = generate_instance(6000 + dim * 17 + n, dim, n)
        reg = build_registry(normalize(balls, 0.25))
        a = build_avd(reg, k, eps, mode="practical")
        assert a.zeta1 == ZETA1_PRACTICAL
        centers = reg.instance.centers
        radii = reg.instance.radii
        miss += _avd_query_sweep(a, centers, radii, dim, 1000, rng)
        total += 1000

    # Strict constants blow the cell count up fast; d = 1 is the verified
    # regime and higher dimensions stay on the practical profile.
    balls = generate_instance(6025, 1, 8)
    reg = build_registry(normalize(balls, 0.5))
    a = build_avd(reg, 7, 0.5, mode="strict")
    assert a.zeta1 == ZETA1_STRICT
    strict_unc = int(a.stats["uncertified"])
    miss += _avd_query_sweep(a, reg.instance.centers, reg.instance.radii, 1, 1000, rng)
    total += 1000
    ok = miss == 0 and strict_unc == 0
    return ok, (
        f"{total - miss}/{total} queries two-sided over 8 practical configs "
        f"(d=1,2; k in {{ceil(sqrt(n)), n/4}}; eps=0.5,0.25) plus strict mode at d=1 "
        f"(uncertified={strict_unc}; strict constants checked at d=1 only, higher d stays practical)"
    )


# -- 7: storage tracks the n/k budget ----------------------------------------------


SCALING_SIZES = (256, 512, 1024, 2048, 4096)


@_criterion(7)
def test_c7_storage_tracks_budget():
    ws = {}
    for n in SCALING_SIZES:
        _, a, k = _scaling_cell(n)
        assert int(a.stats["uncertified"]) == 0
        ws[n] = int(a.stats["W"])
    per_budget = {n: w / (n / (n // 4)) for n, w in ws.items()}
    spread = max(per_budget.values()) / min(per_budget.values())
    ok = spread <= 2.0
    return ok, (
        f"d=1, k=n/4, eps=0.5: cells per budget unit in "
        f"[{min(per_budget.values()):.0f}, {max(per_budget.values()):.0f}] across n=256..4096, "
        f"spread {spread:.2f}x <= 2x"
    )


# -- 8: query latency stays sub-linear ---------------------------------------------


@_criterion(8)
def test_c8_latency_sublinear_and_cells_not_slower():
    rng = np.random.default_rng(808)
    reg_med = {}
    avd_med = {}
    for n in SCALING_SIZES:
        reg, a, k = _scaling_cell(n)
        qs = [tuple(q) for q in rng.random((320, 1))]
        for q in qs[:20]:
            query(reg, q, k, 0.5)
            avd_query(a, q)
        tr, ta = [], []
        for q in qs[20:]:
            t0 = time.perf_counter_ns()
            query(reg, q, k, 0.5)
            tr.append(time.perf_counter_ns() - t0)
            t0 = time.perf_counter_ns()
            avd_query(a, q)
            ta.append(time.perf_counter_ns() - t0)
        reg_med[n] = float(np.median(tr))
        avd_med[n] = float(np.median(ta))
    n_lo, n_hi = SCALING_SIZES[0], SCALING_SIZES[-1]
    reg_growth = reg_med[n_hi] / reg_med[n_lo]
    avd_growth = avd_med[n_hi] / avd_med[n_lo]
    not_slower = all(avd_med[n] <= reg_med[n] for n in SCALING_SIZES)
    # 16x more data must not cost more than 4x latency; log-like growth lands
    # far below that, linear scans land far above.
    ok = not_slower and reg_growth <= 4.0 and avd_growth <= 4.0
    return ok, (
        f"median latency over 16x data growth: registry {reg_med[n_lo] / 1e3:.0f} -> "
        f"{reg_med[n_hi] / 1e3:.0f}us ({reg_growth:.2f}x), cell index {avd_med[n_lo] / 1e3:.0f} -> "
        f"{avd_med[n_hi] / 1e3:.0f}us ({avd_growth:.2f}x), both <= 4x; cell index never slower"
    )


# -- 9: invariant spot-check suites -------------------------------------------------


def _tree_suite(rng) -> tuple[int, int]:
    checks = bad = 0
    trees = []
    for rep in range(5):
        dim = rep % 3 + 1
        pts = rng.random((200, dim))
        trees.append((build_from_points(pts, dim=dim), pts))

    for tree, pts in trees:
        dim = tree.dim
        side_pts = pts
        for level in (1, 3, 5, 7):
            coords = rng.integers(0, 1 << level, size=(250, dim), dtype=np.int64)
            side = 2.0 ** (-level)
            lo = coords * side
            inside = (side_pts[None, :, :] >= lo[:, None, :]) & (side_pts[None, :, :] < lo[:, None, :] + side)
            want = inside.all(axis=2).sum(axis=1)
            got = tree.count_points_in_cubes(morton_encode(coords, level, dim), level)
            checks += 250
            bad += int((got != want).sum())

        lows = np.array([tree.node_cube(i).low for i in range(tree.size)])
        highs = np.array([tree.node_cube(i).high for i in range(tree.size)])
        levels = tree.level
        for _ in range(500):
            p = rng.random(dim)
            mask = (lows <= p).all(axis=1) & (p < highs).all(axis=1)
            idx = np.flatnonzero(mask)
            want = int(idx[np.argmax(levels[idx])])
            checks += 1
            if tree.point_location(tuple(p)) != want:
                bad += 1

    for tree, _ in trees:
        partner = build_from_points(rng.random((150, tree.dim)), dim=tree.dim)
        union, _ = overlay(tree, partner)
        for _ in range(250):
            p = tuple(rng.random(tree.dim))
            cu = union.node_cube(union.point_location(p))
            for t in (tree, partner):
                checks += 1
                if not t.node_cube(t.point_location(p)).contains_cube(cu):
                    bad += 1
    return checks, bad


def _norm_suite(rng) -> tuple[int, int]:
    checks = bad = 0
    for i in range(10_000):
        # Lifted difference vectors have a spatial block plus one last entry,
        # so the smallest meaningful size is 2.
        d = i % 8 + 2
        u = rng.normal(size=d) * 10 ** rng.uniform(-3, 3)
        n2 = float(np.linalg.norm(u))
        pn = product_norm(u)
        checks += 1
        if not (n2 * (1 - 1e-12) <= pn <= math.sqrt(2.0) * n2 * (1 + 1e-12)):
            bad += 1
    return checks, bad


def _lipschitz_suite(rng) -> tuple[int, int]:
    checks = bad = 0
    for dim in (1, 2, 3):
        reg, _ = _sweep_registry(dim, 0, 200)
        centers = reg.instance.centers
        radii = reg.instance.radii
        for _ in range(10):
            m = 334
            k = int(rng.integers(1, 201))
            q1 = rng.random((m, dim))
            q2 = np.clip(q1 + rng.normal(size=(m, dim)) * 10 ** rng.uniform(-3, -0.5), 0.0, 1.0)
            d1 = np.maximum(np.linalg.norm(q1[:, None, :] - centers[None], axis=2) - radii[None], 0.0)
            d2 = np.maximum(np.linalg.norm(q2[:, None, :] - centers[None], axis=2) - radii[None], 0.0)
            k1 = np.partition(d1, k - 1, axis=1)[:, k - 1]
            k2 = np.partition(d2, k - 1, axis=1)[:, k - 1]
            gap = np.linalg.norm(q1 - q2, axis=1)
            checks += m
            bad += int((np.abs(k1 - k2) > gap * (1 + 1e-12) + 1e-12).sum())
    return checks, bad


def _packing_suite(rng) -> tuple[int, int, int]:
    checks = bad = seen = 0
    for dim in (1, 2, 3):
        reg, _ = _sweep_registry(dim, 1, 200)
        centers = reg.instance.centers
        radii = reg.instance.radii
        span = centers.max(axis=0) - centers.min(axis=0)
        lo = centers.min(axis=0) - 0.1 * span
        m = 3334
        x = rng.uniform(0.0, 1.0, size=(m, dim)) * (1.2 * span) + lo
        s = radii[rng.integers(radii.size, size=m)] * rng.uniform(0.5, 1.5, size=m)
        dist = np.linalg.norm(x[:, None, :] - centers[None], axis=2)
        hits = ((radii[None, :] >= s[:, None]) & (dist <= s[:, None] + radii[None, :])).sum(axis=1)
        checks += m
        bad += int((hits > packing_constant(dim)).sum())
        seen = max(seen, int(hits.max()))
    return checks, bad, seen


@_criterion(9)
def test_c9_invariant_spot_checks():
    rng = np.random.default_rng(909)
    tree_n, tree_bad = _tree_suite(rng)
    norm_n, norm_bad = _norm_suite(rng)
    lip_n, lip_bad = _lipschitz_suite(rng)
    pack_n, pack_bad, pack_seen = _packing_suite(rng)
    ok = (
        tree_bad == norm_bad == lip_bad == pack_bad == 0
        and min(tree_n, norm_n, lip_n, pack_n) >= 10_000
        and pack_seen >= 1
    )
    return ok, (
        f"tree count/location/overlay {tree_n} checks ({tree_bad} bad), norm sandwich {norm_n} "
        f"({norm_bad}), k-th distance 1-Lipschitz {lip_n} ({lip_bad}), packing bound {pack_n} "
        f"({pack_bad}, max touching {pack_seen} <= 3^d)"
    )

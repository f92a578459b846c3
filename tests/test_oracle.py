import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballann.datasets import PROFILES, generate_instance
from ballann.geometry import Ball, find_overlap
from ballann.oracle import (
    check_disjoint,
    covering_radius_of_l_balls,
    exact_counts,
    exact_kth_distance,
    kth_distance_by_selection,
    optimal_quorum_radius_bound,
    smallest_enclosing_ball_of_l_points,
)

# Three disjoint balls on a line; distances from q = 0 computed by hand.
LINE = [Ball((3.0,), 1.0), Ball((-1.0,), 0.5), Ball((10.0,), 2.0)]
# d(0, b): 2.0, 0.5, 8.0 -> sorted: 0.5, 2.0, 8.0
LINE_KTH = {1: (0.5, 1), 2: (2.0, 0), 3: (8.0, 2)}


def test_exact_kth_distance_frozen_values():
    for k, (dist, witness) in LINE_KTH.items():
        rep = exact_kth_distance(LINE, (0.0,), k)
        assert rep.value == dist
        assert rep.witness == witness


def test_kth_inside_ball_is_zero():
    rep = exact_kth_distance(LINE, (3.2,), 1)
    assert rep.value == 0.0 and rep.witness == 0


@given(st.integers(1, 3), st.integers(1, 20), st.integers(0, 5_000))
@settings(max_examples=120, deadline=None)
def test_two_oracle_routes_agree(d, n, seed):
    rng = np.random.default_rng(seed)
    balls = [Ball(tuple(rng.uniform(0, 1, d)), float(rng.uniform(0, 0.2))) for _ in range(n)]
    q = tuple(rng.uniform(0, 1, d))
    k = int(rng.integers(1, n + 1))
    # The routes use independent float pipelines; agreement to 1e-12 is the
    # contract, bit-equality is not.
    assert exact_kth_distance(balls, q, k).value == pytest.approx(
        kth_distance_by_selection(balls, q, k), rel=1e-12, abs=1e-12
    )


def test_exact_counts_hand_values():
    # Ball distances from q=0: 0.5, 2.0, 8.0; center distances: 1, 3, 10.
    assert exact_counts(LINE, (0.0,), 0.5) == (1, 0)
    assert exact_counts(LINE, (0.0,), 2.0) == (2, 1)
    assert exact_counts(LINE, (0.0,), 3.0) == (2, 2)
    assert exact_counts(LINE, (0.0,), 8.0) == (3, 2)
    assert exact_counts(LINE, (0.0,), 10.0) == (3, 3)


def test_exact_counts_closed_semantics():
    n_at, _ = exact_counts([Ball((1.0,), 0.25)], (0.0,), 0.75)
    assert n_at == 1  # tangency counts


# -- smallest enclosing ball of l points --------------------------------------


def test_seb_line_exact():
    pts = [(0.0,), (1.0,), (2.0,), (10.0,)]
    assert smallest_enclosing_ball_of_l_points(pts, 3).value == 1.0
    assert smallest_enclosing_ball_of_l_points(pts, 2).value == 0.5
    assert smallest_enclosing_ball_of_l_points(pts, 1).value == 0.0
    assert smallest_enclosing_ball_of_l_points(pts, 4).value == 5.0


def test_seb_plane_certified_bracket():
    # Unit square corners: the 4-point optimum is sqrt(2)/2 about the center.
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    rep = smallest_enclosing_ball_of_l_points(pts, 4)
    opt = math.sqrt(2.0) / 2.0
    assert rep.value >= opt - 1e-12  # reported radius is feasible
    assert rep.value - rep.resolution <= opt + 1e-12  # certified lower bound
    rep2 = smallest_enclosing_ball_of_l_points(pts, 2)
    assert rep2.value >= 0.5 - 1e-12
    assert rep2.value - rep2.resolution <= 0.5 + 1e-12


@given(st.integers(2, 12), st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_seb_line_matches_brute_subsets(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0, 1, n))
    l = int(rng.integers(2, n + 1))
    # Optimal window over sorted points is the brute force at d=1.
    brute = min((xs[i + l - 1] - xs[i]) / 2.0 for i in range(n - l + 1))
    rep = smallest_enclosing_ball_of_l_points([(x,) for x in xs], l)
    assert rep.value == pytest.approx(brute, rel=0, abs=1e-15)


# -- covering radius of l balls -------------------------------------------------


def test_covering_radius_analytic_pair():
    balls = [Ball((-1.0, 0.0), 0.5), Ball((1.0, 0.0), 0.5)]
    rep = covering_radius_of_l_balls(balls, [0, 1], 2)
    opt = 1.5  # center at the origin reaches both far sides
    assert rep.value >= opt - 1e-9
    assert rep.value - rep.resolution <= opt + 1e-9


def test_covering_radius_single_ball():
    balls = [Ball((0.0,), 0.75), Ball((5.0,), 0.25)]
    rep = covering_radius_of_l_balls(balls, [0, 1], 1)
    assert rep.value == 0.25 and rep.witness == 1


# -- quorum radius bound ---------------------------------------------------------


def test_quorum_bound_is_conservative_on_analytic_case():
    # Three unit-spaced disjoint balls; l=2, k=2.  Center 0.75 covers balls
    # 0 and 1 with radius 1.0 and already meets two balls, so the optimum is
    # at most 1.0; the reported value must sit at or below it.
    balls = [Ball((0.0,), 0.25), Ball((1.5,), 0.25), Ball((4.0,), 0.25)]
    rep = optimal_quorum_radius_bound(balls, [0, 1, 2], 2, 2)
    assert rep.value <= 1.0 + 1e-9
    assert rep.resolution is not None and rep.resolution > 0.0


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_quorum_bound_below_any_feasible_radius(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    centers = rng.uniform(0, 1, (n, 2)) * 4.0
    balls = [Ball(tuple(c), 0.05) for c in centers]
    l = int(rng.integers(1, n + 1))
    k = int(rng.integers(1, n + 1))
    rep = optimal_quorum_radius_bound(balls, list(range(n)), l, k)
    # Any concrete center yields a feasible radius; the bound stays below it.
    for c in centers[:3]:
        cover = np.sort(np.linalg.norm(centers - c, axis=1) + 0.05)[l - 1]
        meet = np.sort(np.maximum(np.linalg.norm(centers - c, axis=1) - 0.05, 0.0))[k - 1]
        assert rep.value <= max(cover, meet) + 1e-9


# -- disjointness ----------------------------------------------------------------


def test_check_disjoint_detects_overlap():
    ok, pair = check_disjoint([Ball((0.0,), 1.0), Ball((1.5,), 1.0)])
    assert not ok and pair == (0, 1)


def test_check_disjoint_allows_tangency():
    ok, pair = check_disjoint([Ball((0.0,), 1.0), Ball((2.0,), 1.0)])
    assert ok and pair is None


def test_check_disjoint_rejects_coincident_points():
    ok, _ = check_disjoint([Ball((0.3, 0.3), 0.0), Ball((0.3, 0.3), 0.0)])
    assert not ok


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("profile", PROFILES)
def test_find_overlap_agrees_with_check_disjoint(dim, profile):
    balls = generate_instance(7, dim, 120, profile)
    assert check_disjoint(balls) == (True, None)
    assert find_overlap(balls) is None
    rng = np.random.default_rng(dim)
    for _ in range(20):
        # Grow one ball until it meets others, or drop a copy of a center
        # (a coincident pair), and compare the first bad pair.
        bad = list(balls)
        i = int(rng.integers(len(bad)))
        if rng.random() < 0.5:
            grow = float(rng.random()) * max(b.radius for b in balls)
            bad[i] = Ball(bad[i].center, bad[i].radius + grow)
        else:
            bad.append(Ball(bad[i].center, 0.0))
        ok, pair = check_disjoint(bad)
        assert find_overlap(bad) == (None if ok else pair)


def test_find_overlap_hand_cases():
    assert find_overlap([Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)]) == (0, 1)
    assert find_overlap([Ball((0.0,), 1.0), Ball((2.0,), 1.0)]) is None  # tangent
    assert find_overlap([Ball((0.3, 0.3), 0.0), Ball((0.3, 0.3), 0.0)]) == (0, 1)
    # The first pair in (i, j) order, though (1, 2) comes first along axis 0.
    far = [Ball((5.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0), Ball((5.5, 0.0), 1.0)]
    assert find_overlap(far) == check_disjoint(far)[1] == (0, 3)
    # Points on one vertical line: the sweep runs along axis 1.
    line = [Ball((0.0, float(i)), 0.25) for i in range(50)]
    assert find_overlap(line) is None
    assert find_overlap(line + [Ball((0.0, 20.3), 0.1)]) == (20, 50)
    assert find_overlap([Ball((0.0,), 1.0)]) is None


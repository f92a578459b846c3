import numpy as np
import pytest

from ballann import datasets
from ballann.geometry import Ball, InputError


def _place_disjoint_loop(rng, n, sample_center, sample_radius, budget_per_ball=400):
    """Reference placement: each candidate tested against the placed balls one by one."""
    centers, radii = [], []
    budget = budget_per_ball * n
    while len(centers) < n:
        if budget <= 0:
            raise InputError("retry budget exhausted")
        budget -= 1
        c = sample_center(rng)
        r = float(sample_radius(rng))
        ok = True
        for cj, rj in zip(centers, radii):
            if float(np.linalg.norm(c - cj)) < r + rj + 1e-12:
                ok = False
                break
        if ok:
            centers.append(c)
            radii.append(r)
    return [Ball(tuple(float(v) for v in c), r) for c, r in zip(centers, radii)]


@pytest.mark.parametrize("profile", datasets.PROFILES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_placement_matches_loop_reference(monkeypatch, dim, profile):
    fast = [datasets.generate_instance(seed, dim, 80, profile) for seed in range(4)]
    monkeypatch.setattr(datasets, "_place_disjoint", _place_disjoint_loop)
    slow = [datasets.generate_instance(seed, dim, 80, profile) for seed in range(4)]
    assert fast == slow

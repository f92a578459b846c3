"""Deterministic generators for disjoint-ball instances.

All profiles emit pairwise interior-disjoint balls in original (unnormalized)
units and are reproducible from the seed alone.  Rejection sampling enforces
disjointness; running out of retries raises instead of silently shrinking the
instance.
"""

from __future__ import annotations

import numpy as np

from .geometry import Ball, InputError

__all__ = ["PROFILES", "generate_instance"]

PROFILES = ("uniform", "clustered", "nested-huge")

# Rejection-sampling tries allowed per ball before placement gives up.
_TRIES_PER_BALL = 400


def _place_disjoint(
    rng: np.random.Generator,
    n: int,
    sample_center,
    sample_radius,
) -> list[Ball]:
    centers = np.empty((0, 0))
    radii = np.empty(n)
    placed = 0
    budget = _TRIES_PER_BALL * n
    while placed < n:
        if budget <= 0:
            raise InputError(
                f"could not place {n} disjoint balls within the retry budget; "
                f"placed {placed}"
            )
        budget -= 1
        c = sample_center(rng)
        r = float(sample_radius(rng))
        if placed == 0:
            centers = np.empty((n, c.size))
        gap = np.linalg.norm(centers[:placed] - c, axis=1)
        if np.any(gap < r + radii[:placed] + 1e-12):
            continue
        centers[placed] = c
        radii[placed] = r
        placed += 1
    return [Ball(tuple(float(v) for v in c), float(r)) for c, r in zip(centers, radii)]


def _uniform(rng: np.random.Generator, dim: int, n: int) -> list[Ball]:
    scale = 0.22 * n ** (-1.0 / dim)
    return _place_disjoint(
        rng,
        n,
        lambda g: g.random(dim),
        lambda g: scale * g.uniform(0.3, 1.0),
    )


def _clustered(rng: np.random.Generator, dim: int, n: int) -> list[Ball]:
    anchors = rng.random((max(1, n // 12), dim))
    scale = 0.05 * n ** (-1.0 / dim)

    def center(g: np.random.Generator) -> np.ndarray:
        a = anchors[int(g.integers(len(anchors)))]
        return a + g.normal(0.0, 0.04, size=dim)

    return _place_disjoint(
        rng, n, center, lambda g: scale * g.uniform(0.2, 1.0)
    )


def _nested_huge(rng: np.random.Generator, dim: int, n: int) -> list[Ball]:
    """A tight core of small balls ringed by exponentially larger, farther
    balls.  Probing radii around the core meet a few huge balls long before
    k small ones, which drives query logic through its coarse search range.
    """
    n_shell = max(1, min(n - 2, 2 + n // 8)) if n > 2 else 0
    n_core = n - n_shell
    core_scale = 0.3 * max(n_core, 1) ** (-1.0 / dim)
    balls = _place_disjoint(
        rng,
        n_core,
        lambda g: g.random(dim),
        lambda g: core_scale * g.uniform(0.2, 0.8),
    )
    dist = 8.0
    for _ in range(n_shell):
        u = rng.normal(size=dim)
        u /= max(float(np.linalg.norm(u)), 1e-12)
        center = 0.5 + dist * u
        # radius dist/3 keeps consecutive shells and the unit core disjoint:
        # next shell starts at 3*dist - dist > dist + dist/3.
        balls.append(Ball(tuple(float(v) for v in center), dist / 3.0))
        dist *= 3.0
    return balls


def generate_instance(seed: int, dim: int, n: int, profile: str = "uniform") -> list[Ball]:
    """Seeded disjoint-ball instance in original units.

    profile "uniform" spreads balls over a unit box, "clustered" packs them
    around a few anchors, and "nested-huge" builds the core-plus-giant-shells
    stress geometry.
    """
    if dim < 1:
        raise InputError(f"dimension must be positive, got {dim}")
    if n < 1:
        raise InputError(f"instance size must be positive, got {n}")
    if profile not in PROFILES:
        raise InputError(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = np.random.default_rng(seed)
    if profile == "uniform":
        return _uniform(rng, dim, n)
    if profile == "clustered":
        return _clustered(rng, dim, n)
    return _nested_huge(rng, dim, n)

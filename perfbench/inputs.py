"""Seeded benchmark inputs: disjoint ball sets and query sets.

The ball generators mirror the size and radius laws of the package's
`uniform` and `clustered` profiles, but place balls without rejection
against every earlier ball: each ball sits inside its own cell of a fine
grid, and distinct cells are disjoint, so the set is disjoint by
construction and a few thousand balls take milliseconds.
"""

from __future__ import annotations

import math

import numpy as np

# Gap kept between a ball and the walls of its grid cell, as a share of the
# cell side, so that balls in neighbouring cells never touch.
_WALL = 0.02


def _balls_in_cells(
    rng: np.random.Generator, cells: np.ndarray, side: float, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One ball per distinct grid cell, placed uniformly where it fits."""
    room = side * (1.0 - 2.0 * _WALL) - 2.0 * radii
    if np.any(room <= 0.0):
        raise ValueError("a ball does not fit its grid cell")
    lo = cells * side + side * _WALL + radii[:, None]
    centers = lo + rng.random(cells.shape) * room[:, None]
    return centers, radii


def _distinct_cells(
    rng: np.random.Generator, n: int, draw, top: int
) -> np.ndarray:
    """n distinct integer cells, drawn in batches by `draw(m)` until enough.

    Cells keep the order in which they were first drawn, so the result
    depends on the seed alone.
    """
    chosen = np.empty((0, 0), dtype=np.int64)
    while chosen.shape[0] < n:
        batch = np.clip(draw(2 * n), 0, top - 1)
        pool = batch if chosen.size == 0 else np.concatenate([chosen, batch])
        _, first = np.unique(pool, axis=0, return_index=True)
        chosen = pool[np.sort(first)]
    return chosen[:n]


def uniform_balls(seed: int, dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers spread over the unit box; radius 0.22 n^(-1/d) U(0.3, 1)."""
    rng = np.random.default_rng([seed, dim, n, 1])
    rmax = 0.22 * n ** (-1.0 / dim)
    side = 2.0 * rmax / (1.0 - 2.0 * _WALL) * 1.001
    top = int(math.floor(1.0 / side))
    if top**dim < 2 * n:
        raise ValueError("grid too coarse for the uniform profile")
    cells = _distinct_cells(rng, n, lambda m: rng.integers(0, top, size=(m, dim)), top)
    radii = rmax * rng.uniform(0.3, 1.0, size=n)
    return _balls_in_cells(rng, cells, side, radii)


def clustered_balls(seed: int, dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers around n/12 anchors, spread N(0, 0.04); radius 0.05 n^(-1/d) U(0.2, 1)."""
    rng = np.random.default_rng([seed, dim, n, 2])
    anchors = rng.random((max(1, n // 12), dim))
    rmax = 0.05 * n ** (-1.0 / dim)
    side = 2.0 * rmax / (1.0 - 2.0 * _WALL) * 1.001
    top = int(math.ceil(1.2 / side))

    def draw(m: int) -> np.ndarray:
        a = anchors[rng.integers(0, anchors.shape[0], size=m)]
        pts = a + rng.normal(0.0, 0.04, size=(m, dim)) + 0.1
        return np.floor(pts / side).astype(np.int64)

    cells = _distinct_cells(rng, n, draw, top)
    radii = rmax * rng.uniform(0.2, 1.0, size=n)
    return _balls_in_cells(rng, cells, side, radii)


# Query points come in chunks of CHUNK, one point in each cell of a grid of
# this shape over the unit cube.  CHUNK is a multiple of 15, so a chunk of
# registry queries also holds each (k, eps) pair equally often.
CHUNK = 225
_STRATA = {1: (225,), 2: (15, 15), 3: (5, 5, 9)}


def _stratified_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Points uniform in [0, 1)^d, drawn in chunks that put one point in each
    cell of the strata grid, the cells visited in random order.

    Each point is uniform in the unit cube, and every chunk covers the cube
    evenly, so the share of queries that land in slow regions (near the
    balls, or far out) is nearly the same in every chunk and every seed.
    """
    shape = np.array(_STRATA[dim])
    grid = np.stack(np.meshgrid(*[np.arange(m) for m in shape], indexing="ij"), axis=-1)
    grid = grid.reshape(CHUNK, dim)
    chunks = -(-count // CHUNK)
    cells = np.concatenate([grid[rng.permutation(CHUNK)] for _ in range(chunks)])[:count]
    return (cells + rng.random((count, dim))) / shape


def registry_queries(seed: int, dim: int, n: int, count: int):
    """(points, ks, epss): stratified uniform points in [0, 1)^d, each with its
    own k and eps.

    k cycles over {1, 4, sqrt(n), n/16, n/4} and eps over {0.1, 0.25, 0.5};
    the two cycles have coprime lengths, so all 15 pairs occur in every run
    of 15 consecutive queries, and 15 times in every chunk.
    """
    rng = np.random.default_rng([seed, dim, n, 3])
    k_cycle = [1, 4, math.isqrt(n), n // 16, n // 4]
    eps_cycle = [0.1, 0.25, 0.5]
    idx = np.arange(count)
    ks = np.array([k_cycle[i % len(k_cycle)] for i in idx], dtype=np.int64)
    epss = np.array([eps_cycle[i % len(eps_cycle)] for i in idx], dtype=np.float64)
    return _stratified_points(rng, dim, count), ks, epss


def cell_queries(seed: int, dim: int, n: int, count: int) -> np.ndarray:
    """Stratified uniform points in [0, 1)^d."""
    rng = np.random.default_rng([seed, dim, n, 4])
    return _stratified_points(rng, dim, count)

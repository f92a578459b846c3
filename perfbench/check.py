"""Answer checks computed apart from the package, in plain numpy.

The exact k-th ball distance d_k of a query is the k-th smallest of
max(|q - c| - r, 0) over all balls.  It is computed here from the
benchmark's own ball arrays, mapped into the index's unit cube by the
index's affine transform, with no call into the package's distance code.
"""

from __future__ import annotations

import numpy as np

# Relative slack for floating-point rounding on the (1 +- eps) window and the
# certified interval; the same slack the package's own audits allow.
REL = 1e-9
# The witness distance is recomputed here from the same normalized floats, so
# it may differ from the reported one only by rounding in the last bits.
WITNESS_TOL = 1e-12


def unit_balls(centers: np.ndarray, radii: np.ndarray, scale: float, offset) -> tuple[np.ndarray, np.ndarray]:
    """The balls in the index's unit cube: x -> scale * x + offset, r -> scale * r."""
    return centers * scale + np.asarray(offset, dtype=np.float64), radii * scale


def same_balls(inst, centers: np.ndarray, radii: np.ndarray) -> bool:
    """Whether the index holds exactly these balls, in this order."""
    c = np.array([b.center for b in inst.balls], dtype=np.float64)
    r = np.array([b.radius for b in inst.balls], dtype=np.float64)
    return c.shape == centers.shape and np.allclose(c, centers, rtol=0.0, atol=1e-12) and np.allclose(
        r, radii, rtol=0.0, atol=1e-12
    )


def ball_distances(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(m, n) distances from each point to each closed ball."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.maximum(np.sqrt(np.einsum("mnd,mnd->mn", diff, diff)) - radii[None, :], 0.0)


def exact_kth(points: np.ndarray, ks: np.ndarray, centers: np.ndarray, radii: np.ndarray, batch: int = 64) -> np.ndarray:
    """Exact d_k per query, in small batches to keep memory flat."""
    out = np.empty(points.shape[0], dtype=np.float64)
    for lo in range(0, points.shape[0], batch):
        hi = min(lo + batch, points.shape[0])
        dist = ball_distances(points[lo:hi], centers, radii)
        for k in np.unique(ks[lo:hi]):
            rows = np.flatnonzero(ks[lo:hi] == k)
            out[lo + rows] = np.partition(dist[rows], k - 1, axis=1)[:, k - 1]
    return out


def failures(
    points: np.ndarray,
    epss: np.ndarray,
    truth: np.ndarray,
    ball_ids: np.ndarray,
    dists: np.ndarray,
    intervals: np.ndarray | None,
    centers: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Mask of answers that fail any check.

    An answer passes when its distance lies in [(1-eps) d_k, (1+eps) d_k],
    the distance recomputed to its witness ball equals the reported one,
    and, when intervals are given, its certified interval brackets d_k.
    """
    bad = (ball_ids < 0) | (ball_ids >= centers.shape[0])
    wid = np.where(bad, 0, ball_ids)
    diff = points - centers[wid]
    wdist = np.maximum(np.sqrt(np.einsum("md,md->m", diff, diff)) - radii[wid], 0.0)
    bad |= np.abs(wdist - dists) > WITNESS_TOL * np.maximum(1.0, dists)
    bad |= dists < (1.0 - epss) * truth * (1.0 - REL)
    bad |= dists > (1.0 + epss) * truth * (1.0 + REL)
    if intervals is not None:
        bad |= intervals[:, 0] > truth * (1.0 + REL)
        bad |= intervals[:, 1] < truth * (1.0 - REL)
    return bad


class Checker:
    """Checks answers block by block as a run goes, so that nothing per
    answer has to be kept.  The exact d_k of a query is computed the first
    time the query is asked."""

    def __init__(self, points, ks, epss, centers, radii, intervals: bool) -> None:
        self.points, self.ks, self.epss = points, ks, epss
        self.centers, self.radii = centers, radii
        self.intervals = intervals
        self.truth = np.full(points.shape[0], np.nan)
        self.balls_ok = True
        self.checked = 0
        self.failed = 0
        self._unit = None

    def index(self, inst) -> None:
        """Take the unit cube of a loaded index and confirm that it holds the
        benchmark's balls, in the same unit cube as every earlier load, so
        that the d_k computed so far hold for it too."""
        c_unit, r_unit = unit_balls(self.centers, self.radii, inst.scale, inst.offset)
        if self._unit is None:
            self._unit = (c_unit, r_unit)
        self.balls_ok &= bool(
            np.array_equal(c_unit, self._unit[0])
            and np.array_equal(r_unit, self._unit[1])
            and same_balls(inst, c_unit, r_unit)
        )

    def unit(self) -> tuple[np.ndarray, np.ndarray]:
        """The balls in the indexes' unit cube."""
        return self._unit

    def block(self, first: int, answers: list) -> None:
        """Check the answers to queries first, first + 1, ..."""
        c_unit, r_unit = self._unit
        rows = np.arange(first, first + len(answers))
        todo = rows[np.isnan(self.truth[rows])]
        if todo.size:
            self.truth[todo] = exact_kth(self.points[todo], self.ks[todo], c_unit, r_unit)
        bad = failures(
            self.points[rows],
            self.epss[rows],
            self.truth[rows],
            np.array([a.ball_id for a in answers], dtype=np.int64),
            np.array([a.distance for a in answers], dtype=np.float64),
            np.array([a.certified_interval for a in answers], dtype=np.float64) if self.intervals else None,
            c_unit,
            r_unit,
        )
        self.checked += len(answers)
        self.failed += int(bad.sum())

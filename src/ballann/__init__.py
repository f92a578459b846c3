"""Approximate k-th nearest neighbor search over disjoint balls.

Two query paths share the same guarantees: a registry-backed structure that
answers (1+eps)-approximate k-th nearest ball queries in polylogarithmic time,
and a sublinear-space Voronoi-style subdivision for one fixed (k, eps),
certified cell by cell (quorum clustering only in its strict mode).
"""

from .avd import AVDIndex, audit_cells, avd_query, build_avd
from .datasets import PROFILES, generate_instance
from .geometry import (
    Ball,
    CanonicalCube,
    InputError,
    InternalInvariantError,
    NormalizedInstance,
    ball_distance,
    ball_distances,
    normalize,
    packing_constant,
)
from .io import load_index, read_balls, save_index, write_balls
from .knn import KnnAnswer, constant_factor_kth, query, refine
from .oracle import exact_counts, exact_kth_distance
from .quorum import QuorumCluster, ball_quorum, verify_quorum
from .registry import Registry, build_registry

__all__ = [
    "AVDIndex",
    "Ball",
    "CanonicalCube",
    "InputError",
    "InternalInvariantError",
    "KnnAnswer",
    "NormalizedInstance",
    "PROFILES",
    "QuorumCluster",
    "Registry",
    "audit_cells",
    "avd_query",
    "ball_distance",
    "ball_distances",
    "ball_quorum",
    "build_avd",
    "build_registry",
    "constant_factor_kth",
    "exact_counts",
    "exact_kth_distance",
    "generate_instance",
    "load_index",
    "normalize",
    "packing_constant",
    "query",
    "read_balls",
    "refine",
    "save_index",
    "verify_quorum",
    "write_balls",
]

__version__ = "0.1.0"

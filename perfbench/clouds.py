"""Workload ``clouds``: the float metric pipeline on seeded point clouds.

kappa sweeps run on the 1-D 2^20-point Cantor cloud (20 deltas), a uniform
2-D cloud of 1k points (80), a uniform 2-D cloud of 10k points (8) and a
uniform 3-D cloud of 4k points (8); merge_heights runs on the Cantor cloud,
on 2-D and 3-D uniform clouds of 4,000 points (dense side of the size-based
backend choice) and on a clustered 2-D cloud of 4,160 points (grid side).
Each kappa call and each merge_heights call is one task.

The sweep sizes place the percentiles inside one kind of task each, not on
the border between two kinds, where they would jump with every change of
rank: the cheap 1-D Cantor calls fill the bottom 20 of 120 ranks, so the
median task is a 1k-cloud call, and the 90th percentile falls mid-way
through the 16 calls on the 10k and 3-D clouds, under the four
merge_heights calls.

Outputs are checked against an independent oracle computed in set-up: the
Euclidean MST from scipy's Delaunay triangulation plus csgraph (a plain sort
in 1-D).  Heights must match the oracle's edge weights within the library's
TIE_TOLERANCE, and kappa(delta) must equal one plus the number of oracle
edges longer than delta; deltas sit between well-separated edge weights.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

from dustgaps import metgaps

from common import CheckFailed, Task

# deltas per kappa sweep; see the module docstring for the sizes
KAPPA_SWEEPS = {"cantor": 20, "u2_1k": 80, "u2_10k": 8, "u3_4k": 8}
CANTOR_DEPTH = 20
# the grid-side cloud: CLUSTERS blobs of CLUSTER_POINTS points, fixed layout
CLUSTERS = 64
CLUSTER_POINTS = 65
CLUSTER_WIDTH = 0.002
CLUSTER_LAYOUT_SEED = 1
# relative gap two oracle weights need before a delta may sit between them
DELTA_MARGIN = 1e-6


def cantor_cloud(depth: int = CANTOR_DEPTH) -> np.ndarray:
    """Left endpoints of the depth-k middle-thirds cover: 2**depth points."""
    pts = np.zeros(1)
    for _ in range(depth):
        pts = np.concatenate([pts / 3, 2 / 3 + pts / 3])
    return pts


def clustered_cloud() -> np.ndarray:
    """The grid-side cloud.  It is the same for every seed: with seeded
    jitter its grid cost swung between 5 and 10 s, which would drown every
    other number of the workload."""
    rng = np.random.default_rng(CLUSTER_LAYOUT_SEED)
    centres = rng.random((CLUSTERS, 2))
    blobs = CLUSTER_WIDTH * rng.random((CLUSTERS * CLUSTER_POINTS, 2))
    return np.repeat(centres, CLUSTER_POINTS, axis=0) + blobs


def oracle_weights(pts: np.ndarray) -> np.ndarray:
    """Sorted Euclidean MST edge weights, independent of dustgaps."""
    if pts.ndim == 1:
        return np.sort(np.diff(np.sort(pts)))
    simplices = Delaunay(pts).simplices
    k = simplices.shape[1]
    ii = np.concatenate([simplices[:, a] for a in range(k) for b in range(a + 1, k)])
    jj = np.concatenate([simplices[:, b] for a in range(k) for b in range(a + 1, k)])
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    w = np.sqrt(((pts[pairs[:, 0]] - pts[pairs[:, 1]]) ** 2).sum(axis=1))
    n = len(pts)
    tree = minimum_spanning_tree(coo_matrix((w, (pairs[:, 0], pairs[:, 1])), shape=(n, n)))
    return np.sort(tree.data)


def kappa_plan(weights: np.ndarray, n: int, count: int) -> list[tuple[float, int]]:
    """``count`` deltas at evenly spaced ranks among the places where the
    sorted oracle weights step up by more than DELTA_MARGIN, each delta
    strictly inside its step; the expected kappa is n minus the weights
    <= delta.  On a uniform cloud every weight is such a step, so the sweep
    takes kappa down in even strides at every seed; spacing by value would
    hang it on the smallest and largest weights, which swing from seed to
    seed.  On the Cantor cloud the steps are its gap levels."""
    jumps = np.flatnonzero(weights[1:] > weights[:-1] * (1 + DELTA_MARGIN))
    plan = []
    for k in range(count):
        j = jumps[int((k + 0.5) / count * len(jumps))]
        delta = float(np.sqrt(weights[j] * weights[j + 1]))
        plan.append((delta, n - (int(j) + 1)))
    return plan


def heights_match(profile: metgaps.KappaProfile, weights: np.ndarray) -> bool:
    """Expand the grouped step profile back to one height per MST edge and
    compare with the oracle weights within the tie tolerance."""
    counts = np.asarray(profile.counts)
    mult = np.diff(np.concatenate([[profile.n_points], counts]))
    if int(-mult.sum()) != len(weights):
        return False
    expanded = np.repeat(np.asarray(profile.heights, dtype=np.float64), -mult)
    slack = (2 * metgaps.TIE_TOLERANCE) * weights + 1e-300
    return bool(np.all(np.abs(expanded - weights) <= slack))


class Workload:
    name = "clouds"

    def __init__(self, seed: int, goldens: dict):
        self.goldens = goldens
        rng = np.random.default_rng(seed)
        raw = {
            "u2_1k": rng.random((1000, 2)),
            "u2_10k": rng.random((10000, 2)),
            "u3_4k": rng.random((4000, 3)),
            "u2_4k": rng.random((4000, 2)),
            "cantor": cantor_cloud(),
            "clustered": clustered_cloud(),
        }
        self.clouds = {k: metgaps.PointCloud.from_points(v) for k, v in raw.items()}
        self.weights = {k: oracle_weights(c.points) for k, c in self.clouds.items()}
        tasks: list[Task] = []
        for name, count in KAPPA_SWEEPS.items():
            cloud = self.clouds[name]
            for delta, expected in kappa_plan(self.weights[name], cloud.n, count):
                tasks.append(
                    Task(
                        f"{name}/kappa/{delta!r}",
                        lambda c=cloud, d=delta: metgaps.kappa(c, d),
                        check=lambda out, e=expected, key=name: _equal(out, e, key),
                    )
                )
        for name in ("cantor", "u2_4k", "u3_4k", "clustered"):
            tasks.append(
                Task(
                    f"{name}/merge_heights",
                    lambda c=self.clouds[name]: metgaps.merge_heights(c),
                    check=lambda out, w=self.weights[name], key=name: _heights(out, w, key),
                )
            )
        np.random.default_rng(seed).shuffle(tasks)
        self.tasks = tasks

    def make_pass(self) -> list[Task]:
        return list(self.tasks)


def _equal(out: int, expected: int, key: str) -> None:
    if out != expected:
        raise CheckFailed(f"{key}: kappa {out}, oracle {expected}")


def _heights(profile: metgaps.KappaProfile, weights: np.ndarray, key: str) -> None:
    if not heights_match(profile, weights):
        raise CheckFailed(f"{key}: merge heights differ from the oracle MST")

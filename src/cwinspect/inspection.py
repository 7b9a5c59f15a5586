"""Inspection-point model of the chief spacecraft.

The chief is represented by 99 points on a 10 m sphere.  A point becomes
inspected when the deputy sees it (the hemisphere facing the deputy, a 90
degree half-angle field of view) and, when illumination gating is enabled,
the Sun lights it.  Inspected flags are monotone within an episode.  A
k-means pass with the module's cluster count and seed over the remaining
points supplies the "nearest uninspected cluster" direction used by the
richer observation vector; the clustering is memoized on the uninspected
point coordinates, so only a step that inspected something new runs Lloyd's
iteration again.  Each Lloyd step is a few whole-array passes whose sums
keep the order of a per-cluster mean, so the seeded clustering is the same
bit for bit as the textbook loop (the tests keep that loop as their oracle).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import sun_vector

__all__ = [
    "SPHERE_POINT_COUNT",
    "SPHERE_RADIUS",
    "DEFAULT_CLUSTER_COUNT",
    "KMEANS_SEED",
    "InspectionSphere",
    "generate_points",
    "update_inspected",
    "inspected_count",
    "nearest_uninspected_cluster",
]

SPHERE_POINT_COUNT = 99
SPHERE_RADIUS = 10.0  # [m]
DEFAULT_CLUSTER_COUNT = 6
KMEANS_SEED = 0  # module-fixed seed so cluster directions are reproducible

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass
class InspectionSphere:
    """:func:`update_inspected` keeps the unit vectors ``points / radius`` of
    a sphere until ``points`` or ``radius`` is assigned; the points of
    :func:`generate_points` are read-only, so they change only that way."""

    points: np.ndarray  # (count, 3) [m], on the sphere surface
    inspected: np.ndarray  # (count,) bool
    radius: float  # [m]

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name in ("points", "radius"):
            object.__setattr__(self, "_unit", None)


def generate_points() -> InspectionSphere:
    """Deterministic Fibonacci-lattice layout of the 99 points on the 10 m
    sphere.

    Uses the half-offset lattice (z_i = 1 - 2(i+0.5)/99) so no point sits
    exactly on a pole; regeneration is bit-identical.
    """
    i = np.arange(SPHERE_POINT_COUNT, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / SPHERE_POINT_COUNT
    r_xy = np.sqrt(1.0 - z * z)
    theta = _GOLDEN_ANGLE * i
    pts = SPHERE_RADIUS * np.stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z], axis=1)
    pts.setflags(write=False)
    return InspectionSphere(pts, np.zeros(SPHERE_POINT_COUNT, dtype=bool), SPHERE_RADIUS)


def _deputy_position(deputy_position) -> tuple[np.ndarray, float]:
    """The deputy position as a (3,) array and its norm, which is finite
    exactly when every entry is (and the norm stays below ~1e154 m)."""
    p = np.asarray(deputy_position, dtype=float)
    if p.size == 3:
        p = p.reshape(3)
        dist = math.sqrt(p.dot(p))
        if math.isfinite(dist):
            return p, dist
    raise ValueError("deputy position must be 3 finite numbers")


def update_inspected(sphere: InspectionSphere, deputy_position, sun_angle: float,
                     illumination_enabled: bool) -> int:
    """Mark points visible from ``deputy_position`` (and lit, if gated).

    Point i is marked when r_i . p > 0 (strict: the 90 deg half-angle field
    of view) and, with illumination enabled, r_i . r_sun > 0 (strict).  A
    deputy inside the sphere marks nothing.  Returns the number newly marked
    by this call.
    """
    p, dist = _deputy_position(deputy_position)
    if dist <= sphere.radius:
        return 0
    r_hat = sphere._unit
    if r_hat is None:
        r_hat = sphere._unit = sphere.points / sphere.radius
    visible = r_hat @ (p / dist) > 0.0
    if illumination_enabled:
        visible &= r_hat @ sun_vector(sun_angle) > 0.0
    newly = visible > sphere.inspected
    sphere.inspected |= newly
    return int(np.count_nonzero(newly))


def inspected_count(sphere: InspectionSphere) -> int:
    return int(np.count_nonzero(sphere.inspected))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between ``a`` and ``b``, whose first axis holds the
    x, y, z coordinates and whose other axes broadcast.  Summed x + y + z,
    the order ``np.sum`` takes over a last axis of three, so for (n, 3)
    rows ``_sq_dist(p.T, q.T)`` equals ``np.sum((p - q) ** 2, axis=-1)``
    bit for bit."""
    d = (a - b) ** 2
    return d[0] + d[1] + d[2]


def _kmeans_pp_init(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of the points with coordinate rows ``coords``
    (3, n); returns the initial centres as the columns of a (3, k) array.
    A later seed is drawn as ``rng.choice(n, p=d2 / total)`` draws it (the
    tests' oracle), without that call's checks of ``p``."""
    n = coords.shape[1]
    centers = np.empty((3, k))
    centers[:, 0] = coords[:, rng.integers(n)]
    d2 = _sq_dist(coords, centers[:, :1])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen center
            centers[:, j] = coords[:, rng.integers(n)]
            continue
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centers[:, j] = coords[:, cdf.searchsorted(rng.random(), side="right")]
        d2 = np.minimum(d2, _sq_dist(coords, centers[:, j:j + 1]))
    return centers


@functools.lru_cache(maxsize=32)
def _kmeans(pts_bytes: bytes, k: int) -> np.ndarray:
    """k-means++ seeded with ``KMEANS_SEED``, then at most 50 steps of
    Lloyd's iteration (stopping once no centre moves 1e-6 m), on the (n, 3)
    float points packed in ``pts_bytes``.  Keyed on point contents, not on a
    sphere, since ``update_inspected`` mutates the inspected mask in place.
    Returns the read-only (k, 3) centres.

    Each Lloyd step is a few whole-array passes: one broadcast of the (k, n)
    squared distances, nearest-centre labels (ties to the lower index), and
    the per-cluster coordinate sums from one ``np.bincount``, which adds in
    point order as ``mean(axis=0)`` over each cluster's points does.  A
    cluster left empty keeps its centre.
    """
    coords = np.frombuffer(pts_bytes).reshape(-1, 3).T.copy()
    points, flat = coords[:, None, :], coords.ravel()
    # bin of coordinate c of a point in cluster j: c * k + j
    bins = k * np.arange(3)[:, None]
    rng = np.random.default_rng(KMEANS_SEED)
    centers = _kmeans_pp_init(coords, k, rng)
    for _ in range(50):
        labels = np.argmin(_sq_dist(points, centers[:, :, None]), axis=0)
        sizes = np.bincount(labels, minlength=k)
        sums = np.bincount((labels + bins).ravel(), flat, 3 * k).reshape(3, k)
        new_centers = np.divide(sums, sizes, out=centers.copy(), where=sizes > 0)
        shift = math.sqrt(_sq_dist(new_centers, centers).max())
        centers = new_centers
        if shift < 1e-6:
            break
    centers = centers.T.copy()
    centers.setflags(write=False)
    return centers


def nearest_uninspected_cluster(sphere: InspectionSphere, deputy_position) -> np.ndarray:
    """Unit direction (3,) toward the k-means centroid of uninspected points
    nearest the deputy.

    Clusters the uninspected point coordinates into
    k' = min(``DEFAULT_CLUSTER_COUNT``, number uninspected) clusters.  The
    clustering is memoized on the uninspected coordinates and k', so a call
    whose uninspected set is unchanged redoes only the deputy-dependent
    nearest-centre pick.  Returns the zero vector when everything is
    inspected.  Deterministic for identical inputs.
    """
    p, _ = _deputy_position(deputy_position)
    pts = np.ascontiguousarray(sphere.points.compress(~sphere.inspected, axis=0), dtype=float)
    if len(pts) == 0:
        return np.zeros(3)
    centers = _kmeans(pts.tobytes(), min(DEFAULT_CLUSTER_COUNT, len(pts)))
    centroid = centers[np.argmin(np.sqrt(_sq_dist(centers.T, p[:, None])))]
    norm = math.sqrt(centroid.dot(centroid))
    if norm < 1e-9:
        # degenerate (antipodally balanced) cluster: fall back to the single
        # nearest uninspected point so the direction stays meaningful
        q = pts[np.argmin(np.sqrt(_sq_dist(pts.T, p[:, None])))]
        return q / math.sqrt(q.dot(q))
    return centroid / norm

"""Inspection-point model of the chief spacecraft.

The chief is represented by 99 points on a 10 m sphere.  A point becomes
inspected when the deputy sees it (hemisphere / field-of-view test) and,
when illumination gating is enabled, the Sun lights it.  Inspected flags are
monotone within an episode.  A k-means pass over the remaining points supplies
the "nearest uninspected cluster" direction used by the richer observation
vector; the clustering is memoized on the uninspected point coordinates, so
only a step that inspected something new runs Lloyd's iteration again.
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
    "ClusterResult",
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
    points: np.ndarray  # (count, 3) [m], on the sphere surface
    inspected: np.ndarray  # (count,) bool
    radius: float  # [m]


@dataclass
class ClusterResult:
    direction: np.ndarray  # unit vector, or zeros when nothing is left
    cluster_size: int
    converged: bool


def generate_points(radius: float = SPHERE_RADIUS,
                    count: int = SPHERE_POINT_COUNT) -> InspectionSphere:
    """Deterministic Fibonacci-lattice layout of ``count`` points at ``radius``.

    Uses the half-offset lattice (z_i = 1 - 2(i+0.5)/count) so no point sits
    exactly on a pole; regeneration is bit-identical.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r_xy = np.sqrt(1.0 - z * z)
    theta = _GOLDEN_ANGLE * i
    pts = radius * np.stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z], axis=1)
    return InspectionSphere(pts, np.zeros(count, dtype=bool), float(radius))


def _deputy_position(deputy_position) -> tuple[np.ndarray, float]:
    """The deputy position as a (3,) array and its norm, which is finite
    exactly when every entry is (and the norm stays below ~1e154 m)."""
    p = np.asarray(deputy_position, dtype=float)
    if p.size == 3:
        p = p.reshape(3)
        dist = np.linalg.norm(p)
        if math.isfinite(dist):
            return p, dist
    raise ValueError("deputy position must be 3 finite numbers")


def update_inspected(sphere: InspectionSphere, deputy_position, sun_angle: float,
                     illumination_enabled: bool,
                     fov_half_angle: float = 0.5 * math.pi) -> int:
    """Mark points visible from ``deputy_position`` (and lit, if gated).

    Point i is marked when angle(r_i, p) < fov_half_angle (strict; the
    default half angle of 90 deg reduces to r_i . p > 0) and, with
    illumination enabled, r_i . r_sun > 0 (strict).  A deputy inside the
    sphere marks nothing.  Returns the number newly marked by this call.
    Raises ValueError unless 0 < fov_half_angle <= pi.
    """
    if not 0.0 < fov_half_angle <= math.pi:  # also refuses nan
        raise ValueError("fov_half_angle must lie in (0, pi]")
    p, dist = _deputy_position(deputy_position)
    if dist <= sphere.radius:
        return 0
    p_hat = p / dist
    r_hat = sphere.points / sphere.radius
    visible = r_hat @ p_hat > math.cos(fov_half_angle)
    if illumination_enabled:
        visible &= r_hat @ sun_vector(sun_angle) > 0.0
    newly = visible & ~sphere.inspected
    sphere.inspected |= newly
    return int(np.count_nonzero(newly))


def inspected_count(sphere: InspectionSphere) -> int:
    return int(np.count_nonzero(sphere.inspected))


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(len(pts))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen center
            centers[j] = pts[rng.integers(len(pts))]
            continue
        centers[j] = pts[rng.choice(len(pts), p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@functools.lru_cache(maxsize=32)
def _kmeans(pts_bytes: bytes, k: int, seed: int, tol: float, max_iter: int):
    """Seeded k-means++ and Lloyd's iteration on the (n, 3) float points
    packed in ``pts_bytes``.  Keyed on point contents, not on a sphere, since
    ``update_inspected`` mutates the inspected mask in place.  Returns
    read-only (centers, labels) plus the converged flag."""
    pts = np.frombuffer(pts_bytes).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(pts, k, rng)
    converged = False
    for _ in range(max_iter):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = pts[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < tol:
            converged = True
            break
    # final assignment against the settled centers
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    centers.setflags(write=False)
    labels.setflags(write=False)
    return centers, labels, converged


def nearest_uninspected_cluster(sphere: InspectionSphere, deputy_position,
                                k: int = DEFAULT_CLUSTER_COUNT,
                                seed: int = KMEANS_SEED,
                                tol: float = 1e-6,
                                max_iter: int = 50) -> ClusterResult:
    """Direction toward the k-means centroid of uninspected points nearest
    the deputy.

    Runs Lloyd's iteration with seeded k-means++ initialization on the
    uninspected point coordinates, using k' = min(k, number uninspected).
    The clustering is memoized on the uninspected coordinates and
    (k, seed, tol, max_iter), so a call whose uninspected set is unchanged
    redoes only the deputy-dependent nearest-centre pick.  Returns the zero
    vector with cluster_size 0 when everything is inspected.
    Deterministic for identical inputs.
    """
    p, _ = _deputy_position(deputy_position)
    if not _is_int(k) or k < 1:
        raise ValueError("k must be a positive integer")
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not _is_int(max_iter) or max_iter < 0:
        raise ValueError("max_iter must be a non-negative integer")
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be non-negative and finite")
    pts = np.ascontiguousarray(sphere.points[~sphere.inspected], dtype=float)
    if len(pts) == 0:
        return ClusterResult(np.zeros(3), 0, True)
    centers, labels, converged = _kmeans(pts.tobytes(), min(k, len(pts)),
                                         seed, tol, max_iter)
    nearest = int(np.argmin(np.linalg.norm(centers - p, axis=1)))
    centroid = centers[nearest]
    size = int(np.count_nonzero(labels == nearest))
    norm = np.linalg.norm(centroid)
    if norm < 1e-9:
        # degenerate (antipodally balanced) cluster: fall back to the single
        # nearest uninspected point so the direction stays meaningful
        q = pts[np.argmin(np.linalg.norm(pts - p, axis=1))]
        return ClusterResult(q / np.linalg.norm(q), size, converged)
    return ClusterResult(centroid / norm, size, converged)

"""Inspection-point model of the chief spacecraft.

The chief is represented by 99 points on a 10 m sphere.  A point becomes
inspected when the deputy sees it (the hemisphere facing the deputy, a 90
degree half-angle field of view) and, when illumination gating is enabled,
the Sun lights it.  Inspected flags are monotone within an episode.  A
k-means pass with the module's cluster count and seed over the remaining
points supplies the "nearest uninspected cluster" direction used by the
richer observation vector.  The clustering is memoized (32 entries shared
by all spheres) on the bytes of the sphere's points, which the sphere keeps
read-only and takes anew when ``points`` is assigned, and of its inspected
mask, with the cluster count and seed read at call time.  A memo entry
keeps each centre as Python floats with its unit direction, so a call
whose mask is unchanged only picks the centre nearest the deputy; only a
step that inspected something new clusters again.  k-means++ draws its
seeds from rows of a squared-distance table of the sphere's points, with
one generator reset to the seed's state; each Lloyd step is a few
whole-array passes whose sums keep the order of a per-cluster mean, so the
seeded clustering is the same bit for bit as the textbook loop (the tests
keep that loop as their oracle).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import _flag, sun_vector

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
    """The sphere keeps ``points`` as a read-only float copy, so they change
    only by assignment.  It keeps their bytes (the key of the cluster memo)
    until ``points`` is assigned, and :func:`update_inspected` keeps the unit
    vectors ``points / radius`` until ``points`` or ``radius`` is."""

    points: np.ndarray  # (count, 3) [m], on the sphere surface
    inspected: np.ndarray  # (count,) bool
    radius: float  # [m]

    def __setattr__(self, name, value):
        if name == "points":
            value = np.array(value, dtype=float, order="C")
            value.setflags(write=False)
            object.__setattr__(self, "_points_key", value.tobytes())
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
    by this call.  ``illumination_enabled`` must be a bool.
    """
    _flag(illumination_enabled, "illumination_enabled")
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


def _kmeans_pp_init(coords: np.ndarray, k: int, rng: np.random.Generator,
                    sq_dist_to=None) -> np.ndarray:
    """k-means++ seeding of the points with coordinate rows ``coords``
    (3, n); returns the initial centres as the columns of a (3, k) array.
    ``sq_dist_to(i)`` gives the squared distances of every point to point i,
    by default ``_sq_dist(coords, coords[:, i:i + 1])``.  A later seed is
    drawn as ``rng.choice(n, p=d2 / total)`` draws it (the tests' oracle),
    without that call's checks of ``p``."""
    n = coords.shape[1]
    if sq_dist_to is None:
        def sq_dist_to(i):
            return _sq_dist(coords, coords[:, i:i + 1])
    chosen = [rng.integers(n)]
    d2 = sq_dist_to(chosen[0])
    for _ in range(1, k):
        total = np.add.reduce(d2)  # d2.sum() and cumsum() without their wrappers
        if total <= 0.0:
            # all remaining points coincide with a chosen center
            chosen.append(rng.integers(n))
            continue
        cdf = np.add.accumulate(d2 / total)
        cdf /= cdf[-1]
        chosen.append(cdf.searchsorted(rng.random(), side="right"))
        d2 = np.minimum(d2, sq_dist_to(chosen[-1]))
    return coords.take(chosen, axis=1)


@functools.lru_cache(maxsize=1)
def _pair_table(points_key: bytes) -> np.ndarray:
    """Squared distances between the (n, 3) float points packed in
    ``points_key``: row i is ``_sq_dist(coords, coords[:, i:i + 1])``."""
    coords = np.frombuffer(points_key).reshape(-1, 3).T
    # row by row: one (3, n, n) broadcast would pass through a few hundred
    # kB of temporaries, which the process's peak RSS keeps
    table = np.empty((coords.shape[1],) * 2)
    for i, row in enumerate(table):
        row[:] = _sq_dist(coords, coords[:, i:i + 1])
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1)
def _seeded(seed: int) -> tuple[np.random.Generator, dict]:
    """One generator for ``seed`` and its freshly seeded state; resetting it
    costs a sixth of building a generator.  Every fresh clustering shares
    it, so its reset and draws hold ``_SEEDING``."""
    rng = np.random.default_rng(seed)
    return rng, rng.bit_generator.state


_SEEDING = threading.Lock()


@functools.lru_cache(maxsize=32)
def _clusters(points_key: bytes, mask_key: bytes, count: int, seed: int) -> tuple:
    """k-means of the points packed in ``points_key`` (n, 3 floats) that
    the bool mask packed in ``mask_key`` leaves uninspected: k-means++
    seeded with ``seed``, then at most 50 steps of Lloyd's iteration
    (stopping once no centre moves 1e-6 m), with min(``count``, n) centres.
    Returns the centres as (x, y, z) tuples of floats and each centre's
    read-only unit direction, None for a centre within 1e-9 m of the origin.

    The seeds' squared distances are rows of the sphere's pair table.  Each
    Lloyd step is a few whole-array passes: one broadcast of the (k, n)
    squared distances, nearest-centre labels (ties to the lower index), and
    the per-cluster coordinate sums from one ``np.bincount``, which adds in
    point order as ``mean(axis=0)`` over each cluster's points does.  A
    cluster left empty keeps its centre.  A step whose labels repeat the
    last step's would give the same centres again, so the loop ends there.
    """
    idx = np.flatnonzero(~np.frombuffer(mask_key, dtype=bool))
    if not len(idx):
        return (), ()
    coords = np.frombuffer(points_key).reshape(-1, 3)[idx].T.copy()
    k = min(count, len(idx))
    table = _pair_table(points_key)
    rng, state = _seeded(seed)
    with _SEEDING:
        rng.bit_generator.state = state
        centers = _kmeans_pp_init(coords, k, rng, lambda i: table[idx[i]][idx])
    points, flat = coords[:, None, :], coords.ravel()
    # bin of coordinate c of a point in cluster j: c * k + j
    bins = k * np.arange(3)[:, None]
    last = None
    for _ in range(50):
        labels = _sq_dist(points, centers[:, :, None]).argmin(axis=0)
        key = labels.tobytes()
        if key == last:
            break
        last = key
        sizes = np.bincount(labels, minlength=k)
        sums = np.bincount((labels + bins).ravel(), flat, 3 * k).reshape(3, k)
        new_centers = np.divide(sums, sizes, out=centers.copy(), where=sizes > 0)
        # the largest of _sq_dist(new_centers, centers), in Python floats
        shift = math.sqrt(max([dx * dx + dy * dy + dz * dz for dx, dy, dz
                               in zip(*(new_centers - centers).tolist())]))
        centers = new_centers
        if shift < 1e-6:
            break
    directions = []
    for centroid in centers.T.copy():
        norm = math.sqrt(centroid.dot(centroid))
        direction = None  # a degenerate (antipodally balanced) cluster
        if norm >= 1e-9:
            direction = centroid / norm
            direction.setflags(write=False)
        directions.append(direction)
    return tuple(map(tuple, centers.T.tolist())), tuple(directions)


def nearest_uninspected_cluster(sphere: InspectionSphere, deputy_position) -> np.ndarray:
    """Unit direction (3,) toward the k-means centroid of uninspected points
    nearest the deputy.

    Clusters the uninspected points into
    k' = min(``DEFAULT_CLUSTER_COUNT``, number uninspected) clusters.  The
    clustering and each centre's direction are memoized (32 entries shared
    by all spheres) on the sphere's points, the inspected mask, the cluster
    count and ``KMEANS_SEED``, so a call whose mask is unchanged only picks
    the centre nearest the deputy.  Returns the zero vector when everything
    is inspected.  Deterministic for identical inputs.
    """
    p, _ = _deputy_position(deputy_position)
    centres, directions = _clusters(
        sphere._points_key, sphere.inspected.tobytes(), DEFAULT_CLUSTER_COUNT, KMEANS_SEED)
    if not centres:
        return np.zeros(3)
    # the nearest centre by the sqrt of x*x + y*y + z*z, ties to the lower
    # index, as np.argmin over np.sqrt(_sq_dist(...)) picks it
    px, py, pz = p.tolist()
    best, pick = math.inf, 0
    for j, (cx, cy, cz) in enumerate(centres):
        dx, dy, dz = cx - px, cy - py, cz - pz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < best:
            best, pick = dist, j
    direction = directions[pick]
    if direction is None:
        # degenerate cluster: fall back to the single nearest uninspected
        # point so the direction stays meaningful
        pts = sphere.points[~sphere.inspected]
        q = pts[np.argmin(np.sqrt(_sq_dist(pts.T, p[:, None])))]
        return q / math.sqrt(q.dot(q))
    return direction.copy()

"""Inspection-point model of the chief spacecraft.

The chief is the paper's one model: 99 points on a 10 m sphere, built at
import as the read-only :data:`SPHERE_POINTS`, with their unit vectors,
coordinate rows and squared-distance table.  A sphere is its inspected
mask.  A point becomes inspected when the deputy sees it (the hemisphere
facing the deputy, a 90 degree half-angle field of view) and, when
illumination gating is enabled, the Sun lights it.  Inspected flags are
monotone within an episode.  A k-means pass with the module's cluster
count and seed over the remaining points supplies the "nearest uninspected
cluster" direction used by the richer observation vector.  The clustering
is memoized (32 entries shared by all spheres) on the inspected mask's
bytes, with the cluster count and seed read at call time; a memo entry
keeps each centre as Python floats with its unit direction, so only a step
that inspected something new clusters again.  k-means++ (Arthur &
Vassilvitskii, SODA 2007) draws its seeds from rows of the distance table,
with a generator of its own seeded anew; each Lloyd step is a few
whole-array passes whose sums keep the order of a per-cluster mean, so the
clustering is bit for bit the textbook loop the tests keep as oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _flag, _vector, sun_vector

__all__ = [
    "SPHERE_POINT_COUNT",
    "SPHERE_RADIUS",
    "SPHERE_POINTS",
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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between ``a`` and ``b``, whose first axis holds the
    x, y, z coordinates and whose other axes broadcast.  Summed x + y + z,
    the order ``np.sum`` takes over a last axis of three, so for (n, 3)
    rows ``_sq_dist(p.T, q.T)`` equals ``np.sum((p - q) ** 2, axis=-1)``
    bit for bit."""
    d = (a - b) ** 2
    return d[0] + d[1] + d[2]


def _chief() -> tuple[np.ndarray, ...]:
    """The half-offset Fibonacci lattice (z_i = 1 - 2(i+0.5)/99, so no
    point sits exactly on a pole) as (99, 3) points [m], their unit vectors,
    their (3, 99) coordinate rows and the (99, 99) table whose row i holds
    the squared distances of every point to point i; each read-only."""
    i = np.arange(SPHERE_POINT_COUNT, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / SPHERE_POINT_COUNT
    r_xy = np.sqrt(1.0 - z * z)
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i  # the golden angle
    points = SPHERE_RADIUS * np.stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z], axis=1)
    coords = points.T.copy()
    # row by row: one (3, n, n) broadcast would pass through a few hundred
    # kB of temporaries, which the process's peak RSS keeps
    table = np.empty((SPHERE_POINT_COUNT,) * 2)
    for j, row in enumerate(table):
        row[:] = _sq_dist(coords, coords[:, j:j + 1])
    built = points, points / SPHERE_RADIUS, coords, table
    for array in built:
        array.setflags(write=False)
    return built


SPHERE_POINTS, _UNIT, _COORDS, _PAIR_TABLE = _chief()


@dataclass(slots=True)
class InspectionSphere:
    """Which of the chief's :data:`SPHERE_POINTS` the deputy has inspected.
    ``points`` and ``radius`` are the module's constants, read through the
    class; assigning either on a sphere raises ``AttributeError``.  A mask
    that is not a (99,) bool array is refused with a ``ValueError``."""

    inspected: np.ndarray  # (99,) bool
    points = SPHERE_POINTS  # (99, 3) [m], on the sphere surface
    radius = SPHERE_RADIUS  # [m]

    def __post_init__(self):
        mask = self.inspected
        if not (isinstance(mask, np.ndarray) and mask.shape == (SPHERE_POINT_COUNT,)
                and mask.dtype == bool):
            raise ValueError(f"inspected must be a ({SPHERE_POINT_COUNT},) bool array, not a "
                             f"{type(mask).__name__} of shape {np.shape(mask)}, "
                             f"dtype {np.asarray(mask).dtype}")


def generate_points() -> InspectionSphere:
    """A fresh sphere over the 99 lattice points: nothing inspected."""
    return InspectionSphere(np.zeros(SPHERE_POINT_COUNT, dtype=bool))


def _deputy_position(deputy_position) -> tuple[np.ndarray, float]:
    """The deputy position as a (3,) array and its norm, refused unless both
    are finite.  The norm's square p.p overflows above ~1.3e154 m; there it
    is formed without numpy's overflow warning, so the refusal is the one
    error."""
    p = _vector(deputy_position, "deputy position", 3)
    if math.hypot(*p.tolist()) < 1e154:  # Python floats do not warn
        return p, math.sqrt(p.dot(p))
    with np.errstate(over="ignore"):
        dist = math.sqrt(p.dot(p))
    if not math.isfinite(dist):
        raise ValueError(f"deputy position must have a finite norm, not {p!r}")
    return p, dist


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
    if dist <= SPHERE_RADIUS:
        return 0
    visible = _UNIT @ (p / dist) > 0.0
    if illumination_enabled:
        visible &= _UNIT @ sun_vector(sun_angle) > 0.0
    newly = visible > sphere.inspected
    sphere.inspected |= newly
    return int(np.count_nonzero(newly))


def inspected_count(sphere: InspectionSphere) -> int:
    return int(np.count_nonzero(sphere.inspected))


def _kmeans_pp_init(idx: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of the lattice points ``idx``, as the columns of a
    (3, k) array.  A later seed is drawn as ``rng.choice(n, p=d2 / total)``
    draws it (the tests' oracle), without that call's checks of ``p``.  A
    point at distance 0 is never drawn and the lattice's points are
    distinct, so ``total`` stays positive while k <= n seeds are drawn."""
    chosen = [rng.integers(len(idx))]
    d2 = _PAIR_TABLE[idx[chosen[0]]][idx]
    for _ in range(1, k):
        total = np.add.reduce(d2)  # d2.sum() and cumsum() without their wrappers
        cdf = np.add.accumulate(d2 / total)
        cdf /= cdf[-1]
        chosen.append(cdf.searchsorted(rng.random(), side="right"))
        d2 = np.minimum(d2, _PAIR_TABLE[idx[chosen[-1]]][idx])
    return _COORDS.take(idx.take(chosen), axis=1)


@functools.lru_cache(maxsize=32)
def _clusters(mask_key: bytes, count: int, seed: int) -> tuple:
    """k-means of the lattice points that the bool mask packed in
    ``mask_key`` leaves uninspected: k-means++ seeded with ``seed``, then at
    most 50 steps of Lloyd's iteration (stopping once no centre moves
    1e-6 m), with min(``count``, n) centres.  Returns the centres as
    (x, y, z) tuples of floats and each centre's read-only unit direction,
    None for a centre within 1e-9 m of the origin.

    The seeds' squared distances are rows of the pair table.  Each Lloyd
    step is a few whole-array passes: one broadcast of the (k, n) squared
    distances, nearest-centre labels (ties to the lower index), and the
    per-cluster coordinate sums from one ``np.bincount``, which adds in
    point order as ``mean(axis=0)`` over each cluster's points does.  A
    cluster left empty keeps its centre.  A step whose labels repeat the
    last step's would give the same centres again, so the loop ends there.
    """
    idx = np.flatnonzero(~np.frombuffer(mask_key, dtype=bool))
    if not len(idx):
        return (), ()
    coords = _COORDS.take(idx, axis=1)
    k = min(count, len(idx))
    centers = _kmeans_pp_init(idx, k, np.random.default_rng(seed))
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

    Clusters the uninspected points into k' = min(``DEFAULT_CLUSTER_COUNT``,
    number uninspected) clusters, memoized with each centre's direction (32
    entries shared by all spheres) on the inspected mask, the cluster count
    and ``KMEANS_SEED``, so a call whose mask is unchanged only picks the
    centre nearest the deputy.  Returns the zero vector when everything is
    inspected.  Deterministic for identical inputs.
    """
    p, _ = _deputy_position(deputy_position)
    centres, directions = _clusters(
        sphere.inspected.tobytes(), DEFAULT_CLUSTER_COUNT, KMEANS_SEED)
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
        pts = SPHERE_POINTS[~sphere.inspected]
        q = pts[np.argmin(np.sqrt(_sq_dist(pts.T, p[:, None])))]
        return q / math.sqrt(q.dot(q))
    return direction.copy()

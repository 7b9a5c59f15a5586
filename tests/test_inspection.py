"""Inspection sphere: lattice layout, visibility/illumination gating,
monotone bookkeeping, and the uninspected-cluster direction."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwinspect import inspection
from cwinspect.control import mlp_save, random_policy
from cwinspect.harness import default_experiment, run
from cwinspect.inspection import (SPHERE_POINT_COUNT, SPHERE_POINTS,
                                  SPHERE_RADIUS, generate_points,
                                  inspected_count, nearest_uninspected_cluster,
                                  update_inspected)


def _oracle_pp_init(pts, k, rng):
    centers = np.empty((k, 3))
    centers[0] = pts[rng.integers(len(pts))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        centers[j] = pts[rng.choice(len(pts), p=d2 / d2.sum())]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def kmeans_oracle(sphere, deputy_position, init=_oracle_pp_init):
    """Reference: the uncached cluster direction, seeded k-means++ (or
    ``init``) and the full Lloyd loop (at most 50 steps, until no centre
    moves 1e-6) rerun on every call, with the module's cluster count and
    seed."""
    pts = sphere.points[~sphere.inspected]
    if len(pts) == 0:
        return np.zeros(3)
    p = np.asarray(deputy_position, dtype=float).reshape(3)
    kk = min(inspection.DEFAULT_CLUSTER_COUNT, len(pts))
    rng = np.random.default_rng(inspection.KMEANS_SEED)
    centers = init(pts, kk, rng)
    for _ in range(50):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(kk):
            members = pts[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < 1e-6:
            break
    centroid = centers[np.argmin(np.linalg.norm(centers - p, axis=1))]
    norm = np.linalg.norm(centroid)
    if norm < 1e-9:
        q = pts[np.argmin(np.linalg.norm(pts - p, axis=1))]
        return q / np.linalg.norm(q)
    return centroid / norm


def assert_same_cluster(got, ref):
    assert got.shape == (3,) and got.tobytes() == ref.tobytes()


@pytest.fixture
def cluster_setup(monkeypatch):
    """Sets the module's cluster count and seed for one test.  The memo is
    keyed on both, so a changed value needs no clearing; it is cleared on
    each change anyway, so that every test starts with a fresh clustering,
    and when the test ends."""
    def use(k=inspection.DEFAULT_CLUSTER_COUNT, seed=inspection.KMEANS_SEED):
        monkeypatch.setattr(inspection, "DEFAULT_CLUSTER_COUNT", k)
        monkeypatch.setattr(inspection, "KMEANS_SEED", seed)
        inspection._clusters.cache_clear()
    yield use
    inspection._clusters.cache_clear()


class TestLattice:
    def test_count_and_radius(self):
        sph = generate_points()
        assert len(sph.points) == SPHERE_POINT_COUNT == 99
        norms = np.linalg.norm(sph.points, axis=1)
        assert np.all(np.abs(norms - SPHERE_RADIUS) < 1e-9)

    def test_near_uniform_centroid(self):
        sph = generate_points()
        assert np.linalg.norm(sph.points.mean(axis=0)) < 0.5

    def test_minimum_angular_separation(self):
        sph = generate_points()
        unit = sph.points / SPHERE_RADIUS
        cos = unit @ unit.T
        np.fill_diagonal(cos, -1.0)
        min_angle = np.arccos(np.clip(cos.max(), -1, 1))
        assert min_angle > 0.1

    def test_regeneration_bit_identical(self):
        a = generate_points()
        b = generate_points()
        assert np.array_equal(a.points, b.points)

    def test_the_chief_is_read_only(self):
        # a sphere is its inspected mask: points and radius are read through
        # the class, and neither a sphere nor a write can change them
        sph = generate_points()
        assert [f.name for f in dataclasses.fields(sph)] == ["inspected"]
        assert sph.points is SPHERE_POINTS and sph.radius == SPHERE_RADIUS
        for name, value in (("points", -SPHERE_POINTS), ("radius", 3.0)):
            with pytest.raises(AttributeError):
                setattr(sph, name, value)
        built = (SPHERE_POINTS, inspection._UNIT, inspection._COORDS,
                 inspection._PAIR_TABLE)
        for table in built:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        assert not generate_points().inspected.any()
        # the tables hold what a per-call formula gives, bit for bit
        assert inspection._UNIT.tobytes() == (SPHERE_POINTS / SPHERE_RADIUS).tobytes()
        assert inspection._COORDS.tobytes() == SPHERE_POINTS.T.copy().tobytes()
        for i, row in enumerate(inspection._PAIR_TABLE):
            assert row.tobytes() == np.sum((SPHERE_POINTS - SPHERE_POINTS[i]) ** 2,
                                           axis=-1).tobytes()

    # the lattice is the paper's one chief model: no other radius or count
    # can be asked for, valid or not
    def test_invalid_radius(self):
        with pytest.raises(TypeError):
            generate_points(radius=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"radius": math.nan}, {"radius": math.inf}, {"radius": -1.0},
        {"count": 0}, {"count": -3}])
    def test_degenerate_lattice_rejected(self, kwargs):
        with pytest.raises(TypeError):
            generate_points(**kwargs)

    @pytest.mark.parametrize("mask", [
        np.zeros(SPHERE_POINT_COUNT - 1, dtype=bool), np.zeros(SPHERE_POINT_COUNT, dtype=int),
        np.zeros(SPHERE_POINT_COUNT)], ids=["98_bools", "99_ints", "99_floats"])
    def test_malformed_mask_refused(self, mask):
        # a (98,) mask gave a cluster direction, and a (99,) int mask raised
        # an IndexError inside the clustering
        with pytest.raises(ValueError, match=r"inspected must be a \(99,\) bool array"):
            inspection.InspectionSphere(mask)


class TestVisibility:
    def test_hemisphere_count_from_positive_x(self):
        sph = generate_points()
        newly = update_inspected(sph, [100.0, 0, 0], 0.0, False)
        # oracle: strict half-space test on the generated lattice
        expected = int(np.count_nonzero(sph.points[:, 0] > 0.0))
        assert newly == expected == 50
        marked = set(np.nonzero(sph.inspected)[0])
        assert marked == set(np.nonzero(sph.points[:, 0] > 0.0)[0])

    def test_contradictory_half_spaces_mark_nothing(self):
        sph = generate_points()
        # sun at (-1, 0, 0) while the deputy looks from (+100, 0, 0)
        newly = update_inspected(sph, [100.0, 0, 0], math.pi, True)
        assert newly == 0
        assert inspected_count(sph) == 0

    def test_second_identical_call_marks_nothing(self):
        sph = generate_points()
        first = update_inspected(sph, [100.0, 0, 0], 0.0, False)
        assert first > 0
        assert update_inspected(sph, [100.0, 0, 0], 0.0, False) == 0

    def test_deputy_inside_sphere_marks_nothing(self):
        sph = generate_points()
        assert update_inspected(sph, [5.0, 0, 0], 0.0, False) == 0
        assert inspected_count(sph) == 0

    def test_illumination_gates_to_co_lit_hemisphere(self):
        free = generate_points()
        update_inspected(free, [100.0, 0, 0], 1.0, False)
        gated = generate_points()
        update_inspected(gated, [100.0, 0, 0], 1.0, True)
        lit = gated.points @ np.array([math.cos(1.0), math.sin(1.0), 0.0]) > 0
        seen = gated.points[:, 0] > 0
        assert inspected_count(gated) == int(np.count_nonzero(lit & seen))
        assert inspected_count(gated) <= inspected_count(free)

    def test_fov_cone_parameter_restricts(self):
        # the field of view is the open hemisphere facing the deputy: from
        # the +z axis the lattice's equator point (z = 0 exactly) stays
        # unmarked, and no narrower cone can be asked for
        sph = generate_points()
        assert sph.points[49, 2] == 0.0
        update_inspected(sph, [0.0, 0.0, 100.0], 0.0, False)
        assert np.array_equal(sph.inspected, sph.points[:, 2] > 0.0)
        assert inspected_count(sph) == 49
        with pytest.raises(TypeError):
            update_inspected(generate_points(), [100.0, 0, 0], 0.0, False,
                             fov_half_angle=math.radians(30.0))

    @pytest.mark.parametrize("half_angle", [math.nan, 0.0, -0.1, 4.0, math.inf])
    def test_fov_half_angle_validated(self, half_angle):
        # the 90 deg half angle is the only one: any other value is refused
        sph = generate_points()
        with pytest.raises(TypeError):
            update_inspected(sph, [100.0, 0, 0], 0.0, False, fov_half_angle=half_angle)
        assert inspected_count(sph) == 0

    def test_monotone_count(self):
        sph = generate_points()
        rng = np.random.default_rng(2)
        last = 0
        for _ in range(50):
            pos = rng.normal(0, 60, 3)
            update_inspected(sph, pos, rng.uniform(0, 2 * math.pi), True)
            cur = inspected_count(sph)
            assert cur >= last
            last = cur

    @staticmethod
    def _per_call_oracle(sph, mask, p, sun_angle, illumination):
        """The marking formula with ``points / radius`` formed on every call;
        updates ``mask`` and returns the count newly marked."""
        p = np.asarray(p, dtype=float)
        dist = np.linalg.norm(p)
        if dist <= sph.radius:
            return 0
        r_hat = sph.points / sph.radius
        visible = r_hat @ (p / dist) > 0.0
        if illumination:
            visible &= r_hat @ np.array([math.cos(sun_angle), math.sin(sun_angle), 0.0]) > 0.0
        newly = visible & ~mask
        mask |= newly
        return int(np.count_nonzero(newly))

    @pytest.mark.parametrize("illumination", [False, True])
    def test_matches_per_call_formula_on_a_custom_sphere(self, illumination):
        # the unit vectors are built once at import: on spheres whose masks
        # start empty, half set and reassigned, every call marks what the
        # per-call formula marks
        rng = np.random.default_rng(8)
        sph = generate_points()
        for start in (np.zeros(SPHERE_POINT_COUNT, dtype=bool),
                      rng.random(SPHERE_POINT_COUNT) < 0.5):
            mask = start.copy()
            sph.inspected = start
            for _ in range(30):
                p = rng.normal(0, 30, 3)
                theta = rng.uniform(-10, 10)
                expected = self._per_call_oracle(sph, mask, p, theta, illumination)
                assert update_inspected(sph, p, theta, illumination) == expected
                assert np.array_equal(sph.inspected, mask)

    def test_generated_points_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            generate_points().points[0, 0] = 1.0

    def test_circumnavigation_inspects_everything(self):
        sph = generate_points()
        for az in np.linspace(0.0, 2 * math.pi, 36, endpoint=False):
            pos = 30.0 * np.array([math.cos(az), 0.0, math.sin(az)])
            update_inspected(sph, pos, 0.0, False)
        assert inspected_count(sph) == 99


class TestCounting:
    def test_fresh_sphere_zero(self):
        assert inspected_count(generate_points()) == 0

    def test_all_marked(self):
        sph = generate_points()
        sph.inspected[:] = True
        assert inspected_count(sph) == 99

    def test_equals_true_flags(self):
        sph = generate_points()
        sph.inspected[::3] = True
        assert inspected_count(sph) == int(np.count_nonzero(sph.inspected))


class TestClusterDirection:
    def test_all_inspected_gives_zero_vector(self):
        sph = generate_points()
        sph.inspected[:] = True
        assert np.array_equal(nearest_uninspected_cluster(sph, [100.0, 0, 0]), np.zeros(3))

    def test_single_point_left(self):
        sph = generate_points()
        sph.inspected[:] = True
        sph.inspected[42] = False
        res = nearest_uninspected_cluster(sph, [100.0, 0, 0])
        q = sph.points[42]
        assert np.allclose(res, q / np.linalg.norm(q))

    def test_two_antipodal_groups(self, cluster_setup):
        cluster_setup(k=2)
        sph = generate_points()
        # leave only the caps around +x and -x uninspected
        unit_x = sph.points[:, 0] / SPHERE_RADIUS
        sph.inspected[:] = np.abs(unit_x) < 0.75
        group_a = sph.points[unit_x >= 0.75]
        centroid_a = group_a.mean(axis=0)
        res = nearest_uninspected_cluster(sph, [50.0, 0, 0])
        cos = np.dot(res, centroid_a / np.linalg.norm(centroid_a))
        assert math.acos(np.clip(cos, -1, 1)) < 0.2

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sph = generate_points()
            sph.inspected[:] = rng.random(99) < rng.uniform(0, 1.05)
            res = nearest_uninspected_cluster(sph, rng.normal(0, 40, 3))
            norm = np.linalg.norm(res)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        # a fresh clustering with the module seed repeats the memoized one
        sph = generate_points()
        sph.inspected[:40] = True
        a = nearest_uninspected_cluster(sph, [10.0, 20.0, 5.0])
        inspection._clusters.cache_clear()
        b = nearest_uninspected_cluster(sph, [10.0, 20.0, 5.0])
        assert np.array_equal(a, b)

    # the clustering is the paper's one setup: no k, seed, tol or max_iter
    # can be asked for, valid or not
    def test_k_validated(self):
        with pytest.raises(TypeError):
            nearest_uninspected_cluster(generate_points(), [50, 0, 0], k=0)

    @pytest.mark.parametrize("kw", [
        {"k": -1}, {"k": 2.5}, {"k": True},
        {"max_iter": -1}, {"max_iter": 2.5},
        {"tol": -1e-6}, {"tol": math.nan}, {"tol": math.inf},
        {"seed": -1}, {"seed": None},
    ])
    def test_arguments_validated(self, kw):
        with pytest.raises(TypeError):
            nearest_uninspected_cluster(generate_points(), [50, 0, 0], **kw)

    @pytest.mark.parametrize("pos", [
        [math.nan, 1.0, 2.0], [50.0, math.inf, 0.0], [50.0, 0.0],
        [50.0, 0.0, 0.0, 1.0],
    ])
    def test_deputy_position_validated(self, pos):
        sph = generate_points()
        with pytest.raises(ValueError, match="deputy position"):
            nearest_uninspected_cluster(sph, pos)
        with pytest.raises(ValueError, match="deputy position"):
            update_inspected(sph, pos, 0.0, False)
        assert inspected_count(sph) == 0


class TestClusterMemo:
    def test_matches_oracle_over_an_episode(self):
        # the sphere's mask is mutated in place between calls, as in a run
        sph = generate_points()
        hits = inspection._clusters.cache_info().hits
        changes = 0
        for i in range(120):
            az = 0.05 * i
            pos = 40.0 * np.array([math.cos(az), 0.3 * math.sin(3 * az),
                                   math.sin(az)])
            changes += update_inspected(sph, pos, 3.42 - 0.02 * i, True) > 0
            assert_same_cluster(nearest_uninspected_cluster(sph, pos),
                                kmeans_oracle(sph, pos))
        assert changes > 3
        assert 0 < inspected_count(sph) < SPHERE_POINT_COUNT
        assert inspection._clusters.cache_info().hits > hits

    def test_same_mask_different_deputy_positions(self):
        sph = generate_points()
        sph.inspected[::3] = True
        a = nearest_uninspected_cluster(sph, [50.0, 0.0, 0.0])
        b = nearest_uninspected_cluster(sph, [-50.0, 0.0, 0.0])
        assert not np.allclose(a, b)
        assert_same_cluster(a, kmeans_oracle(sph, [50.0, 0.0, 0.0]))
        assert_same_cluster(b, kmeans_oracle(sph, [-50.0, 0.0, 0.0]))

    def test_writing_a_result_leaves_later_results_alone(self):
        sph = generate_points()
        sph.inspected[:30] = True
        first = nearest_uninspected_cluster(sph, [0.0, 40.0, 10.0])
        first[:] = 99.0
        assert_same_cluster(nearest_uninspected_cluster(sph, [0.0, 40.0, 10.0]),
                            kmeans_oracle(sph, [0.0, 40.0, 10.0]))

    @staticmethod
    def _assert_calls_match_oracle(sph, rng, calls=4):
        for _ in range(calls):
            pos = rng.normal(0, 40, 3)
            assert_same_cluster(nearest_uninspected_cluster(sph, pos),
                                kmeans_oracle(sph, pos))

    def test_inspected_reassigned_and_mutated_in_place(self):
        rng = np.random.default_rng(12)
        sph = generate_points()
        self._assert_calls_match_oracle(sph, rng)
        sph.inspected = rng.random(SPHERE_POINT_COUNT) < 0.5
        self._assert_calls_match_oracle(sph, rng)
        sph.inspected[::4] = True
        self._assert_calls_match_oracle(sph, rng)
        sph.inspected[:] = False
        self._assert_calls_match_oracle(sph, rng)

    def test_two_spheres_called_alternately(self):
        # the memo is shared and keyed on the mask alone: entries of one
        # sphere never answer the other while their masks differ, and do
        # once they agree
        rng = np.random.default_rng(13)
        a, b = generate_points(), generate_points()
        a.inspected[:] = rng.random(SPHERE_POINT_COUNT) < 0.4
        b.inspected[:] = rng.random(SPHERE_POINT_COUNT) < 0.4
        for _ in range(3):
            self._assert_calls_match_oracle(a, rng, calls=2)
            self._assert_calls_match_oracle(b, rng, calls=2)
            a.inspected[rng.integers(SPHERE_POINT_COUNT)] = True
        self._assert_calls_match_oracle(a, rng, calls=1)
        b.inspected[:] = a.inspected
        misses = inspection._clusters.cache_info().misses
        self._assert_calls_match_oracle(b, rng, calls=2)
        assert inspection._clusters.cache_info().misses == misses

    @pytest.mark.parametrize("k, seed", [(6, 5), (3, 0), (4, 2**31 + 7)])
    def test_patched_seed_and_count_are_honoured(self, monkeypatch, k, seed):
        # the memo is keyed on the count and seed read at call time, and a
        # fresh clustering resets its generator to that seed's state, also
        # after a clustering with another seed used it
        rng = np.random.default_rng(14)
        sph = generate_points()
        sph.inspected[:] = rng.random(SPHERE_POINT_COUNT) < 0.3
        self._assert_calls_match_oracle(sph, rng, calls=2)
        monkeypatch.setattr(inspection, "DEFAULT_CLUSTER_COUNT", k)
        monkeypatch.setattr(inspection, "KMEANS_SEED", seed)
        self._assert_calls_match_oracle(sph, rng, calls=2)
        for _ in range(3):
            sph.inspected[rng.integers(SPHERE_POINT_COUNT)] = True
            self._assert_calls_match_oracle(sph, rng, calls=2)
        monkeypatch.undo()
        self._assert_calls_match_oracle(sph, rng, calls=2)

    def test_threads_clustering_at_once_match_the_oracle(self):
        # every fresh clustering draws from a generator of its own; threads
        # switching every few bytecodes must not mix their draws
        rng = np.random.default_rng(17)
        masks = [rng.random(SPHERE_POINT_COUNT) < 0.4 for _ in range(48)]
        pos = [30.0, -20.0, 10.0]
        expected = []
        for mask in masks:
            sph = generate_points()
            sph.inspected[:] = mask
            expected.append(kmeans_oracle(sph, pos).tobytes())
        inspection._clusters.cache_clear()
        got = [None] * len(masks)

        def work(first):
            sph = generate_points()
            for i in range(first, len(masks), 4):
                sph.inspected[:] = masks[i]
                got[i] = nearest_uninspected_cluster(sph, pos).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_memo_holds_at_most_32_entries(self):
        sph = generate_points()
        rng = np.random.default_rng(15)
        assert inspection._clusters.cache_info().maxsize == 32
        for i in range(40):
            sph.inspected[:] = rng.random(SPHERE_POINT_COUNT) < 0.5
            nearest_uninspected_cluster(sph, [50.0, 0.0, 0.0])
            assert inspection._clusters.cache_info().currsize <= 32
        assert inspection._clusters.cache_info().currsize == 32

    @pytest.mark.parametrize("closed", [False, True])
    def test_harness_logs_match_oracle(self, tmp_path, monkeypatch, closed):
        # without weights no reference experiment observes the cluster
        # direction, so fly seeded all-sensors policies
        for s in (1, 2):
            path = tmp_path / f"w{s}.json"
            mlp_save(random_policy(11, seed=s), path)
            cfg = dataclasses.replace(default_experiment(4), weights_path=str(path),
                                      max_steps=120, closed_loop=closed)
            with monkeypatch.context() as m:
                m.setattr(inspection, "nearest_uninspected_cluster",
                          kmeans_oracle)
                ref, _ = run(cfg)
            log, _ = run(cfg)
            assert len(np.unique(log.num_points)) > 2
            assert log.row_matrix().tobytes() == ref.row_matrix().tobytes()


class TestOracleProperty:
    """The memoized array-pass k-means against the loop oracle, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mask=st.lists(st.booleans(), min_size=SPHERE_POINT_COUNT,
                         max_size=SPHERE_POINT_COUNT),
           pos=st.tuples(*[st.floats(-200.0, 200.0)] * 3))
    def test_random_masks(self, mask, pos):
        sph = generate_points()
        sph.inspected[:] = mask
        assert_same_cluster(nearest_uninspected_cluster(sph, pos),
                            kmeans_oracle(sph, pos))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mask=st.lists(st.booleans(), min_size=SPHERE_POINT_COUNT,
                         max_size=SPHERE_POINT_COUNT),
           k=st.integers(1, SPHERE_POINT_COUNT), seed=st.integers(0, 2**32 - 1))
    def test_seeding_matches_rng_choice(self, mask, k, seed):
        # k-means++ seeding against the rng.choice loop on random lattice
        # masks, up to one seed per point: the same centres and the same
        # draws taken from the generator (rng.choice refuses the all-zero
        # weights the seeding no longer guards against)
        idx = np.flatnonzero(~np.array(mask))
        if not len(idx):
            return
        k = min(k, len(idx))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = inspection._kmeans_pp_init(idx, k, rng)
        assert got.T.tobytes() == _oracle_pp_init(SPHERE_POINTS[idx], k, ref_rng).tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_points_leave_a_cluster_empty(self, monkeypatch, cluster_setup, seed):
        # no lattice mask seen leaves a cluster empty, so the seeding is made
        # to draw one point k times: the tie-broken assignment then leaves
        # the repeated centres empty, each Lloyd step peeling one off, and
        # each keeps its centre as the loop oracle's does (without the guard
        # it would become 0 / 0)
        cluster_setup(k=4, seed=seed)

        def one_point(pts, k, rng):
            return np.repeat(pts[rng.integers(len(pts))][None, :], k, axis=0)

        monkeypatch.setattr(inspection, "_kmeans_pp_init",
                            lambda idx, k, rng: one_point(SPHERE_POINTS[idx], k, rng).T)
        sph = generate_points()
        sph.inspected[::3] = True
        for pos in ([50.0, 0.0, 0.0], [0.0, 50.0, 0.0], [0.0, 0.0, 50.0]):
            assert_same_cluster(nearest_uninspected_cluster(sph, pos),
                                kmeans_oracle(sph, pos, init=one_point))
        centers = np.array(inspection._clusters(sph.inspected.tobytes(), 4, seed)[0])
        assert np.isfinite(centers).all() and len(np.unique(centers, axis=0)) == 4

    def test_antipodal_fallback(self, monkeypatch):
        # a cluster balanced about the origin has no direction; no lattice
        # mask seen yields one, so the clustering is made to return it: the
        # direction falls back to the nearest uninspected point
        monkeypatch.setattr(inspection, "_clusters",
                            lambda mask_key, count, seed: (((0.0, 0.0, 0.0),), (None,)))
        sph = generate_points()
        unit_x = SPHERE_POINTS[:, 0] / SPHERE_RADIUS
        sph.inspected[:] = np.abs(unit_x) < 0.9
        pts = SPHERE_POINTS[~sph.inspected]
        for pos in ([-50.0, 3.0, 0.0], [50.0, 0.0, 1.0]):
            res = nearest_uninspected_cluster(sph, pos)
            q = pts[np.argmin(np.linalg.norm(pts - pos, axis=1))]
            assert res.tobytes() == (q / np.linalg.norm(q)).tobytes()
            assert math.copysign(1.0, res[0]) == math.copysign(1.0, pos[0])

    @pytest.mark.parametrize("k", [1, 6, 8])
    def test_single_uninspected_point(self, cluster_setup, k):
        cluster_setup(k=k)
        sph = generate_points()
        sph.inspected[:] = True
        sph.inspected[17] = False
        q = sph.points[17] / np.linalg.norm(sph.points[17])
        for pos in ([100.0, 0.0, 0.0], [-3.0, 40.0, 12.0]):
            res = nearest_uninspected_cluster(sph, pos)
            assert_same_cluster(res, kmeans_oracle(sph, pos))
            assert np.allclose(res, q)


def test_summation_order_identities():
    # the cluster direction is bit-identical to its loop form only while
    # numpy sums a last axis of three as x + y + z and np.linalg.norm of a
    # 1-D array is sqrt(p . p); a numpy that reorders either fails here
    rng = np.random.default_rng(0)

    def sample(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    a, b = sample(20000, 3), sample(20000, 3)
    assert (inspection._sq_dist(a.T, b.T).tobytes()
            == np.sum((a - b) ** 2, axis=-1).tobytes())
    pts, centers = sample(59, 3), sample(6, 3)
    assert (inspection._sq_dist(pts.T[:, None, :], centers.T[:, :, None]).tobytes()
            == np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2).T.tobytes())
    for p in a[:2000]:
        assert math.sqrt(p.dot(p)) == np.linalg.norm(p)

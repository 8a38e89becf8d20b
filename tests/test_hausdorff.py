import itertools
import math
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigeo.errors import (
    DegenerateRegionError,
    DomainError,
    InsufficientScaleError,
    SparseCloudError,
    UsageError,
)
from sigeo.hausdorff import (
    FLAT_LEVELS,
    FLAT_POINTS,
    ArcCloud,
    MetricCloud,
    _distinct_rows,
    _flat_net_size,
    _grid,
    _pair_blocks,
    _region_rule,
    alpha_k,
    cloud_from_params,
    covering_profile,
    flat_region_dimension_estimate,
    greedy_cover,
    halving_schedule,
    hausdorff_dimension_estimate,
    hausdorff_measure_estimate,
    hausdorff_monotonicity_check,
    jeffrey_density,
    jeffrey_measure,
    jeffrey_vs_hausdorff_check,
    region_cloud,
)
from sigeo import fisher, hausdorff
from sigeo.distance import _segment_lengths
from sigeo.fisher import JET_NODE_BUDGET, fisher_matrix
from sigeo.markov import binning_kernel, permutation_kernel
from sigeo.models import (
    Box,
    ParamModel,
    bernoulli_family,
    categorical_family,
    gaussian_location2d_family,
    gaussian_location_family,
    gaussian_location_scale_family,
    gaussian_mixture,
    reparameterized_model,
)

BERN = bernoulli_family()
CAT3 = categorical_family(3)
ARC = 2 * (math.asin(math.sqrt(0.75)) - math.asin(math.sqrt(0.25)))


# -- volume normalizer ---------------------------------------------------------

def test_alpha_k_unit_ball_volumes():
    assert alpha_k(0) == pytest.approx(1.0, abs=1e-12)
    assert alpha_k(1) == pytest.approx(2.0, abs=1e-12)
    assert alpha_k(2) == pytest.approx(math.pi, abs=1e-12)
    assert alpha_k(3) == pytest.approx(4 * math.pi / 3, abs=1e-12)


def test_alpha_k_rejects_negative():
    for k in (-0.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            alpha_k(k)


# -- covering ---------------------------------------------------------------------

def euclid_cloud(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    return MetricCloud(pts, d)


def matrix(cloud):
    """A cloud's distance matrix; an arc cloud's is |s_i - s_j|, built here."""
    if isinstance(cloud, ArcCloud):
        return np.abs(cloud.s[:, None] - cloud.s[None, :])
    return cloud.dist


def test_single_point_covering():
    cloud = MetricCloud([[0.0]], [[0.0]])
    for delta in (0.1, 1.0, 10.0):
        assert len(greedy_cover(cloud, delta)) == 1


def test_two_points_one_ball():
    cloud = euclid_cloud([[0.0], [1.0]])
    assert len(greedy_cover(cloud, 2.0)) == 1  # radius 1 >= distance
    assert len(greedy_cover(cloud, 0.5)) == 2


def test_uniform_line_count_within_factor_two():
    pts = np.linspace(0, 1, 401)[:, None]
    cloud = euclid_cloud(pts)
    for delta in (0.25, 0.1, 0.05):
        n = len(greedy_cover(cloud, delta))
        assert math.ceil(1.0 / delta) <= n <= 2 * math.ceil(1.0 / delta) + 1


def test_greedy_sets_have_bounded_diameter():
    rng = np.random.default_rng(0)
    cloud = euclid_cloud(rng.uniform(0, 1, size=(60, 2)))
    for members, diam in greedy_cover(cloud, 0.3):
        assert diam <= 0.3 + 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_covering_profile_monotone_in_delta(seed):
    # raw greedy nets can lose monotonicity by a set or two; the profile
    # reuses finer covers at coarser scales, which restores it exactly
    rng = np.random.default_rng(seed)
    cloud = euclid_cloud(rng.uniform(0, 1, size=(40, 2)))
    deltas = np.sort(rng.uniform(0.05, 1.5, size=6))[::-1]
    _, counts, _ = covering_profile(cloud, deltas)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    raw = [len(greedy_cover(cloud, d)) for d in deltas]
    assert all(c <= r for c, r in zip(counts, raw))


# -- cloud distances and scale schedules ---------------------------------------------

def test_segment_cloud_entries_are_two_node_curve_lengths():
    # 25 mixture points make 300 pairs, more than one chunk of the pair loop
    rng = np.random.default_rng(3)
    for model, pts in (
        (categorical_family(3), np.clip(rng.dirichlet([2.0] * 3, size=12)[:, :2], 0.05, 0.9)),
        (gaussian_mixture(), np.column_stack([rng.uniform(0.1, 0.9, 25), rng.uniform(-3, 3, 25)])),
    ):
        cloud = cloud_from_params(model, pts, mode="segment")
        for i, j in itertools.combinations(range(len(pts)), 2):
            ends = np.array([pts[i], pts[j]])
            # a segment's length does not depend on the stack it came in
            assert cloud.dist[i, j] == _segment_lengths(model, ends, 4)[0]


def test_two_parameter_cloud_must_name_its_mode():
    with pytest.raises(UsageError):
        cloud_from_params(gaussian_mixture(), [[0.2, -0.5], [0.6, 0.5], [0.4, 0.0]])


def test_midpoint_cloud_is_the_one_point_rule():
    loc2 = gaussian_location2d_family()
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(30, 2))
    cloud = cloud_from_params(loc2, pts, mode="midpoint")
    for i, j in itertools.combinations(range(len(pts)), 2):
        v = pts[j] - pts[i]
        G = fisher_matrix(loc2, 0.5 * (pts[i] + pts[j])).matrix
        assert cloud.dist[i, j] == pytest.approx(np.sqrt(v @ G @ v), rel=1e-14, abs=0)
    # the model's quadrature gives G = I only to about 2e-8
    np.testing.assert_allclose(cloud.dist, euclid_cloud(pts).dist, rtol=1e-7, atol=0)


def _pairs(pts):
    ii, jj = np.triu_indices(len(pts), k=1)
    return ii, jj, pts[ii] + 0.5 * (pts[jj] - pts[ii])


def test_midpoint_cloud_assembles_g_once_per_distinct_midpoint():
    loc2 = gaussian_location2d_family()
    rows = []

    def jet(thetas):
        rows.append(len(thetas))
        return loc2.jet(thetas)

    counting = ParamModel(loc2.name, loc2.domain, loc2.space, jet_fn=jet)
    pts = _grid(np.array([-1.0, -1.0]), np.array([0.6, 0.6]), 12)  # a cover workload cloud
    cloud = cloud_from_params(counting, pts, mode="midpoint")
    ii, _, mids = _pairs(pts)
    distinct = np.unique(mids, axis=0)
    assert ii.size == 10296 and sum(rows) == len(distinct) < ii.size // 2
    assert len(rows) > 1 and max(rows) * loc2.space.size <= fisher.JET_ENTRY_BUDGET
    np.testing.assert_array_equal(cloud.dist, cloud_from_params(loc2, pts, mode="midpoint").dist)


def _unique_midpoint_matrix(model, pts):
    """The midpoint cloud's matrix as built before the lexsort dedupe: both
    passes through ``np.unique(axis=0, return_inverse=True)``."""
    M, n = pts.shape
    size = max(1, fisher.JET_NODE_BUDGET // n)
    local = [
        np.unique(pts[ii] + 0.5 * (pts[jj] - pts[ii]), axis=0, return_inverse=True)
        for ii, jj in _pair_blocks(M, size)
    ]
    mids, where = np.unique(
        np.concatenate([pts[:0], *(u for u, _ in local)]), axis=0, return_inverse=True
    )
    G = fisher.fisher_matrices(model, mids)
    starts = np.cumsum([0, *(len(u) for u, _ in local)])
    index = [where.ravel()[start + inverse.ravel()] for start, (_, inverse) in zip(starts, local)]
    d = np.zeros((M, M))
    for (ii, jj), idx in zip(_pair_blocks(M, size), index):
        v = pts[jj] - pts[ii]
        d[ii, jj] = d[jj, ii] = np.sqrt(np.maximum(np.einsum("pi,pij,pj->p", v, G[idx], v), 0.0))
    return d


def _lattice_points():
    # repeated points and midpoints, negative coordinates and zeros
    rng = np.random.default_rng(3)
    return rng.integers(-4, 5, size=(60, 2)) * 0.25


@pytest.mark.parametrize("budget", [JET_NODE_BUDGET, 500])
@pytest.mark.parametrize("pts", [
    _grid(np.array([-1.0, -1.0]), np.array([0.6, 0.6]), 12),
    _lattice_points(),
], ids=["grid", "lattice"])
def test_midpoint_cloud_matches_the_unique_dedupe_bitwise(pts, budget, monkeypatch):
    monkeypatch.setattr(fisher, "JET_NODE_BUDGET", budget)
    loc2 = gaussian_location2d_family()
    cloud = cloud_from_params(loc2, pts, mode="midpoint")
    np.testing.assert_array_equal(cloud.dist, _unique_midpoint_matrix(loc2, pts))


def test_distinct_rows_are_unique_rows_with_their_inverse():
    rng = np.random.default_rng(4)
    ii, jj = np.triu_indices(60, k=1)
    lattice = _lattice_points()
    for a in (lattice, lattice[ii] + 0.5 * (lattice[jj] - lattice[ii]), rng.normal(size=(50, 3)), np.empty((0, 2))):
        rows, inverse = _distinct_rows(a)
        ref_rows, ref_inverse = np.unique(a, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(inverse, ref_inverse.ravel())
        np.testing.assert_array_equal(rows[inverse], a)
    assert len(_distinct_rows(lattice)[0]) < len(lattice)


def test_mixture_midpoint_cloud_is_the_one_point_segment_rule_across_b0():
    mix = gaussian_mixture()
    pts = _grid(np.array([0.2, -0.8]), np.array([0.8, 1.0]), 10)  # straddles b = 0
    cloud = cloud_from_params(mix, pts, mode="midpoint")
    ii, jj, _ = _pairs(pts)
    ref = np.concatenate([
        _segment_lengths(mix, np.stack([pts[ii[s:s + 500]], pts[jj[s:s + 500]]], axis=1), 1)[:, 0]
        for s in range(0, ii.size, 500)
    ])
    assert np.min(np.abs(pts[:, 1])) < 0.2 < np.max(pts[:, 1])
    np.testing.assert_allclose(cloud.dist[ii, jj], ref, rtol=1e-12, atol=0)


# -- bounded memory: matrix checks and builders in budget-sized blocks ----------------

def _old_mesh(d):
    """The mesh as computed before the row-block scan."""
    return float(np.max(np.min(d + np.diag(np.full(len(d), np.inf)), axis=1)))


def test_region_cloud_and_its_estimates_hold_no_matrix():
    # A Jeffrey-vs-Hausdorff cloud on gauss-location: 1601 arc coordinates,
    # where a distance matrix would take 20.5 MB. Building it takes jets
    # of the entry budget, about 0.8 MB; covering it a few arrays of M.
    loc = gaussian_location_family()
    M = 1601
    tracemalloc.start()
    try:
        cloud = region_cloud(loc, [-1.0], [1.0], M)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        hausdorff_dimension_estimate(cloud)
        halving_schedule(cloud, 8, 100.0)
        _, scan_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.s.nbytes == M * 8
    assert build_peak <= 10**6 and scan_peak <= 32 * M * 8


def test_arc_cloud_measures_its_polyline_in_bounded_slices(monkeypatch):
    # 200 000 bernoulli points go in 4 slices of 50 000 segments; one call
    # over the whole polyline peaked at 33.6 MB of traced memory, the slices
    # at 12.8 MB. A 1601-point Jeffrey-vs-Hausdorff cloud stays one slice.
    calls = []

    def counting(model, nodes, quad_points):
        calls.append(len(nodes) - 1)
        return _segment_lengths(model, nodes, quad_points)

    monkeypatch.setattr(hausdorff, "_segment_lengths", counting)
    pts = np.linspace(0.25, 0.75, 200_000)[:, None]
    tracemalloc.start()
    try:
        cloud = cloud_from_params(BERN, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [50_000] * 3 + [49_999] and peak <= 16 * 10**6
    whole = np.cumsum(np.concatenate([[0.0], _segment_lengths(BERN, pts, 4)]))
    np.testing.assert_array_equal(cloud.s, whole)
    calls.clear()
    region_cloud(gaussian_location_family(), [-1.0], [1.0], 1601)
    assert calls == [1600]


def test_arc_cloud_estimates_never_read_its_matrix():
    # an arc cloud has no distance matrix to read
    assert not hasattr(ArcCloud, "dist")
    for model, lo, hi in ((BERN, 0.25, 0.75), (gaussian_location_family(), -1.0, 1.0)):
        res = jeffrey_vs_hausdorff_check(model, ([lo], [hi]))
        assert res["rel_err"] < 0.05
        cloud = cloud_from_params(model, np.linspace(lo, hi, 801)[:, None])
        assert isinstance(cloud, ArcCloud) and not hasattr(cloud, "dist")
        assert abs(hausdorff_dimension_estimate(cloud) - 1.0) <= 0.15


def test_clouds_do_not_depend_on_the_block_size(monkeypatch):
    loc, mix = gaussian_location_family(), gaussian_mixture()
    grid_cat = _grid(np.array([0.1, 0.1]), np.array([0.5, 0.4]), 12)
    grid_mix = _grid(np.array([0.3, -0.5]), np.array([0.7, 0.4]), 6)
    cases = [
        (loc, np.random.default_rng(7).uniform(-1.5, 1.5, (301, 1)), "cumulative"),
        (mix, grid_mix, "segment"),
        (CAT3, grid_cat, "segment"),
        (mix, grid_mix, "midpoint"),
        (CAT3, grid_cat, "midpoint"),
    ]
    ref = [cloud_from_params(model, pts, mode=mode) for model, pts, mode in cases]
    # gauss-location and mixture get one segment per jet call, midpoint
    # clouds 2500 pairs per block
    monkeypatch.setattr(fisher, "JET_ENTRY_BUDGET", 5000)
    monkeypatch.setattr(fisher, "JET_NODE_BUDGET", 5000)
    for (model, pts, mode), r in zip(cases, ref):
        cloud = cloud_from_params(model, pts, mode=mode)
        assert cloud.mesh() == r.mesh() == _old_mesh(matrix(r))
        # segment lengths do not depend on how many segments a call holds,
        # so cumulative sums over them do not either
        np.testing.assert_array_equal(matrix(cloud), matrix(r))


def _line_matrix(M):
    pts = np.arange(float(M))[:, None]
    return pts, np.abs(pts - pts.T)


@pytest.mark.parametrize("entry, value, message", [
    ((10, 9), 1.0 + 1e-9, "symmetric"),
    ((10, 9), float("nan"), "nonnegative"),
    ((10, 9), -1.0, "nonnegative"),
    ((10, 10), 1e-300, "diagonal"),
], ids=["asymmetric", "nan", "negative", "diagonal"])
def test_cloud_checks_reach_the_last_row_block(monkeypatch, entry, value, message):
    monkeypatch.setattr(fisher, "JET_NODE_BUDGET", 33)  # rows 0-2, 3-5, 6-8, 9-10
    pts, d = _line_matrix(11)
    d[entry] = value
    if message != "symmetric":
        d[entry[::-1]] = value
    with pytest.raises(UsageError, match=message):
        MetricCloud(pts, d)


def test_cloud_rejects_nan_and_negative_distances():
    nan = float("nan")
    with pytest.raises(UsageError, match="nonnegative"):
        MetricCloud([[0.0], [1.0], [2.0]], [[0, nan, 1], [nan, 0, 1], [1, 1, 0]])
    with pytest.raises(UsageError, match="nonnegative"):
        MetricCloud([[0.0], [1.0]], [[0, -1], [-1, 0]])


def test_blocked_mesh_is_the_old_mesh_bitwise(monkeypatch):
    rng = np.random.default_rng(8)
    clouds = [euclid_cloud(rng.uniform(0, 1, size=(M, 2))) for M in (2, 3, 17, 40)]
    pts, d = _line_matrix(11)
    d[10, 9] = d[9, 10] = 2.5  # the largest gap sits in the last row block
    d[10, 8] = d[8, 10] = 2.75
    for budget in (1, 33, JET_NODE_BUDGET):
        monkeypatch.setattr(fisher, "JET_NODE_BUDGET", budget)
        for cloud in clouds + [MetricCloud(pts, d)]:
            assert MetricCloud(cloud.points, cloud.dist).mesh() == _old_mesh(cloud.dist)
    assert MetricCloud(pts, d).mesh() == 2.5


@pytest.mark.parametrize("model, pts, mode", [
    (BERN, [[0.3]], "cumulative"),
    (BERN, [[0.3], [0.6]], "cumulative"),
    (CAT3, [[0.3, 0.3]], "segment"),
    (CAT3, [[0.3, 0.3], [0.2, 0.5]], "segment"),
    (CAT3, [[0.3, 0.3]], "midpoint"),
    (CAT3, [[0.3, 0.3], [0.2, 0.5]], "midpoint"),
], ids=["cumulative-1", "cumulative-2", "segment-1", "segment-2", "midpoint-1", "midpoint-2"])
def test_one_and_two_point_clouds(model, pts, mode):
    cloud = cloud_from_params(model, pts, mode=mode)
    d = matrix(cloud)
    if cloud.size == 1:
        assert d.tolist() == [[0.0]] and cloud.mesh() == 0.0 == cloud.diameter()
    else:
        assert d[0, 1] == d[1, 0] == cloud.mesh() == cloud.diameter() > 0


def test_halving_schedule_matches_reference_loops():
    # The three hand-written schedules halving_schedule replaced.
    def jeffrey_check_loop(diam, mesh):
        deltas, d = [], diam / 4.0
        floor = max(100.0 * mesh, 1e-12)
        while d >= floor and len(deltas) < 8:
            deltas.append(d)
            d /= 2.0
        return deltas

    def own_scale_list(diam, mesh):
        floor = max(4.5 * mesh, 1e-12)
        return [d for d in (diam / 4.0, diam / 8.0, diam / 16.0) if d >= floor]

    def cli_loop(diam, mesh, levels):
        deltas, d = [], diam / 4.0
        floor = max(4.0 * mesh, 1e-12)
        while d >= floor and len(deltas) < levels:
            deltas.append(d)
            d /= 2.0
        return deltas

    rng = np.random.default_rng(11)
    draws = [(10.0 ** rng.uniform(-13.0, 3.0), 10.0 ** rng.uniform(-4.0, 0.0)) for _ in range(2000)]
    # scales landing exactly on a floor: diam/8 = 4 * 0.25 = 100 * 0.01, diam/4 = 1e-12
    boundary = [(8.0, 0.25 / 8.0), (8.0, 0.01 / 8.0), (4e-12, 0.0)]
    for diam, mesh_frac in boundary + [(d, 0.0) for d, _ in draws[:100]] + draws:
        mesh = diam * mesh_frac
        levels = int(rng.integers(0, 10))
        cloud = SimpleNamespace(diameter=lambda: diam, mesh=lambda: mesh)
        assert halving_schedule(cloud, 8, 100.0).tolist() == jeffrey_check_loop(diam, mesh)
        assert halving_schedule(cloud, 3, 4.5).tolist() == own_scale_list(diam, mesh)
        assert halving_schedule(cloud, levels, 4.0).tolist() == cli_loop(diam, mesh, levels)


def test_halving_schedule_stops_at_the_floor_for_any_level_count():
    # 2.0 ** np.arange(10 ** 12) would need 8 TB; the floor stops the halving first
    for diam, mesh in ((1.0, 0.0), (1e300, 1e-300), (5.0, 0.01)):
        cloud = SimpleNamespace(diameter=lambda: diam, mesh=lambda: mesh)
        full = halving_schedule(cloud, 10 ** 12, 4.0)
        assert 0 < full.size < 1100
        assert full.tolist() == halving_schedule(cloud, full.size, 4.0).tolist()
        assert full[-1] / 2.0 < max(4.0 * mesh, 1e-12) <= full[-1]
    assert halving_schedule(SimpleNamespace(diameter=lambda: np.inf, mesh=lambda: 0.0), 10 ** 12, 4.0).size == 0


# -- measure estimates --------------------------------------------------------------

def bern_cloud(n=1201):
    params = np.linspace(0.25, 0.75, n)[:, None]
    return cloud_from_params(BERN, params)


def test_h1_estimate_matches_fisher_length():
    cloud = bern_cloud()
    deltas = [cloud.diameter() / 4 / 2**j for j in range(3)]
    report = hausdorff_measure_estimate(cloud, 1.0, deltas=np.asarray(deltas))
    assert report.estimate == pytest.approx(ARC, rel=0.05)
    assert report.stable


def test_high_k_estimate_decays():
    cloud = bern_cloud(401)
    deltas = np.asarray([cloud.diameter() / 4 / 2**j for j in range(4)])
    report = hausdorff_measure_estimate(cloud, 2.0, deltas=deltas, enforce_density=False)
    assert report.premeasures[-1] < report.premeasures[0] / 4
    assert report.estimate < 0.2


def test_low_k_estimate_diverges_and_flags():
    cloud = bern_cloud(401)
    deltas = np.asarray([cloud.diameter() / 4 / 2**j for j in range(4)])
    report = hausdorff_measure_estimate(cloud, 0.5, deltas=deltas, enforce_density=False)
    assert report.premeasures[-1] > 1.5 * report.premeasures[0]
    assert not report.stable


def test_sparse_cloud_raises():
    cloud = bern_cloud(21)
    with pytest.raises(SparseCloudError):
        hausdorff_measure_estimate(cloud, 1.0, deltas=np.asarray([cloud.mesh()]))
    with pytest.raises(SparseCloudError):
        hausdorff_measure_estimate(cloud, 1.0, deltas=halving_schedule(cloud, 6, 100.0))


def test_counting_measure_at_k_zero():
    cloud = bern_cloud(101)
    report = hausdorff_measure_estimate(
        cloud, 0.0, deltas=np.asarray([cloud.mesh() * 0.5]), enforce_density=False
    )
    assert report.estimate == pytest.approx(101)


# -- dimension ------------------------------------------------------------------------

def test_dimension_of_segment_cloud():
    dim = hausdorff_dimension_estimate(bern_cloud())
    assert abs(dim - 1.0) <= 0.15


def test_dimension_single_point():
    assert hausdorff_dimension_estimate(MetricCloud([[0.3]], [[0.0]])) == 0.0


def test_dimension_needs_scales():
    cloud = euclid_cloud([[0.0], [1.0], [2.0]])
    with pytest.raises(InsufficientScaleError):
        hausdorff_dimension_estimate(cloud)


def _reference_greedy_cover(cloud, delta):
    """greedy_cover as written when covering_profile called it at every
    scale: the lexsort per call, and every set's diameter."""
    order = np.lexsort(cloud.points.T[::-1])
    covered = np.zeros(cloud.size, dtype=bool)
    sets = []
    r = 0.5 * float(delta)
    for idx in order:
        if covered[idx]:
            continue
        members = np.nonzero(~covered & (cloud.dist[idx] <= r))[0]
        covered[members] = True
        diam = float(np.max(cloud.dist[np.ix_(members, members)])) if members.size > 1 else 0.0
        sets.append((members, diam))
    return sets


def _reference_covering_profile(cloud, deltas, k=None):
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    ak = alpha_k(k) if k is not None else None
    raw_counts = []
    pres = [] if ak is not None else None
    for d in deltas:
        sets = _reference_greedy_cover(cloud, d)
        raw_counts.append(len(sets))
        if ak is not None:
            pres.append(ak * float(np.sum([(0.5 * diam) ** k for _, diam in sets])))
    counts = np.minimum.accumulate(np.asarray(raw_counts)[::-1])[::-1]
    return deltas, counts, np.asarray(pres) if pres is not None else None


@pytest.mark.parametrize("kind", ["cumulative-1d", "midpoint-2d"])
def test_covers_are_the_reference_covers_bitwise(kind, monkeypatch):
    if kind == "cumulative-1d":
        cloud = bern_cloud()
    else:
        box = _grid(np.array([0.2, -0.4]), np.array([0.7, 0.4]), 18)
        cloud = cloud_from_params(gaussian_mixture(), box, mode="midpoint")
    # the references read the matrix, so an arc cloud's is built once
    ref = MetricCloud(cloud.points, matrix(cloud))
    deltas = cloud.diameter() / np.sqrt(2.0) ** np.arange(1, 12)
    for delta in deltas[::3]:
        for (members, diam), (ref_members, ref_diam) in zip(
            greedy_cover(cloud, delta), _reference_greedy_cover(ref, delta), strict=True
        ):
            np.testing.assert_array_equal(members, ref_members)
            assert diam == ref_diam
    for k in (None, 0.5, 1.0, 2.0):
        got, want = covering_profile(cloud, deltas, k=k), _reference_covering_profile(ref, deltas, k=k)
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    reports = [hausdorff_measure_estimate(cloud, 1.0, deltas[:3], enforce_density=False)]
    dims = [hausdorff_dimension_estimate(cloud)]
    monkeypatch.setattr(hausdorff, "covering_profile", _reference_covering_profile)
    reports.append(hausdorff_measure_estimate(ref, 1.0, deltas[:3], enforce_density=False))
    dims.append(hausdorff_dimension_estimate(ref))
    got, want = reports
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.premeasures.tobytes() == want.premeasures.tobytes()
    assert (got.estimate, got.stable) == (want.estimate, want.stable)
    assert dims[0] == dims[1]


def _random_arc_cloud(rng):
    """Points with tied parameters in shuffled index order, and arc
    coordinates with ties, gaps from 1e-8 to 1e6 and an offset that makes
    their differences round."""
    M = int(rng.integers(2, 90))
    step = rng.random(M - 1) < 0.8  # False where the next parameter ties
    gaps = np.where(step, 10.0 ** rng.uniform(-8.0, 6.0, M - 1), 0.0)
    gaps[rng.random(M - 1) < 0.1] = 0.0  # equal coordinates at distinct parameters
    offset = rng.choice([0.0, 12345.678, -7.25e5, 3.3e-4])
    theta = np.concatenate([[0.0], np.cumsum(step)]) * 0.01
    s = offset + np.concatenate([[0.0], np.cumsum(gaps)])
    perm = rng.permutation(M)
    return ArcCloud(theta[perm, None], s[perm])


def _boundary_scales(cloud, rng):
    """Cover scales 2 r for radii r that are rounded coordinate differences,
    their floating-point neighbours, and scales beyond the diameter."""
    s = cloud.s
    i, j = rng.integers(0, cloud.size, (2, 8))
    r = np.abs(s[i] - s[j])
    r = np.concatenate([r, np.nextafter(r, 0.0), np.nextafter(r, np.inf), [1e-300, 2e6]])
    return 2.0 * np.unique(r[r > 0])


def test_arc_cloud_is_its_matrix_cloud_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(50):
        cloud = _random_arc_cloud(rng)
        ref = MetricCloud(cloud.points, matrix(cloud))
        assert cloud.mesh() == ref.mesh() and cloud.diameter() == ref.diameter()
        deltas = _boundary_scales(cloud, rng)
        for delta in deltas:
            got, want = greedy_cover(cloud, delta), greedy_cover(ref, delta)
            assert len(got) == len(want)
            for (members, diam), (ref_members, ref_diam) in zip(got, want):
                np.testing.assert_array_equal(members, ref_members)
                assert diam == ref_diam
        for k in (None, 0.5, 1.0):
            got, want = covering_profile(cloud, deltas, k=k), covering_profile(ref, deltas, k=k)
            for a, b in zip(got, want):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_arc_cloud_ball_keeps_the_point_at_rounded_distance_r():
    # 1.8 - 0.4 rounds to 1.4, but 0.4 + 1.4 rounds below 1.8: a threshold
    # on s alone would leave 1.8 out of the ball a matrix row puts it in
    assert 1.8 - 0.4 == 1.4 and 0.4 + 1.4 < 1.8
    cloud = ArcCloud([[0.0], [1.0]], [0.4, 1.8])
    assert [m.tolist() for m, _ in greedy_cover(cloud, 2.8)] == [[0, 1]]


def test_arc_cloud_checks_its_coordinates():
    with pytest.raises(UsageError, match="one per point"):
        ArcCloud([[0.0], [1.0]], [0.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(UsageError, match="finite"):
            ArcCloud([[0.0], [1.0]], [0.0, bad])
    with pytest.raises(UsageError, match="nondecreasing"):
        ArcCloud([[1.0], [0.0]], [0.0, 1.0])  # decreasing in parameter order
    # ties in the parameter go in index order, as the greedy cover picks them
    ArcCloud([[0.0], [0.0]], [0.0, 1.0])
    with pytest.raises(UsageError, match="nondecreasing"):
        ArcCloud([[0.0], [0.0]], [1.0, 0.0])


def test_flat_region_dimension_2d():
    loc2 = gaussian_location2d_family()
    dim = flat_region_dimension_estimate(loc2, ([-1.0, -1.0], [1.0, 1.0]), seed=1)
    assert abs(dim - 2.0) <= 0.2


@pytest.mark.parametrize("region", [([1.0, 1.0], [-1.0, -1.0]), ([math.nan, -1.0], [1.0, 1.0])])
def test_region_readers_refuse_a_reversed_region(region):
    loc2 = gaussian_location2d_family()
    for read in (jeffrey_measure, flat_region_dimension_estimate, jeffrey_vs_hausdorff_check):
        with pytest.raises(UsageError, match="region must satisfy lo <= hi componentwise"):
            read(loc2, region)


def test_flat_region_of_a_point_has_dimension_zero(capfd):
    # zero diameter: no cover scale exists, so nothing is sampled or fitted
    assert flat_region_dimension_estimate(gaussian_location_family(), ([0.5], [0.5])) == 0.0
    assert flat_region_dimension_estimate(gaussian_location2d_family(), ([0.2, -0.3], [0.2, -0.3])) == 0.0
    assert capfd.readouterr() == ("", "")


def test_flat_region_of_a_segment_keeps_its_value():
    # one zero-width axis: the net still covers a segment of positive length
    loc2 = gaussian_location2d_family()
    assert flat_region_dimension_estimate(loc2, ([-1.0, -1.0], [1.0, -1.0])) == 1.0000000000000002


def _flat_dimension_by_per_point_loop(model, lo, hi, seed):
    """flat_region_dimension_estimate as written before its net skipped
    covered points: the tree on unsorted points, and a Python loop over
    every point in lexicographic order at each scale."""
    from scipy.spatial import cKDTree

    G0 = fisher_matrix(model, 0.5 * (lo + hi)).matrix
    eigs, U = np.linalg.eigh(G0)
    root = U @ np.diag(np.sqrt(eigs)) @ U.T
    rng = np.random.default_rng(seed)
    pts = (lo + (hi - lo) * rng.random((FLAT_POINTS, lo.size))) @ root.T
    tree = cKDTree(pts)
    diam = float(np.linalg.norm((hi - lo) @ root.T))
    deltas = diam / 6.0 / np.sqrt(2.0) ** np.arange(FLAT_LEVELS)
    order = np.lexsort(pts.T[::-1])
    counts = []
    for delta in deltas:
        covered = np.zeros(len(pts), dtype=bool)
        count = 0
        r = 0.5 * delta
        for idx in order:
            if covered[idx]:
                continue
            covered[tree.query_ball_point(pts[idx], r)] = True
            count += 1
        counts.append(count)
    return float(np.polyfit(np.log(1.0 / deltas), np.log(counts), 1)[0])


@pytest.mark.parametrize("seed, lo", [(1, [-1.0, -1.0]), (20260, [-1.15, -0.85])])
def test_flat_region_net_matches_the_per_point_loop_bitwise(seed, lo):
    loc2 = gaussian_location2d_family()
    lo = np.array(lo)
    dim = flat_region_dimension_estimate(loc2, (lo, lo + 2.0), seed=seed)
    assert dim == _flat_dimension_by_per_point_loop(loc2, lo, lo + 2.0, seed)


def _tree_net_sizes(pts, radii):
    """Greedy net sizes over lexicographically sorted points as the flat
    net counted them with scipy's k-d tree: one ball query per
    representative."""
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    sizes = []
    for r in radii:
        covered = np.zeros(len(pts), dtype=bool)
        count = idx = 0
        while not covered[idx]:
            covered[tree.query_ball_point(pts[idx], r)] = True
            count += 1
            idx += int(np.argmin(covered[idx:]))
        sizes.append(count)
    return sizes


def _flat_cloud(model, lo, hi, seed):
    """The lexicographically sorted G^(1/2)-mapped points and the scales of
    flat_region_dimension_estimate."""
    G0 = fisher_matrix(model, 0.5 * (lo + hi)).matrix
    eigs, U = np.linalg.eigh(G0)
    root = U @ np.diag(np.sqrt(eigs)) @ U.T
    pts = (lo + (hi - lo) * np.random.default_rng(seed).random((FLAT_POINTS, lo.size))) @ root.T
    diam = float(np.linalg.norm((hi - lo) @ root.T))
    return pts[np.lexsort(pts.T[::-1])], diam / 6.0 / np.sqrt(2.0) ** np.arange(FLAT_LEVELS)


def _sheared_location2d():
    """gauss-location-2d through a fixed linear map A: constant G = A^T A,
    so G^(1/2) is not I."""
    A = np.array([[0.6, 0.3], [-0.2, 0.5]])
    return reparameterized_model(
        gaussian_location2d_family(),
        lambda us: us @ A.T,
        lambda us: np.broadcast_to(A.T, (len(us), 2, 2)),
        Box([-1.0, -1.0], [1.0, 1.0]),
    )


@pytest.mark.parametrize("build, lo, hi, seed", [
    (_sheared_location2d, [-1.0, -1.0], [1.0, 1.0], 3),
    (gaussian_location_family, [-1.0], [1.0], 5),
    # a flat first axis: every mapped first coordinate ties, so the
    # lexicographic order needs the second
    (gaussian_location2d_family, [0.3, -1.0], [0.3, 1.0], 2),
], ids=["sheared-2d", "location-1d", "tied-first-axis"])
def test_flat_net_sizes_are_the_tree_net_sizes_at_every_scale(build, lo, hi, seed):
    model, lo, hi = build(), np.array(lo), np.array(hi)
    pts, deltas = _flat_cloud(model, lo, hi, seed)
    sizes = _tree_net_sizes(pts, 0.5 * deltas)
    assert [_flat_net_size(pts, 0.5 * d) for d in deltas] == sizes
    slope = float(np.polyfit(np.log(1.0 / deltas), np.log(sizes), 1)[0])
    assert flat_region_dimension_estimate(model, (lo, hi), seed=seed) == slope


def _reach(r):
    """How far past a ball's centre, along the first axis, the flat net's
    sweep looks for members."""
    return r * (1.0 + 1e-6) + 1e-150


def _crafted_lattice(r, n):
    """Axis values spaced exactly r and exactly the sweep's reach apart,
    from 0, so points sit on slice ends and ball edges alike."""
    reach = _reach(r)
    axis = np.unique(np.concatenate([np.arange(9) * r, np.arange(9) * reach, np.arange(9) * reach + r]))
    pts = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    return pts[np.lexsort(pts.T[::-1])]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0.25, 0.1])  # exact in binary, and not
def test_flat_net_keeps_ball_edges_and_cell_boundaries(n, r):
    pts = _crafted_lattice(r, n)
    radii = [r, r * (1 - 2**-40), 2 * r, _reach(r)]
    assert [_flat_net_size(pts, rad) for rad in radii] == _tree_net_sizes(pts, radii)


def test_flat_net_reaches_past_r_along_the_first_axis():
    # A centre half an ulp of r above 0 and a point one ulp above r differ
    # by r once rounded to even, though their first coordinates lie more
    # than r apart and the centre plus r rounds back to r. Squares below
    # about 1e-162 underflow to 0, so there points further apart than r
    # share a ball too.
    r = 0.1
    above = np.nextafter(r, 1.0)
    cases = [(np.array([[(above - r) / 2], [above]]), r), (np.array([[0.0], [1e-165]]), 1e-170)]
    for pts, rad in cases:
        assert _flat_net_size(pts, rad) == _tree_net_sizes(pts, [rad])[0] == 1


def test_flat_net_keeps_the_point_at_distance_r():
    # on the 1-d lattice 0, r, ..., 8r a ball of radius r keeps the point at
    # distance exactly r: five balls, where a strict test would need nine
    line = (np.arange(9) * 0.25)[:, None]
    assert _flat_net_size(line, 0.25) == 5
    assert _flat_net_size(line, np.nextafter(0.25, 0.0)) == 9


@pytest.mark.parametrize("n", [4, 5])
def test_flat_net_matches_the_tree_in_more_dimensions(n):
    rng = np.random.default_rng(n)
    pts = rng.random((300, n))
    pts = pts[np.lexsort(pts.T[::-1])]
    radii = [0.9, 0.6]
    assert [_flat_net_size(pts, r) for r in radii] == _tree_net_sizes(pts, radii)


def test_flat_net_sums_squares_in_the_tree_order():
    # From 8 axes on, the k-d tree sums squares in four running sums, which
    # round differently from a left-to-right sum. For pairs whose
    # left-to-right sum is the larger, take r * r equal to the tree's sum:
    # the net, like the tree, then puts both points in one ball.
    rng = np.random.default_rng(0)
    straddled = 0
    for _ in range(10000):
        pair = rng.random((2, 8))
        sq = (pair[1] - pair[0]) ** 2
        rr = ((sq[0] + sq[4]) + (sq[1] + sq[5])) + (sq[2] + sq[6]) + (sq[3] + sq[7])
        r = next((c for c in (math.sqrt(rr), np.nextafter(math.sqrt(rr), 0.0)) if c * c == rr), None)
        if r is None or np.cumsum(sq)[-1] <= rr:
            continue
        pts = pair[np.lexsort(pair.T[::-1])]
        assert _flat_net_size(pts, r) == _tree_net_sizes(pts, [r])[0] == 1
        straddled += 1
        if straddled == 10:
            break
    assert straddled == 10


def test_flat_net_far_from_the_origin():
    # Coordinates up to 1e6, where the sweep's margin of a millionth of r
    # over r spans only a few ulps.
    rng = np.random.default_rng(7)
    clusters = rng.random((6, 2)) * 1e6
    pts = (clusters[:, None, :] + 1e-3 * rng.random((6, 40, 2))).reshape(-1, 2)
    pts = pts[np.lexsort(pts.T[::-1])]
    assert 1e-6 * 2e-4 < 4 * np.spacing(np.max(pts[:, 0]))
    assert _flat_net_size(pts, 2e-4) == _tree_net_sizes(pts, [2e-4])[0]


def test_flat_net_on_a_strip_thinner_than_the_balls():
    # The first axis spans less than r, so every slice runs to the end.
    rng = np.random.default_rng(11)
    pts = rng.random((3000, 2)) * [0.02, 1.0]
    pts = pts[np.lexsort(pts.T[::-1])]
    radii = [0.1, 0.05, 0.025]
    assert [_flat_net_size(pts, r) for r in radii] == _tree_net_sizes(pts, radii)


def test_flat_region_estimate_imports_no_scipy_spatial():
    code = (
        "import sys; import sigeo; from sigeo.hausdorff import flat_region_dimension_estimate; "
        "from sigeo.models import gaussian_location2d_family; "
        "flat_region_dimension_estimate(gaussian_location2d_family(), ([-1.0, -1.0], [1.0, 1.0])); "
        "print('scipy.spatial' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- Jeffrey density and measure --------------------------------------------------------

def test_jeffrey_density_bernoulli():
    for p in (0.2, 0.5, 0.7):
        assert jeffrey_density(BERN, [p]) == pytest.approx(
            1.0 / math.sqrt(p * (1 - p)), rel=1e-8
        )


def test_jeffrey_density_vanishes_on_degenerate_lines():
    mix = gaussian_mixture()
    assert jeffrey_density(mix, [0.4, 0.0]) <= 1e-6
    assert jeffrey_density(mix, [0.0, 2.0]) <= 1e-6
    assert jeffrey_density(mix, [0.0, 0.0]) == 0.0


def test_jeffrey_measure_bernoulli_segment():
    assert jeffrey_measure(BERN, ([0.25], [0.75])) == pytest.approx(ARC, rel=1e-9)


def _jeffrey_per_point(model, region):
    """The quadrature with one fisher_matrix per node."""
    pts, w = _region_rule(region)
    return float(np.sum(np.array([jeffrey_density(model, th) for th in pts]) * w))


@pytest.mark.parametrize("model, region", [
    (BERN, ([0.1], [0.9])),
    (gaussian_location_family(), ([-1.0], [1.5])),
    (gaussian_location2d_family(), ([-1.0, -0.5], [0.8, 1.0])),
    (gaussian_location_scale_family(), ([-1.0, 0.6], [1.2, 1.8])),
    (gaussian_mixture(), ([0.2, -1.0], [0.8, 1.0])),  # straddles b = 0
], ids=["bernoulli", "gauss-location", "gauss-location-2d", "gauss-loc-scale", "mixture"])
def test_jeffrey_measure_is_the_per_point_quadrature_bitwise(model, region):
    assert jeffrey_measure(model, region) == _jeffrey_per_point(model, region)


def test_jeffrey_measure_empty_region():
    assert jeffrey_measure(BERN, ([0.4], [0.4])) == 0.0


def test_jeffrey_measure_additive_in_region():
    whole = jeffrey_measure(BERN, ([0.25], [0.75]))
    left = jeffrey_measure(BERN, ([0.25], [0.5]))
    right = jeffrey_measure(BERN, ([0.5], [0.75]))
    assert whole == pytest.approx(left + right, abs=1e-9)


def test_jeffrey_vs_hausdorff_bernoulli():
    res = jeffrey_vs_hausdorff_check(BERN, ([0.25], [0.75]))
    assert res["rel_err"] <= 0.05


def test_jeffrey_vs_hausdorff_gauss_location():
    loc = gaussian_location_family()
    res = jeffrey_vs_hausdorff_check(loc, ([-1.0], [1.0]))
    assert res["jeffrey"] == pytest.approx(2.0, abs=1e-6)
    assert res["rel_err"] <= 0.05


def test_degenerate_region_rejected():
    mix = gaussian_mixture()
    with pytest.raises(DegenerateRegionError):
        jeffrey_vs_hausdorff_check(mix, ([0.2, -0.5], [0.6, 0.5]))


# -- monotonicity -------------------------------------------------------------------------


def _simplex_cloud_points(rng, n=40):
    pts = np.clip(rng.dirichlet([2.0] * 3, size=n)[:, :2], 0.05, 0.9)
    return pts[np.sum(pts, axis=1) < 0.93]


def test_monotonicity_identity_kernel():
    rng = np.random.default_rng(4)
    pts = _simplex_cloud_points(rng)
    k = permutation_kernel(CAT3.space, [0, 1, 2])
    res = hausdorff_monotonicity_check(k, CAT3, pts)
    assert res["holds"]
    assert res["after"] == pytest.approx(res["before"], rel=1e-9)


def test_monotonicity_lossy_binning():
    rng = np.random.default_rng(5)
    pts = _simplex_cloud_points(rng)
    k = binning_kernel(CAT3.space, [0, 1, 1])
    res = hausdorff_monotonicity_check(k, CAT3, pts)
    assert res["holds"]
    assert res["after"] <= res["before"] * 1.1


def test_monotonicity_permutation_equality():
    rng = np.random.default_rng(6)
    pts = _simplex_cloud_points(rng)
    k = permutation_kernel(CAT3.space, [2, 0, 1])
    res = hausdorff_monotonicity_check(k, CAT3, pts)
    assert res["after"] == pytest.approx(res["before"], rel=1e-9)

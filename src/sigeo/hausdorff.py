"""Covering-based Hausdorff measure and dimension in the Fisher distance,
and the Jeffrey density sqrt(det G).

Point clouds give pairwise Fisher-distance estimates. Greedy
covers (lexicographic pick order, balls of radius delta/2) bound every
cover set's diameter by delta; premeasures use each set's *actual*
diameter, which is what makes 1-d estimates track curve length instead of
double-counting the greedy radius. Diameters are measured only where a
premeasure reads them.

A 1-parameter model's cloud is an ``ArcCloud``: its points and their
cumulative Fisher arc length s along the sorted parameter axis, so the
distance between two points is |s_i - s_j| and the cloud lies on a line.
It holds O(M) numbers, and a greedy cover is one sweep along s. Higher
dimensions get a ``MetricCloud`` of straight-segment or midpoint
distances, which suit dense clouds where the metric barely turns. A
midpoint cloud assembles G once per distinct midpoint; the Jeffrey
quadrature assembles G at all its nodes in one batched call. Cloud
sizes, quadrature rules and tolerances are module constants.

A ``MetricCloud`` of M points holds its one M x M matrix plus blocks sized
by ``fisher.JET_NODE_BUDGET``: midpoint pairs go in budget-sized blocks,
each deduplicated by one lexsort, and the matrix checks and the mesh scan
it in row blocks of at most that many entries. Model evaluations come in
cache-sized jets of ``fisher.JET_ENTRY_BUDGET`` entries: ``directional_form``
blocks the segments of arc and segment clouds itself, and an arc cloud
measures its sorted polyline in slices of at most ``JET_NODE_BUDGET``
quadrature-point coordinates; ``fisher_matrices`` blocks the Fisher
matrices at midpoints and quadrature nodes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distance import _segment_lengths
from .errors import (
    DegenerateRegionError,
    DomainError,
    InsufficientScaleError,
    IntegrationError,
    SparseCloudError,
    UsageError,
)
from . import fisher
# directional_form is unused here; perfbench/tests/test_tracing.py expects the binding.
from .fisher import directional_form, fisher_matrices, fisher_matrix, jet_rows, metric_ranks
from .markov import MarkovKernel, pushforward_model
from .models import ParamModel
from .quadrature import panel_nodes_weights, uniform_edges

# Gauss points per straight segment of cumulative and segment clouds.
CLOUD_QUAD_POINTS = 4
# Flat-region dimension: sampled points and halving cover scales.
FLAT_POINTS = 150000
FLAT_LEVELS = 5
# Jeffrey measure: quadrature panels per axis. Jeffrey-vs-Hausdorff check:
# cloud size and metric-rank samples per axis.
JEFFREY_PANELS = 24
JEFFREY_CLOUD_SIZE = 1601
RANK_SAMPLES = 9
# Hausdorff monotonicity: the dimension k of both estimates, and the
# relative slack by which the pushed estimate may exceed the original.
MONOTONICITY_DIM = 1.0
MONOTONICITY_TOL = 0.10


def alpha_k(k) -> float:
    """Volume normalizer pi^(k/2) / Gamma(1 + k/2) for real dimension k >= 0.

    Matches the Lebesgue volume of the closed unit ball at integer k:
    alpha_0 = 1, alpha_1 = 2, alpha_2 = pi, alpha_3 = 4 pi / 3.
    """
    k = float(k)
    if not 0.0 <= k < np.inf:  # NaN fails too
        raise DomainError(f"dimension must be finite and nonnegative, got {k}")
    return float(np.exp(0.5 * k * np.log(np.pi) - gammaln(1.0 + 0.5 * k)))


def _row_blocks(M) -> list:
    """Row slices of an M x M matrix, each within ``JET_NODE_BUDGET`` entries."""
    rows = max(1, fisher.JET_NODE_BUDGET // max(M, 1))
    return [slice(start, min(start + rows, M)) for start in range(0, M, rows)]


@dataclass(frozen=True)
class MetricCloud:
    """Parameter points plus pairwise Fisher-distance estimates.

    The matrix is checked (zero diagonal, no NaN or negative entry,
    symmetric to 1e-12) and its mesh found in one scan of row blocks, so
    no check allocates more than a block.
    """

    points: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        d = np.asarray(self.dist, dtype=float)
        pts.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist", d)
        M = pts.shape[0]
        if d.shape != (M, M):
            raise UsageError("distance matrix must be square over the points")
        if np.any(np.diag(d) != 0):
            raise UsageError("distance matrix needs a zero diagonal")
        mesh = 0.0
        for rows in _row_blocks(M):
            block = d[rows]
            if not np.all(block >= 0):  # NaN fails too
                raise UsageError("distances must be nonnegative numbers")
            work = block - d[:, rows].T
            if np.max(np.abs(work, out=work), initial=0.0) > 1e-12:
                raise UsageError("distance matrix must be symmetric")
            if M > 1:
                # Nearest neighbors: the block with its diagonal entries at inf.
                np.copyto(work, block)
                r = np.arange(rows.stop - rows.start)
                work[r, r + rows.start] = np.inf
                mesh = max(mesh, float(np.max(np.min(work, axis=1))))
        object.__setattr__(self, "_mesh", mesh)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        return float(np.max(self.dist, initial=0.0))

    def mesh(self) -> float:
        """Largest nearest-neighbor distance (0 for a single point)."""
        return self._mesh

    def _balls(self, order, r) -> list:
        """Member indices of the greedy balls of radius r, picking centres
        in ``order``: every point within r of a centre and not yet covered."""
        uncovered = np.ones(self.size, dtype=bool)
        sets = []
        for idx in order:
            if not uncovered[idx]:
                continue
            inside = self.dist[idx] <= r
            inside &= uncovered
            members = np.flatnonzero(inside)
            uncovered[members] = False
            sets.append(members)
        return sets

    def _set_diameter(self, members) -> float:
        return float(np.max(self.dist[np.ix_(members, members)])) if members.size > 1 else 0.0


@dataclass(frozen=True)
class ArcCloud:
    """Points of a 1-parameter model and their arc coordinates s: the
    distance between points i and j is |s_i - s_j|.

    s must be finite and nondecreasing along the lexicographic order of
    the points, the pick order of greedy covers. Floating-point
    subtraction is monotone, so along that order the nearest neighbours
    are adjacent, a greedy ball is one contiguous run and a set's diameter
    is max s - min s: the mesh, the diameter and every cover are bitwise
    those of ``MetricCloud(points, |s_i - s_j|)``, without its matrix.
    """

    points: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        s = np.asarray(self.s, dtype=float)
        pts.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "s", s)
        if s.shape != (pts.shape[0],):
            raise UsageError("arc coordinates must be one per point")
        if not np.all(np.isfinite(s)):
            raise UsageError("arc coordinates must be finite")
        t = s[_lex_order(pts)]
        gaps = np.diff(t)
        if np.any(gaps < 0):
            raise UsageError("arc coordinates must be nondecreasing in the parameter order")
        # a point's nearest neighbour is the nearer of its two sorted neighbours
        padded = np.concatenate([[np.inf], gaps, [np.inf]])
        mesh = float(np.max(np.minimum(padded[:-1], padded[1:]))) if t.size > 1 else 0.0
        object.__setattr__(self, "_mesh", mesh)
        object.__setattr__(self, "_diameter", float(t[-1] - t[0]) if t.size else 0.0)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        return self._diameter

    def mesh(self) -> float:
        """Largest nearest-neighbor distance (0 for a single point)."""
        return self._mesh

    def _balls(self, order, r) -> list:
        """Member indices of the greedy balls of radius r, picking centres
        in ``order``, along which s is nondecreasing: each ball is the run
        from the first point not yet covered, at s_c, to the last point j
        with s_j - s_c <= r, the test a matrix row of |s_c - s_j| makes."""
        t = self.s[order].tolist()
        sets, start = [], 0
        while start < len(t):
            centre = t[start]
            stop = bisect.bisect_right(t, r, lo=start, key=lambda sj: sj - centre)
            sets.append(np.sort(order[start:stop]))
            start = stop
        return sets

    def _set_diameter(self, members) -> float:
        s = self.s[members]
        return float(np.max(s) - np.min(s))


def _lex_order(points) -> np.ndarray:
    return np.lexsort(points.T[::-1])


def _cover_sets(cloud: MetricCloud | ArcCloud, order, delta) -> list:
    """Member indices of each set of the greedy delta-cover, picking
    representatives in ``order``: every point within delta/2 of a
    representative and not yet covered."""
    if delta <= 0:
        raise UsageError("cover scale must be positive")
    return cloud._balls(order, 0.5 * float(delta))


def greedy_cover(cloud: MetricCloud | ArcCloud, delta) -> list:
    """Greedy delta-cover: sets of points within delta/2 of a representative.

    Representatives are picked in lexicographic parameter order, so the
    cover is deterministic. Returns a list of (member_indices, diameter).
    """
    sets = _cover_sets(cloud, _lex_order(cloud.points), delta)
    return [(members, cloud._set_diameter(members)) for members in sets]


def covering_profile(cloud: MetricCloud | ArcCloud, deltas, k=None):
    """Covering counts (and raw premeasures) over a decreasing schedule.

    A cover built at a finer scale is admissible at every coarser scale,
    so the reported count at each scale is the minimum over the greedy
    nets at that scale and all finer ones; this restores the monotonicity
    the raw greedy heuristic can occasionally violate by one set.
    Premeasures stay per-level diagnostics (sum of per-set diameters to
    the k-th power), without cross-scale minimization. The points are
    sorted once for all scales, and set diameters are measured only when
    ``k`` asks for premeasures.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    ak = alpha_k(k) if k is not None else None
    order = _lex_order(cloud.points)
    raw_counts = []
    pres = [] if ak is not None else None
    for d in deltas:
        sets = _cover_sets(cloud, order, d)
        raw_counts.append(len(sets))
        if ak is not None:
            pres.append(ak * float(np.sum([(0.5 * cloud._set_diameter(m)) ** k for m in sets])))
    counts = np.minimum.accumulate(np.asarray(raw_counts)[::-1])[::-1]
    return deltas, counts, np.asarray(pres) if pres is not None else None


@dataclass(frozen=True)
class CoverReport:
    deltas: np.ndarray
    counts: np.ndarray
    premeasures: np.ndarray
    k: float
    estimate: float
    stable: bool


def halving_schedule(cloud: MetricCloud | ArcCloud, levels, mesh_factor) -> np.ndarray:
    """Halving cover scales diam/4, diam/8, ... (at most ``levels`` of them).

    Only scales at least ``mesh_factor`` times the cloud mesh (and 1e-12)
    are kept: below a few meshes greedy sets degenerate into singletons
    and the premeasure leaks gap mass. The result may be empty (always for
    an infinite diameter); halving stops at the floor, whatever ``levels``.
    """
    floor = max(mesh_factor * cloud.mesh(), 1e-12)
    deltas, d = [], cloud.diameter() / 4.0
    while floor <= d < np.inf and len(deltas) < levels:
        deltas.append(d)
        d /= 2.0
    return np.array(deltas)


def hausdorff_measure_estimate(cloud: MetricCloud | ArcCloud, k, deltas, enforce_density=True) -> CoverReport:
    """Premeasure sum alpha_k (diam_j / 2)^k over greedy covers per scale.

    The reported estimate is the value at the smallest scale; the report is
    flagged unstable when the last two scales disagree by more than 10%,
    which is the expected signature of k below the cloud's dimension. An
    empty schedule raises SparseCloudError.
    """
    k = float(k)
    if not 0.0 <= k < np.inf:  # NaN fails too
        raise DomainError(f"dimension must be finite and nonnegative, got {k}")
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    if deltas.size == 0:
        raise SparseCloudError(
            f"no cover scale fits a cloud of diameter {cloud.diameter():.3g} and mesh "
            f"{cloud.mesh():.3g}; widen the region, add points or allow more scales"
        )
    if enforce_density and cloud.mesh() > float(np.min(deltas)) / 4.0:
        raise SparseCloudError(
            f"cloud mesh {cloud.mesh():.3g} too coarse for scale {np.min(deltas):.3g}"
        )
    deltas, counts, pres = covering_profile(cloud, deltas, k=k)
    stable = True
    if len(pres) >= 2:
        a, b = pres[-2], pres[-1]
        stable = abs(a - b) <= 0.10 * max(abs(b), 1e-300)
    return CoverReport(deltas, counts, pres, k, float(pres[-1]), stable)


def hausdorff_dimension_estimate(cloud: MetricCloud | ArcCloud) -> float:
    """Least-squares slope of log N(delta) against log(1/delta).

    The scales step down by sqrt(2) from diam/2 to max(2.5 mesh, diam/256),
    at least four of them. Scales below 2.5x the cloud mesh are excluded
    (covering numbers saturate there) as are scales where every point is
    its own set, N(delta) = M. Fewer than three usable scales raise
    InsufficientScaleError; a cloud with zero diameter has dimension 0 by
    convention.
    """
    diam = cloud.diameter()
    if diam <= 0:
        return 0.0
    lo = max(2.5 * cloud.mesh(), diam / 256.0)
    hi = diam / 2.0
    if lo >= hi:
        raise InsufficientScaleError("mesh too coarse relative to the diameter")
    n = max(4, int(np.floor(np.log(hi / lo) / np.log(np.sqrt(2.0)))) + 1)
    deltas, counts, _ = covering_profile(cloud, hi / np.sqrt(2.0) ** np.arange(n))
    counts = counts.astype(float)
    if np.all(counts == 1.0):
        return 0.0
    usable = (deltas >= 2.5 * cloud.mesh()) & (counts < cloud.size)
    if int(np.sum(usable)) < 3:
        raise InsufficientScaleError(
            f"only {int(np.sum(usable))} usable scales; refine the cloud"
        )
    x = np.log(1.0 / deltas[usable])
    y = np.log(counts[usable])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


def flat_region_dimension_estimate(model: ParamModel, region, seed=0):
    """Dimension readout for a region over which the metric is constant.

    The greedy net needs thousands of points per ball before its covering
    efficiency stops drifting with scale, which a full pairwise matrix
    cannot afford. When G is constant over the region (verified here by
    sampling; 1% relative tolerance) distances are exactly Mahalanobis, so
    the same greedy cover runs on G^(1/2)-mapped points (``_flat_net_size``).
    The points are sorted lexicographically once, so the net visits only
    its representatives, each the first point not yet covered, and takes
    as a ball every point of the sorted slice within reach along the first
    axis whose summed squared coordinate differences are at most r * r.
    The slope window [diam/24, diam/6] (``FLAT_LEVELS`` scales a factor
    sqrt(2) apart) balances boundary against occupancy bias. A region of
    zero diameter has dimension 0 by convention, as in
    ``hausdorff_dimension_estimate``.
    """
    lo, hi = _region(region)
    if np.all(lo == hi):
        return 0.0
    n = lo.size
    mats = fisher_matrices(model, np.vstack([_grid(lo, hi, 2), 0.5 * (lo + hi)]))
    G0 = mats[-1]
    scale = max(float(np.max(np.abs(G0))), 1e-300)
    if np.max(np.abs(mats - G0)) > 0.01 * scale:
        raise UsageError("metric varies over the region; constant-metric path invalid")
    eigs, U = np.linalg.eigh(G0)
    if np.min(eigs) <= 0:
        raise DegenerateRegionError("metric not positive definite on the region")
    root = U @ np.diag(np.sqrt(eigs)) @ U.T

    rng = np.random.default_rng(seed)
    pts = (lo + (hi - lo) * rng.random((FLAT_POINTS, n))) @ root.T
    # Sampled first coordinates are almost surely distinct, and then they
    # alone fix the lexicographic order, which a quicksort finds faster.
    order = np.argsort(pts[:, 0])
    first = pts[order, 0]
    if np.any(first[1:] == first[:-1]):
        order = _lex_order(pts)
    pts = pts[order]
    diam = float(np.linalg.norm((hi - lo) @ root.T))
    deltas = diam / 6.0 / np.sqrt(2.0) ** np.arange(FLAT_LEVELS)
    counts = [_flat_net_size(pts, 0.5 * delta) for delta in deltas]
    x = np.log(1.0 / deltas)
    y = np.log(counts)
    return float(np.polyfit(x, y, 1)[0])


def _flat_net_size(pts, r) -> int:
    """Number of balls in the greedy net of radius r over lexicographically
    sorted points (N, n): each ball is centred on the first point not yet
    covered and takes every point whose squared coordinate differences,
    summed as scipy's cKDTree sums them, are at most r * r.

    Every point before the centre is covered already, and a point passing
    the rounded test lies at most r (1 + 3 ulp) above the centre along the
    first axis, so the ball's new members lie between the centre and the
    last point at most r (1 + 1e-6) + 1e-150 above it (1e-150 since smaller
    squares underflow); rounding never puts that bound below a member.
    """
    cols = [np.ascontiguousarray(col) for col in pts.T]
    reach = r * (1.0 + 1e-6) + 1e-150
    rr = r * r
    covered = np.zeros(len(pts), dtype=bool)
    count = 0
    idx = 0
    while not covered[idx]:
        q = pts[idx].tolist()
        stop = int(np.searchsorted(cols[0], q[0] + reach, side="right"))
        d2 = _squared_sum([(col[idx:stop] - qi) ** 2 for col, qi in zip(cols, q)])
        covered[idx:stop] |= d2 <= rr
        count += 1
        # the first uncovered point after idx (argmin of an all-covered
        # tail is its start, which ends the loop)
        idx += int(np.argmin(covered[idx:]))
    return count


def _squared_sum(squares):
    """Sum of per-axis squared differences in scipy's cKDTree order: four
    running sums over blocks of four axes, added in turn, then the axes
    left over, one at a time."""
    blocks = len(squares) - len(squares) % 4
    if blocks:
        acc = list(squares[:4])
        for i in range(4, blocks, 4):
            acc = [a + b for a, b in zip(acc, squares[i:i + 4])]
        total = ((acc[0] + acc[1]) + acc[2]) + acc[3]
    else:
        total, blocks = squares[0], 1
    for sq in squares[blocks:]:
        total = total + sq
    return total


# ---------------------------------------------------------------------------
# Cloud construction
# ---------------------------------------------------------------------------

def cloud_from_params(model: ParamModel, params, mode="cumulative") -> MetricCloud | ArcCloud:
    """Build a metric cloud over parameter points of a model.

    Modes
    -----
    cumulative 1-d only: an ``ArcCloud`` holding each point's cumulative
               Fisher length s along the sorted parameter axis, so
               distances are |s_i - s_j| (exact for monotone 1-d
               families) and no distance matrix is built
    segment    straight-segment lengths (upper bounds; tight when the
               metric is near-constant across the cloud)
    midpoint   one-point metric evaluation sqrt(d^T G(mid) d), the
               segment rule with 1 Gauss point; G is assembled once per
               distinct midpoint, so clouds on a grid, whose pairs share
               midpoints, are cheapest; exact when G is constant
    """
    pts = np.atleast_2d(np.asarray(params, dtype=float))
    if mode == "cumulative":
        if model.param_dim != 1:
            raise UsageError(
                "cumulative distances need a 1-parameter model; name mode 'segment' or 'midpoint'"
            )
        return _cloud_cumulative(model, pts)
    if mode == "segment":
        return _cloud_segment(model, pts)
    if mode == "midpoint":
        return _cloud_midpoint(model, pts)
    raise UsageError(f"unknown cloud mode {mode!r}")


def _segment_chunk(model) -> int:
    """Pairs per block of the segment cloud: one jet's worth of rows."""
    return max(1, jet_rows(model) // CLOUD_QUAD_POINTS)


def _cloud_cumulative(model, pts) -> ArcCloud:
    """Arc coordinates: the cumulative Fisher length of the polyline through
    the sorted points. The polyline is measured in slices whose quadrature
    points hold at most ``JET_NODE_BUDGET`` coordinates; consecutive slices
    share their end point."""
    order = _lex_order(pts)
    line = pts[order]
    step = max(1, fisher.JET_NODE_BUDGET // (CLOUD_QUAD_POINTS * pts.shape[1]))  # segments per slice
    lengths = [
        _segment_lengths(model, line[i:i + step + 1], CLOUD_QUAD_POINTS) for i in range(0, len(line) - 1, step)
    ]
    s = np.empty(pts.shape[0])
    s[order] = np.cumsum(np.concatenate([[0.0], *lengths]))
    return ArcCloud(pts, s)


def _pair_blocks(M, size):
    """Index pairs i < j of M points in row-major order, ``size`` at a time."""
    # row_start[i] is the position of pair (i, i + 1) in that order
    row_start = np.concatenate([[0], np.cumsum(np.arange(M - 1, 0, -1))])
    pairs = M * (M - 1) // 2
    for start in range(0, pairs, size):
        k = np.arange(start, min(start + size, pairs))
        ii = np.searchsorted(row_start, k, side="right") - 1
        yield ii, k - row_start[ii] + ii + 1


def _cloud_segment(model, pts) -> MetricCloud:
    """Straight-segment lengths between every pair of points, in chunks."""
    M = pts.shape[0]
    d = np.zeros((M, M))
    for ii, jj in _pair_blocks(M, _segment_chunk(model)):
        ends = np.stack([pts[ii], pts[jj]], axis=1)  # (pairs, 2, n)
        d[ii, jj] = d[jj, ii] = _segment_lengths(model, ends, CLOUD_QUAD_POINTS)[:, 0]
    return MetricCloud(pts, d)


def _cloud_midpoint(model, pts) -> MetricCloud:
    """sqrt(v^T G(a + v/2) v) for every pair a, a + v of points, with G
    assembled once per distinct midpoint.

    Pairs go in blocks whose midpoints hold at most ``JET_NODE_BUDGET``
    coordinates. A first pass keeps each block's distinct midpoints and
    the index of every pair into them; one merge of those gives the
    cloud's distinct midpoints, where G is assembled, and a second pass
    forms each block's distances.
    """
    M, n = pts.shape
    size = max(1, fisher.JET_NODE_BUDGET // n)  # pairs per block
    local = [_distinct_rows(pts[ii] + 0.5 * (pts[jj] - pts[ii])) for ii, jj in _pair_blocks(M, size)]
    mids, where = _distinct_rows(np.concatenate([pts[:0], *(u for u, _ in local)]))
    G = fisher_matrices(model, mids)
    starts = np.cumsum([0, *(len(u) for u, _ in local)])
    index = [where[start + inverse] for start, (_, inverse) in zip(starts, local)]
    del local
    d = np.zeros((M, M))
    for (ii, jj), idx in zip(_pair_blocks(M, size), index):
        v = pts[jj] - pts[ii]
        d[ii, jj] = d[jj, ii] = np.sqrt(np.maximum(np.einsum("pi,pij,pj->p", v, G[idx], v), 0.0))
    return MetricCloud(pts, d)


def _distinct_rows(a) -> tuple:
    """The distinct rows of a (N, n) in lexicographic order, and the index
    of every row into them: ``np.unique(a, axis=0, return_inverse=True)``
    by one lexsort."""
    order = _lex_order(a)
    s = a[order]
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse


def _grid(lo, hi, side) -> np.ndarray:
    """Tensor grid with ``side`` points per axis over the box [lo, hi]."""
    axes = [np.linspace(l, h, side) for l, h in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def region_cloud(model: ParamModel, lo, hi, points) -> MetricCloud | ArcCloud:
    """Evenly spaced metric cloud of about ``points`` points over [lo, hi].

    1-parameter models get ``points`` values with arc coordinates;
    higher dimensions a grid of side max(2, round(points^(1/n))) with
    midpoint distances.
    """
    n = model.param_dim
    if n == 1:
        return cloud_from_params(model, np.linspace(lo[0], hi[0], points)[:, None])
    side = max(2, int(round(points ** (1.0 / n))))
    return cloud_from_params(model, _grid(lo, hi, side), mode="midpoint")


# ---------------------------------------------------------------------------
# Jeffrey density and measure
# ---------------------------------------------------------------------------

def jeffrey_density(model: ParamModel, theta) -> float:
    """sqrt(det G(theta)); zero wherever the metric is rank deficient."""
    G = fisher_matrix(model, theta)
    det = float(np.linalg.det(G.matrix))
    return float(np.sqrt(max(det, 0.0)))


def _region(region) -> tuple:
    """The (lo, hi) vectors of a parameter box, refused unless lo <= hi."""
    lo, hi = np.atleast_1d(np.asarray(region[0], float)), np.atleast_1d(np.asarray(region[1], float))
    if lo.shape != hi.shape or not np.all(lo <= hi):  # NaN fails too
        raise UsageError("region must satisfy lo <= hi componentwise")
    return lo, hi


def _region_rule(region):
    lo, hi = _region(region)
    rules = [panel_nodes_weights(uniform_edges(l, h, JEFFREY_PANELS), 4) if h > l else (np.array([l]), np.array([0.0])) for l, h in zip(lo, hi)]
    if lo.size == 1:
        return rules[0][0][:, None], rules[0][1]
    if lo.size == 2:
        (nx, wx), (ny, wy) = rules
        gx, gy = np.meshgrid(nx, ny, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        w = (wx[:, None] * wy[None, :]).ravel()
        return pts, w
    raise UsageError("regions beyond 2 parameters are not supported")


def jeffrey_measure(model: ParamModel, region) -> float:
    """Integral of sqrt(det G) over a parameter box by tensor quadrature."""
    pts, w = _region_rule(region)
    if np.all(w == 0.0):
        return 0.0
    vals = np.sqrt(np.maximum(np.linalg.det(fisher_matrices(model, pts)), 0.0))
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("non-finite Jeffrey density in the region")
    return float(np.sum(vals * w))


def jeffrey_vs_hausdorff_check(model: ParamModel, region):
    """Compare the Jeffrey measure of a region with the model-dimensional
    Hausdorff estimate.

    The region must be nondegenerate (full metric rank at sampled points);
    otherwise DegenerateRegionError is raised since the comparison's
    hypotheses fail. The cover schedule halves from diam/4 but keeps the
    smallest scale at least 100x the cloud mesh so the greedy premeasure
    does not leak gap mass.
    """
    n = model.param_dim
    lo, hi = _region(region)
    samples = _grid(lo, hi, RANK_SAMPLES)
    ranks = metric_ranks(np.linalg.eigvalsh(fisher_matrices(model, samples)))
    if np.any(ranks < n):
        i = int(np.argmax(ranks < n))
        raise DegenerateRegionError(f"metric rank {ranks[i]} < {n} at theta={samples[i]}")

    jeffrey = jeffrey_measure(model, region)

    cloud = region_cloud(model, lo, hi, JEFFREY_CLOUD_SIZE)
    deltas = halving_schedule(cloud, 8, 100.0)
    if deltas.size < 2:
        raise SparseCloudError("cloud too sparse for a two-scale schedule")
    report = hausdorff_measure_estimate(cloud, float(n), deltas)
    rel = abs(report.estimate - jeffrey) / max(abs(jeffrey), 1e-300)
    return {
        "jeffrey": jeffrey,
        "hausdorff": report.estimate,
        "rel_err": rel,
        "report": report,
    }


def _own_scale_estimate(cloud: MetricCloud | ArcCloud, k) -> float:
    """Hausdorff estimate on the cloud's own stabilized schedule.

    The schedule halves from diam/4 but never drops below 4.5x the mesh,
    so greedy sets keep chaining instead of degenerating into singletons;
    when even diam/4 is below that floor, the floor is the one scale.
    A cloud whose diameter has collapsed has estimate 0 for k > 0.
    """
    if cloud.diameter() <= 1e-12:
        return 0.0 if k > 0 else float(cloud.size)
    deltas = halving_schedule(cloud, 3, 4.5)
    if deltas.size == 0:
        deltas = [max(4.5 * cloud.mesh(), 1e-12)]
    return hausdorff_measure_estimate(cloud, k, deltas, enforce_density=False).estimate


def hausdorff_monotonicity_check(kernel: MarkovKernel, model: ParamModel, params):
    """Pushforward never inflates the Hausdorff estimate (within tolerance).

    Both clouds sit over the same parameter points; the pushed cloud's
    distances are measured on the image family. Segment-mode distances
    contract pointwise under the pushforward (the metric does along every
    path), and each side is estimated at its own stabilized scales, which
    is the honest discretization of comparing two measures.
    """
    pts = np.atleast_2d(np.asarray(params, dtype=float))
    before_cloud = cloud_from_params(model, pts, mode="segment")
    pushed = pushforward_model(kernel, model)
    after_cloud = cloud_from_params(pushed, pts, mode="segment")
    before = _own_scale_estimate(before_cloud, MONOTONICITY_DIM)
    after = _own_scale_estimate(after_cloud, MONOTONICITY_DIM)
    holds = after <= before * (1.0 + MONOTONICITY_TOL) + 1e-12
    return {"before": before, "after": after, "holds": holds}

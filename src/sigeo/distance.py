"""Fisher-Rao path lengths and distances by discrete curve optimization.

A path between two parameter points is a piecewise-linear curve in
parameter space; its length integrates the metric speed sqrt(v^T G v)
segment by segment with Gauss-Legendre quadrature. The distance estimate
minimizes that length over the interior nodes. Everything rests on the
square-root embedding psi = sqrt(p w), which maps the model into the unit
sphere of R^X, where the Fisher length of a curve is twice the length of
its image. Two stages, after a start:

* a global start for 2-parameter models: the shortest path between the
  lattice nodes nearest the endpoints on one graph per model, built on
  its first 2-parameter distance and cached on it (``_build_path_graph``:
  a lattice of ``GRAPH_SHAPE`` nodes over the domain box, with the nodes
  outside the domain dropped, linked along the 8 directions of
  ``GRAPH_STENCIL``, knight moves included, and weighted by a 4-point
  rule; all pairs are solved once by Floyd-Warshall). The endpoints are
  spliced onto the path, and its nodes are spaced at equal Fisher arc
  length, measured by the stored edge weights and, on the two end
  segments, by the Fisher matrix stored at their lattice node, so a pair
  costs no model evaluation. Models with 3 or more parameters start from
  the straight path;
* an energy phase from the start: Levenberg-Marquardt on the chord energy
  sum_k |psi(theta_{k+1}) - psi(theta_k)|^2, with the block-tridiagonal
  Gauss-Newton matrix from one model jet per trial and every trial node
  kept inside the domain;
* the arc solver: projected L-BFGS from the energy path on the
  sub-sampled arc length of psi, the sum of great-circle arcs between
  psi at a few evenly spaced points of every segment, with its exact
  gradient from one first-order jet per evaluation, written into work
  arrays made once per solve. Its first iteration decides whether the
  energy path stands: when that iteration finds no descent step or gains
  less than the relative tolerance, the solver stops there. Otherwise it
  runs preconditioned, with the Gauss-Newton matrix of the chord energy
  over the same sample points as the initial inverse Hessian's metric
  (a natural gradient), until it stalls, and then plain from where it
  stalled; only a stall of the plain iteration counts as converged. The
  L-BFGS pairs are stacked, and each loop of the two-loop recursion is a
  product with a triangular inverse kept up to date as pairs come and
  go. Of the solver's path, the energy path and the straight path, the
  shortest is returned.

For 1-parameter models, and without interior nodes, the straight segment
is returned without any stage.

Every returned length is that of a real in-domain path, measured with the
accurate rule and each segment checked against its halves, so it is an
upper estimate of the underlying infimum. The graph start is no
candidate, but its length as the graph measures it is reported.
``curve_length`` measures any piecewise-linear curve the same way. The
total-variation norm and the
Bhattacharyya angle of the endpoints are attached as lower bounds. The
number of interior nodes is the one setting; tolerances, caps, steps and
quadrature rules are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .fisher import EIGEN_TOL, directional_form, fisher_matrices, jet_rows
from .measures import DOMINANCE_TOL, QUAD_TOL, bhattacharyya_angle, tv_norm
from .models import CurveInModel, ParamModel
from .quadrature import gauss_legendre_rule

# Relative stop tolerance (of the energy phase, the arc solver and its
# first-iteration acceptance) and the cap on energy trials and arc-solver
# iterations.
OPTIMIZER_TOL = 1e-6
MAX_ITER = 500
# First step of a steepest-descent restart whose curvature estimate fails,
# as a fraction of the endpoints' largest coordinate difference.
STEP_INIT = 0.05
# Levenberg-Marquardt damping of the energy phase: start, and the give-up
# level past which steps are too small to matter.
INITIAL_DAMPING = 1e-3
MAX_DAMPING = 1e12
# Arc solver: sample points per straight segment, the squared-chord
# smoothing, the L-BFGS memory, the iterations over which the stop rule
# measures progress, the Armijo constant and the backtracking halvings
# per step. Its jets take ``jet_rows`` rows at a time: one jet of all
# rows on the 896-node mixture grid made ``tv-lower-bound`` about 1.7
# times slower, almost all of it system time for the page faults of the
# larger temporaries. On the default grids the 37 rows of 8 interior
# nodes fit one jet of every 2-parameter model but gauss-location-2d
# (mixture takes 78 rows of its 208 nodes, gauss-location-2d 4 of 4096).
ARC_SAMPLES = 4
CHORD_SMOOTHING = 1e-8
LBFGS_MEMORY = 20
STALL_ITERATIONS = 10
# Damping of the arc solver's preconditioner, the Gauss-Newton matrix of
# the sampled chord energy, as a multiple of its floored diagonal.
PRECONDITIONER_DAMPING = 1e-3
ARMIJO = 1e-4
MAX_BACKTRACKS = 40
# Returned lengths: a segment's LENGTH_QUAD_POINTS rule is halved while it
# and the sum over its two halves differ by more than LENGTH_TOL (absolute).
LENGTH_QUAD_POINTS = 8
LENGTH_TOL = 1e-9
MAX_HALVINGS = 40
# Relative optimizer accuracy allowance used by the axiom checks. The stop
# rule bounds the last improvement, not the gap to the infimum, so this is
# an allowance, not a certified bound. On the 25 seed-0 Gaussian
# location-scale pairs of tv-lower-bound, estimates sit up to 1.53e-3
# above the closed-form distance (median 2.2e-4), beyond this value; the
# two largest (1.53e-3 and 1.48e-3) are arc-solver results. With 16
# interior nodes the largest gap fell to 4.3e-4 (measured with the earlier
# coordinate descent), so most of it is path discretization. Separating
# discretization from optimizer error is open work (ROADMAP item 3).
OPTIMIZER_GAP = 1e-3
# Global start of 2-parameter paths: lattice nodes per axis of the domain
# box, the lattice steps of the graph's edges (each edge once: the two
# axes, the two diagonals and four knight moves, so 16 neighbours per
# inner node) and the quadrature points of an edge's weight. A 21 x 49
# lattice started the mixture pairs no better.
GRAPH_SHAPE = (11, 25)
GRAPH_STENCIL = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))
GRAPH_QUAD_POINTS = 4


def _segment_lengths(model: ParamModel, nodes, quad_points) -> np.ndarray:
    """Lengths of the straight parameter segments between consecutive nodes.

    ``nodes`` is one polyline (K, n) or a stack of polylines (..., K, n);
    the quadrature rows of all segments go to one ``directional_form``
    call, which evaluates the model in jets of at most ``jet_rows`` rows.
    """
    qs, qw = _unit_rule(quad_points)
    a = nodes[..., :-1, :]
    v = nodes[..., 1:, :] - a  # (..., S, n)
    n = v.shape[-1]
    thetas = a[..., None, :] + qs[:, None] * v[..., None, :]  # (..., S, q, n)
    speeds2 = directional_form(
        model, thetas.reshape(-1, n), np.repeat(v, quad_points, axis=-2).reshape(-1, n)
    )
    # An elementwise product and a row sum, not a matrix-vector product:
    # BLAS rounds the latter differently with the number of rows, and a
    # segment's length must not depend on the stack it came in.
    speeds = np.sqrt(np.maximum(speeds2, 0.0)).reshape(-1, quad_points)
    return (speeds * qw).sum(axis=1).reshape(v.shape[:-1])


@lru_cache(maxsize=None)
def _unit_rule(quad_points) -> tuple:
    """Gauss-Legendre nodes and weights moved to [0, 1], read-only."""
    xg, wg = gauss_legendre_rule(quad_points)
    qs, qw = 0.5 * (xg + 1.0), 0.5 * wg
    qs.setflags(write=False)
    qw.setflags(write=False)
    return qs, qw


def curve_length(model: ParamModel, curve: CurveInModel) -> float:
    """Fisher length of a piecewise-linear curve, each segment checked
    against its halves as in ``fisher_distance``."""
    if curve.model is not model:
        raise UsageError("curve belongs to a different model")
    return _path_length(model, curve.nodes)


@dataclass(frozen=True)
class PathResult:
    """Optimized path between two parameter points.

    ``length`` is an upper estimate of the distance; ``lower_bound_tv`` and
    ``lower_bound_angle`` are the total-variation and Bhattacharyya-angle
    lower bounds. ``graph_length`` is the length of the path's global
    start as the shortest-path graph measures it (stored edge weights, and
    the two spliced end segments at their lattice node's Fisher matrix),
    an estimate and no bound; None when the path did not start from the
    graph (1 or 3 and more parameters, no interior nodes, equal endpoints,
    or a graph path of length 0). ``warm_start`` says whether the arc
    solver's first
    iteration let the energy path stand; ``iterations`` is then 1, and
    otherwise counts the arc solver's iterations, with ``converged`` false
    when the solver stopped at its cap. Straight paths report 0 iterations.
    Every length is at most the straight path's checked length: the
    straight path is always a candidate, and may be the one returned.
    ``degenerate_segments`` lists segments whose metric's smallest
    eigenvalue at the midpoint falls below the rank tolerance.
    """

    nodes: np.ndarray
    length: float
    lower_bound_tv: float
    lower_bound_angle: float
    iterations: int
    converged: bool
    warm_start: bool = False
    degenerate_segments: tuple = ()
    graph_length: float | None = None

    @property
    def tv_holds(self) -> bool:
        """length >= TV - QUAD_TOL; the length is an upper estimate, so a
        pass is genuine evidence for the TV lower bound."""
        return self.length >= self.lower_bound_tv - QUAD_TOL


def fisher_distance(model: ParamModel, theta1, theta2, interior_nodes=8) -> PathResult:
    """Upper estimate of the Fisher distance between two parameter points,
    over paths with ``interior_nodes`` free nodes."""
    if isinstance(interior_nodes, bool) or not isinstance(interior_nodes, (int, np.integer)) or interior_nodes < 0:
        raise UsageError(f"interior_nodes needs an integer >= 0, got {interior_nodes!r}")
    theta1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    theta2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    model.domain.require(theta1)
    model.domain.require(theta2)
    mu1, mu2 = model.measure(theta1), model.measure(theta2)
    bounds = (tv_norm(mu1 - mu2), bhattacharyya_angle(mu1, mu2))

    if np.array_equal(theta1, theta2):
        nodes = np.vstack([theta1, theta2])
        return PathResult(nodes, 0.0, *bounds, 0, True)

    straight = _straight_path(model, theta1, theta2, interior_nodes + 2)
    if model.param_dim == 1 or interior_nodes == 0:
        # Every path between the endpoints of an interval sweeps the segment
        # joining them, so the segment is the geodesic; without interior
        # nodes the segment is the only path.
        return _final_path(model, [straight], bounds, 0, True)
    start, graph_length = straight, None
    if model.param_dim == 2:
        start, graph_length = _graph_start(model, theta1, theta2, interior_nodes + 2) or (straight, None)
    warm = _energy_path(model, start)
    nodes, iterations, converged, warm_start = _arc_solve(model, warm)
    return _final_path(model, [nodes, warm, straight], bounds, iterations, converged, warm_start, graph_length)


def _straight_path(model: ParamModel, theta1, theta2, count) -> np.ndarray:
    """``count`` evenly spaced nodes from theta1 to theta2, all in the domain.

    ``np.linspace`` can round an interior node of a segment that runs along
    a face of the domain (categorical's sum(theta) = 1 - eps) just outside
    it; such a node is snapped to the nearer endpoint. That leaves a
    zero-length segment, and the polyline still sweeps the segment.
    """
    nodes = np.linspace(theta1, theta2, count)
    for k in range(1, count - 1):
        if not model.domain.contains(nodes[k]):
            nodes[k] = theta1 if 2 * k <= count - 1 else theta2
    return nodes


@dataclass(frozen=True)
class _PathGraph:
    """All-pairs shortest paths on a lattice over a 2-parameter domain.

    ``nodes`` (N, 2) are the lattice nodes inside the domain, ``metrics``
    (N, 2, 2) their Fisher matrices, ``lengths`` (N, N) the shortest-path
    lengths and ``next_hop`` (N, N) the node after i on a shortest path
    from i to j (i itself when i = j, -1 when j cannot be reached), and
    ``steps`` the lattice steps per axis, by which ``nearest`` measures.
    """

    nodes: np.ndarray
    metrics: np.ndarray
    lengths: np.ndarray
    next_hop: np.ndarray
    steps: np.ndarray

    def nearest(self, theta) -> int:
        """The node nearest theta, in lattice steps."""
        return int(np.argmin(np.sum(((self.nodes - theta) / self.steps) ** 2, axis=1)))

    def path(self, i, j) -> list:
        """The nodes of a shortest path from node i to node j, or [] when
        none exists."""
        if self.next_hop[i, j] < 0:
            return []
        hops = [i]
        while hops[-1] != j:
            hops.append(int(self.next_hop[hops[-1], j]))
        return hops


def _build_path_graph(model: ParamModel) -> _PathGraph:
    """The shortest-path graph of a 2-parameter model: a ``GRAPH_SHAPE``
    lattice over its domain box, walls included, without the nodes outside
    the domain (the domains are convex, so every edge between kept nodes
    stays inside), linked along ``GRAPH_STENCIL`` and weighted by the
    ``GRAPH_QUAD_POINTS``-point rule of ``_segment_lengths``."""
    lo, hi = model.domain.lo, model.domain.hi
    axes = [np.linspace(lo[d], hi[d], GRAPH_SHAPE[d]) for d in range(2)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (P, Q, 2)
    kept = model.domain.contains_rows(lattice.reshape(-1, 2)).reshape(GRAPH_SHAPE)
    index = np.full(GRAPH_SHAPE, -1)
    index[kept] = np.arange(int(np.sum(kept)))
    starts, ends = [], []
    P, Q = GRAPH_SHAPE
    for dp, dq in GRAPH_STENCIL:
        a = index[max(0, -dp):P - max(0, dp), max(0, -dq):Q - max(0, dq)]
        b = index[max(0, dp):P + min(0, dp), max(0, dq):Q + min(0, dq)]
        linked = (a >= 0) & (b >= 0)
        starts.append(a[linked])
        ends.append(b[linked])
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    nodes = lattice[kept]
    weights = _segment_lengths(model, np.stack([nodes[starts], nodes[ends]], axis=1), GRAPH_QUAD_POINTS)[:, 0]
    lengths, next_hop = _all_pairs(nodes.shape[0], starts, ends, weights)
    steps = (hi - lo) / (np.array(GRAPH_SHAPE) - 1)
    graph = _PathGraph(nodes, fisher_matrices(model, nodes), lengths, next_hop, steps)
    for array in (graph.nodes, graph.metrics, graph.lengths, graph.next_hop):
        array.setflags(write=False)
    return graph


def _all_pairs(count, starts, ends, weights) -> tuple:
    """Floyd-Warshall on ``count`` nodes with undirected edges starts[e] --
    ends[e] of length weights[e]: the (count, count) shortest lengths and
    int16 next hops (-1 where no path exists)."""
    lengths = np.full((count, count), np.inf)
    lengths[starts, ends] = weights
    lengths[ends, starts] = weights
    np.fill_diagonal(lengths, 0.0)
    next_hop = np.where(np.isfinite(lengths), np.arange(count, dtype=np.int16), np.int16(-1)).astype(np.int16)
    for k in range(count):
        via = lengths[:, k, None] + lengths[k]
        better = via < lengths
        np.copyto(lengths, via, where=better)
        np.copyto(next_hop, next_hop[:, k, None], where=better)
    return lengths, next_hop


def _graph_start(model: ParamModel, theta1, theta2, count):
    """``count`` nodes from theta1 to theta2 along the model's shortest-path
    graph, spaced at equal Fisher arc length, and that length; None when
    the graph gives no path of positive length.

    The path runs theta1, the graph's path between the nodes nearest the
    endpoints, theta2. Its graph segments are measured by their stored
    weights, and the two end segments by sqrt(v^T G v) with G stored at
    their lattice node. A node that rounds out of the domain (a segment
    along categorical's simplex face) is moved to the nearer end of its
    segment.
    """
    graph = model._path_graph
    hops = graph.path(graph.nearest(theta1), graph.nearest(theta2))
    if not hops:
        return None
    polyline = np.vstack([theta1, graph.nodes[hops], theta2])
    first, last = polyline[1] - theta1, theta2 - polyline[-2]
    ends = [float(np.sqrt(max(float(v @ graph.metrics[h] @ v), 0.0))) for v, h in ((first, hops[0]), (last, hops[-1]))]
    segments = np.concatenate([[ends[0]], graph.lengths[hops[:-1], hops[1:]], [ends[1]]])
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    total = float(cumulative[-1])
    if not total > 0.0:
        return None
    targets = total * np.arange(1, count - 1) / (count - 1)
    k = np.searchsorted(cumulative, targets, side="right") - 1
    frac = ((targets - cumulative[k]) / (cumulative[k + 1] - cumulative[k]))[:, None]
    nodes = np.vstack([theta1, polyline[k] + frac * (polyline[k + 1] - polyline[k]), theta2])
    outside = np.nonzero(~model.domain.contains_rows(nodes[1:-1]))[0]
    for i in outside:
        nodes[i + 1] = polyline[k[i]] if frac[i, 0] <= 0.5 else polyline[k[i] + 1]
    return nodes, total


def _energy_path(model: ParamModel, nodes) -> np.ndarray:
    """Interior nodes minimizing the chord energy sum_k |psi_{k+1} - psi_k|^2.

    psi = sqrt(p w) embeds the model in the unit sphere of R^X, where the
    Fisher metric is 4 times the Euclidean one. Levenberg-Marquardt with
    the block-tridiagonal Gauss-Newton matrix, damped by its floored
    diagonal; a trial step that leaves the domain or does not lower the
    energy is rejected and the damping raised. Stops once an accepted step
    lowers the energy by less than ``OPTIMIZER_TOL`` relative, after
    ``MAX_ITER`` trials, or when the damping passes ``MAX_DAMPING``.
    Returns new nodes; ``nodes`` is not modified.
    """
    nodes = nodes.copy()
    K, n = nodes.shape[0] - 2, nodes.shape[1]

    def embed(x):
        """psi, its Jacobian and the chord energy."""
        psi, dpsi = _embed(model, x)
        return psi, dpsi, float(np.sum(np.diff(psi, axis=0) ** 2))

    def normal_equations(psi, dpsi):
        """Gauss-Newton matrix, its damping scale and the energy gradient
        (halved)."""
        grad = np.einsum("knx,kx->kn", dpsi[1:-1], 2.0 * psi[1:-1] - psi[:-2] - psi[2:]).ravel()
        return (*_gauss_newton(dpsi, 1), grad)

    psi, dpsi, energy = embed(nodes)
    A, scale, grad = normal_equations(psi, dpsi)
    damping = INITIAL_DAMPING
    for _ in range(MAX_ITER):
        trial = nodes.copy()
        trial[1:-1] += np.linalg.solve(A + damping * scale, -grad).reshape(K, n)
        if np.all(model.domain.contains_rows(trial[1:-1])):
            t_psi, t_dpsi, t_energy = embed(trial)
            if t_energy < energy:
                done = energy - t_energy < OPTIMIZER_TOL * t_energy
                nodes, psi, dpsi, energy = trial, t_psi, t_dpsi, t_energy
                if done:
                    break
                A, scale, grad = normal_equations(psi, dpsi)
                damping *= 0.1
                continue
        damping *= 10.0
        if damping > MAX_DAMPING:
            break
    return nodes


def _embed(model: ParamModel, x) -> tuple:
    """psi = sqrt(p w) at the rows of ``x`` (T, X) and its Jacobian (T, n, X)."""
    sw = np.sqrt(model.space.weights)
    P, J = model.jet(x)
    psi = np.sqrt(np.maximum(P, 0.0)) * sw
    return psi, J * (sw / (2.0 * np.sqrt(np.maximum(P, DOMINANCE_TOL))))[:, None, :]


def _gauss_newton(dpsi, samples) -> tuple:
    """Gauss-Newton matrix (halved) of the chord energy sum_j |psi_{j+1} -
    psi_j|^2 over the rows of a polyline with ``samples`` evenly spaced
    points per segment (``_arc_rows``; with 1 the rows are the nodes), in
    the interior nodes, and its floored diagonal as the damping scale.

    ``dpsi`` (rows, n, X) holds psi's Jacobians at the rows. A row at
    fraction t of segment s moves with node s by 1 - t and with node s + 1
    by t, so every chord of segment s has one block on node s and one on
    node s + 1, and the matrix is block-tridiagonal: K x K blocks of
    n x n, returned as a (K n, K n) array.
    """
    rows, n, X = dpsi.shape
    K = (rows - 1) // samples - 1
    t = (np.arange(samples + 1) / samples)[:, None, None]  # a chord runs from t[i] to t[i + 1]
    start = dpsi[:-1].reshape(K + 1, samples, n, X)
    end = dpsi[1:].reshape(K + 1, samples, n, X)

    def per_node(a, b):
        """A segment's chord blocks on one node, as (K + 1, n, samples X)."""
        return np.transpose(a * end - b * start, (0, 2, 1, 3)).reshape(K + 1, n, samples * X)

    left = per_node(1.0 - t[1:], 1.0 - t[:-1])  # on node s
    right = per_node(t[1:], t[:-1])  # on node s + 1
    idx = np.arange(K)
    A = np.zeros((K, n, K, n))
    A[idx, :, idx, :] = np.einsum("knx,kmx->knm", right[:-1], right[:-1]) + np.einsum("knx,kmx->knm", left[1:], left[1:])
    off = np.einsum("knx,kmx->knm", left[1:-1], right[1:-1])
    A[idx[:-1], :, idx[1:], :] = off
    A[idx[1:], :, idx[:-1], :] = np.transpose(off, (0, 2, 1))
    A = A.reshape(K * n, K * n)
    return A, np.diag(np.maximum(np.diag(A), 1e-12))


def _preconditioner(model: ParamModel, nodes) -> np.ndarray:
    """M^-1 for the damped Gauss-Newton matrix M = A + ``PRECONDITIONER_DAMPING``
    diag of the chord energy over the arc objective's sample points at
    ``nodes``; M is symmetric positive definite."""
    _, dpsi = _embed(model, _arc_rows(nodes))
    A, scale = _gauss_newton(dpsi, ARC_SAMPLES)
    return np.linalg.inv(A + PRECONDITIONER_DAMPING * scale)


def _arc_rows(nodes) -> np.ndarray:
    """``ARC_SAMPLES`` evenly spaced points on each straight segment, from
    its start, then the last node: (S * ARC_SAMPLES + 1, n)."""
    t = np.arange(ARC_SAMPLES) / ARC_SAMPLES
    a = nodes[:-1]
    pts = a[:, None, :] + t[:, None] * (nodes[1:] - a)[:, None, :]
    return np.vstack([pts.reshape(-1, nodes.shape[1]), nodes[-1:]])


def _arc_buffers(model: ParamModel, nodes) -> dict:
    """Work arrays of ``_arc_objective`` for polylines shaped like ``nodes``:
    the rows' Jacobians (rows x n x X), u, du, the chords and the gradient
    factors (rows x X), and two work arrays of one jet block (at most
    ``jet_rows`` x X), whose rows set the block of ``_arc_objective``.
    One set serves every evaluation of a solve, so no evaluation maps and
    faults in fresh pages for them."""
    rows = (nodes.shape[0] - 1) * ARC_SAMPLES + 1
    X = model.space.weights.size
    block = min(rows, jet_rows(model))
    return {
        "sw": np.sqrt(model.space.weights),
        "jac": np.empty((rows, nodes.shape[1], X)),
        "u": np.empty((rows, X)),
        "du": np.empty((rows, X)),
        "chords": np.empty((rows - 1, X)),
        "scale": np.empty((rows, X)),
        "root": np.empty((block, X)),
        "block": np.empty((block, X)),
    }


def _arc_objective(model: ParamModel, nodes, buffers=None) -> tuple:
    """Sub-sampled arc length of psi = sqrt(p w) along the polyline, and its
    gradient in the interior nodes.

    The Fisher length is twice the length of psi's curve on the unit sphere.
    Between consecutive sample points u = psi / |psi| that curve is replaced
    by the great-circle arc 2 arcsin(r / 2) over the chord r, smoothed as
    sqrt(r^2 + ``CHORD_SMOOTHING``) so the sum stays differentiable where
    nodes collapse onto a face on which psi stops moving (the mixture's
    a = 0). ``buffers`` (from ``_arc_buffers``, made anew when None) hold
    the work arrays; every value is the same with fresh or reused ones.
    Returns (length, gradient (K, n)); the gradient is a new array.
    """
    if buffers is None:
        buffers = _arc_buffers(model, nodes)
    sw, jac, u, du, chords, scale = (buffers[k] for k in ("sw", "jac", "u", "du", "chords", "scale"))
    rows = _arc_rows(nodes)
    step = buffers["block"].shape[0]
    blocks = [slice(i, i + step) for i in range(0, rows.shape[0], step)]
    # d psi / d theta = J sqrt(w) / (2 sqrt(p)); per row, the factor
    # sqrt(w) / (2 sqrt(p) |psi|) that takes a gradient in u to one in theta.
    # Each block's Jacobian is kept in ``jac``, so only one jet is alive.
    for b in blocks:
        P, jac[b] = model.jet(rows[b])
        m = P.shape[0]
        root = np.sqrt(np.maximum(P, 0.0, out=buffers["root"][:m]), out=buffers["root"][:m])
        psi = np.multiply(root, sw, out=buffers["block"][:m])
        norm = np.sqrt(np.einsum("rx,rx->r", psi, psi))[:, None]
        np.divide(psi, norm, out=u[b])
        np.maximum(root, np.sqrt(DOMINANCE_TOL), out=scale[b])
        np.multiply(2.0 * norm, scale[b], out=scale[b])
        np.divide(sw, scale[b], out=scale[b])
    np.subtract(u[:-1], u[1:], out=chords)
    r = np.sqrt(np.einsum("rx,rx->r", chords, chords) + CHORD_SMOOTHING)
    h = np.minimum(0.5 * r, 1.0)
    length = 4.0 * float(np.sum(np.arcsin(h)))
    # d length / d chord, onto the sample points, then through u = psi / |psi|
    chords *= (2.0 / (r * np.sqrt(np.maximum(1.0 - h * h, 1e-300))))[:, None]
    du[:-1] = chords
    du[-1] = 0.0
    du[1:] -= chords
    drows = []
    for b in blocks:
        m = jac[b].shape[0]
        tangent = np.multiply(np.einsum("rx,rx->r", du[b], u[b])[:, None], u[b], out=buffers["block"][:m])
        np.subtract(du[b], tangent, out=tangent)
        drows.append(np.einsum("rnx,rx->rn", jac[b], np.multiply(tangent, scale[b], out=tangent)))
    drows = np.concatenate(drows)
    # A sample point at fraction t of segment s moves with node s by 1 - t
    # and with node s + 1 by t.
    K, n = nodes.shape[0] - 2, nodes.shape[1]
    t = np.arange(ARC_SAMPLES) / ARC_SAMPLES
    per_segment = drows[:-1].reshape(K + 1, ARC_SAMPLES, n)
    grad = np.einsum("j,sjn->sn", 1.0 - t, per_segment[1:]) + np.einsum("j,sjn->sn", t, per_segment[:-1])
    return length, grad


def _arc_solve(model: ParamModel, nodes) -> tuple:
    """Projected L-BFGS on ``_arc_objective`` from ``nodes``, whose first
    iteration decides whether ``nodes`` stand.

    Trial nodes are clipped to the domain's box, and a trial that still
    leaves the domain (categorical's simplex constraint) or fails the
    Armijo test halves the step. Coordinates held at a box wall by the
    gradient stay out of the search direction. The first iteration is a
    steepest-descent restart. When it finds no descent step, or its step
    lowers the objective by less than ``OPTIMIZER_TOL`` relative, ``nodes``
    are the result (a warm start, 1 iteration, converged).

    Otherwise the solver goes on in two phases, ``MAX_ITER`` iterations in
    all (then not converged). The preconditioned phase takes gamma M^-1 as
    L-BFGS's initial inverse Hessian, with M the damped Gauss-Newton matrix
    of the sampled chord energy at the nodes after the first step
    (``_preconditioner``) and gamma = s.y / y.M^-1 y from the newest pair,
    and restarts along -M^-1 g. It stalls when ``STALL_ITERATIONS``
    iterations lower the objective by less than ``OPTIMIZER_TOL`` relative,
    or when a restart finds no step; a stall there never ends the solve,
    since a stale M can hold the solver far from the minimum. The pairs are
    cleared, and the plain phase (initial inverse Hessian s.y / y.y I,
    restarts along -g) goes on from the same nodes with a stall window of
    its own. Only a stall there ends the solve as converged: nothing left
    to gain at this precision.

    Returns (nodes, iterations, converged, warm_start); ``nodes`` is not
    modified.
    """
    lo, hi = model.domain.lo, model.domain.hi
    scale = float(np.max(np.abs(nodes[-1] - nodes[0])))
    buffers = _arc_buffers(model, nodes)
    length, grad = _arc_objective(model, nodes, buffers)
    history = [length]
    pairs = _CurvaturePairs(nodes[1:-1].size)
    inverse = None  # M^-1 in the preconditioned phase; None in the first iteration and the plain phase
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        x = nodes[1:-1]
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        g = grad * free
        direction = -_lbfgs_direction(g, pairs, inverse) * free
        if not pairs or np.sum(direction * g) >= 0.0:
            # no curvature pairs yet, or they no longer give a descent
            # direction: restart along the (preconditioned) steepest descent
            pairs.clear()
            p = g if inverse is None else (inverse @ g.ravel()).reshape(g.shape) * free
            direction = -_restart_step(model, nodes, grad, g, p, scale, buffers) * p
        accepted = _armijo_step(model, nodes, length, grad, direction, buffers)
        if accepted is None:
            stalled = not pairs
            pairs.clear()
        else:
            trial, t_length, t_grad = accepted
            if iterations == 1 and length - t_length < OPTIMIZER_TOL * t_length:
                return nodes, 1, True, True
            s = (trial[1:-1] - x).ravel()
            y = (t_grad - grad).ravel()
            sy = float(s @ y)
            if sy > 1e-12 * float(np.sqrt((s @ s) * (y @ y))):
                pairs.append(s, y, 1.0 / sy)
            nodes, length, grad = trial, t_length, t_grad
            history.append(length)
            stalled = len(history) > STALL_ITERATIONS and history[-1 - STALL_ITERATIONS] - length < OPTIMIZER_TOL * length
        if stalled:
            if inverse is None:
                return nodes, iterations, True, iterations == 1
            # the preconditioned phase stalled: the plain phase goes on
            pairs.clear()
            history = [length]
            inverse = None
        elif iterations == 1:
            # past the warm-start decision: into the preconditioned phase
            inverse = _preconditioner(model, nodes)
    return nodes, iterations, False, False


def _restart_step(model: ParamModel, nodes, grad, g, p, scale, buffers) -> float:
    """Step length along -p for a restart: g.p / p^T H p, with H p the
    difference quotient of the gradient between the nodes and a probe moved
    by 1e-6 ``scale`` along -p. ``STEP_INIT`` ``scale`` / max|p| when that
    curvature is not positive or the probe leaves the domain."""
    fallback = STEP_INIT * scale / max(float(np.max(np.abs(p))), 1e-300)
    pp = float(np.sum(p * p))
    if pp == 0.0:
        return fallback
    eps = 1e-6 * scale / np.sqrt(pp)
    probe = nodes.copy()
    probe[1:-1] -= eps * p
    if not np.all(model.domain.contains_rows(probe[1:-1])):
        return fallback
    curvature = float(np.sum(p * (grad - _arc_objective(model, probe, buffers)[1]))) / eps
    return float(np.sum(g * p)) / curvature if curvature > 0.0 else fallback


class _CurvaturePairs:
    """The newest ``LBFGS_MEMORY`` L-BFGS pairs, oldest first, stacked for
    ``_lbfgs_direction``: s and y as the rows of S and Y (m, K n), rho =
    1 / s.y, and the inverses of the two unit triangular matrices of the
    two-loop recursion, U with U_ij = rho_i s_i.y_j (i < j) and L with
    L_ij = rho_i y_i.s_j (i > j).

    A new pair (s, y, rho) borders U with the column rho_i s_i.y and L
    with the row rho s_i.y over the older pairs i, both from one product
    S y, and their inverses are bordered to match.
    Dropping the oldest pair drops the first row and column of U and L,
    and the trailing blocks of their inverses are the new inverses.
    """

    def __init__(self, size):
        self.S = np.empty((LBFGS_MEMORY, size))
        self.Y = np.empty((LBFGS_MEMORY, size))
        self.rho = np.empty(LBFGS_MEMORY)
        self.U_inv = np.empty((LBFGS_MEMORY, LBFGS_MEMORY))
        self.L_inv = np.empty((LBFGS_MEMORY, LBFGS_MEMORY))
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def clear(self):
        self.count = 0

    def append(self, s, y, rho):
        m = self.count
        if m == LBFGS_MEMORY:  # drop the oldest pair
            m -= 1
            for a in (self.S, self.Y, self.rho):
                a[:-1] = a[1:]
            for a in (self.U_inv, self.L_inv):
                a[:-1, :-1] = a[1:, 1:]
        sy = self.S[:m] @ y
        self.U_inv[:m, m] = -(self.U_inv[:m, :m] @ (self.rho[:m] * sy))
        self.L_inv[m, :m] = -((rho * sy) @ self.L_inv[:m, :m])
        self.U_inv[m, :m] = 0.0
        self.L_inv[:m, m] = 0.0
        self.U_inv[m, m] = self.L_inv[m, m] = 1.0
        self.S[m], self.Y[m], self.rho[m] = s, y, rho
        self.count = m + 1


def _lbfgs_direction(g, pairs, inverse) -> np.ndarray:
    """Inverse-Hessian estimate times ``g`` by the two-loop recursion over
    ``pairs`` (``_CurvaturePairs``). The initial estimate is (s.y / y.y) I
    when ``inverse`` is None, and otherwise gamma ``inverse`` with gamma =
    s.y / y.``inverse`` y, both from the newest pair.

    Each loop is one triangular system in the stacked pairs: the first
    loop's coefficients solve U alpha = rho * S g, and the second loop's
    c = alpha - beta solve L c = alpha - rho * Y r, with r the initial
    estimate times g - Y^T alpha; the result is r + S^T c.
    """
    m = len(pairs)
    if m == 0:
        return g.copy()
    S, Y, rho = pairs.S[:m], pairs.Y[:m], pairs.rho[:m]
    alpha = pairs.U_inv[:m, :m] @ (rho * (S @ g.ravel()))
    q = g.ravel() - alpha @ Y
    y = Y[-1]
    if inverse is None:
        r = q * (1.0 / (rho[-1] * float(y @ y)))
    else:
        r = (1.0 / (rho[-1] * float(y @ (inverse @ y)))) * (inverse @ q)
    c = pairs.L_inv[:m, :m] @ (alpha - rho * (Y @ r))
    return (r + c @ S).reshape(g.shape)


def _armijo_step(model: ParamModel, nodes, length, grad, direction, buffers):
    """The first of the steps ``direction``, halved up to ``MAX_BACKTRACKS``
    times, whose box-clipped nodes stay in the domain and lower the
    objective by the Armijo rule: (nodes, length, gradient), or None."""
    lo, hi = model.domain.lo, model.domain.hi
    x = nodes[1:-1]
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial = nodes.copy()
        trial[1:-1] = np.clip(x + step * direction, lo, hi)
        if np.all(model.domain.contains_rows(trial[1:-1])):
            t_length, t_grad = _arc_objective(model, trial, buffers)
            if t_length <= length + ARMIJO * float(np.sum(grad * (trial[1:-1] - x))) and t_length < length:
                return trial, t_length, t_grad
        step *= 0.5
    return None


def _final_path(model: ParamModel, candidates, bounds, iterations, converged, warm_start=False,
                graph_length=None) -> PathResult:
    """The candidate path with the shortest checked length, with flags;
    a candidate equal to an earlier one is not measured again."""
    candidates = [c for i, c in enumerate(candidates) if not any(np.array_equal(c, d) for d in candidates[:i])]
    lengths = _path_lengths(model, candidates)
    best = int(np.argmin(lengths))
    nodes = candidates[best]
    degenerate = _degenerate_segments(model, nodes)
    return PathResult(nodes.copy(), lengths[best], *bounds, iterations, converged, warm_start, degenerate,
                      graph_length)


def _path_length(model: ParamModel, nodes) -> float:
    """Length of the polyline, each segment checked against its two halves.

    A segment whose rule disagrees with the sum over its halves by more than
    ``LENGTH_TOL`` is halved until the halves agree (at most
    ``MAX_HALVINGS`` times): a fixed rule understates segments whose speed
    has a kink (a crossing of the mixture's degenerate line b = 0) or a
    near-singularity (a categorical node close to the simplex face).
    Segments that agree keep their one-rule value, bit for bit.
    """
    return _path_lengths(model, [nodes])[0]


def _path_lengths(model: ParamModel, polylines) -> list:
    """``_path_length`` of each polyline. The S segments of all polylines
    and their 2S halves are measured in one stack, and the segments that
    need halving in one recursion; a segment's length does not depend on
    the stack it came in, so each length is bitwise its own."""
    a = np.concatenate([nodes[:-1] for nodes in polylines])
    b = np.concatenate([nodes[1:] for nodes in polylines])
    mid = 0.5 * (a + b)
    ends = np.concatenate([np.stack(pair, axis=1) for pair in ((a, b), (a, mid), (mid, b))])  # (3S, 2, n)
    rules, first, second = _segment_lengths(model, ends, LENGTH_QUAD_POINTS)[:, 0].reshape(3, -1)
    lengths = _checked_lengths(model, a, b, mid, rules, np.column_stack([first, second]), MAX_HALVINGS)
    stops = np.cumsum([len(nodes) - 1 for nodes in polylines])[:-1]
    return [float(np.sum(part)) for part in np.split(lengths, stops)]


def _checked_lengths(model: ParamModel, a, b, mid, rules, halves, halvings) -> np.ndarray:
    """Lengths of the segments a[i] -> b[i] with midpoints ``mid``, whose
    one-rule values are ``rules`` and whose halves' values are ``halves``
    (S, 2)."""
    out = rules.copy()
    bad = np.abs(np.sum(halves, axis=1) - rules) > LENGTH_TOL
    if not np.any(bad):
        return out
    if halvings == 0:
        out[bad] = np.sum(halves[bad], axis=1)
        return out
    m = int(np.sum(bad))
    pa, pb = np.concatenate([a[bad], mid[bad]]), np.concatenate([mid[bad], b[bad]])
    pmid = 0.5 * (pa + pb)
    # The parts' halves, in two calls of 2m segments each.
    part_halves = np.column_stack([
        _segment_lengths(model, np.stack(ends, axis=1), LENGTH_QUAD_POINTS)[:, 0] for ends in ((pa, pmid), (pmid, pb))
    ])
    parts = _checked_lengths(
        model, pa, pb, pmid, np.concatenate([halves[bad, 0], halves[bad, 1]]), part_halves, halvings - 1
    )
    out[bad] = parts[:m] + parts[m:]
    return out


def _degenerate_segments(model: ParamModel, nodes) -> tuple:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    inside = np.nonzero(model.domain.contains_rows(mids))[0]
    if inside.size == 0:
        return ()
    eigs = np.linalg.eigvalsh(fisher_matrices(model, mids[inside]))
    scale = np.maximum(np.max(eigs, axis=1), 1.0)
    return tuple(inside[np.min(eigs, axis=1) < EIGEN_TOL * scale].tolist())


@dataclass(frozen=True)
class AxiomReport:
    points: np.ndarray
    axiom_tol: float
    max_identity: float
    max_asymmetry: float
    max_triangle_violation: float

    @property
    def all_pass(self) -> bool:
        return (
            self.max_identity <= self.axiom_tol
            and self.max_asymmetry <= self.axiom_tol
            and self.max_triangle_violation <= self.axiom_tol
        )


def metric_axiom_check(model: ParamModel, thetas) -> AxiomReport:
    """Extended-metric axioms on distance estimates over sample points.

    Symmetry and triangle inequalities are tested on independently
    optimized estimates, so the tolerance scales with the optimizer's
    accuracy allowance times the largest distance involved.
    """
    pts = np.atleast_2d(np.asarray(thetas, dtype=float))
    if pts.shape[0] < 3:
        raise UsageError("axiom check needs at least three points")
    M = pts.shape[0]
    d = np.zeros((M, M))
    for i in range(M):
        for j in range(M):
            if i != j:
                d[i, j] = fisher_distance(model, pts[i], pts[j]).length
    scale = max(float(np.max(d)), 1e-12)
    tol = 2.0 * OPTIMIZER_GAP * scale
    max_identity = max(fisher_distance(model, pts[i], pts[i]).length for i in range(M))
    max_asym = float(np.max(np.abs(d - d.T)))
    # Excess d_ik - d_ij - d_jk over all (j, k) per i: triples with a repeated
    # index give exactly 0 or -(d_ij + d_ji), which the floor 0 absorbs.
    max_tri = 0.0
    for i in range(M):
        max_tri = max(max_tri, float(np.max(d[i][None, :] - d[i][:, None] - d)))
    return AxiomReport(pts, tol, max_identity, max_asym, max_tri)

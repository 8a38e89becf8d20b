"""Fisher-Rao path lengths and distances by discrete curve optimization.

A path between two parameter points is a piecewise-linear curve in
parameter space; its length integrates the metric speed sqrt(v^T G v)
segment by segment with Gauss-Legendre quadrature. The distance estimate
minimizes that length over the interior nodes. Everything rests on the
square-root embedding psi = sqrt(p w), which maps the model into the unit
sphere of R^X, where the Fisher length of a curve is twice the length of
its image. Two stages:

* an energy phase: Levenberg-Marquardt on the chord energy
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
  stalled; only a stall of the plain iteration counts as converged. Of
  the solver's path, the energy path and the straight path, the shortest
  is returned.

For 1-parameter models, and without interior nodes, the straight segment
is returned without any stage.

Every returned length is that of a real in-domain path, measured with the
accurate rule and each segment checked against its halves, so it is an
upper estimate of the underlying infimum; ``curve_length`` measures any
piecewise-linear curve the same way. The total-variation norm and the
Bhattacharyya angle of the endpoints are attached as lower bounds. The
number of interior nodes is the one setting; tolerances, caps, steps and
quadrature rules are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .fisher import EIGEN_TOL, directional_form, fisher_matrices
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
# smoothing, the jet block (rows; one jet of all rows made
# ``tv-lower-bound`` about 1.7 times slower, the extra time almost all
# system time for the page faults of its larger temporaries, not cache
# misses), the L-BFGS memory, the iterations over which the stop rule
# measures progress, the Armijo constant and the backtracking halvings
# per step.
ARC_SAMPLES = 4
CHORD_SMOOTHING = 1e-8
ARC_JET_ROWS = 13
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
    lower bounds. ``warm_start`` says whether the arc solver's first
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
    warm = _energy_path(model, straight)
    nodes, iterations, converged, warm_start = _arc_solve(model, warm)
    return _final_path(model, [nodes, warm, straight], bounds, iterations, converged, warm_start)


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
    factors (rows x X), and two per-block work arrays (``ARC_JET_ROWS`` x X).
    One set serves every evaluation of a solve, so no evaluation maps and
    faults in fresh pages for them."""
    rows = (nodes.shape[0] - 1) * ARC_SAMPLES + 1
    X = model.space.weights.size
    return {
        "sw": np.sqrt(model.space.weights),
        "jac": np.empty((rows, nodes.shape[1], X)),
        "u": np.empty((rows, X)),
        "du": np.empty((rows, X)),
        "chords": np.empty((rows - 1, X)),
        "scale": np.empty((rows, X)),
        "root": np.empty((ARC_JET_ROWS, X)),
        "block": np.empty((ARC_JET_ROWS, X)),
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
    blocks = [slice(i, i + ARC_JET_ROWS) for i in range(0, rows.shape[0], ARC_JET_ROWS)]
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
    pairs = []  # L-BFGS (s, y, 1 / y.s), oldest first
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
                pairs.append((s, y, 1.0 / sy))
                del pairs[:-LBFGS_MEMORY]
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


def _lbfgs_direction(g, pairs, inverse) -> np.ndarray:
    """Inverse-Hessian estimate times ``g`` by the two-loop recursion. The
    initial estimate is (s.y / y.y) I when ``inverse`` is None, and
    otherwise gamma ``inverse`` with gamma = s.y / y.``inverse`` y, both
    from the newest pair."""
    q = g.ravel().copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        if inverse is None:
            q *= 1.0 / (rho * float(y @ y))
        else:
            q = (1.0 / (rho * float(y @ (inverse @ y)))) * (inverse @ q)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return q.reshape(g.shape)


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


def _final_path(model: ParamModel, candidates, bounds, iterations, converged, warm_start=False) -> PathResult:
    """The candidate path with the shortest checked length, with flags;
    a candidate equal to an earlier one is not measured again."""
    candidates = [c for i, c in enumerate(candidates) if not any(np.array_equal(c, d) for d in candidates[:i])]
    lengths = [_path_length(model, nodes) for nodes in candidates]
    best = int(np.argmin(lengths))
    nodes = candidates[best]
    degenerate = _degenerate_segments(model, nodes)
    return PathResult(nodes.copy(), lengths[best], *bounds, iterations, converged, warm_start, degenerate)


def _path_length(model: ParamModel, nodes) -> float:
    """Length of the polyline, each segment checked against its two halves.

    A segment whose rule disagrees with the sum over its halves by more than
    ``LENGTH_TOL`` is halved until the halves agree (at most
    ``MAX_HALVINGS`` times): a fixed rule understates segments whose speed
    has a kink (a crossing of the mixture's degenerate line b = 0) or a
    near-singularity (a categorical node close to the simplex face).
    Segments that agree keep their one-rule value, bit for bit. The S
    segments and their 2S halves are measured in one stack.
    """
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    ends = np.concatenate([np.stack(pair, axis=1) for pair in ((a, b), (a, mid), (mid, b))])  # (3S, 2, n)
    rules, first, second = _segment_lengths(model, ends, LENGTH_QUAD_POINTS)[:, 0].reshape(3, -1)
    return float(np.sum(_checked_lengths(model, a, b, mid, rules, np.column_stack([first, second]), MAX_HALVINGS)))


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

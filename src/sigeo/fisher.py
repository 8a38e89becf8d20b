"""The Fisher metric on (possibly singular) parameterized models.

Inner products of tangent vectors, Fisher information matrices assembled
from parameter Jacobians, scale-aware rank detection, and a probe that
walks a curve and flags metric-speed discontinuities.

Where the density vanishes but a parameter partial does not (support
boundaries), the integrand (d p)^2 / p is evaluated with the density
floored at the dominance tolerance and the affected mass is reported on
the result instead of being clipped silently, so metric explosions remain
visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, UsageError
from .measures import DOMINANCE_TOL, TangentVector, integrate
from .models import CurveInModel, ParamModel

EIGEN_TOL = 1e-8  # relative to the largest eigenvalue, floored at 1
JUMP_TOL = 0.1    # relative speed mismatch that counts as a discontinuity
FD_STEP_T = 1e-4  # curve-velocity finite-difference step


@dataclass(frozen=True)
class FisherMatrix:
    """Fisher information matrix at a parameter point."""

    theta: np.ndarray
    matrix: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    capped_mass: float = 0.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))


def fisher_inner(v: TangentVector, w: TangentVector) -> float:
    """Inner product of two tangent vectors at the same base measure."""
    if not v.base.space.same_as(w.base.space) or not np.array_equal(
        v.base.density, w.base.density
    ):
        raise UsageError("tangent vectors live at different base points")
    return integrate(v.log_rep * w.log_rep, v.base)


def _capped_mass(p, J, w) -> float:
    """Fisher integrand mass on the nodes where the density sits below the floor."""
    capped = p < DOMINANCE_TOL
    return float(np.sum((J[:, capped] ** 2 / DOMINANCE_TOL) * w[capped]))


def fisher_matrix(model: ParamModel, theta) -> FisherMatrix:
    """Assemble G_ij = integral (d_i p)(d_j p)/p d(reference) at theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p, J = model.jet_at(theta)  # (X,), (n, X)
    w = model.space.weights
    scaled = J / np.maximum(p, DOMINANCE_TOL)[None, :]
    G = (J * w[None, :]) @ scaled.T
    G = 0.5 * (G + G.T)
    if not np.all(np.isfinite(G)):
        raise IntegrationError(f"non-finite Fisher integrand mass at theta={theta}")
    capped_mass = _capped_mass(p, J, w)
    eigs = np.linalg.eigvalsh(G)
    rank = _rank_from_eigs(eigs)
    return FisherMatrix(theta, G, eigs, rank, capped_mass)


def _rank_from_eigs(eigs) -> int:
    scale = max(float(np.max(eigs, initial=0.0)), 1.0)
    return int(np.sum(eigs > EIGEN_TOL * scale))


def degeneracy_rank(G: FisherMatrix) -> int:
    """Number of eigenvalues above the scale-aware tolerance."""
    return _rank_from_eigs(G.eigenvalues)


def directional_form(model: ParamModel, thetas, vs) -> np.ndarray:
    """Batched quadratic form v^T G(theta) v for rows of thetas and vs.

    The workhorse for curve lengths and monotonicity sweeps: evaluates the
    directional Fisher integrand (J v)^2 / p in one vectorized pass instead
    of assembling full matrices.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if vs.shape != thetas.shape:
        raise UsageError("one direction row per parameter row required")
    P, J = model.jet(thetas)  # (T, X), (T, n, X)
    return _directional_values(P, J, vs, model.space.weights)


def _directional_values(P, J, vs, w):
    dv = np.einsum("tnx,tn->tx", J, vs)
    Pf = np.maximum(P, DOMINANCE_TOL)
    vals = np.sum(dv * dv / Pf * w[None, :], axis=1)
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("non-finite directional Fisher mass")
    return vals


@dataclass(frozen=True)
class SpeedProbe:
    """Report from walking a curve: metric speeds and discontinuity flags."""

    t: np.ndarray
    speed: np.ndarray
    flagged: np.ndarray  # bool per probe point
    capped_mass: np.ndarray

    def flagged_t(self) -> np.ndarray:
        return self.t[self.flagged]


def two_integrability_probe(model: ParamModel, curve: CurveInModel, t_grid, jump_tol=JUMP_TOL) -> SpeedProbe:
    """Metric speed |c'(t)|_g along a curve, with jump detection.

    Velocities are estimated by central differences in the curve parameter
    (Richardson-extrapolated once); a probe point is flagged when its speed
    disagrees with both neighbors by more than ``jump_tol`` relative while
    the neighbors see no such mutual jump attributable elsewhere. On models
    whose metric speed extends continuously this flags nothing; a removable
    drop (speed limit positive but pointwise value different) is flagged at
    exactly the offending point.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 3:
        raise UsageError("probe needs at least three parameter values")
    if np.any(t_grid < 0) or np.any(t_grid > 1) or not np.all(np.diff(t_grid) > 0):
        raise UsageError("probe grid must be increasing within [0, 1]")

    thetas = []
    vels = []
    for t in t_grid:
        v1 = _curve_velocity(curve, t, FD_STEP_T)
        v2 = _curve_velocity(curve, t, FD_STEP_T / 2.0)
        vels.append((4.0 * v2 - v1) / 3.0)  # one Richardson step
        thetas.append(curve.point_at(t))
    thetas = np.asarray(thetas)
    vels = np.asarray(vels)

    # One batched jet serves both the speeds and the capped masses.
    P, J = model.jet(thetas)
    w = model.space.weights
    speed = np.sqrt(np.maximum(_directional_values(P, J, vels, w), 0.0))
    capped = np.array([_capped_mass(p, j, w) for p, j in zip(P, J)])

    flagged = np.zeros(t_grid.size, dtype=bool)
    floor = max(1e-8, 1e-6 * float(np.max(speed, initial=0.0)))
    for i in range(1, t_grid.size - 1):
        left, mid, right = speed[i - 1], speed[i], speed[i + 1]

        def differs(a, b):
            return abs(a - b) > jump_tol * max(abs(a), abs(b), floor)

        flagged[i] = differs(mid, left) and differs(mid, right)
    return SpeedProbe(t_grid, speed, flagged, capped)


def _curve_velocity(curve: CurveInModel, t, h):
    lo = max(0.0, t - h)
    hi = min(1.0, t + h)
    return (curve.point_at(hi) - curve.point_at(lo)) / (hi - lo)

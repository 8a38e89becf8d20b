"""Estimators on finite-backend models and their Cramer-Rao readout: the
phi-mean, bias, variance, inverse Fisher form, MSE residual and the
variance-vs-inverse-Fisher gap, all from ``cramer_rao_gap``.

Value spaces are finite dimensional (V = R^d with the coordinate dual
basis). Every expectation is a weighted sum over the enumerated outcomes:
the weights are the exact outcome probabilities, or, when
``Sampling.draws`` is positive, the frequencies of that many seeded Monte
Carlo draws. The derivative of the phi-mean always comes exactly from the
model's Jacobian. For n-sample experiments the n-fold product model is
used explicitly, so the metric entering the gap is the product model's own
Fisher matrix rather than a hidden factor of n. Its outcomes are the types
of ``models.type_table``, on which every estimator here takes one value per
type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideRangeError, SamplingError, UsageError
from .fisher import EIGEN_TOL, fisher_matrix_from_jet
from .models import ParamModel, type_table

CR_TOL = 1e-7
# Monte Carlo Cramer-Rao verdicts allow this many standard errors of the
# sampled variance along the gap's smallest-eigenvalue direction.
CR_NOISE_SE = 4.0
RANGE_TOL = 1e-8


@dataclass(frozen=True)
class PhiMap:
    """A coordinate map on parameter points into R^d."""

    value_dim: int
    fn: object

    def apply(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.fn(points), dtype=float)
        if out.shape != (points.shape[0], self.value_dim):
            raise UsageError("phi map returned the wrong shape")
        return out


def identity_chart(model: ParamModel) -> PhiMap:
    return PhiMap(model.param_dim, lambda pts: pts)


@dataclass(frozen=True)
class Estimator:
    """A raw estimator on a finite model: one parameter estimate per outcome
    (for product models, per type).

    Estimates nominally land in the model's parameter domain, though maps
    that strain that contract (inverse-style plug-ins) are representable.
    """

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def outcome_count(self) -> int:
        return self.values.shape[0]


def mean_estimator(base: ParamModel, n: int) -> Estimator:
    """Empirical frequencies of the first (m-1) atoms over n i.i.d. draws.

    For Bernoulli this is the sample mean; unbiased for the identity chart.
    """
    if base.space.kind != "finite":
        raise UsageError("mean estimator needs a finite base model")
    counts, _ = type_table(base.space.size, n)
    # The Bernoulli chart tracks atom 1 (density (1-p, p)); categorical
    # charts track atoms 0..k-1.
    tracked = counts[:, 1:2] if base.name.startswith("bernoulli") else counts[:, :base.param_dim]
    return Estimator(f"mean[{n}]", tracked / n)


def shrinkage_estimator(base: ParamModel, n: int, lam=0.9, offset=0.05) -> Estimator:
    inner = mean_estimator(base, n)
    return Estimator(f"shrinkage[{lam},{offset}]", lam * inner.values + offset)


def constant_estimator(base: ParamModel, n: int, theta0) -> Estimator:
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if theta0.shape != (base.param_dim,):
        raise UsageError(
            f"constant estimator needs {base.param_dim} values, one per parameter of {base.name}; got {theta0.size}"
        )
    counts, _ = type_table(base.space.size, n)
    return Estimator("constant", np.tile(theta0, (len(counts), 1)))


def plugin_inverse_estimator(base: ParamModel, n: int) -> Estimator:
    """1 over the Laplace-smoothed mean, (k+1)/(n+2); blows up near p -> 0.

    The smoothing keeps every value finite so second moments enumerate,
    while the norm still grows steeply toward the boundary.
    """
    if base.space.size != 2 or base.param_dim != 1:
        raise UsageError("plugin-inverse estimator is defined for Bernoulli bases")
    counts, _ = type_table(2, n)
    smoothed = (counts[:, 1] + 1.0) / (n + 2.0)
    return Estimator("plugin-inverse", (1.0 / smoothed)[:, None])


def get_estimator(base: ParamModel, n: int, estimator_id: str) -> Estimator:
    """Resolve an estimator id: mean, shrinkage:lam,c, constant:csv, plugin-inverse."""
    key = estimator_id.strip().lower()
    if key == "mean":
        return mean_estimator(base, n)
    try:
        if key.startswith(("shrinkage:", "constant:")):
            params = [float(s) for s in key.split(":", 1)[1].split(",")]
            # Shrunk means lie within |lam| + |offset|, so a finite sum keeps every estimate finite.
            if not math.isfinite(sum(map(abs, params))):
                raise UsageError(f"estimator id {estimator_id!r} needs finite parameters and estimates")
            if key.startswith("constant:"):
                return constant_estimator(base, n, params)
            if len(params) != 2:
                raise UsageError(f"estimator id {estimator_id!r} needs 2 values, lam and offset; got {len(params)}")
            return shrinkage_estimator(base, n, *params)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"estimator id {estimator_id!r} needs numeric parameters: {exc}") from None
    if key == "plugin-inverse":
        return plugin_inverse_estimator(base, n)
    raise UsageError(f"unknown estimator id {estimator_id!r}")


# ---------------------------------------------------------------------------
# The Cramer-Rao readout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sampling:
    """Monte Carlo draws (0 = exact enumeration, else at least 2) and their seed."""

    draws: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.draws < 0 or self.draws == 1:
            raise UsageError(f"Monte Carlo draws must be 0 (exact) or at least 2, got {self.draws}")


def _outcome_weights(model: ParamModel, density, sampling: Sampling) -> np.ndarray:
    """Outcome probabilities from ``density``, the model's density at theta,
    or the frequencies of ``sampling.draws`` seeded draws from them."""
    probs = density * model.space.weights
    if np.any(probs < -1e-12):
        raise SamplingError("negative outcome probability")
    probs = np.maximum(probs, 0.0)
    if not sampling.draws:
        return probs
    rng = np.random.default_rng(sampling.seed)
    idx = rng.choice(model.space.size, size=sampling.draws, p=probs / probs.sum())
    return np.bincount(idx, minlength=model.space.size) / sampling.draws


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric d x d form in the coordinate dual basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))


def _second_moment(vals, w, center) -> QuadraticForm:
    centered = vals - center[None, :]
    return QuadraticForm((centered * w[:, None]).T @ centered)


def _inverse_fisher_from_jet(model, theta, vals, p, J) -> QuadraticForm:
    """dphi_mean G^+ dphi_mean^T on the rank-supported subspace of G, from
    the outcome values and the jet (p, J) at theta.

    The phi-mean gradient is exact: the outcome values contracted with the
    model's Jacobian. The pseudo-inverse realizes the metric inverse on the
    completion of the tangent space; dual gradients with components outside
    the numerical range of G have no finite inverse form, which raises
    OutsideRangeError.
    """
    dphi = vals.T @ (J * model.space.weights).T  # (d, n)
    G = fisher_matrix_from_jet(theta, p, J, model.space.weights)
    eigs, U = np.linalg.eigh(G.matrix)
    scale = max(float(np.max(eigs, initial=0.0)), 1.0)
    keep = eigs > EIGEN_TOL * scale
    Uk = U[:, keep]
    proj = dphi @ Uk  # (d, r); r = 0 leaves the zero form
    resid = dphi - proj @ Uk.T
    norms = np.linalg.norm(dphi, axis=1)
    bad = np.linalg.norm(resid, axis=1) > RANGE_TOL * np.maximum(norms, RANGE_TOL)
    if np.any(bad & (norms > RANGE_TOL)):
        raise OutsideRangeError(
            "phi-mean gradient leaves the range of the Fisher matrix; "
            "the inverse form is undefined in the degenerate direction"
        )
    return QuadraticForm(proj @ np.diag(1.0 / eigs[keep]) @ proj.T)


@dataclass(frozen=True)
class CramerRaoResult:
    """The gap and its verdict, with the phi-mean, bias = mean - phi(theta)
    and the max-norm residual of MSE = variance + bias (x) bias, all under
    the weights of ``variance``."""

    gap: QuadraticForm
    min_eigenvalue: float
    holds: bool
    variance: QuadraticForm
    inverse_fisher: QuadraticForm
    noise_allowance: float
    mean: np.ndarray
    bias: np.ndarray
    mse_residual: float


def cramer_rao_gap(model, theta, phi, sigma, sampling=Sampling()) -> CramerRaoResult:
    """Variance of phi(sigma) minus the inverse Fisher form of the phi-mean's
    derivative, with the phi-mean, bias and MSE residual, all from one model
    jet at theta: the outcome weights are its exact probabilities, or the
    frequencies of ``sampling.draws`` seeded draws from them, and the
    derivative always comes exactly from its Jacobian.

    The gap is PSD up to ``CR_TOL`` plus a noise allowance: 0 when exact,
    else ``CR_NOISE_SE`` standard errors sqrt((E q^2 - (E q)^2) / (draws - 1))
    of the sampled variance along the gap's smallest-eigenvalue eigenvector
    u, q = (u.(x - E x))^2, under the exact law, so it does not shrink with
    the sampled variance.

    Finite but huge estimates can overflow either form; that raises
    UsageError, since no gap is defined for them."""
    if sigma.outcome_count != model.space.size:
        raise UsageError("estimator table does not match the outcome space")
    if model.space.kind != "finite":
        raise UsageError("estimation expectations need a finite model")
    vals = phi.apply(sigma.values)
    p, J = model.jet_at(theta)  # (X,), (n, X)
    w = _outcome_weights(model, p, sampling)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mean = w @ vals
    with np.errstate(over="ignore", invalid="ignore"):
        V = _second_moment(vals, w, mean)
        F = _inverse_fisher_from_jet(model, theta, vals, p, J)
        target = phi.apply(theta[None, :])[0]
        b = mean - target
        M = _second_moment(vals, w, target)
        mse_residual = float(np.max(np.abs(M.matrix - V.matrix - np.outer(b, b))))
    if not (np.all(np.isfinite(V.matrix)) and np.all(np.isfinite(F.matrix))):
        raise UsageError(
            f"estimator {sigma.name} overflows the variance or inverse-Fisher form; "
            "its estimates need finite second moments"
        )
    gap = QuadraticForm(V.matrix - F.matrix)
    mn = gap.min_eigenvalue()
    allowance = 0.0
    if sampling.draws:
        exact = np.maximum(p * model.space.weights, 0.0)
        q = ((vals - exact @ vals) @ np.linalg.eigh(gap.matrix)[1][:, 0]) ** 2
        spread = max(float(exact @ q**2 - (exact @ q) ** 2), 0.0)
        allowance = CR_NOISE_SE * (spread / (sampling.draws - 1)) ** 0.5
    return CramerRaoResult(gap, mn, mn >= -CR_TOL - allowance, V, F, allowance, mean, b, mse_residual)

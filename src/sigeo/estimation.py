"""Estimators on finite-backend models: means, biases, quadratic forms,
inverse Fisher forms, and the variance-vs-inverse-Fisher gap.

Value spaces are finite dimensional (V = R^d with the coordinate dual
basis). Every expectation is a weighted sum over the enumerated outcomes
(at most ``models.ENUM_LIMIT`` of them): the weights are the exact outcome
probabilities, or, when ``Sampling.draws`` is positive, the frequencies of
that many seeded Monte Carlo draws, with standard errors reported for the
mean. The derivative of the phi-mean always comes exactly from the model's
Jacobian. For n-sample experiments the n-fold product model is used
explicitly, so the metric entering the gap is the product model's own
Fisher matrix rather than a hidden factor of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideRangeError, SamplingError, UsageError
from .fisher import EIGEN_TOL, fisher_matrix
from .models import ParamModel, outcome_table

PSD_TOL = 1e-10
CR_TOL = 1e-7
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
    """A raw estimator on a finite model: one parameter estimate per atom.

    Estimates nominally land in the model's parameter domain, though maps
    that strain that contract (inverse-style plug-ins) are representable;
    the regularity probe exists to catch their blow-ups.
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
    _, counts = outcome_table(base.space.size, n)
    # The Bernoulli chart tracks atom 1 (density (1-p, p)); categorical
    # charts track atoms 0..k-1.
    tracked = counts[:, 1:2] if base.name.startswith("bernoulli") else counts[:, :base.param_dim]
    return Estimator(f"mean[{n}]", tracked / n)


def shrinkage_estimator(base: ParamModel, n: int, lam=0.9, offset=0.05) -> Estimator:
    inner = mean_estimator(base, n)
    return Estimator(f"shrinkage[{lam},{offset}]", lam * inner.values + offset)


def constant_estimator(base: ParamModel, n: int, theta0) -> Estimator:
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    count = base.space.size ** n
    return Estimator("constant", np.tile(theta0, (count, 1)))


def plugin_inverse_estimator(base: ParamModel, n: int) -> Estimator:
    """1 over the Laplace-smoothed mean, (k+1)/(n+2); blows up near p -> 0.

    The smoothing keeps every value finite so second moments enumerate,
    while the norm still grows steeply toward the boundary, which is what
    the regularity probe is meant to flag.
    """
    if base.space.size != 2 or base.param_dim != 1:
        raise UsageError("plugin-inverse estimator is defined for Bernoulli bases")
    _, counts = outcome_table(2, n)
    smoothed = (counts[:, 1] + 1.0) / (n + 2.0)
    return Estimator("plugin-inverse", (1.0 / smoothed)[:, None])


def get_estimator(base: ParamModel, n: int, estimator_id: str) -> Estimator:
    """Resolve an estimator id: mean, shrinkage:lam,c, constant:csv, plugin-inverse."""
    key = estimator_id.strip().lower()
    if key == "mean":
        return mean_estimator(base, n)
    try:
        if key.startswith("shrinkage:"):
            lam, off = (float(s) for s in key.split(":", 1)[1].split(","))
            return shrinkage_estimator(base, n, lam, off)
        if key.startswith("constant:"):
            theta0 = [float(s) for s in key.split(":", 1)[1].split(",")]
            return constant_estimator(base, n, theta0)
    except ValueError as exc:
        raise UsageError(f"estimator id {estimator_id!r} needs numeric parameters: {exc}") from None
    if key == "plugin-inverse":
        return plugin_inverse_estimator(base, n)
    raise UsageError(f"unknown estimator id {estimator_id!r}")


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sampling:
    """Monte Carlo draws (0 = exact enumeration, else at least 2) and their seed."""

    draws: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.draws < 0 or self.draws == 1:
            raise UsageError(f"Monte Carlo draws must be 0 (exact) or at least 2, got {self.draws}")


def _outcome_probs(model: ParamModel, theta) -> np.ndarray:
    if model.space.kind != "finite":
        raise UsageError("estimation expectations need a finite model")
    p = model.density(theta) * model.space.weights
    if np.any(p < -1e-12):
        raise SamplingError("negative outcome probability")
    return np.maximum(p, 0.0)


def _outcome_weights(model: ParamModel, theta, sampling: Sampling) -> np.ndarray:
    """Outcome probabilities, or the frequencies of ``sampling.draws`` seeded draws."""
    probs = _outcome_probs(model, theta)
    if not sampling.draws:
        return probs
    rng = np.random.default_rng(sampling.seed)
    idx = rng.choice(model.space.size, size=sampling.draws, p=probs / probs.sum())
    return np.bincount(idx, minlength=model.space.size) / sampling.draws


def _phi_values(phi: PhiMap, sigma: Estimator, model: ParamModel) -> np.ndarray:
    if sigma.outcome_count != model.space.size:
        raise UsageError("estimator table does not match the outcome space")
    return phi.apply(sigma.values)


@dataclass(frozen=True)
class MeanResult:
    value: np.ndarray
    stderr: np.ndarray


def phi_mean(
    model: ParamModel, theta, phi: PhiMap, sigma: Estimator, sampling: Sampling = Sampling()
) -> MeanResult:
    """E_theta[phi(sigma(x))] per dual-basis coordinate."""
    vals = _phi_values(phi, sigma, model)
    w = _outcome_weights(model, theta, sampling)
    mean = w @ vals
    if not sampling.draws:
        return MeanResult(mean, np.zeros(phi.value_dim))
    return MeanResult(mean, np.sqrt(w @ (vals - mean) ** 2 / (sampling.draws - 1)))


def bias(model, theta, phi, sigma, sampling=Sampling()) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return phi_mean(model, theta, phi, sigma, sampling).value - phi.apply(theta[None, :])[0]


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

    def is_psd(self, tol=PSD_TOL) -> bool:
        return self.min_eigenvalue() >= -tol


def _second_moment(vals, w, center) -> QuadraticForm:
    centered = vals - center[None, :]
    return QuadraticForm((centered * w[:, None]).T @ centered)


def mse_form(model, theta, phi, sigma, sampling=Sampling()) -> QuadraticForm:
    """E[(phi sigma - phi(theta)) (phi sigma - phi(theta))^T]."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = _phi_values(phi, sigma, model)
    w = _outcome_weights(model, theta, sampling)
    return _second_moment(vals, w, phi.apply(theta[None, :])[0])


def variance_form(model, theta, phi, sigma, sampling=Sampling()) -> QuadraticForm:
    """Covariance of phi(sigma) under the model at theta."""
    vals = _phi_values(phi, sigma, model)
    w = _outcome_weights(model, theta, sampling)
    return _second_moment(vals, w, w @ vals)


def vmse_residual(model, theta, phi, sigma, sampling=Sampling()) -> float:
    """Max-norm residual of MSE = variance + bias (x) bias."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = _phi_values(phi, sigma, model)
    w = _outcome_weights(model, theta, sampling)
    mean = w @ vals
    target = phi.apply(theta[None, :])[0]
    M = _second_moment(vals, w, target).matrix
    V = _second_moment(vals, w, mean).matrix
    b = mean - target
    return float(np.max(np.abs(M - V - np.outer(b, b))))


# ---------------------------------------------------------------------------
# Inverse Fisher form and the gap
# ---------------------------------------------------------------------------

def inverse_fisher_form(model, theta, phi, sigma, range_tol=RANGE_TOL) -> QuadraticForm:
    """dphi_mean G^+ dphi_mean^T on the rank-supported subspace of G.

    The phi-mean gradient is exact: the outcome values contracted with the
    model's Jacobian. The pseudo-inverse realizes the metric inverse on the
    completion of the tangent space; dual gradients with components outside
    the numerical range of G have no finite inverse form, which raises
    OutsideRangeError.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = _phi_values(phi, sigma, model)
    _, J = model.jet_at(theta)  # (n, X)
    dphi = vals.T @ (J * model.space.weights).T  # (d, n)
    G = fisher_matrix(model, theta)
    eigs, U = np.linalg.eigh(G.matrix)
    scale = max(float(np.max(eigs, initial=0.0)), 1.0)
    keep = eigs > EIGEN_TOL * scale
    Uk = U[:, keep]
    resid = dphi - (dphi @ Uk) @ Uk.T
    norms = np.linalg.norm(dphi, axis=1)
    bad = np.linalg.norm(resid, axis=1) > range_tol * np.maximum(norms, range_tol)
    if np.any(bad & (norms > range_tol)):
        raise OutsideRangeError(
            "phi-mean gradient leaves the range of the Fisher matrix; "
            "the inverse form is undefined in the degenerate direction"
        )
    if not np.any(keep):
        return QuadraticForm(np.zeros((phi.value_dim, phi.value_dim)))
    proj = dphi @ Uk  # (d, r)
    return QuadraticForm(proj @ np.diag(1.0 / eigs[keep]) @ proj.T)


@dataclass(frozen=True)
class CramerRaoResult:
    gap: QuadraticForm
    min_eigenvalue: float
    holds: bool
    variance: QuadraticForm
    inverse_fisher: QuadraticForm


def cramer_rao_gap(model, theta, phi, sigma, sampling=Sampling(), tol=CR_TOL) -> CramerRaoResult:
    """variance_form minus inverse_fisher_form; PSD up to ``tol``."""
    V = variance_form(model, theta, phi, sigma, sampling)
    F = inverse_fisher_form(model, theta, phi, sigma)
    gap = QuadraticForm(V.matrix - F.matrix)
    mn = gap.min_eigenvalue()
    return CramerRaoResult(gap, mn, mn >= -tol, V, F)


# ---------------------------------------------------------------------------
# Regularity probe
# ---------------------------------------------------------------------------

def regularity_probe(model, thetas, phi, sigma, growth_ratio=2.0):
    """L2 norms of phi(sigma) across a parameter grid, with blow-up flags.

    A grid point is flagged when its squared norm exceeds ``growth_ratio``
    times a neighbor's squared norm while sitting closer to the domain
    boundary than that neighbor: bounded estimators stay unflagged, while
    inverse-style plug-ins light up toward the region they blow up in.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    squares = _phi_values(phi, sigma, model) ** 2
    norms = np.array(
        [np.sqrt(np.max((squares * _outcome_probs(model, th)[:, None]).sum(axis=0))) for th in thetas]
    )
    edge = np.minimum(
        np.min(thetas - model.domain.lo[None, :], axis=1),
        np.min(model.domain.hi[None, :] - thetas, axis=1),
    )
    flagged = np.zeros(thetas.shape[0], dtype=bool)
    for i in range(thetas.shape[0]):
        for j in (i - 1, i + 1):
            if 0 <= j < thetas.shape[0] and edge[i] < edge[j]:
                if norms[i] ** 2 > growth_ratio * norms[j] ** 2:
                    flagged[i] = True
    return {"thetas": thetas, "norms": norms, "flagged": flagged}

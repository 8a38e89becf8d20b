"""Probabilistic morphisms as computable kernels.

A kernel assigns to every source atom/node a probability row over a finite
target; pushing a measure forward integrates the rows against the measure.
Pushforwards are linear, map probability measures to probability measures,
and contract both the total-variation norm and the Fisher metric. Grid
sources are handled by interval binning, which keeps rows exactly
one-hot and hence exactly row-stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .fisher import directional_form
from .measures import DOMINANCE_TOL, MASS_TOL, Measure, SampleSpace, TangentVector, finite_space
from .models import ParamModel, tangent_at

SUFF_TOL = 1e-7
MONO_TOL = 1e-9


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic kernel from a source space to a finite target."""

    source: SampleSpace
    target: SampleSpace
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if self.target.kind != "finite":
            raise UsageError("kernel targets must be finite spaces")
        if rows.shape != (self.source.size, self.target.size):
            raise UsageError("kernel needs one row per source node")
        if np.any(rows < 0):
            raise UsageError("kernel entries must be nonnegative")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > MASS_TOL:
            raise UsageError("kernel rows must sum to 1")


def identity_kernel(space: SampleSpace) -> MarkovKernel:
    if space.kind != "finite":
        raise UsageError("identity kernel needs a finite space")
    return MarkovKernel(space, space, np.eye(space.size))


def permutation_kernel(space: SampleSpace, perm) -> MarkovKernel:
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(space.size)):
        raise UsageError("not a permutation of the atoms")
    rows = np.zeros((space.size, space.size))
    rows[np.arange(space.size), perm] = 1.0
    return MarkovKernel(space, space, rows)


def binning_kernel(source: SampleSpace, labels, n_bins=None) -> MarkovKernel:
    """Deterministic coarse-graining: atom i maps to bin labels[i]."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (source.size,):
        raise UsageError("one bin label per source node required")
    m = int(n_bins) if n_bins is not None else int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= m:
        raise UsageError("bin labels out of range")
    rows = np.zeros((source.size, m))
    rows[np.arange(source.size), labels] = 1.0
    return MarkovKernel(source, finite_space(m), rows)


def interval_binning_kernel(source: SampleSpace, edges) -> MarkovKernel:
    """Bin a 1-d grid source into the intervals delimited by ``edges``."""
    if source.kind != "grid1d":
        raise UsageError("interval binning needs a 1-d grid source")
    edges = np.asarray(edges, dtype=float)
    labels = np.clip(np.searchsorted(edges, source.points, side="right"), 0, edges.size)
    return binning_kernel(source, labels, n_bins=edges.size + 1)


def random_kernel(source: SampleSpace, n_target: int, rng) -> MarkovKernel:
    """Rows drawn independently from the flat distribution on the simplex."""
    rows = rng.dirichlet(np.ones(n_target), size=source.size)
    return MarkovKernel(source, finite_space(n_target), rows)


def compose(second: MarkovKernel, first: MarkovKernel) -> MarkovKernel:
    """Kernel of first-then-second; exact on finite backends."""
    if not first.target.same_as(second.source):
        raise UsageError("kernels do not compose: target/source mismatch")
    return MarkovKernel(first.source, second.target, first.rows @ second.rows)


def pushforward_measure(kernel: MarkovKernel, mu: Measure) -> Measure:
    """Pushforward along the kernel; linear, mass preserving."""
    if not mu.space.same_as(kernel.source):
        raise UsageError("measure lives on a different space than the kernel source")
    target_density = mu.masses @ kernel.rows  # target reference is counting
    return Measure(kernel.target, target_density, signed=mu.signed)


def pushforward_tangent(kernel: MarkovKernel, v: TangentVector) -> TangentVector:
    """Push a tangent vector: velocity measure forward, then re-divide.

    Domination survives pushforward, so no error path exists here; target
    atoms where the pushed base vanishes get log_rep 0.
    """
    base = pushforward_measure(kernel, v.base)
    velocity = pushforward_measure(kernel, v.velocity_measure())
    rep = np.zeros(base.space.size)
    ok = base.density > DOMINANCE_TOL
    rep[ok] = velocity.density[ok] / base.density[ok]
    return TangentVector(base, rep)


def pushforward_model(kernel: MarkovKernel, model: ParamModel) -> ParamModel:
    """The image family theta -> kernel_*(p_theta) as a model on the target."""
    if not model.space.same_as(kernel.source):
        raise UsageError("model lives on a different space than the kernel source")
    wrows = model.space.weights[:, None] * kernel.rows

    def dens(thetas):
        return model.density_batch(thetas) @ wrows

    def jet(thetas):
        P, J = model.jet(thetas)
        return P @ wrows, J @ wrows

    return ParamModel(f"{model.name}>>pushed", model.domain, kernel.target, dens, jet_fn=jet)


def metric_along(model: ParamModel, theta, v) -> float:
    """g_theta(v, v) evaluated directly on the model."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(directional_form(model, theta[None, :], v[None, :])[0])


def monotonicity_gap(kernel: MarkovKernel, model: ParamModel, theta, v) -> float:
    """g(v, v) minus the pushed metric g(T v, T v); nonnegative up to roundoff."""
    before = metric_along(model, theta, v)
    tangent = tangent_at(model, theta, v)
    pushed = pushforward_tangent(kernel, tangent)
    ok = pushed.base.density > DOMINANCE_TOL
    after = float(
        np.sum(pushed.log_rep[ok] ** 2 * pushed.base.density[ok] * pushed.base.space.weights[ok])
    )
    return before - after


def sufficiency_check(kernel: MarkovKernel, model: ParamModel, thetas, vs, tol=SUFF_TOL):
    """Metric-equality consequence of sufficiency over (theta, v) samples.

    Returns the largest absolute gap and whether it stays within ``tol``.
    A pass is consistent with sufficiency, not a certificate of it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if thetas.shape != vs.shape:
        raise UsageError("one direction per parameter sample required")
    gaps = [monotonicity_gap(kernel, model, th, v) for th, v in zip(thetas, vs)]
    max_abs = float(np.max(np.abs(gaps))) if gaps else 0.0
    return {"max_abs_gap": max_abs, "sufficient_consistent": max_abs <= tol, "gaps": gaps}

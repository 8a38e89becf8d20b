"""Probabilistic morphisms as computable kernels.

A kernel assigns to every source atom/node a probability row over a finite
target; pushing a measure forward integrates the rows against the measure.
Pushforwards are linear, map probability measures to probability measures,
and contract both the total-variation norm and the Fisher metric.
Deterministic kernels (permutations, binnings) keep rows exactly one-hot
and hence exactly row-stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fisher
from .errors import UsageError
# directional_form is unused here; perfbench/tests/test_tracing.py expects the binding.
from .fisher import directional_form
from .measures import DOMINANCE_TOL, MASS_TOL, Measure, SampleSpace, TangentVector, finite_space
from .models import ParamModel, tangent_log_reps

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
        # One pass accepts every valid kernel (spaces have at least one node,
        # so rows is not empty here): a NaN fails the min, a +inf the sums.
        # Any other kernel meets the ordered checks below, so the first
        # failing check names the fault.
        if rows.min() >= 0 and _mass_defect(rows) <= MASS_TOL:
            return
        if not np.all(np.isfinite(rows)):
            raise UsageError("kernel entries must be finite")
        if np.any(rows < 0):
            raise UsageError("kernel entries must be nonnegative")
        if _mass_defect(rows) > MASS_TOL:
            raise UsageError("kernel rows must sum to 1")


def _mass_defect(rows) -> float:
    """Largest |row sum - 1|; finite rows whose sum overflows give inf, quietly."""
    with np.errstate(over="ignore"):
        sums = rows.sum(axis=1)
    return abs(sums - 1.0).max()


def permutation_kernel(space: SampleSpace, perm) -> MarkovKernel:
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(space.size)):
        raise UsageError("not a permutation of the atoms")
    rows = np.zeros((space.size, space.size))
    rows[np.arange(space.size), perm] = 1.0
    return MarkovKernel(space, space, rows)


def binning_kernel(source: SampleSpace, labels) -> MarkovKernel:
    """Deterministic coarse-graining: atom i maps to bin labels[i] of
    labels.max() + 1 bins."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (source.size,):
        raise UsageError("one bin label per source node required")
    if labels.min() < 0:
        raise UsageError("bin labels must be nonnegative")
    m = int(labels.max()) + 1
    rows = np.zeros((source.size, m))
    rows[np.arange(source.size), labels] = 1.0
    return MarkovKernel(source, finite_space(m), rows)


def random_kernel(source: SampleSpace, n_target: int, rng) -> MarkovKernel:
    """Rows drawn independently from the flat distribution on the simplex."""
    rows = rng.dirichlet(np.ones(n_target), size=source.size)
    return MarkovKernel(source, _target_space(n_target), rows)


@lru_cache(maxsize=64)
def _target_space(n_target: int) -> SampleSpace:
    """One finite space per target size; spaces are immutable, so kernels
    drawn with the same size share it."""
    return finite_space(n_target)


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


def monotonicity_gap(kernel, model: ParamModel, thetas, vs) -> np.ndarray:
    """g(v, v) minus the pushed metric g(T v, T v) for rows of thetas and vs.

    ``kernel`` is one MarkovKernel for every row or a sequence of one per
    row. The gaps (T,) are nonnegative up to roundoff. One jet serves every
    row, and the rows of kernels with one target size are pushed in one
    stacked product; each gap is bitwise the one the per-row composition
    ``tangent_at``, ``pushforward_tangent`` and the weighted square sum of
    the pushed log_rep gives. A bad row raises what that composition
    raises for it; of several bad rows, the first one's error is raised,
    except that the domain and finiteness checks of every row come before
    the tangent checks.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    kernels = [kernel] * len(thetas) if isinstance(kernel, MarkovKernel) else list(kernel)
    if len(kernels) != len(thetas):
        raise UsageError("one kernel per parameter row required")
    if vs.shape != thetas.shape:
        raise UsageError("one direction row per parameter row required")
    model.domain.require_rows(thetas)
    P, J = model.jet(thetas)
    w = model.space.weights
    before = fisher._directional_values(P, J, vs, w)
    rep = tangent_log_reps(P, J, vs, w)
    if not all(k.source.same_as(model.space) for k in kernels):
        raise UsageError("measure lives on a different space than the kernel source")
    base_masses = P * w
    velocity_masses = rep * P * w
    after = np.empty(len(thetas))
    sizes = np.array([k.target.size for k in kernels])
    for size in np.unique(sizes):
        members = np.nonzero(sizes == size)[0]
        K = _stacked_rows([kernels[i] for i in members])
        base = np.matmul(base_masses[members, None, :], K)[:, 0, :]
        velocity = np.matmul(velocity_masses[members, None, :], K)[:, 0, :]
        ok = base > DOMINANCE_TOL
        pushed = np.divide(velocity, base, out=np.zeros_like(velocity), where=ok)
        terms = pushed ** 2 * base  # finite targets weigh every atom 1
        sums = np.sum(terms, axis=1)
        for i in np.nonzero(~np.all(ok, axis=1))[0]:
            sums[i] = np.sum(terms[i][ok[i]])  # the sum over the kept atoms alone
        after[members] = sums
    return before - after


def _stacked_rows(kernels) -> np.ndarray:
    """Rows (G, X, m) of kernels with one target size; a kernel repeated
    across every row is broadcast, not copied."""
    if all(k is kernels[0] for k in kernels):
        return kernels[0].rows[None]
    return np.stack([k.rows for k in kernels])


def random_kernel_gaps(model: ParamModel, draws, rng) -> np.ndarray:
    """Monotonicity gaps for draws (theta, v, n_target) under random kernels.

    Each draw's kernel comes from ``random_kernel(model.space, n_target,
    rng)`` right after the draw is taken, so ``rng`` runs through the same
    stream as a loop that draws and evaluates one row at a time. Draws are
    evaluated in blocks whose kernels hold at most ``JET_NODE_BUDGET``
    entries together (a larger kernel makes a block alone), and a block is
    released before the next one's first kernel is drawn.
    """
    gaps = []
    block = []
    entries = 0
    for theta, v, n_target in draws:
        size = model.space.size * n_target
        if block and entries + size > fisher.JET_NODE_BUDGET:
            gaps.append(_block_gaps(model, block))
            block = []
            entries = 0
        block.append((theta, v, random_kernel(model.space, n_target, rng)))
        entries += size
    if block:
        gaps.append(_block_gaps(model, block))
    return np.concatenate(gaps or [np.empty(0)])


def _block_gaps(model, block):
    thetas, vs, kernels = zip(*block)
    return monotonicity_gap(kernels, model, np.array(thetas), np.array(vs))


def sufficiency_check(kernel: MarkovKernel, model: ParamModel, thetas, vs):
    """Metric-equality consequence of sufficiency over (theta, v) samples.

    Returns the largest absolute gap and whether it stays within ``SUFF_TOL``.
    A pass is consistent with sufficiency, not a certificate of it. Rows go
    to ``monotonicity_gap`` in jet-budget chunks.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if thetas.shape != vs.shape:
        raise UsageError("one direction per parameter sample required")
    gaps = np.empty(len(thetas))
    chunk = fisher.jet_rows(model)
    for start in range(0, len(thetas), chunk):
        gaps[start:start + chunk] = monotonicity_gap(
            kernel, model, thetas[start:start + chunk], vs[start:start + chunk]
        )
    max_abs = float(np.max(np.abs(gaps))) if gaps.size else 0.0
    return {"max_abs_gap": max_abs, "sufficient_consistent": max_abs <= SUFF_TOL, "gaps": gaps}

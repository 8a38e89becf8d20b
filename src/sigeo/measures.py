"""Sample spaces and finite signed measures.

Two families of backends: finite atom spaces carrying counting reference
measure, and quadrature grids (1-d intervals, 2-d rectangles) whose
reference weights approximate Lebesgue measure. A measure stores its
density with respect to the backend's reference weights; signed measures
share the type with probability measures via a flag so tangent vectors and
probability measures flow through the same arithmetic.

All values are immutable after construction and every operation is a pure
function, so concurrent evaluation is safe. Reductions over nodes use
numpy's fixed left-to-right summation for reproducibility.

Tolerances
----------
MASS_TOL = 1e-9       row-sum slack for Markov kernels
QUAD_TOL = 1e-6       grid quadrature slack for identities exact in the continuum
DOMINANCE_TOL = 1e-12 density floor separating genuine mass from roundoff
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .quadrature import panel_nodes_weights, uniform_edges

MASS_TOL = 1e-9
QUAD_TOL = 1e-6
DOMINANCE_TOL = 1e-12

# Gauss-Legendre points per panel of the 1-d (by default) and 2-d grids.
GRID_POINTS = 8

_FINITE = "finite"
_GRID1D = "grid1d"
_GRID2D = "grid2d"


@dataclass(frozen=True)
class SampleSpace:
    """A backend for measures: atoms or quadrature nodes plus reference weights.

    ``points`` has shape (X,) for finite/1-d backends and (X, 2) for 2-d
    grids. ``weights`` are the reference-measure weights per node: all ones
    (counting measure) for finite spaces, quadrature weights approximating
    Lebesgue measure for grids.
    """

    kind: str
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if self.kind not in (_FINITE, _GRID1D, _GRID2D):
            raise UsageError(f"unknown backend kind {self.kind!r}")
        if wts.ndim != 1 or len(wts) != self.size:
            raise UsageError("weights must be one per node")
        if not np.all(wts > 0):
            raise UsageError("all reference weights must be positive")
        if self.size < 1 or (self.kind != _FINITE and self.size < 2):
            raise UsageError("grid backends need at least 2 nodes")
        if self.kind == _GRID1D and not np.all(np.diff(pts) > 0):
            raise UsageError("grid nodes must be strictly increasing")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def same_as(self, other: "SampleSpace") -> bool:
        return self is other or (
            self.kind == other.kind
            and self.size == other.size
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def finite_space(m: int) -> SampleSpace:
    """Finite space with ``m`` atoms and counting reference measure."""
    if m < 1:
        raise UsageError("finite space needs at least 1 atom")
    return SampleSpace(_FINITE, np.arange(m, dtype=float), np.ones(m))


def grid1d_space(lo, hi, panels, npts=GRID_POINTS) -> SampleSpace:
    """1-d interval backend with composite Gauss-Legendre weights."""
    nodes, weights = panel_nodes_weights(uniform_edges(lo, hi, panels), npts)
    return SampleSpace(_GRID1D, nodes, weights)


def grid1d_from_edges(edges, npts) -> SampleSpace:
    """1-d backend over custom panel edges (for clustered grids)."""
    nodes, weights = panel_nodes_weights(edges, npts)
    return SampleSpace(_GRID1D, nodes, weights)


def grid2d_space(xlo, xhi, ylo, yhi, panels) -> SampleSpace:
    """Rectangle backend with tensor-product ``GRID_POINTS``-point Gauss-Legendre weights."""
    nx, wx = panel_nodes_weights(uniform_edges(xlo, xhi, panels), GRID_POINTS)
    ny, wy = panel_nodes_weights(uniform_edges(ylo, yhi, panels), GRID_POINTS)
    gx, gy = np.meshgrid(nx, ny, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    weights = (wx[:, None] * wy[None, :]).ravel()
    return SampleSpace(_GRID2D, points, weights)


@dataclass(frozen=True)
class Measure:
    """A finite signed measure: density per node w.r.t. the reference weights."""

    space: SampleSpace
    density: np.ndarray
    signed: bool = False

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.shape != (self.space.size,):
            raise UsageError("density must have one value per node")
        if not self.signed and np.any(dens < 0):
            raise UsageError("unsigned measure with negative density; pass signed=True")
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)

    @property
    def masses(self) -> np.ndarray:
        """Per-node masses density * reference weight."""
        return self.density * self.space.weights

    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def __add__(self, other: "Measure") -> "Measure":
        _check_same_space(self, other)
        return Measure(self.space, self.density + other.density, signed=True)

    def __sub__(self, other: "Measure") -> "Measure":
        _check_same_space(self, other)
        return Measure(self.space, self.density - other.density, signed=True)

    def __mul__(self, scalar) -> "Measure":
        return Measure(self.space, self.density * float(scalar), signed=True)

    __rmul__ = __mul__


def _check_same_space(a: Measure, b: Measure):
    if not a.space.same_as(b.space):
        raise UsageError("measures live on different sample spaces")


def tv_norm(mu: Measure) -> float:
    """Total variation norm: sum of |density| times reference weights."""
    return float(np.sum(np.abs(mu.density) * mu.space.weights))


def bhattacharyya_angle(mu: Measure, nu: Measure) -> float:
    """2 arccos of the Bhattacharyya coefficient integral sqrt(p q).

    The angle between sqrt(p) and sqrt(q) in L^2, doubled: a lower bound of
    the Fisher distance, since sqrt(p) lies on the unit sphere and the Fisher
    metric is 4 times the pulled-back L^2 metric. The coefficient is divided
    by sqrt(mass(mu) mass(nu)) so that quadrature mass error does not enter
    through arccos's square-root sensitivity near 1; equal measures give 0.
    """
    _check_same_space(mu, nu)
    w = mu.space.weights
    overlap = np.sum(np.sqrt(mu.density * nu.density) * w)
    norm = math.sqrt(np.sum(mu.density * w) * np.sum(nu.density * w))
    return 2.0 * math.acos(min(1.0, float(overlap) / norm))


def integrate(f, mu: Measure) -> float:
    """Integral of ``f`` against ``mu``.

    ``f`` may be a callable evaluated on the space's points or an array of
    node values. Exact on finite backends, quadrature-order accurate on
    grids. Non-finite values of ``f`` on nodes carrying mass raise
    DomainError; on massless nodes they are ignored.
    """
    vals = np.asarray(f(mu.space.points) if callable(f) else f, dtype=float)
    if vals.shape != (mu.space.size,):
        raise UsageError("integrand must supply one value per node")
    masses = mu.masses
    bad = ~np.isfinite(vals)
    if np.any(bad):
        carrying = bad & (np.abs(masses) > 0)
        if np.any(carrying):
            raise DomainError(
                f"integrand non-finite on {int(np.sum(carrying))} node(s) with nonzero mass"
            )
        vals = np.where(bad, 0.0, vals)
    return float(np.sum(vals * masses))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at a probability measure.

    ``log_rep`` holds the values of the density of the velocity measure
    with respect to the base point; the velocity measure itself is
    recoverable as density log_rep * base density.
    """

    base: Measure
    log_rep: np.ndarray

    def __post_init__(self):
        rep = np.asarray(self.log_rep, dtype=float)
        if rep.shape != (self.base.space.size,):
            raise UsageError("log_rep must have one value per node")
        rep.setflags(write=False)
        object.__setattr__(self, "log_rep", rep)

    def velocity_measure(self) -> Measure:
        return Measure(self.base.space, self.log_rep * self.base.density, signed=True)

"""The model zoo: parameterized statistical models and curves.

Every model exposes a density map p(theta, x) on a fixed sample-space
backend together with its analytic parameter Jacobian. Evaluation is
vectorized over batches of parameter points: ``jet`` maps (T, n) to the
densities (T, X) and the Jacobians (T, n, X) together, with no per-row
loop in any model; ``density_batch`` and ``jacobian_batch`` return one of
the two. Every family but Bernoulli and categorical, and every derived
model (products, reparameterizations, pushforwards, which forward one jet
of their base), gives only a fused jet, so its density has one expression
(the Gaussian ones evaluate each exponential once per call). An n-fold
product lives on the types of its draws (``type_table``), the occurrence
counts, which are a sufficient statistic. ``get_model`` builds and caches
the registry's models. Model objects are immutable and evaluation is pure
and reentrant.

The singular members of the zoo:

* a two-component Gaussian mixture whose metric degenerates on the lines
  a=0 and b=0 of its (a, b) parameter square;
* a path through the degenerate mixture corner, the mixture pulled back
  through a reparameterization;
* an oscillatory perturbation of the uniform density whose velocity exists
  only weakly (integrals against bounded test functions converge, total
  variation does not);
* a support-shrinking bump family whose metric speed jumps at t=0 while
  the velocity's total variation vanishes there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import exp1, expi, gammaln, sici, xlogy

from .errors import DomainError, NotDominated, UsageError
from .measures import (
    DOMINANCE_TOL,
    QUAD_TOL,
    Measure,
    SampleSpace,
    TangentVector,
    finite_space,
    grid1d_from_edges,
    grid1d_space,
    grid2d_space,
    tv_norm,
)
from .quadrature import geometric_edges, uniform_edges

SQRT2PI = math.sqrt(2.0 * math.pi)

# Margin keeping baseline families away from boundary singularities.
EPS_BOUNDARY = 1e-6

# Most types (occurrence counts of n draws) a product model enumerates.
ENUM_LIMIT = 2 ** 20

# Parameter boxes: Gaussian location |theta_i| <= LOCATION_HALF_WIDTH in 1-d
# and LOCATION2D_HALF_WIDTH in 2-d; location-scale |mu| <= MU_MAX and
# SIGMA_LO <= sigma <= SIGMA_HI; mixture |b| <= B_MAX, whose Fisher
# integrands are tail-negligible beyond |x| = B_MAX + 8.
LOCATION_HALF_WIDTH = 2.0
LOCATION2D_HALF_WIDTH = 1.2
MU_MAX = 2.0
SIGMA_LO = 0.5
SIGMA_HI = 2.0
B_MAX = 6.0

# Fraction of each side that ``Box.sample`` keeps clear of the box walls.
SAMPLE_MARGIN = 0.05


@dataclass(frozen=True)
class Box:
    """A box parameter domain, optionally cut by a linear-ish constraint."""

    lo: np.ndarray
    hi: np.ndarray
    constraint: object = None  # optional callable, theta rows (..., dim) -> bool per row

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise UsageError("domain box needs lo < hi componentwise")

    @cached_property
    def _bounds(self) -> tuple:
        """(lo, hi) per coordinate as Python floats, built on first use.

        ``contains`` runs through ``require`` on every single-point
        ``density`` or ``jet_at``, and in ``CurveInModel``,
        ``_straight_path`` and ``sample``, where two numpy reductions cost
        several times more. ``require`` refuses a point of the wrong size
        before the tuple exists.
        """
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, theta) -> bool:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != self.lo.shape:
            return False
        for t, (lo, hi) in zip(theta.tolist(), self._bounds):
            if not lo <= t <= hi:  # also rejects NaN
                return False
        return self.constraint is None or bool(self.constraint(theta))

    def require(self, theta):
        size = np.size(theta)
        if size != self.dim:
            raise DomainError(f"parameter point has {size} coordinates where the model takes {self.dim}")
        if not self.contains(theta):
            raise DomainError(f"parameter {np.asarray(theta)} outside domain")

    def contains_rows(self, thetas) -> np.ndarray:
        """``contains`` for every row of a (T, dim) array, one bool per row."""
        inside = np.all((self.lo <= thetas) & (thetas <= self.hi), axis=1)  # NaN fails too
        if self.constraint is not None:
            inside &= self.constraint(thetas)
        return inside

    def require_rows(self, thetas):
        """``require`` for every row of a (T, dim) array, bounds checked at once."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self.dim:
            raise DomainError(f"parameter rows have {thetas.shape[1]} coordinates where the model takes {self.dim}")
        inside = self.contains_rows(thetas)
        if not np.all(inside):
            self.require(thetas[np.argmin(inside)])

    def sample(self, rng) -> np.ndarray:
        """Uniform draw from the box shrunk by ``SAMPLE_MARGIN`` of its width.

        Each try takes one ``rng.random(dim)`` and is formed in Python floats
        by the IEEE operations, in the order, of
        ``lo + (hi - lo) * (SAMPLE_MARGIN + (1 - 2 * SAMPLE_MARGIN) * u)``.
        """
        inner = 1 - 2 * SAMPLE_MARGIN
        spans = [(lo, hi - lo) for lo, hi in self._bounds]
        for _ in range(1000):
            theta = [lo + span * (SAMPLE_MARGIN + inner * u)
                     for (lo, span), u in zip(spans, rng.random(len(spans)).tolist())]
            if all(lo <= t <= hi for t, (lo, hi) in zip(theta, self._bounds)):
                theta = np.array(theta)
                if self.constraint is None or self.constraint(theta):
                    return theta
        raise DomainError("could not sample an admissible parameter point")


@dataclass(frozen=True)
class ParamModel:
    """A parameterized statistical model on a fixed sample-space backend.

    A model is given in one of two forms: ``jet_fn`` alone, a fused thetas
    -> (density, Jacobian) from which ``density_batch``, ``density`` and
    ``measure`` read the first output; or ``density_fn`` with
    ``jacobian_fn``. Only ``bernoulli`` and ``categorical:m`` take the
    second form: the perfbench tracer counts their ``density_batch`` and
    ``jacobian_batch`` calls, until the benchmark reads sigeo's own trace
    (ROADMAP item 2) and the separate route goes.
    """

    name: str
    domain: Box
    space: SampleSpace
    density_fn: object = None
    jacobian_fn: object = None
    jet_fn: object = None

    def __post_init__(self):
        given = (self.density_fn is not None, self.jacobian_fn is not None, self.jet_fn is not None)
        if given not in ((False, False, True), (True, True, False)):
            raise UsageError(f"model {self.name!r} needs either jet_fn alone or density_fn with jacobian_fn")

    @property
    def param_dim(self) -> int:
        return self.domain.dim

    # -- density -----------------------------------------------------------

    def density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self.density_fn is not None:
            return np.asarray(self.density_fn(thetas), dtype=float)
        return np.asarray(self.jet_fn(thetas)[0], dtype=float)

    def density(self, theta) -> np.ndarray:
        self.domain.require(theta)
        return self.density_batch([np.atleast_1d(theta)])[0]

    def measure(self, theta) -> Measure:
        return Measure(self.space, self.density(theta), signed=False)

    # -- Jacobian ----------------------------------------------------------

    def jacobian_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(thetas), dtype=float)
        return np.asarray(self.jet_fn(thetas)[1], dtype=float)

    # -- both at once ------------------------------------------------------

    def jet(self, thetas) -> tuple:
        """Density (T, X) and Jacobian (T, n, X) of a batch of parameter rows.

        One fused evaluation where the model supplies ``jet_fn``; otherwise
        ``density_batch`` and ``jacobian_batch``. Both routes return the
        same bits.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self.jet_fn is None:
            return self.density_batch(thetas), self.jacobian_batch(thetas)
        P, J = self.jet_fn(thetas)
        return np.asarray(P, dtype=float), np.asarray(J, dtype=float)

    def jet_at(self, theta) -> tuple:
        """Density (X,) and Jacobian (n, X) at one in-domain point."""
        self.domain.require(theta)
        P, J = self.jet([np.atleast_1d(theta)])
        return P[0], J[0]


@dataclass(frozen=True)
class CurveInModel:
    """Piecewise-linear curve in parameter space, nodes theta_0..theta_K.

    Zero-length segments (repeated nodes) are permitted; they contribute
    zero length and zero speed, which keeps constant curves expressible.
    """

    model: ParamModel
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.shape[0] < 2:
            raise UsageError("a curve needs at least two nodes")
        if nodes.shape[1] != self.model.param_dim:
            raise UsageError("curve nodes must match the model's parameter dimension")
        for k, theta in enumerate(nodes):
            if not self.model.domain.contains(theta):
                raise DomainError(f"curve node {k} outside the parameter domain")

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1

    def point_at(self, s) -> np.ndarray:
        """Curve point at s in [0, 1] under uniform segment parameterization."""
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise UsageError("curve parameter must lie in [0, 1]")
        scaled = s * self.segments
        i = min(int(scaled), self.segments - 1)
        local = scaled - i
        return (1 - local) * self.nodes[i] + local * self.nodes[i + 1]


# ---------------------------------------------------------------------------
# Baseline regular families (oracle fodder)
# ---------------------------------------------------------------------------

def bernoulli_family() -> ParamModel:
    """Bernoulli(p) on two atoms, p in [EPS_BOUNDARY, 1 - EPS_BOUNDARY]."""
    space = finite_space(2)

    def dens(thetas):
        p = thetas[:, 0]
        return np.column_stack([1.0 - p, p])

    def jac(thetas):
        T = thetas.shape[0]
        J = np.empty((T, 1, 2))
        J[:, 0, 0] = -1.0
        J[:, 0, 1] = 1.0
        return J

    return ParamModel("bernoulli", Box([EPS_BOUNDARY], [1 - EPS_BOUNDARY]), space, dens, jac)


def categorical_family(m: int) -> ParamModel:
    """Categorical on m atoms parameterized by the first m-1 probabilities.

    The density is the parameter itself (identity chart on the simplex);
    the last probability is 1 minus the rest.
    """
    if m < 2:
        raise UsageError("categorical family needs at least 2 atoms")
    if m > ENUM_LIMIT:
        raise UsageError(f"outcome space too large to enumerate: categorical family on {m} atoms exceeds {ENUM_LIMIT}")
    space = finite_space(m)

    def constraint(thetas):
        # A C-ordered row is summed as np.sum sums it alone; a Fortran-ordered
        # array would add columns in sequence instead.
        return np.add.reduce(np.ascontiguousarray(thetas), axis=-1) <= 1.0 - EPS_BOUNDARY

    def dens(thetas):
        last = 1.0 - np.sum(thetas, axis=1, keepdims=True)
        return np.concatenate([thetas, last], axis=1)

    def jac(thetas):
        T = thetas.shape[0]
        J = np.zeros((T, m - 1, m))
        for i in range(m - 1):
            J[:, i, i] = 1.0
            J[:, i, m - 1] = -1.0
        return J

    box = Box([EPS_BOUNDARY] * (m - 1), [1 - EPS_BOUNDARY] * (m - 1), constraint=constraint)
    return ParamModel(f"categorical:{m}", box, space, dens, jac)


def gaussian_location_family(panels=80) -> ParamModel:
    """N(theta, 1) on a 1-d grid; the Fisher matrix is identically 1."""
    w = LOCATION_HALF_WIDTH
    space = grid1d_space(-w - 8.0, w + 8.0, panels=panels)
    x = space.points

    def jet(thetas):
        d = np.exp(-0.5 * (x[None, :] - thetas[:, 0:1]) ** 2) / SQRT2PI
        return d, ((x[None, :] - thetas[:, 0:1]) * d)[:, None, :]

    return ParamModel("gauss-location", Box([-w], [w]), space, jet_fn=jet)


def gaussian_location2d_family(panels=16) -> ParamModel:
    """N(theta, I_2) location family on a 2-d grid; Fisher matrix is I_2."""
    w = LOCATION2D_HALF_WIDTH
    r = w + 8.0
    space = grid2d_space(-r, r, -r, r, panels=panels)
    px, py = np.ascontiguousarray(space.points.T)  # (X,) each

    def jet(thetas):
        # Contiguous (T, X) coordinate planes, so the Jacobian comes out
        # C-contiguous and the Gram products take the BLAS path.
        dx = px[None, :] - thetas[:, 0:1]
        dy = py[None, :] - thetas[:, 1:2]
        d = np.exp(-0.5 * (dx * dx + dy * dy)) / (2 * math.pi)
        return d, np.stack([dx * d, dy * d], axis=1)

    box = Box([-w, -w], [w, w])
    return ParamModel("gauss-location-2d", box, space, jet_fn=jet)


def gaussian_location_scale_family(panels=144) -> ParamModel:
    """N(mu, sigma^2) with (mu, sigma) in a box bounded away from sigma=0."""
    r = MU_MAX + 8.0 * SIGMA_HI
    space = grid1d_space(-r, r, panels=panels)
    x = space.points

    def jet(thetas):
        sig = thetas[:, 1:2]
        z = (x[None, :] - thetas[:, 0:1]) / sig
        d = np.exp(-0.5 * z * z) / (SQRT2PI * sig)
        J = np.empty((thetas.shape[0], 2, x.size))
        J[:, 0, :] = d * z / sig
        J[:, 1, :] = d * (z * z - 1.0) / sig
        return d, J

    box = Box([-MU_MAX, SIGMA_LO], [MU_MAX, SIGMA_HI])
    return ParamModel("gauss-loc-scale", box, space, jet_fn=jet)


# ---------------------------------------------------------------------------
# Gaussian mixture with a degenerate parameter locus
# ---------------------------------------------------------------------------

def gaussian_mixture(panels=112) -> ParamModel:
    """Two-component Gaussian mixture p(x | a, b).

    p = ((1-a) exp(-x^2/2) + a exp(-(x-b)^2/2)) / sqrt(2 pi) with a in
    [0, 1] and b truncated to [-B_MAX, B_MAX]. The parameter Jacobian uses
    the closed forms

        d_a p = (-exp(-x^2/2) + exp(-(x-b)^2/2)) / sqrt(2 pi)
        d_b p = a (x-b) exp(-(x-b)^2/2) / sqrt(2 pi)

    Both components vanish identically on the lines b=0 (for d_a) and a=0
    (for d_b), so the Fisher matrix drops rank there and is the zero matrix
    at the corner (0, 0).
    """
    r = B_MAX + 8.0
    space = grid1d_space(-r, r, panels=panels)
    x = space.points
    n0 = np.exp(-0.5 * x[None, :] ** 2)  # the fixed component, built once

    def jet(thetas):
        a = thetas[:, 0:1]
        diff = x[None, :] - thetas[:, 1:2]
        nb = np.exp(-0.5 * diff ** 2)
        p = ((1.0 - a) * n0 + a * nb) / SQRT2PI
        J = np.empty((thetas.shape[0], 2, x.size))
        J[:, 0, :] = (nb - n0) / SQRT2PI
        J[:, 1, :] = a * diff * nb / SQRT2PI
        return p, J

    box = Box([0.0, -B_MAX], [1.0, B_MAX])
    return ParamModel("mixture", box, space, jet_fn=jet)


# ---------------------------------------------------------------------------
# Reparameterized path through the degenerate mixture corner
# ---------------------------------------------------------------------------

def singular_reparam_points(ts) -> np.ndarray:
    """The (alpha, beta) rows (T, 2) of the mixture corner path at ts (T,).

    alpha(t) = integral_0^t d tau / log(tau^2) = sign(t) Ei(log|t|) / 2 and
    beta(t) = t log(t^2). Both are odd and vanish at t = 0.
    Note alpha(t) has the opposite sign of t, so for t > 0 the path leaves
    the mixture's closed parameter square and the induced measure is
    signed (mass stays 1).
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.abs(ts) < 1.0):  # NaN fails too
        raise DomainError("reparameterized path needs |t| < 1")
    out = np.zeros((ts.size, 2))
    moving = ts != 0.0
    t = ts[moving]
    out[moving, 0] = np.sign(t) * expi(np.log(np.abs(t))) / 2.0
    out[moving, 1] = t * np.log(t * t)
    return out


def singular_reparam_model() -> ParamModel:
    """The corner path: the mixture pulled back through (alpha, beta).

    The chain rule takes (alpha', beta') = (1/log t^2, log t^2 + 2), and
    (0, 0) at t = 0, where beta' diverges but scales the b-partial, which
    vanishes at a = alpha(0) = 0.
    """

    def phi(ts):
        return singular_reparam_points(ts[:, 0])

    def dphi(ts):
        out = np.zeros((ts.shape[0], 1, 2))
        moving = ts[:, 0] != 0.0
        log_sq = np.log(ts[moving, 0] ** 2)
        out[moving, 0, 0] = 1.0 / log_sq
        out[moving, 0, 1] = log_sq + 2.0
        return out

    return reparameterized_model(get_model("mixture"), phi, dphi, Box([-0.99], [0.99]), name="singular-curve")


# ---------------------------------------------------------------------------
# Weakly-differentiable oscillatory curve
# ---------------------------------------------------------------------------

# sup over t in (0,1], x in [-pi,pi] of |int_0^t sin(x/s) ds|, attained as
# t -> 1 at the first zero of the cosine integral (x = 0.61650...), where
# the value equals sin(x). The amplitude divisor 2*OSC_AMPLITUDE keeps the
# perturbed density bounded below by 1/(4 pi) while leaving the velocity's
# total variation above 1/2.
OSC_SUP = 0.5781875086663077
OSC_AMPLITUDE = 2.0 * math.pi * OSC_SUP  # = 3.63285737...
# Panels per period of sin(x/t) on the velocity's own grid.
MIN_PANELS_PER_PERIOD = 8


def oscillatory_time_integral(t, x) -> np.ndarray:
    """F_t(x) = integral_0^t sin(x/s) ds, evaluated in closed form.

    Substituting u = x/s turns the integral into x * (sin(y)/y - Ci(y))
    with y = x/t; the cosine integral comes from scipy. F is odd in x,
    even in t, and F_0 = 0. ``t`` broadcasts against ``x``.
    """
    t, x = np.broadcast_arrays(np.abs(np.asarray(t, dtype=float)), np.asarray(x, dtype=float))
    out = np.zeros(x.shape)
    nz = (t != 0.0) & (x != 0.0)
    y = np.abs(x[nz]) / t[nz]
    _, ci = sici(y)
    out[nz] = np.sign(x[nz]) * np.abs(x[nz]) * (np.sin(y) / y - ci)
    return out


def weak_oscillatory_measure(t) -> Measure:
    """Probability measure with density 1/(2 pi) + F_t(x)/(2 A) on [-pi, pi],
    on the ``weak-curve`` model's grid.

    F_t integrates to zero (odd), so the total mass is 1 for every t; the
    density stays above 1/(4 pi) by the choice of A.
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("oscillatory curve needs |t| < 1")
    model = get_model("weak-curve")
    return Measure(model.space, model.density_batch([[t]])[0], signed=False)


def weak_oscillatory_velocity(t, space=None) -> Measure:
    """The curve's velocity sin(x/t)/(2 A) dx as a signed measure.

    For small t the default backend cannot resolve the oscillation, so a
    dedicated grid with at least ``MIN_PANELS_PER_PERIOD`` panels per
    period of sin(x/t) is built unless a space is supplied.
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("oscillatory curve needs |t| < 1")
    if space is None:
        if t == 0.0:
            space = get_model("weak-curve").space
        else:
            periods = max(1, int(math.ceil(1.0 / abs(t))))
            panels = max(240, MIN_PANELS_PER_PERIOD * periods)
            space = grid1d_space(-math.pi, math.pi, panels=panels, npts=4)
    if t == 0.0:
        dens = np.zeros(space.size)
    else:
        dens = np.sin(space.points / t) / (2 * OSC_AMPLITUDE)
    return Measure(space, dens, signed=True)


def weak_oscillatory_exchange(ts):
    """Derivative exchange and velocity TV of the oscillatory curve.

    For each t and each test function H in (cos x, sin x), one row
    [t, d/dt int H dmu_t, int H dv_t, |difference|], the derivative by a
    central difference of step 1e-4 max(|t|, 0.1); and the TV norms of
    v_t - v_0 at t = 1e-2 and 1e-3, keyed by str(t). The exchange holds to
    quadrature accuracy while the TV norms stay of unit scale.
    """
    space = get_model("weak-curve").space
    x = space.points
    rows = []
    for t in ts:
        h = 1e-4 * max(abs(t), 0.1)
        up = weak_oscillatory_measure(t + h).masses
        dn = weak_oscillatory_measure(t - h).masses
        vel = weak_oscillatory_velocity(t, space=space).masses
        for H in (np.cos(x), np.sin(x)):
            lhs = (np.sum(H * up) - np.sum(H * dn)) / (2 * h)
            rhs = np.sum(H * vel)
            rows.append([t, lhs, rhs, abs(lhs - rhs)])
    tvs = {}
    for t in (1e-2, 1e-3):
        vel = weak_oscillatory_velocity(t)
        vel0 = weak_oscillatory_velocity(0.0, space=vel.space)
        tvs[str(t)] = tv_norm(vel - vel0)
    return rows, tvs


def weak_oscillatory_model(panels=120) -> ParamModel:
    """The oscillatory curve packaged as a 1-parameter model on [-pi, pi]."""
    space = grid1d_space(-math.pi, math.pi, panels=panels)
    x = space.points

    def jet(thetas):
        t = thetas[:, 0:1]
        p = 1.0 / (2 * math.pi) + oscillatory_time_integral(t, x) / (2 * OSC_AMPLITUDE)
        ratio = np.divide(x, t, out=np.zeros((t.shape[0], x.size)), where=t != 0.0)  # sin(0) = 0 at t = 0
        return p, (np.sin(ratio) / (2 * OSC_AMPLITUDE))[:, None, :]

    return ParamModel("weak-curve", Box([-0.999], [0.999]), space, jet_fn=jet)


# ---------------------------------------------------------------------------
# Support-shrinking bump family (2-integrability failure)
# ---------------------------------------------------------------------------

def bump(u) -> np.ndarray:
    """Smooth bump exp(-u/(1-u)) on [0, 1), zero for u >= 1.

    Positive and strictly decreasing on [0, 1); every derivative vanishes
    as u -> 1, so densities built from it are smooth at the support edge.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = (u >= 0) & (u < 1.0)
    out[m] = np.exp(-u[m] / (1.0 - u[m]))
    return out


def bump_derivative(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = (u >= 0) & (u < 1.0)
    out[m] = -np.exp(-u[m] / (1.0 - u[m])) / (1.0 - u[m]) ** 2
    return out


def bump_square_integral() -> float:
    """integral_0^1 f(u)^2 du = 1 - 2 e^2 E_1(2) (= 0.27734...), used by the
    normalization.

    Substituting w = u/(1-u) gives integral_0^inf e^(-2w) / (1+w)^2 dw; by
    parts that is 1 - 2 integral_0^inf e^(-2w) / (1+w) dw, and v = 1 + w
    turns the last integral into e^2 E_1(2), with the exponential integral
    E_1 from scipy.
    """
    return float(1.0 - 2.0 * math.e ** 2 * exp1(2.0))


def friedrich_raw_density(t, x) -> np.ndarray:
    """Unnormalized density: 1 for x <= 0, |t| f(x/|t|)^2 for x > 0, t != 0; t broadcasts against x."""
    t, x = np.broadcast_arrays(np.abs(np.asarray(t, dtype=float)), np.asarray(x, dtype=float))
    out = np.where(x <= 0.0, 1.0, 0.0)
    m = (x > 0.0) & (t != 0.0)
    out[m] = t[m] * bump(x[m] / t[m]) ** 2
    return out


def friedrich_raw_velocity(t, x) -> np.ndarray:
    """d/dt of the unnormalized density, sign(t) (f^2 - 2 u f f') at u = x/|t|; t broadcasts against x."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    out = np.zeros(x.shape)
    m = (x > 0.0) & (t != 0.0)
    u = x[m] / np.abs(t[m])
    f = bump(u)
    out[m] = np.sign(t[m]) * (f * f - 2.0 * u * f * bump_derivative(u))
    return out


def friedrich_measure(t) -> Measure:
    """The unnormalized bump-family measure at parameter t (mass >= 1)."""
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("bump family needs |t| < 1")
    space = get_model("friedrich").space
    return Measure(space, friedrich_raw_density(t, space.points), signed=False)


def normalized_friedrich_model() -> ParamModel:
    """The normalized bump family as a 1-parameter model on (-1, 1).

    The exact normalizer is 1 + t^2 * integral f^2, so the parameter
    Jacobian is analytic; at t = 0 the velocity vanishes identically while
    the metric speed has a positive two-sided limit.
    """
    # Negative side is flat; the positive side clusters geometrically toward 0
    # so bumps of width down to ~1e-5 stay resolved.
    neg = uniform_edges(-1.0, 0.0, 16)
    pos = geometric_edges(1e-7, 1.0, 96)
    space = grid1d_from_edges(np.concatenate([neg[:-1], pos]), npts=6)
    x = space.points
    C = bump_square_integral()

    def jet(thetas):
        t = thetas[:, 0:1]
        norm = 1.0 + t * t * C
        p = friedrich_raw_density(t, x)
        J = friedrich_raw_velocity(t, x) / norm - p * (2.0 * t * C) / (norm * norm)
        return p / norm, J[:, None, :]

    return ParamModel("friedrich", Box([-0.999], [0.999]), space, jet_fn=jet)


# ---------------------------------------------------------------------------
# Tangent vectors, products, reparameterizations
# ---------------------------------------------------------------------------

def tangent_at(model: ParamModel, theta, v) -> TangentVector:
    """Tangent vector of the model at theta in parameter direction v.

    log_rep = (sum_i v_i d_i p) / p where the density exceeds the dominance
    floor; ``tangent_log_reps`` documents the checks.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.param_dim,):
        raise UsageError("direction must match the parameter dimension")
    p, J = model.jet_at(theta)
    rep = tangent_log_reps(p[None], J[None], v[None], model.space.weights)[0]
    return TangentVector(Measure(model.space, p, signed=False), rep)


def tangent_log_reps(P, J, vs, w) -> np.ndarray:
    """log_rep rows (T, X) of the tangents at densities P (T, X) with
    Jacobians J (T, n, X) in directions vs (T, n), on reference weights w.

    Nodes below the dominance floor are excluded; if the excluded region
    carries non-negligible velocity mass the derivative genuinely escapes
    the support and NotDominated is raised. (Vanishing-tail mismatches,
    where the score is huge but its mass is nil, pass through: the score of
    a mixture is unbounded yet square-integrable.) A negative density, or
    a tangent whose mass defect exceeds 10 ``QUAD_TOL``, raises
    UsageError. The first failing row raises, with the error ``tangent_at``
    raises for it alone.
    """
    dv = np.matmul(vs[:, None, :], J)[:, 0, :]  # per row the vector-matrix product v @ J
    lo = P <= DOMINANCE_TOL
    flux = np.abs(dv) * w
    dropped = np.sum(np.where(lo, flux, 0.0), axis=1)
    escapes = dropped > np.maximum(1e-9, 1e-9 * np.sum(flux, axis=1))
    negative = np.any(P < 0, axis=1)
    rep = np.divide(dv, P, out=np.zeros_like(dv), where=~lo)
    # The mass defect integrates log_rep against the base, as ``integrate``
    # does: non-finite values raise on nodes with mass, count 0 elsewhere.
    masses = P * w
    bad = ~np.isfinite(rep)
    carrying = bad & (np.abs(masses) > 0)
    defect = np.sum(np.where(bad, 0.0, rep) * masses, axis=1)
    excess = np.abs(defect) > 10 * QUAD_TOL
    failed = escapes | negative | np.any(carrying, axis=1) | excess
    if not np.any(failed):
        return rep
    t = np.argmax(failed)
    if escapes[t]:
        offending = np.nonzero(lo[t] & (np.abs(dv[t]) > DOMINANCE_TOL))[0]
        raise NotDominated(
            "directional derivative carries mass where the density vanishes",
            nodes=offending.tolist(),
        )
    if negative[t]:
        raise UsageError("unsigned measure with negative density; pass signed=True")
    if np.any(carrying[t]):
        raise DomainError(f"integrand non-finite on {int(np.sum(carrying[t]))} node(s) with nonzero mass")
    raise UsageError(f"tangent mass defect {defect[t]:.3e} exceeds tolerance")


def type_table(m: int, n: int) -> tuple:
    """The K = C(n+m-1, m-1) types of n draws from m atoms: the occurrence
    counts (K, m), from (n, 0, ..., 0) down to (0, ..., 0, n) in
    lexicographic order, the order in which the types first occur among the
    m^n lexicographic draw sequences, and each type's log multinomial
    coefficient (K,). K is checked against ``ENUM_LIMIT`` before anything
    is allocated.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    # K = C(n+m-1, d) for d = min(n, m-1); a d above L = ENUM_LIMIT.bit_length()
    # gives K > 2^L and C(n+m-1, L) > 2^L too, so d is capped at L.
    count = math.comb(n + m - 1, min(n, m - 1, ENUM_LIMIT.bit_length()))
    if count > ENUM_LIMIT:
        raise UsageError(f"outcome space too large to enumerate: {m} atoms over {n} draws exceed {ENUM_LIMIT} types")
    # stars and bars: the m-1 bar positions among n+m-1 slots, the counts the
    # gaps between bars; n > K only for m = 1, whose one type needs no slots
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(min(n, count) + m - 1), m - 1)),
                       dtype=np.intp, count=count * (m - 1)).reshape(count, m - 1)
    counts = np.diff(np.column_stack([np.full(count, -1), bars[::-1], np.full(count, n + m - 1)]), axis=1) - 1
    return counts, gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)


def product_model(base: ParamModel, n: int) -> ParamModel:
    """The n-fold i.i.d. product of a finite-backend model on its types.

    The occurrence counts are sufficient, so the product lives on the
    finite space of ``type_table``'s types with its Fisher matrix, n times
    the base's, unchanged. A type's density is its multinomial probability
    and the Jacobian follows the product rule, the base scores summed by
    occurrence count.
    """
    if base.space.kind != "finite":
        raise UsageError("product models require a finite backend")
    counts, log_coef = type_table(base.space.size, n)
    occurrences = counts.T.astype(float)  # (m, K)

    def jet(thetas):
        p, J = base.jet(thetas)  # (T, m), (T, k, m)
        prod = np.exp(log_coef + np.sum(xlogy(counts, p[:, None, :]), axis=2))  # (T, K)
        score = J / np.maximum(p[:, None, :], 1e-300)  # (T, k, m)
        return prod, (score @ occurrences) * prod[:, None, :]

    return ParamModel(f"{base.name}^{n}", base.domain, finite_space(len(counts)), jet_fn=jet)


def reparameterized_model(model: ParamModel, phi, phi_jacobian, u_domain: Box, name=None) -> ParamModel:
    """Model with parameters u mapped through theta = phi(u).

    ``phi`` maps (T, k) -> (T, n) and ``phi_jacobian`` maps (T, k) ->
    (T, k, n); the chain rule turns one base jet at phi(u) into the new
    parameter Jacobian.
    """

    def jet(us):
        P, J_theta = model.jet(np.asarray(phi(us), dtype=float))  # (T, X), (T, n, X)
        dphi = np.asarray(phi_jacobian(us), dtype=float)  # (T, k, n)
        return P, np.einsum("tkn,tnx->tkx", dphi, J_theta)

    return ParamModel(name or f"{model.name}~reparam", u_domain, model.space, jet_fn=jet)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "bernoulli": bernoulli_family,
    "mixture": gaussian_mixture,
    "gauss-location": gaussian_location_family,
    "gauss-location-2d": gaussian_location2d_family,
    "gauss-loc-scale": gaussian_location_scale_family,
    "weak-curve": weak_oscillatory_model,
    "friedrich": normalized_friedrich_model,
    "singular-curve": singular_reparam_model,
}
# The builders that take a quadrature panel count.
_GRIDDED = {"mixture", "gauss-location", "gauss-location-2d", "gauss-loc-scale", "weak-curve"}


def get_model(model_id: str, panels=None) -> ParamModel:
    """Resolve a CLI/config model id to the registry's cached instance.

    Known ids: mixture, singular-curve, weak-curve, friedrich, bernoulli,
    categorical:m, gauss-location, gauss-location-2d, gauss-loc-scale.
    ``panels`` overrides the quadrature panel count of grid-backed models
    and is rejected by the others. One normalized id and ``panels`` give
    one object.
    """
    key = model_id.strip().lower()
    if key.startswith("categorical:"):
        try:
            key = f"categorical:{int(key.split(':', 1)[1])}"
        except ValueError:
            raise UsageError(f"model id {model_id!r} needs an integer atom count") from None
    elif key not in _BUILDERS:
        raise UsageError(f"unknown model id {model_id!r}")
    if panels is not None and key not in _GRIDDED:
        raise UsageError(f"model {model_id!r} has no quadrature grid to override (panels={panels})")
    return _zoo_model(key, None if panels is None else int(panels))


@lru_cache(maxsize=32)
def _zoo_model(key, panels) -> ParamModel:
    if key.startswith("categorical:"):
        return categorical_family(int(key.split(":", 1)[1]))
    if panels is None:
        return _BUILDERS[key]()
    return _BUILDERS[key](panels=panels)

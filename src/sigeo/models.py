"""The model zoo: parameterized statistical models and curves.

Every model exposes a density map p(theta, x) on a fixed sample-space
backend together with its analytic parameter Jacobian. Evaluation is
vectorized over batches of parameter points: ``density_batch`` maps
(T, n) -> (T, X), ``jacobian_batch`` maps (T, n) -> (T, n, X), and ``jet``
returns both. Gaussian families fuse the jet so each exponential is
evaluated once per call, and derived models (products, reparameterizations,
pushforwards) forward one jet of their base. ``get_model`` builds and
caches the registry's models. Model objects are immutable and evaluation
is pure and reentrant.

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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sici

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
from .quadrature import adaptive_integral, geometric_edges, uniform_edges

SQRT2PI = math.sqrt(2.0 * math.pi)

# Margin keeping baseline families away from boundary singularities.
EPS_BOUNDARY = 1e-6
SIGMA_MIN = 1e-3

# Largest outcome space the product models and estimators enumerate.
ENUM_LIMIT = 2 ** 20

# Mixture b-range truncation; Fisher integrands are tail-negligible beyond
# |x| = B_MAX + 8.
B_MAX = 6.0


@dataclass(frozen=True)
class Box:
    """A box parameter domain, optionally cut by a linear-ish constraint."""

    lo: np.ndarray
    hi: np.ndarray
    constraint: object = None  # optional callable theta -> bool

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise UsageError("domain box needs lo < hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, theta) -> bool:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != self.lo.shape:
            return False
        inside = bool(np.all(theta >= self.lo) and np.all(theta <= self.hi))
        if inside and self.constraint is not None:
            inside = bool(self.constraint(theta))
        return inside

    def require(self, theta):
        size = np.size(theta)
        if size != self.dim:
            raise DomainError(f"parameter point has {size} coordinates where the model takes {self.dim}")
        if not self.contains(theta):
            raise DomainError(f"parameter {np.asarray(theta)} outside domain")

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.atleast_1d(np.asarray(theta, dtype=float)), self.lo, self.hi)

    def sample(self, rng, margin=0.05) -> np.ndarray:
        """Uniform draw from the box shrunk by ``margin`` of its width."""
        span = self.hi - self.lo
        for _ in range(1000):
            theta = self.lo + span * (margin + (1 - 2 * margin) * rng.random(self.dim))
            if self.contains(theta):
                return theta
        raise DomainError("could not sample an admissible parameter point")


@dataclass(frozen=True)
class ParamModel:
    """A parameterized statistical model on a fixed sample-space backend.

    Exactly one of ``jacobian_fn`` and ``jet_fn`` (a fused thetas ->
    (density, Jacobian) agreeing bitwise with ``density_fn``) is given.
    """

    name: str
    domain: Box
    space: SampleSpace
    density_fn: object
    jacobian_fn: object = None
    jet_fn: object = None

    def __post_init__(self):
        if (self.jacobian_fn is None) == (self.jet_fn is None):
            raise UsageError(f"model {self.name!r} needs exactly one of jacobian_fn and jet_fn")

    @property
    def param_dim(self) -> int:
        return self.domain.dim

    # -- density -----------------------------------------------------------

    def density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.asarray(self.density_fn(thetas), dtype=float)

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

    def jacobian(self, theta) -> np.ndarray:
        self.domain.require(theta)
        return self.jacobian_batch([np.atleast_1d(theta)])[0]

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

    def reversed(self) -> "CurveInModel":
        return CurveInModel(self.model, self.nodes[::-1])


# ---------------------------------------------------------------------------
# Baseline regular families (oracle fodder)
# ---------------------------------------------------------------------------

def bernoulli_family(eps=EPS_BOUNDARY) -> ParamModel:
    """Bernoulli(p) on two atoms, p in (eps, 1-eps)."""
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

    return ParamModel("bernoulli", Box([eps], [1 - eps]), space, dens, jac)


def categorical_family(m: int, eps=EPS_BOUNDARY) -> ParamModel:
    """Categorical on m atoms parameterized by the first m-1 probabilities.

    The density is the parameter itself (identity chart on the open
    simplex); the last probability is 1 minus the rest.
    """
    if m < 2:
        raise UsageError("categorical family needs at least 2 atoms")
    space = finite_space(m)

    def constraint(theta):
        return float(np.sum(theta)) <= 1.0 - eps

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

    box = Box([eps] * (m - 1), [1 - eps] * (m - 1), constraint=constraint)
    return ParamModel(f"categorical:{m}", box, space, dens, jac)


def gaussian_location_family(half_width=2.0, panels=80, npts=8) -> ParamModel:
    """N(theta, 1) on a 1-d grid; the Fisher matrix is identically 1."""
    lo = -half_width - 8.0
    hi = half_width + 8.0
    space = grid1d_space(lo, hi, panels=panels, npts=npts)
    x = space.points

    def dens(thetas):
        return np.exp(-0.5 * (x[None, :] - thetas[:, 0:1]) ** 2) / SQRT2PI

    def jet(thetas):
        d = dens(thetas)
        return d, ((x[None, :] - thetas[:, 0:1]) * d)[:, None, :]

    return ParamModel(
        "gauss-location", Box([-half_width], [half_width]), space, dens, jet_fn=jet
    )


def gaussian_location2d_family(half_width=1.2, panels=16, npts=4) -> ParamModel:
    """N(theta, I_2) location family on a 2-d grid; Fisher matrix is I_2."""
    r = half_width + 8.0
    space = grid2d_space(-r, r, -r, r, panels=panels, npts=npts)
    pts = space.points  # (X, 2)

    def offsets(thetas):
        diff = pts[None, :, :] - thetas[:, None, :]
        return diff, np.exp(-0.5 * np.sum(diff * diff, axis=2)) / (2 * math.pi)

    def dens(thetas):
        return offsets(thetas)[1]

    def jet(thetas):
        diff, d = offsets(thetas)
        return d, np.transpose(diff, (0, 2, 1)) * d[:, None, :]

    box = Box([-half_width, -half_width], [half_width, half_width])
    return ParamModel("gauss-location-2d", box, space, dens, jet_fn=jet)


def gaussian_location_scale_family(
    mu_max=2.0, sigma_lo=0.5, sigma_hi=2.0, panels=144, npts=8
) -> ParamModel:
    """N(mu, sigma^2) with (mu, sigma) in a box bounded away from sigma=0."""
    if sigma_lo < SIGMA_MIN:
        raise UsageError(f"sigma must stay above {SIGMA_MIN}")
    r = mu_max + 8.0 * sigma_hi
    space = grid1d_space(-r, r, panels=panels, npts=npts)
    x = space.points

    def standardized(thetas):
        sig = thetas[:, 1:2]
        z = (x[None, :] - thetas[:, 0:1]) / sig
        return sig, z, np.exp(-0.5 * z * z) / (SQRT2PI * sig)

    def dens(thetas):
        return standardized(thetas)[2]

    def jet(thetas):
        sig, z, d = standardized(thetas)
        J = np.empty((thetas.shape[0], 2, x.size))
        J[:, 0, :] = d * z / sig
        J[:, 1, :] = d * (z * z - 1.0) / sig
        return d, J

    box = Box([-mu_max, sigma_lo], [mu_max, sigma_hi])
    return ParamModel("gauss-loc-scale", box, space, dens, jet_fn=jet)


# ---------------------------------------------------------------------------
# Gaussian mixture with a degenerate parameter locus
# ---------------------------------------------------------------------------

def gaussian_mixture(b_max=B_MAX, panels=112, npts=8) -> ParamModel:
    """Two-component Gaussian mixture p(x | a, b).

    p = ((1-a) exp(-x^2/2) + a exp(-(x-b)^2/2)) / sqrt(2 pi) with a in
    [0, 1] and b truncated to [-b_max, b_max]. The parameter Jacobian uses
    the closed forms

        d_a p = (-exp(-x^2/2) + exp(-(x-b)^2/2)) / sqrt(2 pi)
        d_b p = a (x-b) exp(-(x-b)^2/2) / sqrt(2 pi)

    Both components vanish identically on the lines b=0 (for d_a) and a=0
    (for d_b), so the Fisher matrix drops rank there and is the zero matrix
    at the corner (0, 0).
    """
    r = b_max + 8.0
    space = grid1d_space(-r, r, panels=panels, npts=npts)
    x = space.points
    n0 = np.exp(-0.5 * x[None, :] ** 2)  # the fixed component, built once

    def components(thetas):
        a = thetas[:, 0:1]
        diff = x[None, :] - thetas[:, 1:2]
        nb = np.exp(-0.5 * diff ** 2)
        return a, diff, nb, ((1.0 - a) * n0 + a * nb) / SQRT2PI

    def dens(thetas):
        return components(thetas)[3]

    def jet(thetas):
        a, diff, nb, p = components(thetas)
        J = np.empty((thetas.shape[0], 2, x.size))
        J[:, 0, :] = (nb - n0) / SQRT2PI
        J[:, 1, :] = a * diff * nb / SQRT2PI
        return p, J

    box = Box([0.0, -b_max], [1.0, b_max])
    return ParamModel("mixture", box, space, dens, jet_fn=jet)


# ---------------------------------------------------------------------------
# Reparameterized path through the degenerate mixture corner
# ---------------------------------------------------------------------------

def singular_reparam_point(t) -> tuple:
    """The (alpha, beta) reparameterization of the mixture corner path.

    alpha(t) = integral_0^t d tau / log(tau^2) with the integrand extended
    by 0 at tau = 0 (it tends to 0 there), beta(t) = t log(t^2) with
    beta(0) = 0. Both are odd and vanish at t = 0. Note alpha(t) has the
    opposite sign of t, so for t > 0 the path leaves the mixture's closed
    parameter square and the induced measure is signed (mass stays 1).
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("reparameterized path needs |t| < 1")
    if t == 0.0:
        return 0.0, 0.0
    alpha = adaptive_integral(
        lambda u: 0.0 if u == 0.0 else 1.0 / math.log(u * u), 0.0, t, tol=1e-9
    )
    beta = t * math.log(t * t)
    return alpha, beta


def singular_reparam_measure(t) -> Measure:
    """Mixture measure at (alpha(t), beta(t)); signed for t > 0."""
    mix = get_model("mixture")
    return Measure(mix.space, mix.density_batch([singular_reparam_point(t)])[0], signed=True)


def corner_witness_measure(t) -> Measure:
    """Mixture measure at (t^(2/3), t^(1/3)).

    A continuous path through the corner (0, 0) whose measure-space
    velocity tends to x exp(-x^2/2)/sqrt(2 pi) in total variation even
    though both parameter partials of the density vanish identically at
    the corner itself.
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("witness path needs |t| < 1")
    mix = get_model("mixture")
    root = math.copysign(abs(t) ** (1.0 / 3.0), t)
    return Measure(mix.space, mix.density_batch([[root * root, root]])[0], signed=False)


def corner_velocity_target() -> Measure:
    """The limiting velocity x exp(-x^2/2)/sqrt(2 pi) as a signed measure."""
    space = get_model("mixture").space
    x = space.points
    return Measure(space, x * np.exp(-0.5 * x * x) / SQRT2PI, signed=True)


def singular_reparam_model() -> ParamModel:
    """The corner path: the mixture pulled back through (alpha, beta).

    The chain rule takes (alpha', beta') = (1/log t^2, log t^2 + 2), and
    (0, 0) at t = 0, where beta' diverges but scales the b-partial, which
    vanishes at a = alpha(0) = 0.
    """

    def phi(ts):
        return np.array([singular_reparam_point(t) for t in ts[:, 0]])

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


def oscillatory_time_integral(t, x) -> np.ndarray:
    """F_t(x) = integral_0^t sin(x/s) ds, evaluated in closed form.

    Substituting u = x/s turns the integral into x * (sin(y)/y - Ci(y))
    with y = x/t; the cosine integral comes from scipy. F is odd in x,
    even in t, and F_0 = 0.
    """
    x = np.asarray(x, dtype=float)
    t = abs(float(t))
    out = np.zeros_like(x)
    if t == 0.0:
        return out
    nz = x != 0.0
    y = np.abs(x[nz]) / t
    _, ci = sici(y)
    out[nz] = np.sign(x[nz]) * np.abs(x[nz]) * (np.sin(y) / y - ci)
    return out


def oscillatory_time_integral_adaptive(t, x, tol=1e-9, max_depth=26) -> float:
    """Direct adaptive quadrature of F_t at a single x; slow cross-check."""
    t = float(t)
    x = float(x)
    if t == 0.0 or x == 0.0:
        return 0.0
    return adaptive_integral(
        lambda s: 0.0 if s == 0.0 else math.sin(x / s), 0.0, abs(t), tol=tol, max_depth=max_depth
    )


def weak_oscillatory_measure(t, space=None) -> Measure:
    """Probability measure with density 1/(2 pi) + F_t(x)/(2 A) on [-pi, pi].

    F_t integrates to zero (odd), so the total mass is 1 for every t; the
    density stays above 1/(4 pi) by the choice of A.
    """
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("oscillatory curve needs |t| < 1")
    if space is None:
        space = get_model("weak-curve").space
    dens = 1.0 / (2 * math.pi) + oscillatory_time_integral(t, space.points) / (
        2 * OSC_AMPLITUDE
    )
    return Measure(space, dens, signed=False)


def weak_oscillatory_velocity(t, space=None, min_panels_per_period=8) -> Measure:
    """The curve's velocity sin(x/t)/(2 A) dx as a signed measure.

    For small t the default backend cannot resolve the oscillation, so a
    dedicated grid with at least ``min_panels_per_period`` panels per
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
            panels = max(240, min_panels_per_period * periods)
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
        for H in (np.cos(x), np.sin(x)):
            up = np.sum(H * weak_oscillatory_measure(t + h, space=space).masses)
            dn = np.sum(H * weak_oscillatory_measure(t - h, space=space).masses)
            lhs = (up - dn) / (2 * h)
            rhs = np.sum(H * weak_oscillatory_velocity(t, space=space).masses)
            rows.append([t, lhs, rhs, abs(lhs - rhs)])
    tvs = {}
    for t in (1e-2, 1e-3):
        vel = weak_oscillatory_velocity(t)
        vel0 = weak_oscillatory_velocity(0.0, space=vel.space)
        tvs[str(t)] = tv_norm(vel - vel0)
    return rows, tvs


def weak_oscillatory_model(panels=120, npts=8) -> ParamModel:
    """The oscillatory curve packaged as a 1-parameter model on [-pi, pi]."""
    space = grid1d_space(-math.pi, math.pi, panels=panels, npts=npts)
    x = space.points

    def dens(thetas):
        rows = [
            1.0 / (2 * math.pi) + oscillatory_time_integral(t, x) / (2 * OSC_AMPLITUDE)
            for t in thetas[:, 0]
        ]
        return np.vstack(rows)

    def jac(thetas):
        T = thetas.shape[0]
        J = np.zeros((T, 1, x.size))
        for k, t in enumerate(thetas[:, 0]):
            if t != 0.0:
                J[k, 0, :] = np.sin(x / t) / (2 * OSC_AMPLITUDE)
        return J

    return ParamModel("weak-curve", Box([-0.999], [0.999]), space, dens, jac)


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


@lru_cache(maxsize=1)
def bump_square_integral() -> float:
    """integral_0^1 f(u)^2 du (= 0.27734...), used by the normalization."""
    return adaptive_integral(lambda u: float(bump(u) ** 2), 0.0, 1.0, tol=1e-13)


def friedrich_raw_density(t, x) -> np.ndarray:
    """Unnormalized density: 1 for x <= 0, |t| f(x/|t|)^2 for x > 0, t != 0."""
    x = np.asarray(x, dtype=float)
    t = float(t)
    out = np.where(x <= 0.0, 1.0, 0.0)
    if t != 0.0:
        m = x > 0.0
        out = out.astype(float)
        out[m] = abs(t) * bump(x[m] / abs(t)) ** 2
    return out


def friedrich_raw_velocity(t, x) -> np.ndarray:
    """d/dt of the unnormalized density: sign(t) (f^2 - 2 u f f') at u = x/|t|."""
    x = np.asarray(x, dtype=float)
    t = float(t)
    out = np.zeros_like(x)
    if t != 0.0:
        m = x > 0.0
        u = x[m] / abs(t)
        f = bump(u)
        out[m] = math.copysign(1.0, t) * (f * f - 2.0 * u * f * bump_derivative(u))
    return out


def friedrich_measure(t) -> Measure:
    """The unnormalized bump-family measure at parameter t (mass >= 1)."""
    t = float(t)
    if not -1.0 < t < 1.0:
        raise DomainError("bump family needs |t| < 1")
    space = get_model("friedrich").space
    return Measure(space, friedrich_raw_density(t, space.points), signed=False)


def normalized_friedrich_measure(t) -> Measure:
    mu = friedrich_measure(t)
    return Measure(mu.space, mu.density / tv_norm(mu), signed=False)


def normalized_friedrich_model() -> ParamModel:
    """The normalized bump family as a 1-parameter model on (-1, 1).

    The exact normalizer is 1 + t^2 * integral f^2, so the parameter
    Jacobian is analytic; at t = 0 the velocity vanishes identically while
    the metric speed has a positive two-sided limit.
    """
    # Negative side is flat; the positive side clusters geometrically toward 0
    # so bumps of width down to ~1e-5 stay resolved.
    neg = uniform_edges(-1.0, 0.0, 16)
    pos = geometric_edges(1e-7, 1.0, 96, origin=0.0)
    space = grid1d_from_edges(np.concatenate([neg[:-1], pos]), npts=6)
    x = space.points
    C = bump_square_integral()

    def dens(thetas):
        rows = []
        for t in thetas[:, 0]:
            norm = 1.0 + t * t * C
            rows.append(friedrich_raw_density(t, x) / norm)
        return np.vstack(rows)

    def jac(thetas):
        T = thetas.shape[0]
        J = np.empty((T, 1, x.size))
        for k, t in enumerate(thetas[:, 0]):
            norm = 1.0 + t * t * C
            p = friedrich_raw_density(t, x)
            pd = friedrich_raw_velocity(t, x)
            J[k, 0, :] = pd / norm - p * (2.0 * t * C) / (norm * norm)
        return J

    return ParamModel("friedrich", Box([-0.999], [0.999]), space, dens, jac)


# ---------------------------------------------------------------------------
# Tangent vectors, products, reparameterizations
# ---------------------------------------------------------------------------

def tangent_at(model: ParamModel, theta, v, validate=True) -> TangentVector:
    """Tangent vector of the model at theta in parameter direction v.

    log_rep = (sum_i v_i d_i p) / p where the density exceeds the dominance
    floor. Nodes below the floor are excluded; if the excluded region
    carries non-negligible velocity mass the derivative genuinely escapes
    the support and NotDominated is raised. (Vanishing-tail mismatches,
    where the score is huge but its mass is nil, pass through: the score of
    a mixture is unbounded yet square-integrable.)
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.param_dim,):
        raise UsageError("direction must match the parameter dimension")
    p, J = model.jet_at(theta)
    dv = v @ J
    lo = p <= DOMINANCE_TOL
    w = model.space.weights
    dropped_mass = float(np.sum(np.abs(dv[lo]) * w[lo]))
    total_mass = float(np.sum(np.abs(dv) * w))
    if dropped_mass > max(1e-9, 1e-9 * total_mass):
        offending = np.nonzero(lo & (np.abs(dv) > DOMINANCE_TOL))[0]
        raise NotDominated(
            "directional derivative carries mass where the density vanishes",
            nodes=offending.tolist(),
        )
    rep = np.zeros_like(p)
    rep[~lo] = dv[~lo] / p[~lo]
    tangent = TangentVector(Measure(model.space, p, signed=False), rep)
    if validate:
        defect = tangent.mass_defect()
        if abs(defect) > 10 * QUAD_TOL:
            raise UsageError(f"tangent mass defect {defect:.3e} exceeds tolerance")
    return tangent


def outcome_table(m: int, n: int) -> tuple:
    """Outcomes of n draws from m atoms, in product-model order.

    Returns the atom index of every draw, (m^n, n), and the occurrence
    count of every atom, (m^n, m).
    """
    count = m ** n
    if count > ENUM_LIMIT:
        raise UsageError("outcome space too large to enumerate")
    digits = np.stack(np.unravel_index(np.arange(count), (m,) * n), axis=1)
    counts = np.stack([np.sum(digits == a, axis=1) for a in range(m)], axis=1)
    return digits, counts


def product_model(base: ParamModel, n: int) -> ParamModel:
    """The n-fold i.i.d. product of a finite-backend model.

    Outcomes are tuples, enumerated on a finite space with m^n atoms; the
    density is the product over coordinates and the Jacobian follows the
    product rule, the base scores summed by occurrence count. The Fisher
    matrix of the product is n times the base's.
    """
    if base.space.kind != "finite":
        raise UsageError("product models require a finite backend")
    if n < 1:
        raise UsageError("n must be >= 1")
    digits, counts = outcome_table(base.space.size, n)
    occurrences = counts.T.astype(float)  # (m, count)

    def dens(thetas):
        p = base.density_batch(thetas)  # (T, m)
        return np.prod(p[:, digits], axis=2)  # (T, count)

    def jet(thetas):
        p, J = base.jet(thetas)  # (T, m), (T, k, m)
        prod = np.prod(p[:, digits], axis=2)  # (T, count)
        score = J / np.maximum(p[:, None, :], 1e-300)  # (T, k, m)
        return prod, (score @ occurrences) * prod[:, None, :]

    return ParamModel(f"{base.name}^{n}", base.domain, finite_space(len(digits)), dens, jet_fn=jet)


def reparameterized_model(model: ParamModel, phi, phi_jacobian, u_domain: Box, name=None) -> ParamModel:
    """Model with parameters u mapped through theta = phi(u).

    ``phi`` maps (T, k) -> (T, n) and ``phi_jacobian`` maps (T, k) ->
    (T, k, n); the chain rule turns one base jet at phi(u) into the new
    parameter Jacobian.
    """

    def dens(us):
        return model.density_batch(np.asarray(phi(us), dtype=float))

    def jet(us):
        P, J_theta = model.jet(np.asarray(phi(us), dtype=float))  # (T, X), (T, n, X)
        dphi = np.asarray(phi_jacobian(us), dtype=float)  # (T, k, n)
        return P, np.einsum("tkn,tnx->tkx", dphi, J_theta)

    return ParamModel(name or f"{model.name}~reparam", u_domain, model.space, dens, jet_fn=jet)


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

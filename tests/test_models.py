import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sigeo import models
from sigeo.errors import DomainError, NotDominated, UsageError
from sigeo.fisher import directional_form, fisher_matrix
from sigeo.markov import binning_kernel, pushforward_model
from sigeo.measures import Measure, integrate, tv_norm
from sigeo.models import (
    Box,
    CurveInModel,
    ParamModel,
    bernoulli_family,
    bump,
    bump_derivative,
    bump_square_integral,
    categorical_family,
    friedrich_measure,
    gaussian_location_family,
    gaussian_location_scale_family,
    gaussian_mixture,
    get_model,
    normalized_friedrich_model,
    oscillatory_time_integral,
    product_model,
    reparameterized_model,
    singular_reparam_points,
    tangent_at,
    type_table,
    weak_oscillatory_measure,
    weak_oscillatory_velocity,
)

SQ = math.sqrt(2 * math.pi)

MIX = gaussian_mixture()
BERN = bernoulli_family()
CAT3 = categorical_family(3)


# -- baseline families --------------------------------------------------------

def test_bernoulli_density_at_half():
    assert BERN.density([0.5]) == pytest.approx([0.5, 0.5])


def test_categorical_density_is_identity_chart():
    assert CAT3.density([0.2, 0.5]) == pytest.approx([0.2, 0.5, 0.3])


def test_normal_density_at_zero():
    loc = gaussian_location_family()
    idx = np.argmin(np.abs(loc.space.points))
    assert loc.density([0.0])[idx] == pytest.approx(
        math.exp(-0.5 * loc.space.points[idx] ** 2) / SQ, rel=1e-12
    )


def test_domain_errors_at_boundary():
    with pytest.raises(DomainError):
        BERN.density([1.5])
    with pytest.raises(DomainError):
        CAT3.density([0.7, 0.5])  # leaves the simplex
    with pytest.raises(DomainError):
        gaussian_location_scale_family().density([0.0, 0.05])
    with pytest.raises(DomainError, match="2 coordinates where the model takes 1"):
        BERN.density([0.5, 0.2])


def _numpy_contains(box, theta):
    """Box.contains as two numpy reductions, the reference verdict."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != box.lo.shape:
        return False
    inside = bool(np.all(theta >= box.lo) and np.all(theta <= box.hi))
    if inside and box.constraint is not None:
        inside = bool(box.constraint(theta))
    return inside


@pytest.mark.parametrize("model_id", ["bernoulli", "categorical:3", "gauss-loc-scale", "mixture"])
def test_domain_contains_matches_the_numpy_verdict(model_id):
    box = get_model(model_id).domain
    rng = np.random.default_rng(11)
    span = box.hi - box.lo
    wide = box.lo - 0.2 * span + 1.4 * span * rng.random((3000, box.dim))
    clipped = np.clip(wide, box.lo, box.hi)  # many points exactly on a face
    odd = wide[:300].copy()
    odd[np.arange(300), rng.integers(0, box.dim, 300)] = rng.choice([np.nan, np.inf, -np.inf], 300)
    for theta in np.vstack([wide, clipped, odd]):
        assert box.contains(theta) == _numpy_contains(box, theta)
    for theta in (np.zeros(box.dim + 1), np.zeros((1, box.dim)), [np.nan] * box.dim):
        assert box.contains(theta) == _numpy_contains(box, theta)


@pytest.mark.parametrize(
    "model,thetas",
    [
        (BERN, [[0.2], [0.5], [0.9]]),
        (CAT3, [[0.2, 0.3], [0.5, 0.25]]),
        (MIX, [[0.0, 0.0], [0.3, 1.5], [0.9, -4.0], [0.5, 2.0]]),
        (gaussian_location_scale_family(), [[0.5, 1.0], [-1.0, 0.7]]),
    ],
)
def test_zoo_densities_normalized(model, thetas):
    for theta in thetas:
        assert model.measure(theta).total_mass() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "model,theta",
    [
        (MIX, [0.3, 1.5]),
        (MIX, [0.7, -2.0]),
        (gaussian_location_scale_family(), [0.5, 1.2]),
        (CAT3, [0.3, 0.3]),
        (get_model("singular-curve"), [-0.4]),
        (get_model("singular-curve"), [0.3]),
    ],
)
def test_analytic_jacobians_match_finite_differences(model, theta):
    theta = np.asarray(theta, dtype=float)
    J = model.jet_at(theta)[1]
    h = 1e-5
    for i in range(model.param_dim):
        e = np.zeros(model.param_dim)
        e[i] = h
        fd = (model.density_batch([theta + e])[0] - model.density_batch([theta - e])[0]) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(J[i] - fd)) / scale < 1e-6


# -- mixture singular structure -------------------------------------------------

def test_mixture_with_zero_weight_is_standard_normal():
    x = MIX.space.points
    for b in (-3.0, 0.0, 2.5):
        assert MIX.density([0.0, b]) == pytest.approx(np.exp(-0.5 * x * x) / SQ, abs=1e-15)


def test_mixture_partials_vanish_at_corner():
    J = MIX.jet_at([0.0, 0.0])[1]
    assert np.max(np.abs(J)) == 0.0


def test_mixture_b_partial_vanishes_on_a_zero_line():
    J = MIX.jet_at([0.0, 2.0])[1]
    assert np.max(np.abs(J[1])) == 0.0
    assert np.max(np.abs(J[0])) > 0.0


# -- reparameterized corner path -------------------------------------------------

def singular_reparam_measure(t):
    """The mixture measure at (alpha(t), beta(t)); signed for t > 0."""
    curve = get_model("singular-curve")
    return Measure(curve.space, curve.density_batch([[t]])[0], signed=True)


def corner_witness_measure(t):
    """The mixture measure at (t^(2/3), t^(1/3)), a path through the corner."""
    root = math.copysign(abs(t) ** (1.0 / 3.0), t)
    return Measure(MIX.space, MIX.density_batch([[root * root, root]])[0])


def test_singular_reparam_origin():
    np.testing.assert_array_equal(singular_reparam_points([0.0]), [[0.0, 0.0]])


def test_singular_reparam_oddness():
    t = np.array([0.1, 0.35, 0.7])
    np.testing.assert_array_equal(singular_reparam_points(-t), -singular_reparam_points(t))


def test_singular_reparam_alpha_is_the_integral():
    # alpha(t) = integral_0^t d tau / log(tau^2), by QUADPACK, which never
    # evaluates the endpoint tau = 0
    ts = np.array([1e-6, -1e-6, 0.3, -0.3, 0.98, -0.98])
    direct = [quad(lambda u: 1.0 / math.log(u * u), 0.0, t, epsabs=1e-13, epsrel=0.0)[0] for t in ts]
    np.testing.assert_allclose(singular_reparam_points(ts)[:, 0], direct, rtol=0.0, atol=1e-11)


def test_singular_reparam_domain_error():
    for t in (1.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            singular_reparam_points([0.2, t])


def test_singular_curve_jacobian_vanishes_at_the_corner():
    # beta' diverges at t = 0, but it multiplies the b-partial, which is 0 there
    assert np.max(np.abs(get_model("singular-curve").jet_at([0.0])[1])) == 0.0


def test_singular_curve_is_the_mixture_pulled_back():
    curve = get_model("singular-curve")
    for t in (-0.6, 0.0, 0.2):
        np.testing.assert_array_equal(
            curve.density_batch([[t]])[0], MIX.density_batch(singular_reparam_points([t]))[0]
        )


def test_singular_reparam_curve_tv_continuous_at_zero():
    base = singular_reparam_measure(0.0)
    gaps = [tv_norm(singular_reparam_measure(t) - base) for t in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3


def test_singular_reparam_velocity_vanishes_in_tv():
    # central finite-difference velocities shrink in TV norm as t -> 0:
    # alpha'(t) beta(t) and alpha(t) beta'(t) are both O(t)
    tvs = []
    for t in (1e-1, 1e-2, 1e-3):
        h = 0.01 * t
        vel = (singular_reparam_measure(t + h) - singular_reparam_measure(t - h)) * (1 / (2 * h))
        tvs.append(tv_norm(vel))
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 2e-3


def test_corner_witness_velocity_reaches_nonzero_limit():
    # the witness path has measure-space velocity x exp(-x^2/2)/sqrt(2 pi)
    # at the corner even though the parameter Jacobian vanishes there;
    # its TV norm is 2/sqrt(2 pi)
    x = MIX.space.points
    target = Measure(MIX.space, x * np.exp(-0.5 * x * x) / SQ, signed=True)
    assert tv_norm(target) == pytest.approx(2 / math.sqrt(2 * math.pi), rel=1e-6)
    dists = []
    for t in (1e-2, 1e-4, 1e-6):
        h = 0.01 * t
        vel = (corner_witness_measure(t + h) - corner_witness_measure(t - h)) * (1 / (2 * h))
        dists.append(tv_norm(vel - target))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.02


# -- oscillatory curve ---------------------------------------------------------

def test_weak_curve_at_zero_is_uniform():
    mu = weak_oscillatory_measure(0.0)
    assert mu.density == pytest.approx(np.full(mu.space.size, 1 / (2 * math.pi)))


def test_weak_curve_mass_one_for_all_t():
    for t in (0.9, 0.5, 0.1, -0.3):
        assert weak_oscillatory_measure(t).total_mass() == pytest.approx(1.0, abs=1e-9)


def test_weak_curve_density_bounded_below():
    bound = 1 / (2 * math.pi) - 1 / (4 * math.pi)
    for t in (0.999, 0.5, -0.999):
        assert np.min(weak_oscillatory_measure(t).density) > bound - 1e-12


def test_oscillatory_integral_closed_form_vs_adaptive():
    # u = |x|/s gives F_t(x) = x integral_{|x|/|t|}^inf sin(u) / u^2 du, which
    # QUADPACK's adaptive Fourier-integral rule (QAWF) evaluates directly
    for t, x in ((0.7, 1.3), (0.3, -2.0), (0.9, 0.4), (0.05, 3.0), (-0.2, 2.5), (1e-3, -0.7), (1e-3, 3.1)):
        closed = oscillatory_time_integral(t, np.array([x]))[0]
        direct = x * quad(lambda u: u**-2, abs(x) / abs(t), np.inf, weight="sin", wvar=1.0)[0]
        assert closed == pytest.approx(direct, abs=5e-7)


def test_oscillatory_integral_odd_in_x_even_in_t():
    x = np.array([0.3, 1.2, 2.9])
    F = oscillatory_time_integral
    assert F(0.4, -x) == pytest.approx(-F(0.4, x))
    assert F(-0.4, x) == pytest.approx(F(0.4, x))


def test_weak_velocity_small_t_needs_fine_grid():
    vel = weak_oscillatory_velocity(1e-3)
    assert vel.space.size >= 8 * 1000 * 4


def test_weak_exchange_builds_each_measure_once(monkeypatch):
    # the masses at t + h and t - h serve both test functions
    calls = []
    density_batch = ParamModel.density_batch

    def counting(self, thetas):
        calls.append(self.name)
        return density_batch(self, thetas)

    monkeypatch.setattr(ParamModel, "density_batch", counting)
    rows, _ = models.weak_oscillatory_exchange((0.3, 0.25, 0.15))  # the weak-demo criterion's t
    assert len(rows) == 6 and calls == ["weak-curve"] * 6


# -- shrinking-bump family -------------------------------------------------------

def test_bump_shape():
    assert bump(np.array([0.0]))[0] == 1.0
    assert bump(np.array([1.0]))[0] == 0.0
    assert bump(np.array([2.0]))[0] == 0.0
    u = np.linspace(0.01, 0.95, 20)
    assert np.all(bump_derivative(u) < 0)


def test_friedrich_at_zero_is_negative_indicator():
    mu = friedrich_measure(0.0)
    x = mu.space.points
    assert np.all(mu.density[x <= 0] == 1.0)
    assert np.all(mu.density[x > 0] == 0.0)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_bump_square_integral_is_its_closed_form():
    # 1 - 2 e^2 E_1(2) against QUADPACK; the bits are those the friedrich
    # pins were computed with (math.exp(2.0) in place of math.e ** 2 lands
    # 2 ulps lower)
    C = bump_square_integral()
    direct = quad(lambda u: float(bump(u) ** 2), 0.0, 1.0, epsabs=1e-14, epsrel=0.0)[0]
    assert C == pytest.approx(direct, rel=0.0, abs=1e-14)
    assert C.hex() == "0x1.1bffbdfad9700p-2"


def test_friedrich_tv_distance_quadratic_in_t():
    C = bump_square_integral()
    for t in (0.5, 0.2, 0.05):
        gap = tv_norm(friedrich_measure(t) - friedrich_measure(0.0))
        assert gap == pytest.approx(t * t * C, rel=1e-6)


def test_friedrich_mass_at_least_one():
    for t in (-0.8, -0.1, 0.0, 0.3, 0.9):
        assert tv_norm(friedrich_measure(t)) >= 1.0 - 1e-12


def test_friedrich_model_jacobian_matches_finite_differences():
    model = normalized_friedrich_model()
    for t in (0.25, -0.4):
        J = model.jet_at([t])[1][0]
        h = 1e-6
        fd = (model.density_batch([[t + h]])[0] - model.density_batch([[t - h]])[0]) / (2 * h)
        assert np.max(np.abs(J - fd)) < 1e-5 * max(np.max(np.abs(fd)), 1.0)


# -- tangents --------------------------------------------------------------------

def test_tangent_bernoulli_log_rep():
    v = tangent_at(BERN, [0.5], [1.0])
    assert v.log_rep == pytest.approx([-2.0, 2.0])


def test_tangent_mass_zero_across_zoo():
    for model, theta, d in (
        (BERN, [0.3], [1.0]),
        (CAT3, [0.2, 0.4], [1.0, -0.5]),
        (MIX, [0.4, 1.0], [0.3, 0.7]),
    ):
        v = tangent_at(model, theta, d)
        assert abs(integrate(v.log_rep, v.base)) < 1e-6


def test_tangent_at_corner_is_zero():
    v = tangent_at(MIX, [0.0, 0.0], [0.7, 0.3])
    assert np.max(np.abs(v.log_rep)) == 0.0


def test_param_model_needs_exactly_one_jacobian_route():
    def dens(thetas):
        return np.column_stack([1.0 - thetas[:, 0], thetas[:, 0]])

    def jac(thetas):
        return np.tile([-1.0, 1.0], (thetas.shape[0], 1, 1))

    def jet(thetas):
        return dens(thetas), jac(thetas)

    box, space = Box([0.1], [0.9]), BERN.space
    for routes in ({}, {"density_fn": dens}, {"jacobian_fn": jac}, {"density_fn": dens, "jet_fn": jet},
                   {"jacobian_fn": jac, "jet_fn": jet}, {"density_fn": dens, "jacobian_fn": jac, "jet_fn": jet}):
        with pytest.raises(UsageError, match="either jet_fn alone or density_fn with jacobian_fn"):
            ParamModel("coin", box, space, **routes)
    coin = ParamModel("coin", box, space, jet_fn=jet)
    np.testing.assert_array_equal(coin.jet_at([0.4])[1], [[-1.0, 1.0]])
    np.testing.assert_array_equal(coin.density([0.4]), jet(np.array([[0.4]]))[0][0])
    np.testing.assert_array_equal(coin.measure([0.4]).density, [0.6, 0.4])
    separate = ParamModel("coin", box, space, dens, jac)
    np.testing.assert_array_equal(separate.jet_at([0.4])[1], [[-1.0, 1.0]])


def test_tangent_not_dominated():
    # density (theta, 1-2 theta, theta): at theta=0 two atoms vanish while
    # the derivative direction (1, -2, 1) keeps unit-scale mass on them
    from sigeo.measures import finite_space

    def dens(thetas):
        th = thetas[:, 0:1]
        return np.concatenate([th, 1.0 - 2.0 * th, th], axis=1)

    def jac(thetas):
        T = thetas.shape[0]
        J = np.empty((T, 1, 3))
        J[:, 0, :] = [1.0, -2.0, 1.0]
        return J

    edge = ParamModel("edge", Box([0.0], [0.4]), finite_space(3), dens, jac)
    with pytest.raises(NotDominated) as err:
        tangent_at(edge, [0.0], [1.0])
    assert err.value.nodes == [0, 2]
    # interior points are fine
    v = tangent_at(edge, [0.2], [1.0])
    assert integrate(v.log_rep, v.base) == pytest.approx(0.0, abs=1e-12)


# -- products and reparameterizations ----------------------------------------------

def test_product_model_density_and_jacobian():
    prod = product_model(BERN, 3)
    assert prod.space.size == 4
    p = 0.3
    dens = prod.density([p])
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    # independent check at the type of one 0 and two 1s -> 3 outcomes, index 2
    assert dens[2] == pytest.approx(3 * p * (1 - p) * p, rel=1e-12)
    J = prod.jet_at([p])[1][0]
    h = 1e-6
    fd = (prod.density([p + h]) - prod.density([p - h])) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-7


def _types_of_the_enumeration(m, n):
    """The m^n draw sequences in lexicographic order, their occurrence
    counts, and the type index of each sequence in first-occurrence order:
    the reference the type tables and product models are checked against."""
    digits = np.stack(np.unravel_index(np.arange(m**n), (m,) * n), axis=1)
    counts = np.stack([np.sum(digits == a, axis=1) for a in range(m)], axis=1)
    types, first, inverse = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return digits, types[order], rank[inverse.ravel()]


@pytest.mark.parametrize("base_id,n", [("bernoulli", 5), ("categorical:3", 4), ("categorical:4", 3)])
def test_product_jacobian_sums_scores_by_occurrence_count(base_id, n):
    base = get_model(base_id)
    prod = product_model(base, n)
    thetas = _draw(base, 6, seed=3)
    # reference: the per-draw gather-and-sum of the base scores over the m^n
    # draw sequences, summed over the sequences of each type
    digits, types, type_of = _types_of_the_enumeration(base.space.size, n)
    assert prod.space.size == len(types)
    p = base.density_batch(thetas)
    ratio = base.jacobian_batch(thetas) / p[:, None, :]
    seq = np.prod(p[:, digits], axis=2)
    ref_p = np.zeros((len(thetas), len(types)))
    np.add.at(ref_p.T, type_of, seq.T)
    ref_J = np.zeros((len(thetas), base.param_dim, len(types)))
    np.add.at(np.moveaxis(ref_J, 2, 0), type_of, np.moveaxis(np.sum(ratio[:, :, digits], axis=3) * seq[:, None, :], 2, 0))
    P, J = prod.jet(thetas)
    assert np.max(np.abs(P - ref_p)) <= 1e-15 * np.max(np.abs(ref_p))
    assert np.max(np.abs(J - ref_J)) <= 1e-15 * np.max(np.abs(ref_J))
    np.testing.assert_array_equal(P, prod.density_batch(thetas))


def test_product_fisher_matrix_is_n_times_the_base():
    # categorical:3^100 has 5151 types (3^100 draw sequences). Its Fisher
    # integral over the types, summed without the density floor, is exact;
    # fisher_matrix caps the types below DOMINANCE_TOL and falls 1.1e-9 short.
    theta = [0.3, 0.4]
    prod = product_model(CAT3, 100)
    G_base = fisher_matrix(CAT3, theta).matrix
    P, J = prod.jet_at(theta)
    G = (J * prod.space.weights) @ (J / P).T
    assert np.max(np.abs(G - 100 * G_base)) <= 1e-12 * np.max(np.abs(100 * G_base))
    assert np.max(np.abs(fisher_matrix(prod, theta).matrix - 100 * G_base)) <= 1e-8 * np.max(np.abs(100 * G_base))
    # a type holds C(n, k) sequences' mass, so little falls under the floor
    th = 0.01
    G10 = fisher_matrix(product_model(BERN, 10), [th])
    assert abs(G10.matrix[0, 0] - 10 / (th * (1 - th))) <= 1e-11 * 10 / (th * (1 - th))
    assert G10.capped_mass <= 1e-10


def test_product_model_size_guard():
    # bernoulli^(2^20) has 2^20 + 1 types, one more than ENUM_LIMIT
    with pytest.raises(UsageError, match="too large"):
        product_model(BERN, 2**20)
    with pytest.raises(UsageError, match="n must be >= 1"):
        product_model(BERN, 0)


def test_categorical_size_guard(monkeypatch):
    monkeypatch.setattr(models, "ENUM_LIMIT", 2**6)
    assert categorical_family(64).space.size == 64
    # refused before finite_space or Box allocate anything
    monkeypatch.setattr(models, "finite_space", None)
    with pytest.raises(UsageError, match="too large"):
        categorical_family(65)


def test_type_table_enumerates_up_to_the_limit(monkeypatch):
    # C(10^9 + 2, 2) and C(10^9 + 10^6 - 1, 10^6 - 1) are refused without
    # forming the huge binomial
    for m, n in ((3, 10**9), (10**6, 10**9)):
        with pytest.raises(UsageError, match="too large"):
            type_table(m, n)
    monkeypatch.setattr(models, "ENUM_LIMIT", 2**6)
    for m, n, count in ((2, 63, 64), (64, 1, 64), (3, 9, 55), (1, 10**9, 1)):
        counts, log_coef = type_table(m, n)
        assert counts.shape == (count, m) and log_coef.shape == (count,)
    for m, n in ((2, 64), (3, 10), (65, 1), (9, 9)):
        with pytest.raises(UsageError, match="too large"):
            type_table(m, n)
    with pytest.raises(UsageError, match="n must be >= 1"):
        type_table(3, 0)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 1), (2, 10), (3, 1), (3, 10), (5, 4), (12, 2)])
def test_type_table_is_the_unravelled_index_by_type(m, n):
    _, types, type_of = _types_of_the_enumeration(m, n)
    counts, log_coef = type_table(m, n)
    assert counts.shape == types.shape and len(counts) == math.comb(n + m - 1, m - 1)
    np.testing.assert_array_equal(counts, types)
    np.testing.assert_allclose(np.exp(log_coef), np.bincount(type_of), rtol=1e-13, atol=0)


def test_reparameterized_model_chain_rule():
    # u -> theta = 0.5 + 0.4 sin(u)
    rep = reparameterized_model(
        BERN,
        lambda us: 0.5 + 0.4 * np.sin(us),
        lambda us: (0.4 * np.cos(us[:, 0]))[:, None, None],
        Box([-1.0], [1.0]),
    )
    u = 0.3
    J = rep.jet_at([u])[1]
    expected = 0.4 * math.cos(u) * BERN.jet_at([0.5 + 0.4 * math.sin(u)])[1]
    assert np.allclose(J, expected, atol=1e-12)


# -- curves and registry -------------------------------------------------------------

def test_curve_point_interpolation():
    curve = CurveInModel(BERN, [[0.2], [0.5], [0.8]])
    assert curve.point_at(0.0) == pytest.approx([0.2])
    assert curve.point_at(0.5) == pytest.approx([0.5])
    assert curve.point_at(0.75) == pytest.approx([0.65])
    assert curve.segments == 2


def test_curve_allows_repeated_nodes():
    curve = CurveInModel(BERN, [[0.4], [0.4]])
    assert curve.point_at(0.7) == pytest.approx([0.4])


def test_curve_rejects_out_of_domain_nodes():
    with pytest.raises(DomainError):
        CurveInModel(BERN, [[0.2], [1.4]])


# -- fused jets -------------------------------------------------------------------

ZOO_IDS = [
    "bernoulli", "categorical:3", "categorical:4", "mixture", "gauss-location",
    "gauss-location-2d", "gauss-loc-scale", "weak-curve", "friedrich", "singular-curve",
]


def _draw(model, rows, seed=11):
    rng = np.random.default_rng(seed)
    return np.array([model.domain.sample(rng) for _ in range(rows)])


@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("model_id", ZOO_IDS)
def test_jet_equals_separate_density_and_jacobian(model_id, rows):
    model = get_model(model_id)
    thetas = _draw(model, rows)
    P, J = model.jet(thetas)
    np.testing.assert_array_equal(P, model.density_batch(thetas))
    np.testing.assert_array_equal(J, model.jacobian_batch(thetas))
    p1, J1 = model.jet_at(thetas[0])
    np.testing.assert_array_equal(p1, P[0])
    np.testing.assert_array_equal(J1, J[0])
    for row, theta in enumerate(thetas):  # a row's values do not depend on the batch
        p1, J1 = model.jet(theta[None])
        np.testing.assert_array_equal(p1[0], P[row])
        np.testing.assert_array_equal(J1[0], J[row])


def test_only_the_finite_families_keep_a_separate_jacobian():
    assert set(models._BUILDERS) <= set(ZOO_IDS)
    for model_id in ZOO_IDS:
        model = get_model(model_id)
        separate = model_id == "bernoulli" or model_id.startswith("categorical:")
        assert (model.density_fn is not None) == (model.jacobian_fn is not None) == separate, model_id
        if separate:  # models derived from them forward one jet of the base
            labels = [0] * (model.space.size - 1) + [1]
            eye = np.eye(model.param_dim)
            derived = (
                product_model(model, 3),
                pushforward_model(binning_kernel(model.space, labels), model),
                reparameterized_model(model, lambda us: us, lambda us: np.tile(eye, (len(us), 1, 1)), model.domain),
            )
            for d in derived:
                assert d.density_fn is None and d.jacobian_fn is None and d.jet_fn is not None, d.name


def test_directional_form_reads_each_separate_route_once(monkeypatch):
    # the perfbench tracer counts rows through these two methods
    rows = {"density_batch": [], "jacobian_batch": []}
    for name in rows:
        original = getattr(ParamModel, name)

        def counted(self, thetas, name=name, original=original):
            rows[name].append(len(np.atleast_2d(thetas)))
            return original(self, thetas)

        monkeypatch.setattr(ParamModel, name, counted)
    directional_form(get_model("categorical:3"), np.full((5, 2), 0.2), np.ones((5, 2)))
    assert rows == {"density_batch": [5], "jacobian_batch": [5]}


def test_a_wrong_sized_point_is_refused_before_the_bounds_are_built():
    tracemalloc.start()
    try:
        model = categorical_family(10**6)
        with pytest.raises(DomainError, match="1 coordinates"):
            fisher_matrix(model, [0.5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _summed_offset_jet(x, thetas):
    """The gauss-location-2d jet as written before its coordinate planes:
    (T, X, 2) differences reduced over the length-2 axis, and J returned
    as a transposed view."""
    diff = x[None, :, :] - thetas[:, None, :]
    d = np.exp(-0.5 * np.sum(diff * diff, axis=2)) / (2 * math.pi)
    return d, np.transpose(diff, (0, 2, 1)) * d[:, None, :]


def _unfused_jacobian(model_id, x, thetas):
    """The Gaussian Jacobians as written before the jets were fused: every
    exponential recomputed from scratch."""
    if model_id == "mixture":
        a, b = thetas[:, 0:1], thetas[:, 1:2]
        n0 = np.exp(-0.5 * x[None, :] ** 2)
        nb = np.exp(-0.5 * (x[None, :] - b) ** 2)
        return np.stack([(nb - n0) / SQ, a * (x[None, :] - b) * nb / SQ], axis=1)
    if model_id == "gauss-loc-scale":
        mu, sig = thetas[:, 0:1], thetas[:, 1:2]
        z = (x[None, :] - mu) / sig
        d = np.exp(-0.5 * z * z) / (SQ * sig)
        return np.stack([d * z / sig, d * (z * z - 1.0) / sig], axis=1)
    if model_id == "gauss-location":
        d = np.exp(-0.5 * (x[None, :] - thetas[:, 0:1]) ** 2) / SQ
        return ((x[None, :] - thetas[:, 0:1]) * d)[:, None, :]
    return _summed_offset_jet(x, thetas)[1]


@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("model_id", ["mixture", "gauss-loc-scale", "gauss-location", "gauss-location-2d"])
def test_fused_jets_reproduce_the_unfused_jacobians(model_id, rows):
    model = get_model(model_id)
    thetas = _draw(model, rows, seed=5)
    _, J = model.jet(thetas)
    np.testing.assert_array_equal(J, _unfused_jacobian(model_id, model.space.points, thetas))


@pytest.mark.parametrize("rows", [1, 4, 12, 48])
def test_location2d_jet_on_coordinate_planes_is_the_summed_offset_jet(rows):
    model = get_model("gauss-location-2d")
    thetas = _draw(model, rows, seed=rows)
    P, J = model.jet(thetas)
    P_ref, J_ref = _summed_offset_jet(model.space.points, thetas)
    assert J.flags.c_contiguous and J.shape == (rows, 2, model.space.size)
    np.testing.assert_array_equal(P, P_ref)
    np.testing.assert_array_equal(J, J_ref)
    np.testing.assert_array_equal(model.density_batch(thetas), P_ref)


def test_curve_jets_reproduce_the_per_row_formulas():
    # The weak-curve and friedrich jets as they were evaluated before, one row at a time
    weak, fried = get_model("weak-curve"), get_model("friedrich")
    C = bump_square_integral()
    for model in (weak, fried):
        x = model.space.points
        thetas = np.concatenate([_draw(model, 12, seed=7), [[0.0], [1e-7], [-1e-7]]])
        P, J = model.jet(thetas)
        for row, t in enumerate(thetas[:, 0]):
            if model is weak:
                p = 1.0 / (2 * math.pi) + oscillatory_time_integral(t, x) / (2 * models.OSC_AMPLITUDE)
                dp = np.sin(x / t) / (2 * models.OSC_AMPLITUDE) if t != 0.0 else np.zeros(x.size)
            else:
                norm = 1.0 + t * t * C
                raw = models.friedrich_raw_density(t, x)
                p = raw / norm
                dp = models.friedrich_raw_velocity(t, x) / norm - raw * (2.0 * t * C) / (norm * norm)
            np.testing.assert_array_equal(P[row], p)
            np.testing.assert_array_equal(J[row, 0], dp)


def test_registry_ids():
    assert get_model("bernoulli").name == "bernoulli"
    assert get_model("categorical:4").space.size == 4
    assert get_model("mixture").param_dim == 2
    assert get_model("weak-curve").param_dim == 1
    assert get_model("friedrich").param_dim == 1
    with pytest.raises(UsageError):
        get_model("nope")


def test_registry_builds_each_model_once():
    assert get_model("mixture") is get_model(" Mixture ")
    assert get_model("categorical:3") is get_model("categorical:03")
    assert get_model("gauss-location", panels=40) is get_model("gauss-location", panels=40)
    assert get_model("gauss-location", panels=40) is not get_model("gauss-location")
    assert get_model("weak-curve").space.same_as(weak_oscillatory_measure(0.0).space)
    assert get_model("friedrich").space.same_as(friedrich_measure(0.0).space)


@pytest.mark.parametrize("model_id", ["bernoulli", "categorical:3", "friedrich", "singular-curve"])
def test_registry_rejects_panels_without_a_grid(model_id):
    with pytest.raises(UsageError, match="no quadrature grid"):
        get_model(model_id, panels=40)


# -- domain sampling and row checks ---------------------------------------------------

def _array_sample(box, rng):
    """Box.sample as numpy array arithmetic with the per-row simplex rule,
    the reference draw."""
    span = box.hi - box.lo
    for _ in range(1000):
        theta = box.lo + span * (models.SAMPLE_MARGIN + (1 - 2 * models.SAMPLE_MARGIN) * rng.random(box.dim))
        inside = bool(np.all(theta >= box.lo) and np.all(theta <= box.hi))
        if inside and (box.constraint is None or _simplex_rule(theta)):
            return theta
    raise AssertionError("reference draw found no admissible point")


def _simplex_rule(theta):
    return float(np.sum(theta)) <= 1.0 - models.EPS_BOUNDARY


@pytest.mark.parametrize("model_id", ZOO_IDS)
def test_domain_sample_keeps_the_array_formula_and_its_stream(model_id):
    # dpi-sweep, sufficiency and metric-axioms draw their seeds' later
    # values from the generator after these draws
    box = get_model(model_id).domain
    for seed in (0, 7, 9973):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.array([box.sample(rng) for _ in range(200)])
        ref = np.array([_array_sample(box, ref_rng) for _ in range(200)])
        assert draws.dtype == ref.dtype and draws.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def _simplex_rows(draw):
    """(m, rows) for categorical:m: rows in the box near the simplex face,
    some pinned to a sum of exactly 1 - EPS_BOUNDARY, one ulp above it, or
    holding a NaN."""
    m = draw(st.integers(2, 12))
    k = m - 1
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        row = np.clip(weights / weights.sum() * draw(st.floats(0.9, 1.1)), models.EPS_BOUNDARY,
                      1 - models.EPS_BOUNDARY)
        kind = draw(st.sampled_from(["free", "at-threshold", "ulp-above", "nan"]))
        if kind != "free" and k > 1:
            row[-1] = (1 - models.EPS_BOUNDARY) - np.sum(row[:-1])
            for _ in range(4):  # move the last entry until the sum hits the threshold
                off = float(np.sum(row)) - (1 - models.EPS_BOUNDARY)
                row[-1] = np.nextafter(row[-1], -np.inf if off > 0 else np.inf) if off else row[-1]
            if kind == "ulp-above":
                row[-1] = np.nextafter(row[-1], np.inf)
            if kind == "nan":
                row[draw(st.integers(0, k - 1))] = np.nan
        rows.append(row)
    return m, np.array(rows)


@given(_simplex_rows())
@settings(max_examples=150, deadline=None)
def test_simplex_constraint_on_rows_is_the_per_row_rule(case):
    m, thetas = case
    box = get_model(f"categorical:{m}").domain
    expected = np.array([_simplex_rule(theta) for theta in thetas])
    np.testing.assert_array_equal(box.constraint(thetas), expected)
    np.testing.assert_array_equal(box.constraint(np.asfortranarray(thetas)), expected)
    assert [bool(box.constraint(theta)) for theta in thetas] == expected.tolist()
    inside = [bool(np.all(box.lo <= t) and np.all(t <= box.hi)) and rule for t, rule in zip(thetas, expected)]
    if all(inside):
        box.require_rows(thetas)
    else:
        with pytest.raises(DomainError) as caught:
            box.require_rows(thetas)
        with pytest.raises(DomainError) as first_bad:
            box.require(thetas[inside.index(False)])
        assert str(caught.value) == str(first_bad.value)


@st.composite
def _edge_rows(draw):
    """(model id, rows) with coordinates on a box edge, one ulp either side
    of it, NaN or inside, and for categorical rows whose sum is exactly
    1 - EPS_BOUNDARY, one ulp above it or one ulp below it."""
    model_id = draw(st.sampled_from(ZOO_IDS))
    box = get_model(model_id).domain
    threshold = 1 - models.EPS_BOUNDARY
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = box.lo + (box.hi - box.lo) * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=box.dim,
                                                                  max_size=box.dim)))
        for i in range(box.dim):
            edge = (box.lo[i], box.hi[i])[draw(st.integers(0, 1))]
            kind = draw(st.sampled_from(["inside", "edge", "ulp-in", "ulp-out", "nan"]))
            if kind == "edge":
                row[i] = edge
            elif kind in ("ulp-in", "ulp-out"):
                outward = np.inf if (edge == box.hi[i]) == (kind == "ulp-out") else -np.inf
                row[i] = np.nextafter(edge, outward)
            elif kind == "nan" and draw(st.integers(0, 3)) == 0:
                row[i] = np.nan
        face = draw(st.sampled_from(["none", "exact", "ulp-above", "ulp-below"]))
        if box.constraint is not None and face != "none":
            row = np.clip(row, box.lo, box.hi)
            row[-1] = threshold - float(np.sum(row[:-1]))
            for _ in range(4):  # move the last entry until the sum hits the threshold
                off = float(np.sum(row)) - threshold
                if off:
                    row[-1] = np.nextafter(row[-1], -np.inf if off > 0 else np.inf)
            if face != "exact":
                row[-1] = np.nextafter(row[-1], np.inf if face == "ulp-above" else -np.inf)
        rows.append(row)
    return model_id, np.array(rows)


@given(_edge_rows())
@settings(max_examples=200, deadline=None)
def test_contains_rows_is_contains_per_row(case):
    model_id, thetas = case
    box = get_model(model_id).domain
    inside = box.contains_rows(thetas)
    assert inside.dtype == bool and inside.shape == (thetas.shape[0],)
    assert inside.tolist() == [box.contains(theta) for theta in thetas]

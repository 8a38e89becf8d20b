import math

import numpy as np
import pytest

from sigeo.errors import DomainError, NotDominated, UsageError
from sigeo.measures import integrate, tv_norm
from sigeo.models import (
    Box,
    CurveInModel,
    ParamModel,
    bernoulli_family,
    bump,
    bump_derivative,
    bump_square_integral,
    categorical_family,
    corner_velocity_target,
    corner_witness_measure,
    friedrich_measure,
    gaussian_location_family,
    gaussian_location_scale_family,
    gaussian_mixture,
    get_model,
    normalized_friedrich_measure,
    normalized_friedrich_model,
    oscillatory_time_integral,
    oscillatory_time_integral_adaptive,
    product_model,
    reparameterized_model,
    singular_reparam_measure,
    singular_reparam_point,
    tangent_at,
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
    J = model.jacobian(theta)
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
    J = MIX.jacobian([0.0, 0.0])
    assert np.max(np.abs(J)) == 0.0


def test_mixture_b_partial_vanishes_on_a_zero_line():
    J = MIX.jacobian([0.0, 2.0])
    assert np.max(np.abs(J[1])) == 0.0
    assert np.max(np.abs(J[0])) > 0.0


# -- reparameterized corner path -------------------------------------------------

def test_singular_reparam_origin():
    assert singular_reparam_point(0.0) == (0.0, 0.0)


def test_singular_reparam_oddness():
    for t in (0.1, 0.35, 0.7):
        a_p, b_p = singular_reparam_point(t)
        a_m, b_m = singular_reparam_point(-t)
        assert a_m == pytest.approx(-a_p, rel=1e-9, abs=1e-12)
        assert b_m == pytest.approx(-b_p, rel=1e-12)


def test_singular_reparam_domain_error():
    with pytest.raises(DomainError):
        singular_reparam_point(1.0)


def test_singular_curve_jacobian_vanishes_at_the_corner():
    # beta' diverges at t = 0, but it multiplies the b-partial, which is 0 there
    assert np.max(np.abs(get_model("singular-curve").jacobian([0.0]))) == 0.0


def test_singular_curve_is_the_mixture_pulled_back():
    curve = get_model("singular-curve")
    for t in (-0.6, 0.0, 0.2):
        np.testing.assert_array_equal(curve.density_batch([[t]])[0], singular_reparam_measure(t).density)
        np.testing.assert_array_equal(
            singular_reparam_measure(t).density, MIX.density_batch([singular_reparam_point(t)])[0]
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
    target = corner_velocity_target()
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
    for t, x in ((0.7, 1.3), (0.3, -2.0), (0.9, 0.4), (0.05, 3.0)):
        closed = oscillatory_time_integral(t, np.array([x]))[0]
        direct = oscillatory_time_integral_adaptive(t, x)
        assert closed == pytest.approx(direct, abs=5e-7)


def test_oscillatory_integral_odd_in_x_even_in_t():
    x = np.array([0.3, 1.2, 2.9])
    F = oscillatory_time_integral
    assert F(0.4, -x) == pytest.approx(-F(0.4, x))
    assert F(-0.4, x) == pytest.approx(F(0.4, x))


def test_weak_velocity_small_t_needs_fine_grid():
    vel = weak_oscillatory_velocity(1e-3)
    assert vel.space.size >= 8 * 1000 * 4


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


def test_friedrich_tv_distance_quadratic_in_t():
    C = bump_square_integral()
    for t in (0.5, 0.2, 0.05):
        gap = tv_norm(friedrich_measure(t) - friedrich_measure(0.0))
        assert gap == pytest.approx(t * t * C, rel=1e-6)


def test_friedrich_mass_at_least_one():
    for t in (-0.8, -0.1, 0.0, 0.3, 0.9):
        assert tv_norm(friedrich_measure(t)) >= 1.0 - 1e-12


def test_normalized_friedrich_is_probability():
    for t in (-0.5, 0.0, 0.7):
        assert normalized_friedrich_measure(t).total_mass() == pytest.approx(1.0, abs=1e-12)


def test_friedrich_model_jacobian_matches_finite_differences():
    model = normalized_friedrich_model()
    for t in (0.25, -0.4):
        J = model.jacobian([t])[0]
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
    for routes in ({}, {"jacobian_fn": jac, "jet_fn": jet}):
        with pytest.raises(UsageError, match="exactly one"):
            ParamModel("coin", box, space, dens, **routes)
    np.testing.assert_array_equal(ParamModel("coin", box, space, dens, jet_fn=jet).jacobian([0.4]), [[-1.0, 1.0]])


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
    assert tangent_at(edge, [0.2], [1.0]).mass_defect() == pytest.approx(0.0, abs=1e-12)


# -- products and reparameterizations ----------------------------------------------

def test_product_model_density_and_jacobian():
    prod = product_model(BERN, 3)
    assert prod.space.size == 8
    p = 0.3
    dens = prod.density([p])
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    # independent check at outcome (1, 0, 1) -> atom index 5
    assert dens[5] == pytest.approx(p * (1 - p) * p, rel=1e-12)
    J = prod.jacobian([p])[0]
    h = 1e-6
    fd = (prod.density([p + h]) - prod.density([p - h])) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-7


@pytest.mark.parametrize("base_id,n", [("bernoulli", 5), ("categorical:3", 4), ("categorical:4", 3)])
def test_product_jacobian_sums_scores_by_occurrence_count(base_id, n):
    base = get_model(base_id)
    prod = product_model(base, n)
    thetas = _draw(base, 6, seed=3)
    # reference: the per-draw gather-and-sum of the base scores
    digits = np.stack(np.unravel_index(np.arange(prod.space.size), (base.space.size,) * n), axis=1)
    p = base.density_batch(thetas)
    ratio = base.jacobian_batch(thetas) / p[:, None, :]
    ref = np.sum(ratio[:, :, digits], axis=3) * np.prod(p[:, digits], axis=2)[:, None, :]
    J = prod.jacobian_batch(thetas)
    assert np.max(np.abs(J - ref)) <= 1e-15 * np.max(np.abs(ref))
    np.testing.assert_array_equal(prod.jet(thetas)[0], prod.density_batch(thetas))


def test_product_model_size_guard():
    with pytest.raises(UsageError):
        product_model(BERN, 25)


def test_reparameterized_model_chain_rule():
    # u -> theta = 0.5 + 0.4 sin(u)
    rep = reparameterized_model(
        BERN,
        lambda us: 0.5 + 0.4 * np.sin(us),
        lambda us: (0.4 * np.cos(us[:, 0]))[:, None, None],
        Box([-1.0], [1.0]),
    )
    u = 0.3
    J = rep.jacobian([u])
    expected = 0.4 * math.cos(u) * BERN.jacobian([0.5 + 0.4 * math.sin(u)])
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
    diff = x[None, :, :] - thetas[:, None, :]
    d = np.exp(-0.5 * np.sum(diff * diff, axis=2)) / (2 * math.pi)
    return np.transpose(diff, (0, 2, 1)) * d[:, None, :]


@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("model_id", ["mixture", "gauss-loc-scale", "gauss-location", "gauss-location-2d"])
def test_fused_jets_reproduce_the_unfused_jacobians(model_id, rows):
    model = get_model(model_id)
    thetas = _draw(model, rows, seed=5)
    _, J = model.jet(thetas)
    np.testing.assert_array_equal(J, _unfused_jacobian(model_id, model.space.points, thetas))


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

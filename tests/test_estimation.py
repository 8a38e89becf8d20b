import numpy as np
import pytest

from sigeo import estimation
from sigeo.errors import OutsideRangeError, UsageError
from sigeo.fisher import fisher_matrix
from sigeo.estimation import (
    Estimator,
    Sampling,
    bias,
    constant_estimator,
    cramer_rao_gap,
    get_estimator,
    identity_chart,
    inverse_fisher_form,
    mean_estimator,
    mse_form,
    phi_mean,
    plugin_inverse_estimator,
    regularity_probe,
    shrinkage_estimator,
    variance_form,
    vmse_residual,
)
from sigeo.models import Box, ParamModel, bernoulli_family, categorical_family, product_model
from sigeo.measures import finite_space

BERN = bernoulli_family()
CAT3 = categorical_family(3)
PHI_B = identity_chart(BERN)
PHI_C = identity_chart(CAT3)


# -- means and biases -----------------------------------------------------------

def test_mean_estimator_unbiased_exact():
    for n in (1, 5, 10):
        prod = product_model(BERN, n)
        sigma = mean_estimator(BERN, n)
        for p in (0.2, 0.5, 0.8):
            res = phi_mean(prod, [p], PHI_B, sigma)
            assert res.value[0] == pytest.approx(p, abs=1e-12)
            assert bias(prod, [p], PHI_B, sigma) == pytest.approx([0.0], abs=1e-12)


def test_monte_carlo_agrees_with_enumeration():
    n = 5
    prod = product_model(BERN, n)
    sigma = mean_estimator(BERN, n)
    exact = phi_mean(prod, [0.35], PHI_B, sigma).value[0]
    mc = phi_mean(prod, [0.35], PHI_B, sigma, Sampling(40_000, seed=12))
    assert abs(mc.value[0] - exact) <= 3 * mc.stderr[0]
    assert mc.stderr[0] > 0


def test_monte_carlo_weights_reproduce_per_draw_formulas():
    # reference: the sample mean, standard error and second moment of the
    # drawn outcome values themselves, from the same seeded draws
    n, theta, seed, count = 3, [0.25, 0.35], 21, 5000
    prod = product_model(CAT3, n)
    sigma = shrinkage_estimator(CAT3, n)
    probs = prod.density(theta)
    idx = np.random.default_rng(seed).choice(prod.space.size, size=count, p=probs / probs.sum())
    drawn = sigma.values[idx]
    mc = phi_mean(prod, theta, PHI_C, sigma, Sampling(count, seed))
    np.testing.assert_allclose(mc.value, drawn.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mc.stderr, drawn.std(axis=0, ddof=1) / np.sqrt(count), rtol=0, atol=1e-12)
    centered = drawn - drawn.mean(axis=0)
    V = variance_form(prod, theta, PHI_C, sigma, Sampling(count, seed))
    np.testing.assert_allclose(V.matrix, centered.T @ centered / count, rtol=0, atol=1e-12)


def test_sampling_rejects_one_draw():
    # one draw has no standard error; negative counts have no meaning
    for draws in (1, -3):
        with pytest.raises(UsageError, match="at least 2"):
            Sampling(draws)


def test_monte_carlo_draws_once_per_form(monkeypatch):
    calls = []
    weights = estimation._outcome_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(estimation, "_outcome_weights", counted)
    prod, sigma, mc = product_model(BERN, 4), mean_estimator(BERN, 4), Sampling(500, seed=3)
    for form in (phi_mean, mse_form, variance_form, vmse_residual):
        calls.clear()
        form(prod, [0.3], PHI_B, sigma, mc)
        assert len(calls) == 1, form.__name__


def test_constant_estimator_mean_and_bias():
    sigma = constant_estimator(BERN, 1, [0.7])
    assert phi_mean(BERN_PROD1, [0.3], PHI_B, sigma).value == pytest.approx([0.7])
    assert bias(BERN_PROD1, [0.3], PHI_B, sigma) == pytest.approx([0.4])


BERN_PROD1 = product_model(BERN, 1)


def test_shrinkage_bias_closed_form():
    # E[0.9 mean + 0.05] - p = 0.05 - 0.1 p
    n = 4
    prod = product_model(BERN, n)
    sigma = shrinkage_estimator(BERN, n, 0.9, 0.05)
    for p in (0.1, 0.45, 0.8):
        assert bias(prod, [p], PHI_B, sigma)[0] == pytest.approx(0.05 - 0.1 * p, abs=1e-12)


# -- quadratic forms ---------------------------------------------------------------

def test_variance_bernoulli_single_sample():
    sigma = mean_estimator(BERN, 1)
    for p in (0.25, 0.5, 0.6):
        V = variance_form(BERN_PROD1, [p], PHI_B, sigma)
        assert V.matrix[0, 0] == pytest.approx(p * (1 - p), rel=1e-12)


def test_constant_estimator_variance_zero_mse_rank_one():
    sigma = constant_estimator(BERN, 1, [0.7])
    V = variance_form(BERN_PROD1, [0.3], PHI_B, sigma)
    M = mse_form(BERN_PROD1, [0.3], PHI_B, sigma)
    assert np.max(np.abs(V.matrix)) == 0.0
    b = bias(BERN_PROD1, [0.3], PHI_B, sigma)
    assert M.matrix == pytest.approx(np.outer(b, b))


def test_vmse_decomposition_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        prod = product_model(BERN, n)
        table = rng.normal(size=(BERN.space.size**n, 1))
        sigma = Estimator("random", table)
        p = float(rng.uniform(0.1, 0.9))
        assert vmse_residual(prod, [p], PHI_B, sigma) <= 1e-9


def test_forms_are_psd():
    n = 3
    prod = product_model(CAT3, n)
    sigma = mean_estimator(CAT3, n)
    V = variance_form(prod, [0.3, 0.4], PHI_C, sigma)
    M = mse_form(prod, [0.3, 0.4], PHI_C, sigma)
    assert V.is_psd()
    assert M.is_psd()


# -- inverse Fisher form --------------------------------------------------------------

def test_inverse_fisher_equals_variance_for_mean():
    sigma = mean_estimator(BERN, 1)
    for p in (0.3, 0.5, 0.7):
        F = inverse_fisher_form(BERN_PROD1, [p], PHI_B, sigma)
        assert F.matrix[0, 0] == pytest.approx(p * (1 - p), abs=1e-10)


def test_inverse_fisher_uses_product_scaling():
    n = 5
    prod = product_model(BERN, n)
    sigma = mean_estimator(BERN, n)
    F = inverse_fisher_form(prod, [0.4], PHI_B, sigma)
    assert F.matrix[0, 0] == pytest.approx(0.4 * 0.6 / n, abs=1e-10)


@pytest.mark.parametrize(
    "base,n,theta",
    [(BERN, 5, [0.35]), (CAT3, 3, [0.25, 0.35])],
    ids=["bernoulli^5", "categorical:3^3"],
)
@pytest.mark.parametrize("estimator", ["mean", "shrinkage:0.9,0.05"])
def test_inverse_fisher_gradient_matches_central_difference(base, n, theta, estimator):
    # reference: the phi-mean gradient as a central difference of exact means
    prod = product_model(base, n)
    sigma = get_estimator(base, n, estimator)
    phi = identity_chart(base)
    h = 1e-5
    steps = h * np.eye(len(theta))
    dphi = np.stack(
        [(phi_mean(prod, theta + e, phi, sigma).value - phi_mean(prod, theta - e, phi, sigma).value) / (2 * h)
         for e in steps],
        axis=1,
    )
    G = fisher_matrix(prod, theta).matrix
    F = inverse_fisher_form(prod, theta, phi, sigma)
    np.testing.assert_allclose(F.matrix, dphi @ np.linalg.inv(G) @ dphi.T, rtol=0, atol=1e-9)


@pytest.mark.parametrize("draws", [2000, 20000])
def test_monte_carlo_keeps_the_inverse_fisher_form_exact(draws):
    # the repro: at n=3 the exact form is p(1-p)/n = 0.08
    prod = product_model(BERN, 3)
    sigma = mean_estimator(BERN, 3)
    res = cramer_rao_gap(prod, [0.4], PHI_B, sigma, Sampling(draws, seed=5))
    assert res.inverse_fisher.matrix[0, 0] == pytest.approx(0.08, abs=1e-14)
    exact = inverse_fisher_form(prod, [0.4], PHI_B, sigma).matrix
    np.testing.assert_array_equal(res.inverse_fisher.matrix, exact)


def test_zero_jacobian_gives_zero_form():
    sigma = constant_estimator(BERN, 1, [0.6])
    F = inverse_fisher_form(BERN_PROD1, [0.4], PHI_B, sigma)
    assert np.max(np.abs(F.matrix)) == 0.0


def test_outside_range_error_on_near_degenerate_metric():
    # second channel moves the density by ~1e-10: the metric eigenvalue in
    # that direction falls below the rank cutoff while an estimator scaled
    # by 1e10 keeps a unit-size phi-mean gradient there
    eps = 1e-10

    def dens(thetas):
        a = thetas[:, 0:1]
        b = thetas[:, 1:2]
        return np.concatenate([a, 0.5 - a + eps * b, 0.5 - eps * b], axis=1)

    def jac(thetas):
        T = thetas.shape[0]
        J = np.zeros((T, 2, 3))
        J[:, 0, :] = [1.0, -1.0, 0.0]
        J[:, 1, :] = [0.0, eps, -eps]
        return J

    model = ParamModel(
        "near-degenerate", Box([0.1, -1.0], [0.4, 1.0]), finite_space(3), dens, jac
    )
    # phi-mean = 0.5/eps + b: unit gradient purely along the cut direction
    sigma = Estimator("amplifier", np.array([[1.0 / eps], [1.0 / eps], [0.0]]))
    phi = identity_chart(bernoulli_family())
    with pytest.raises(OutsideRangeError):
        inverse_fisher_form(model, [0.25, 0.0], phi, sigma)


# -- the gap ---------------------------------------------------------------------------

def test_gap_zero_for_efficient_mean():
    for n in (1, 5):
        prod = product_model(BERN, n)
        sigma = mean_estimator(BERN, n)
        res = cramer_rao_gap(prod, [0.45], PHI_B, sigma)
        assert res.holds
        assert abs(res.gap.matrix[0, 0]) <= 1e-8


def test_gap_zero_for_multinomial_mean():
    n = 4
    prod = product_model(CAT3, n)
    sigma = mean_estimator(CAT3, n)
    res = cramer_rao_gap(prod, [0.25, 0.35], PHI_C, sigma)
    assert res.holds
    assert np.max(np.abs(res.gap.matrix)) <= 1e-8
    # multinomial covariance is the inverse Fisher: diag(p) - p p^T over n
    p = np.array([0.25, 0.35])
    oracle = (np.diag(p) - np.outer(p, p)) / n
    assert res.variance.matrix == pytest.approx(oracle, abs=1e-12)


def test_mean_gap_vanishes_on_the_criterion_suite():
    # the cramer-rao criterion's configurations: the mean is efficient, so
    # the gap is rounding error only
    worst = 0.0
    for n in (1, 5, 10):
        for base, phi, thetas in ((BERN, PHI_B, ([0.3], [0.5], [0.7])),
                                  (CAT3, PHI_C, ([0.3, 0.4], [0.2, 0.3]))):
            prod = product_model(base, n)
            sigma = mean_estimator(base, n)
            for th in thetas:
                worst = max(worst, np.max(np.abs(cramer_rao_gap(prod, th, phi, sigma).gap.matrix)))
    assert worst <= 1e-13


def test_gap_psd_for_shrinkage():
    n = 5
    prod = product_model(BERN, n)
    sigma = shrinkage_estimator(BERN, n)
    res = cramer_rao_gap(prod, [0.35], PHI_B, sigma)
    assert res.holds
    assert res.min_eigenvalue >= -1e-7


# -- regularity probe --------------------------------------------------------------------

def test_probe_passes_bounded_estimators():
    n = 10
    prod = product_model(BERN, n)
    grid = np.array([[0.4], [0.2], [0.1], [0.05], [0.025], [0.0125]])
    res = regularity_probe(prod, grid, PHI_B, mean_estimator(BERN, n))
    assert not res["flagged"].any()


def test_probe_flags_inverse_plugin_near_boundary():
    n = 10
    prod = product_model(BERN, n)
    grid = np.array([[0.4], [0.2], [0.1], [0.05], [0.025], [0.0125]])
    res = regularity_probe(prod, grid, PHI_B, plugin_inverse_estimator(BERN, n))
    assert res["flagged"].any()
    # flags sit in the small-p half of the grid where the norm climbs
    assert np.all(np.nonzero(res["flagged"])[0] >= 1)
    assert res["norms"][-1] > 3 * res["norms"][0]


# -- estimator registry --------------------------------------------------------------------

def test_estimator_registry():
    assert get_estimator(BERN, 3, "mean").name == "mean[3]"
    assert get_estimator(BERN, 3, "shrinkage:0.8,0.1").values.max() <= 0.9
    const = get_estimator(BERN, 2, "constant:0.5")
    assert np.all(const.values == 0.5)
    assert get_estimator(BERN, 4, "plugin-inverse").name == "plugin-inverse"
    with pytest.raises(UsageError):
        get_estimator(BERN, 2, "bogus")
    for bad in ("shrinkage:x", "shrinkage:1", "constant:abc"):
        with pytest.raises(UsageError, match=bad):
            get_estimator(BERN, 2, bad)

import itertools

import numpy as np
import pytest

from sigeo import acceptance, estimation
from sigeo.errors import DomainError, OutsideRangeError, SamplingError, UsageError
from sigeo.fisher import EIGEN_TOL, fisher_matrix, fisher_matrix_from_jet
from sigeo.estimation import (
    Estimator,
    QuadraticForm,
    Sampling,
    constant_estimator,
    cramer_rao_gap,
    get_estimator,
    identity_chart,
    mean_estimator,
    shrinkage_estimator,
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
            res = cramer_rao_gap(prod, [p], PHI_B, sigma)
            assert res.mean[0] == pytest.approx(p, abs=1e-12)
            assert res.bias == pytest.approx([0.0], abs=1e-12)


def test_monte_carlo_agrees_with_enumeration():
    # within 3 standard errors sqrt(V / draws) of the exact mean
    n, draws = 5, 40_000
    prod = product_model(BERN, n)
    sigma = mean_estimator(BERN, n)
    exact = cramer_rao_gap(prod, [0.35], PHI_B, sigma)
    mc = cramer_rao_gap(prod, [0.35], PHI_B, sigma, Sampling(draws, seed=12))
    assert abs(mc.mean[0] - exact.mean[0]) <= 3 * np.sqrt(exact.variance.matrix[0, 0] / draws)
    assert mc.variance.matrix[0, 0] > 0


def test_monte_carlo_weights_reproduce_per_draw_formulas():
    # reference: the sample mean and second moment of the drawn outcome
    # values themselves, from the same seeded draws
    n, theta, seed, count = 3, [0.25, 0.35], 21, 5000
    prod = product_model(CAT3, n)
    sigma = shrinkage_estimator(CAT3, n)
    probs = prod.density(theta)
    idx = np.random.default_rng(seed).choice(prod.space.size, size=count, p=probs / probs.sum())
    drawn = sigma.values[idx]
    mc = cramer_rao_gap(prod, theta, PHI_C, sigma, Sampling(count, seed))
    np.testing.assert_allclose(mc.mean, drawn.mean(axis=0), rtol=0, atol=1e-12)
    centered = drawn - drawn.mean(axis=0)
    np.testing.assert_allclose(mc.variance.matrix, centered.T @ centered / count, rtol=0, atol=1e-12)


def test_sampling_rejects_one_draw():
    # one draw has no standard error; negative counts have no meaning
    for draws in (1, -3):
        with pytest.raises(UsageError, match="at least 2"):
            Sampling(draws)


def test_monte_carlo_draws_once_per_form(monkeypatch):
    # the one readout: mean, variance and MSE residual share one set of draws
    calls = []
    weights = estimation._outcome_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(estimation, "_outcome_weights", counted)
    prod, sigma, mc = product_model(BERN, 4), mean_estimator(BERN, 4), Sampling(500, seed=3)
    cramer_rao_gap(prod, [0.3], PHI_B, sigma, mc)
    assert len(calls) == 1


def test_cramer_rao_gap_evaluates_the_jet_once(monkeypatch):
    calls = []
    jet = ParamModel.jet

    def counted(self, thetas):
        calls.append(self.name)  # the product's jet also calls its base's
        return jet(self, thetas)

    monkeypatch.setattr(ParamModel, "jet", counted)
    for base, n, theta in ((BERN, 4, [0.3]), (CAT3, 2, [0.2, 0.5])):
        prod = product_model(base, n)
        calls.clear()
        cramer_rao_gap(prod, theta, identity_chart(base), mean_estimator(base, n))
        assert calls.count(prod.name) == 1, prod.name


def test_cramer_rao_gap_takes_its_weights_from_the_jet(monkeypatch):
    calls = []
    density_batch = ParamModel.density_batch

    def counted(self, thetas):
        calls.append(self.name)  # the product's jet calls its base's density
        return density_batch(self, thetas)

    monkeypatch.setattr(ParamModel, "density_batch", counted)
    for base, n, theta in ((BERN, 4, [0.3]), (CAT3, 2, [0.2, 0.5])):
        prod = product_model(base, n)
        for sampling in (Sampling(), Sampling(200, seed=4)):
            calls.clear()
            cramer_rao_gap(prod, theta, identity_chart(base), mean_estimator(base, n), sampling)
            assert prod.name not in calls


def test_cramer_rao_gap_checks_the_table_then_the_domain_then_the_probabilities():
    def dens(thetas):
        return np.column_stack([1.1 + 0.0 * thetas[:, 0], -0.1 + 0.0 * thetas[:, 0]])

    def jac(thetas):
        return np.zeros((len(thetas), 1, 2))

    model = ParamModel("negative", Box([0.0], [1.0]), finite_space(2), dens, jac)
    phi, sigma = identity_chart(model), Estimator("two", [[0.0], [1.0]])
    wrong_table = Estimator("three", [[0.0], [1.0], [2.0]])
    for sampling in (Sampling(), Sampling(50, seed=1)):
        with pytest.raises(SamplingError, match="negative outcome probability"):
            cramer_rao_gap(model, [0.5], phi, sigma, sampling)
        with pytest.raises(DomainError):
            cramer_rao_gap(model, [1.5], phi, sigma, sampling)
        with pytest.raises(UsageError, match="estimator table"):
            cramer_rao_gap(model, [1.5], phi, wrong_table, sampling)


def test_constant_estimator_mean_and_bias():
    sigma = constant_estimator(BERN, 1, [0.7])
    res = cramer_rao_gap(BERN_PROD1, [0.3], PHI_B, sigma)
    assert res.mean == pytest.approx([0.7])
    assert res.bias == pytest.approx([0.4])


BERN_PROD1 = product_model(BERN, 1)


def test_shrinkage_bias_closed_form():
    # E[0.9 mean + 0.05] - p = 0.05 - 0.1 p
    n = 4
    prod = product_model(BERN, n)
    sigma = shrinkage_estimator(BERN, n, 0.9, 0.05)
    for p in (0.1, 0.45, 0.8):
        assert cramer_rao_gap(prod, [p], PHI_B, sigma).bias[0] == pytest.approx(0.05 - 0.1 * p, abs=1e-12)


# -- quadratic forms ---------------------------------------------------------------

def _mse_form(model, theta, phi, sigma):
    """E[(phi sigma - phi(theta)) (phi sigma - phi(theta))^T], enumerated."""
    err = phi.apply(sigma.values) - phi.apply(theta)
    return QuadraticForm((err * model.density(theta)[:, None]).T @ err)


def test_variance_bernoulli_single_sample():
    sigma = mean_estimator(BERN, 1)
    for p in (0.25, 0.5, 0.6):
        V = cramer_rao_gap(BERN_PROD1, [p], PHI_B, sigma).variance
        assert V.matrix[0, 0] == pytest.approx(p * (1 - p), rel=1e-12)


def test_constant_estimator_variance_zero_mse_rank_one():
    sigma = constant_estimator(BERN, 1, [0.7])
    res = cramer_rao_gap(BERN_PROD1, [0.3], PHI_B, sigma)
    M = _mse_form(BERN_PROD1, [0.3], PHI_B, sigma)
    assert np.max(np.abs(res.variance.matrix)) == 0.0
    assert M.matrix == pytest.approx(np.outer(res.bias, res.bias))
    assert res.mse_residual <= 1e-15


def test_vmse_decomposition_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        prod = product_model(BERN, n)
        table = rng.normal(size=(prod.space.size, 1))
        sigma = Estimator("random", table)
        p = float(rng.uniform(0.1, 0.9))
        assert cramer_rao_gap(prod, [p], PHI_B, sigma).mse_residual <= 1e-9


def test_forms_are_psd():
    n = 3
    prod = product_model(CAT3, n)
    sigma = mean_estimator(CAT3, n)
    V = cramer_rao_gap(prod, [0.3, 0.4], PHI_C, sigma).variance
    M = _mse_form(prod, [0.3, 0.4], PHI_C, sigma)
    assert V.min_eigenvalue() >= -1e-10
    assert M.min_eigenvalue() >= -1e-10


# -- inverse Fisher form --------------------------------------------------------------

def test_inverse_fisher_equals_variance_for_mean():
    sigma = mean_estimator(BERN, 1)
    for p in (0.3, 0.5, 0.7):
        F = cramer_rao_gap(BERN_PROD1, [p], PHI_B, sigma).inverse_fisher
        assert F.matrix[0, 0] == pytest.approx(p * (1 - p), abs=1e-10)


def test_inverse_fisher_uses_product_scaling():
    n = 5
    prod = product_model(BERN, n)
    sigma = mean_estimator(BERN, n)
    F = cramer_rao_gap(prod, [0.4], PHI_B, sigma).inverse_fisher
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
        [(cramer_rao_gap(prod, theta + e, phi, sigma).mean - cramer_rao_gap(prod, theta - e, phi, sigma).mean)
         / (2 * h) for e in steps],
        axis=1,
    )
    G = fisher_matrix(prod, theta).matrix
    F = cramer_rao_gap(prod, theta, phi, sigma).inverse_fisher
    np.testing.assert_allclose(F.matrix, dphi @ np.linalg.inv(G) @ dphi.T, rtol=0, atol=1e-9)


@pytest.mark.parametrize("draws", [2000, 20000])
def test_monte_carlo_keeps_the_inverse_fisher_form_exact(draws):
    # the repro: at n=3 the exact form is p(1-p)/n = 0.08
    prod = product_model(BERN, 3)
    sigma = mean_estimator(BERN, 3)
    res = cramer_rao_gap(prod, [0.4], PHI_B, sigma, Sampling(draws, seed=5))
    assert res.inverse_fisher.matrix[0, 0] == pytest.approx(0.08, abs=1e-14)
    exact = cramer_rao_gap(prod, [0.4], PHI_B, sigma).inverse_fisher.matrix
    np.testing.assert_array_equal(res.inverse_fisher.matrix, exact)


def test_zero_jacobian_gives_zero_form():
    sigma = constant_estimator(BERN, 1, [0.6])
    F = cramer_rao_gap(BERN_PROD1, [0.4], PHI_B, sigma).inverse_fisher
    assert np.max(np.abs(F.matrix)) == 0.0


def test_zero_fisher_matrix_gives_zero_form():
    # a flat model: every Fisher eigenvalue falls below the rank cutoff, and
    # the phi-mean gradient is zero, so the inverse form is the zero form
    def dens(thetas):
        return np.full((len(thetas), 2), 0.5)

    def jac(thetas):
        return np.zeros((len(thetas), 1, 2))

    model = ParamModel("flat", Box([0.0], [1.0]), finite_space(2), dens, jac)
    res = cramer_rao_gap(model, [0.5], identity_chart(model), Estimator("two", [[0.0], [1.0]]))
    np.testing.assert_array_equal(res.inverse_fisher.matrix, [[0.0]])
    assert res.variance.matrix[0, 0] == pytest.approx(0.25) and res.holds


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
        cramer_rao_gap(model, [0.25, 0.0], phi, sigma)


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


@pytest.mark.parametrize(
    "base,n,theta",
    [(BERN, 4, [0.3]), (BERN, 10, [0.5]), (CAT3, 3, [0.2, 0.5])],
    ids=["bernoulli^4", "bernoulli^10", "categorical:3^3"],
)
def test_monte_carlo_verdict_allows_sampling_noise(base, n, theta):
    # The mean is efficient, so a sampled gap scatters around 0; without the
    # allowance about half of these seeds (87 of 100 on categorical) fail.
    prod, sigma, phi = product_model(base, n), mean_estimator(base, n), identity_chart(base)
    failed = [s for s in range(100) if not cramer_rao_gap(prod, theta, phi, sigma, Sampling(2000, s)).holds]
    assert failed == []
    res = cramer_rao_gap(prod, theta, phi, sigma, Sampling(2000, 0))
    assert 0.0 < res.noise_allowance < 0.2 * np.max(res.inverse_fisher.matrix)
    assert cramer_rao_gap(prod, theta, phi, sigma).noise_allowance == 0.0


def test_noise_allowance_reproduces_per_draw_formula():
    # reference: 4 standard errors, under the exact law of the 3^3 draw
    # sequences, of the variance along the gap's smallest-eigenvalue direction
    n, theta, seed, count = 3, [0.25, 0.35], 21, 5000
    prod = product_model(CAT3, n)
    sigma = mean_estimator(CAT3, n)
    base = CAT3.density(theta)
    seqs = list(itertools.product(range(3), repeat=n))
    probs = np.array([np.prod(base[list(seq)]) for seq in seqs])
    values = np.array([[seq.count(0) / n, seq.count(1) / n] for seq in seqs])
    res = cramer_rao_gap(prod, theta, PHI_C, sigma, Sampling(count, seed))
    u = np.linalg.eigh(res.gap.matrix)[1][:, 0]
    q = ((values - probs @ values) @ u) ** 2
    spread = probs @ q**2 - (probs @ q) ** 2
    assert res.noise_allowance == pytest.approx(4 * np.sqrt(spread / (count - 1)), rel=1e-9)


def test_gap_psd_for_shrinkage():
    n = 5
    prod = product_model(BERN, n)
    sigma = shrinkage_estimator(BERN, n)
    res = cramer_rao_gap(prod, [0.35], PHI_B, sigma)
    assert res.holds
    assert res.min_eigenvalue >= -1e-7



# -- the one readout against the standalone forms ------------------------------------

def _standalone_forms(model, theta, phi, sigma, sampling):
    """Reference: the phi-mean, variance, MSE residual and inverse Fisher
    form as separate functions, each weighting the outcomes by its own
    density evaluation, as the library computed them before
    ``cramer_rao_gap`` returned them from one jet."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = phi.apply(sigma.values)
    probs = np.maximum(model.density(theta) * model.space.weights, 0.0)
    w = probs
    if sampling.draws:
        rng = np.random.default_rng(sampling.seed)
        idx = rng.choice(model.space.size, size=sampling.draws, p=probs / probs.sum())
        w = np.bincount(idx, minlength=model.space.size) / sampling.draws
    mean = w @ vals
    target = phi.apply(theta[None, :])[0]

    def second_moment(center):
        centered = vals - center[None, :]
        return QuadraticForm((centered * w[:, None]).T @ centered).matrix

    V, M = second_moment(mean), second_moment(target)
    b = mean - target
    p, J = model.jet_at(theta)
    dphi = vals.T @ (J * model.space.weights).T
    eigs, U = np.linalg.eigh(fisher_matrix_from_jet(theta, p, J, model.space.weights).matrix)
    keep = eigs > EIGEN_TOL * max(float(np.max(eigs, initial=0.0)), 1.0)
    proj = dphi @ U[:, keep]
    F = QuadraticForm(proj @ np.diag(1.0 / eigs[keep]) @ proj.T).matrix
    return mean, b, V, float(np.max(np.abs(M - V - np.outer(b, b)))), F


@pytest.mark.parametrize("sampling", [Sampling(), Sampling(2000, seed=3)], ids=["exact", "monte-carlo"])
@pytest.mark.parametrize("estimator", ["mean", "shrinkage:0.9,0.05"])
def test_readout_is_the_standalone_forms_bitwise(estimator, sampling):
    for n in (1, 5, 10):
        for base, thetas in ((BERN, ([0.3], [0.5], [0.7])), (CAT3, ([0.3, 0.4], [0.2, 0.3]))):
            prod, phi = product_model(base, n), identity_chart(base)
            sigma = get_estimator(base, n, estimator)
            for theta in thetas:
                res = cramer_rao_gap(prod, theta, phi, sigma, sampling)
                mean, b, V, resid, F = _standalone_forms(prod, theta, phi, sigma, sampling)
                where = (prod.name, theta)
                np.testing.assert_array_equal(res.mean, mean, err_msg=str(where))
                np.testing.assert_array_equal(res.bias, b, err_msg=str(where))
                np.testing.assert_array_equal(res.variance.matrix, V, err_msg=str(where))
                np.testing.assert_array_equal(res.inverse_fisher.matrix, F, err_msg=str(where))
                assert res.mse_residual == resid, where


def test_cramer_rao_criterion_evaluates_each_product_once_per_gap(monkeypatch):
    # 3 sample sizes x (3 Bernoulli points x 2 estimators + 2 categorical
    # points): one product jet per gap, and none for the MSE residual
    calls = []
    jet = ParamModel.jet

    def counted(self, thetas):
        calls.append(self.name)
        return jet(self, thetas)

    monkeypatch.setattr(ParamModel, "jet", counted)
    assert acceptance.check_cramer_rao().passed
    assert sum("^" in name for name in calls) == 24


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

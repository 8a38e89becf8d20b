import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigeo.errors import UsageError
from sigeo.fisher import fisher_inner
from sigeo.markov import (
    binning_kernel,
    compose,
    metric_along,
    monotonicity_gap,
    permutation_kernel,
    pushforward_measure,
    pushforward_model,
    pushforward_tangent,
    random_kernel,
    sufficiency_check,
)
from sigeo.measures import Measure, finite_space, tv_norm
from sigeo.models import (
    Box,
    ParamModel,
    bernoulli_family,
    categorical_family,
    reparameterized_model,
    tangent_at,
)

BERN = bernoulli_family()
CAT3 = categorical_family(3)
CAT4 = categorical_family(4)
F4 = finite_space(4)


def uniform4():
    return Measure(F4, [0.25] * 4)


# -- pushforward of measures ---------------------------------------------------

def test_identity_kernel_preserves_measure():
    mu = Measure(F4, [0.1, 0.2, 0.3, 0.4])
    out = pushforward_measure(permutation_kernel(F4, range(4)), mu)
    assert out.density == pytest.approx(mu.density)


def test_binning_uniform_four_to_two():
    k = binning_kernel(F4, [0, 0, 1, 1])
    out = pushforward_measure(k, uniform4())
    assert out.density == pytest.approx([0.5, 0.5])


def test_pushforward_preserves_probability():
    rng = np.random.default_rng(0)
    for _ in range(25):
        mu = Measure(F4, rng.dirichlet([1.0] * 4))
        k = random_kernel(F4, int(rng.integers(2, 6)), rng)
        out = pushforward_measure(k, mu)
        assert out.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.density >= -1e-15)


def test_pushforward_space_mismatch():
    k = binning_kernel(F4, [0, 0, 1, 1])
    mu = Measure(finite_space(3), [0.2, 0.3, 0.5])
    with pytest.raises(UsageError):
        pushforward_measure(k, mu)


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pushforward_linearity_and_contraction(d1, d2, a, b, seed):
    rng = np.random.default_rng(seed)
    k = random_kernel(F4, 3, rng)
    mu = Measure(F4, d1, signed=True)
    nu = Measure(F4, d2, signed=True)
    lhs = pushforward_measure(k, a * mu + b * nu)
    rhs = a * pushforward_measure(k, mu) + b * pushforward_measure(k, nu)
    assert lhs.density == pytest.approx(rhs.density, rel=1e-9, abs=1e-9)
    assert tv_norm(pushforward_measure(k, mu)) <= tv_norm(mu) + 1e-9


def test_composition_exact():
    rng = np.random.default_rng(3)
    first = random_kernel(F4, 3, rng)
    second = random_kernel(finite_space(3), 2, rng)
    mu = Measure(F4, rng.dirichlet([1.0] * 4))
    direct = pushforward_measure(compose(second, first), mu)
    staged = pushforward_measure(second, pushforward_measure(first, mu))
    assert direct.density == pytest.approx(staged.density, abs=1e-15)


# -- pushforward of tangents ------------------------------------------------------

def test_identity_preserves_tangent():
    v = tangent_at(CAT4, [0.2, 0.3, 0.1], [1.0, -1.0, 0.5])
    out = pushforward_tangent(permutation_kernel(CAT4.space, range(4)), v)
    assert out.log_rep == pytest.approx(v.log_rep)


def test_pushed_tangent_has_zero_mass():
    rng = np.random.default_rng(5)
    v = tangent_at(CAT4, [0.2, 0.3, 0.1], [1.0, -0.4, 0.2])
    for _ in range(10):
        k = random_kernel(CAT4.space, int(rng.integers(2, 5)), rng)
        out = pushforward_tangent(k, v)
        assert abs(out.mass_defect()) < 1e-9


def test_tangent_through_one_atom_space_vanishes():
    v = tangent_at(BERN, [0.3], [1.0])
    k = binning_kernel(BERN.space, [0, 0])
    out = pushforward_tangent(k, v)
    assert out.log_rep == pytest.approx([0.0])
    assert fisher_inner(out, out) == 0.0


# -- monotonicity ------------------------------------------------------------------

def test_gap_zero_for_identity():
    gap = monotonicity_gap(permutation_kernel(CAT4.space, range(4)), CAT4, [0.2, 0.3, 0.1], [1.0, 0.0, -1.0])
    assert abs(gap) < 1e-10


def test_gap_nonnegative_random_draws():
    rng = np.random.default_rng(17)
    worst = np.inf
    for _ in range(300):
        theta = np.clip(rng.dirichlet([2.0] * 4)[:3], 0.05, 0.85)
        if theta.sum() > 0.93:
            theta = theta * 0.9 / theta.sum()
        v = rng.normal(size=3)
        k = random_kernel(CAT4.space, int(rng.integers(2, 6)), rng)
        worst = min(worst, monotonicity_gap(k, CAT4, theta, v))
    assert worst >= -1e-9


def test_gap_zero_for_permutations():
    rng = np.random.default_rng(23)
    for _ in range(40):
        theta = np.clip(rng.dirichlet([2.0] * 4)[:3], 0.05, 0.85)
        if theta.sum() > 0.93:
            theta = theta * 0.9 / theta.sum()
        v = rng.normal(size=3)
        k = permutation_kernel(CAT4.space, rng.permutation(4))
        assert abs(monotonicity_gap(k, CAT4, theta, v)) <= 1e-10


def test_one_atom_target_keeps_only_zero_metric():
    k = binning_kernel(BERN.space, [0, 0])
    gap = monotonicity_gap(k, BERN, [0.3], [1.0])
    # the image metric is 0, so the gap is the full metric
    assert gap == pytest.approx(metric_along(BERN, [0.3], [1.0]), rel=1e-12)
    assert gap > 1.0


# -- sufficiency -------------------------------------------------------------------

def _bernoulli_pair_model():
    """Product of two independent coins with separate parameters (p, q)."""
    space = finite_space(4)  # atoms (0,0), (0,1), (1,0), (1,1)

    def dens(thetas):
        p = thetas[:, 0:1]
        q = thetas[:, 1:2]
        return np.concatenate(
            [(1 - p) * (1 - q), (1 - p) * q, p * (1 - q), p * q], axis=1
        )

    def jac(thetas):
        p = thetas[:, 0]
        q = thetas[:, 1]
        T = thetas.shape[0]
        J = np.empty((T, 2, 4))
        J[:, 0, :] = np.column_stack([-(1 - q), -q, (1 - q), q])
        J[:, 1, :] = np.column_stack([-(1 - p), (1 - p), -p, p])
        return J

    return ParamModel("coin-pair", Box([0.01, 0.01], [0.99, 0.99]), space, dens, jac)


def test_permutation_sufficiency_consistent():
    rng = np.random.default_rng(31)
    thetas = np.clip(rng.dirichlet([2.0] * 4, size=8)[:, :3], 0.05, 0.8)
    thetas = thetas / np.maximum(thetas.sum(axis=1, keepdims=True) / 0.9, 1.0)
    vs = rng.normal(size=thetas.shape)
    k = permutation_kernel(CAT4.space, [2, 0, 3, 1])
    res = sufficiency_check(k, CAT4, thetas, vs)
    assert res["sufficient_consistent"]


def test_lossy_binning_on_coin_pair_inconsistent():
    # merging the mixed outcomes (0,1) and (1,0) loses the (p, q) split:
    # the (1, -1) direction shows a strictly positive gap
    model = _bernoulli_pair_model()
    k = binning_kernel(model.space, [0, 1, 1, 2])
    theta = np.array([0.3, 0.6])
    v = np.array([1.0, -1.0])
    gap = monotonicity_gap(k, model, theta, v)
    assert gap > 10 * 1e-7
    res = sufficiency_check(k, model, theta[None, :], v[None, :])
    assert not res["sufficient_consistent"]


def test_binomial_reduction_is_sufficient_for_equal_coins():
    # with p = q the mixed-outcome merge is the classical count statistic;
    # along the diagonal direction the metric is preserved
    model = _bernoulli_pair_model()
    k = binning_kernel(model.space, [0, 1, 1, 2])
    for p in (0.2, 0.5, 0.7):
        gap = monotonicity_gap(k, model, [p, p], [1.0, 1.0])
        assert abs(gap) < 1e-9


def test_pushforward_model_matches_measure_pushforward():
    k = binning_kernel(CAT4.space, [0, 1, 1, 0])
    pushed = pushforward_model(k, CAT4)
    theta = [0.2, 0.3, 0.1]
    direct = pushforward_measure(k, CAT4.measure(theta))
    assert pushed.density(theta) == pytest.approx(direct.density)


def _counting(model, calls):
    """``model`` with every evaluation of it recorded in ``calls``."""

    def dens(thetas):
        calls.append("density")
        return model.density_batch(thetas)

    def jet(thetas):
        calls.append("jet")
        return model.jet(thetas)

    return ParamModel(model.name, model.domain, model.space, dens, jet_fn=jet)


@pytest.mark.parametrize("derived", ["pushforward", "reparameterized"])
def test_derived_models_evaluate_their_base_once_per_jet(derived):
    calls = []
    base = _counting(CAT4, calls)
    if derived == "pushforward":
        model = pushforward_model(binning_kernel(CAT4.space, [0, 1, 1, 0]), base)
    else:
        model = reparameterized_model(base, lambda us: 0.8 * us, lambda us: np.tile(0.8 * np.eye(3), (len(us), 1, 1)),
                                      Box([0.05] * 3, [0.3] * 3))
    thetas = np.array([[0.2, 0.25, 0.1], [0.1, 0.2, 0.3]])
    P, J = model.jet(thetas)
    assert calls == ["jet"]
    np.testing.assert_array_equal(P, model.density_batch(thetas))
    np.testing.assert_array_equal(J, model.jacobian_batch(thetas))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigeo.errors import DomainError, NotDominated, UsageError
from sigeo.fisher import directional_form, fisher_inner
from sigeo.markov import (
    MarkovKernel,
    binning_kernel,
    compose,
    monotonicity_gap,
    permutation_kernel,
    pushforward_measure,
    pushforward_model,
    pushforward_tangent,
    random_kernel,
    sufficiency_check,
)
from sigeo.measures import DOMINANCE_TOL, MASS_TOL, Measure, finite_space, integrate, tv_norm
from sigeo.models import (
    Box,
    ParamModel,
    bernoulli_family,
    categorical_family,
    gaussian_location_family,
    get_model,
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


def test_kernels_of_one_size_share_their_target_space():
    rng = np.random.default_rng(4)
    first, second = random_kernel(F4, 3, rng), random_kernel(CAT4.space, 3, rng)
    assert first.target is second.target
    assert first.target.same_as(finite_space(3))
    assert random_kernel(F4, 2, rng).target.same_as(finite_space(2))


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
        assert abs(integrate(out.log_rep, out.base)) < 1e-9


def test_tangent_through_one_atom_space_vanishes():
    v = tangent_at(BERN, [0.3], [1.0])
    k = binning_kernel(BERN.space, [0, 0])
    out = pushforward_tangent(k, v)
    assert out.log_rep == pytest.approx([0.0])
    assert fisher_inner(out, out) == 0.0


# -- monotonicity ------------------------------------------------------------------

def test_gap_zero_for_identity():
    gap = monotonicity_gap(permutation_kernel(CAT4.space, range(4)), CAT4, [0.2, 0.3, 0.1], [1.0, 0.0, -1.0])
    assert gap.shape == (1,)
    assert abs(gap[0]) < 1e-10


def test_gap_nonnegative_random_draws():
    rng = np.random.default_rng(17)
    worst = np.inf
    for _ in range(300):
        theta = np.clip(rng.dirichlet([2.0] * 4)[:3], 0.05, 0.85)
        if theta.sum() > 0.93:
            theta = theta * 0.9 / theta.sum()
        v = rng.normal(size=3)
        k = random_kernel(CAT4.space, int(rng.integers(2, 6)), rng)
        worst = min(worst, monotonicity_gap(k, CAT4, theta, v)[0])
    assert worst >= -1e-9


def test_gap_zero_for_permutations():
    rng = np.random.default_rng(23)
    for _ in range(40):
        theta = np.clip(rng.dirichlet([2.0] * 4)[:3], 0.05, 0.85)
        if theta.sum() > 0.93:
            theta = theta * 0.9 / theta.sum()
        v = rng.normal(size=3)
        k = permutation_kernel(CAT4.space, rng.permutation(4))
        assert abs(monotonicity_gap(k, CAT4, theta, v)[0]) <= 1e-10


def test_one_atom_target_keeps_only_zero_metric():
    k = binning_kernel(BERN.space, [0, 0])
    gap = monotonicity_gap(k, BERN, [0.3], [1.0])[0]
    # the image metric is 0, so the gap is the full metric
    assert gap == pytest.approx(directional_form(BERN, [[0.3]], [[1.0]])[0], rel=1e-12)
    assert gap > 1.0


def _per_draw_gap(kernel, model, theta, v):
    """The gap of one draw, composed from the single-tangent API."""
    before = directional_form(model, [theta], [v])[0]
    pushed = pushforward_tangent(kernel, tangent_at(model, theta, v))
    ok = pushed.base.density > DOMINANCE_TOL
    after = np.sum(pushed.log_rep[ok] ** 2 * pushed.base.density[ok] * pushed.base.space.weights[ok])
    return before - after


def _categorical_point(rng, m):
    return rng.dirichlet([2.0] * m)[:-1] * 0.95


def _draws(case):
    """(model, thetas, vs, kernels) of one batch; kernels is one kernel or a list."""
    rng = np.random.default_rng(41)
    if case == "mixed-sizes":
        thetas = [_categorical_point(rng, 4) for _ in range(60)]
        kernels = [random_kernel(CAT4.space, 2 + i % 4, rng) for i in range(60)]
        return CAT4, np.array(thetas), rng.normal(size=(60, 3)), kernels
    if case == "permutations":
        thetas = [_categorical_point(rng, 4) for _ in range(30)]
        kernels = [permutation_kernel(CAT4.space, rng.permutation(4)) for _ in range(30)]
        return CAT4, np.array(thetas), rng.normal(size=(30, 3)), kernels
    if case == "coin-pair-binning":
        model = _bernoulli_pair_model()
        thetas = rng.uniform(0.05, 0.95, size=(20, 2))
        return model, thetas, rng.normal(size=(20, 2)), binning_kernel(model.space, [0, 1, 1, 2])
    model = gaussian_location_family()
    thetas = rng.uniform(-1.5, 1.5, size=(12, 1))
    kernels = [random_kernel(model.space, int(rng.integers(2, 40)), rng) for _ in range(12)]
    kernels[3] = kernels[7] = binning_kernel(model.space, np.arange(model.space.size) % 3)
    return model, thetas, rng.normal(size=(12, 1)), kernels


@pytest.mark.parametrize("case", ["mixed-sizes", "permutations", "coin-pair-binning", "gauss-location"])
def test_batched_gaps_are_the_per_draw_composition_bitwise(case):
    model, thetas, vs, kernels = _draws(case)
    gaps = monotonicity_gap(kernels, model, thetas, vs)
    per_row = kernels if isinstance(kernels, list) else [kernels] * len(thetas)
    expected = [_per_draw_gap(k, model, th, v) for k, th, v in zip(per_row, thetas, vs)]
    assert gaps.shape == (len(thetas),)
    np.testing.assert_array_equal(gaps, expected)
    assert np.min(gaps) >= -1e-9


def test_batched_gaps_keep_the_one_row_values_when_the_pushed_base_vanishes():
    # the second target atom receives no mass, so the pushed square sum
    # runs over the first atom alone
    k = MarkovKernel(CAT3.space, finite_space(3), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]])
    thetas = np.array([[0.2, 0.3], [0.5, 0.1]])
    vs = np.array([[1.0, -0.5], [0.3, 0.2]])
    gaps = monotonicity_gap(k, CAT3, thetas, vs)
    np.testing.assert_array_equal(gaps, [_per_draw_gap(k, CAT3, th, v) for th, v in zip(thetas, vs)])


def test_batched_gaps_raise_what_one_bad_row_raises():
    good = [0.2, 0.3]
    k = random_kernel(CAT3.space, 3, np.random.default_rng(2))
    with pytest.raises(DomainError) as single:
        tangent_at(CAT3, [0.6, 0.6], [1.0, 0.0])
    with pytest.raises(DomainError) as batched:
        monotonicity_gap(k, CAT3, [good, [0.6, 0.6], good], [[1.0, 0.0]] * 3)
    assert str(batched.value) == str(single.value)

    curve = get_model("singular-curve")
    k = random_kernel(curve.space, 3, np.random.default_rng(3))
    with pytest.raises(NotDominated) as single:
        tangent_at(curve, [0.5], [1.0])
    with pytest.raises(NotDominated) as batched:
        monotonicity_gap(k, curve, [[-0.5], [0.5], [0.1]], [[1.0], [1.0], [1.0]])
    assert "carries mass where the density vanishes" in str(batched.value)
    assert batched.value.nodes == single.value.nodes
    # t = 0.1 fails an earlier check on its own: the first bad row decides
    with pytest.raises(UsageError, match="negative density"):
        monotonicity_gap(k, curve, [[-0.5], [0.1], [0.5]], [[1.0], [1.0], [1.0]])


def test_batched_gaps_need_one_kernel_per_row():
    k = permutation_kernel(CAT4.space, range(4))
    with pytest.raises(UsageError, match="one kernel per parameter row"):
        monotonicity_gap([k, k], CAT4, [[0.2, 0.3, 0.1]], [[1.0, 0.0, 0.0]])
    with pytest.raises(UsageError, match="kernel source"):
        monotonicity_gap(permutation_kernel(F4, range(4)), CAT3, [[0.2, 0.3]], [[1.0, 0.0]])


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_entries(entry):
    with pytest.raises(UsageError, match="finite"):
        MarkovKernel(CAT3.space, finite_space(2), [[entry, 1.0], [0.5, 0.5], [0.2, 0.8]])


def _ordered_verdict(rows):
    """The kernel value checks one at a time, in order: the message of the
    first that fails, or None."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        return "kernel entries must be finite"
    if np.any(rows < 0):
        return "kernel entries must be nonnegative"
    with np.errstate(over="ignore"):
        sums = rows.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > MASS_TOL:
        return "kernel rows must sum to 1"
    return None


def _kernel_verdict(rows):
    try:
        MarkovKernel(CAT3.space, finite_space(len(rows[0])), rows)
    except UsageError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[np.nan, 1.0], [0.5, 0.5], [0.2, 0.8]], "finite"),
        ([[np.inf, 1.0], [0.5, 0.5], [0.2, 0.8]], "finite"),
        ([[-np.inf, 1.0], [0.5, 0.5], [0.2, 0.8]], "finite"),
        ([[-0.1, 1.1], [0.5, 0.5], [0.2, 0.8]], "nonnegative"),
        ([[0.5, 0.5 + 2e-9], [0.5, 0.5], [0.2, 0.8]], "sum to 1"),
        ([[1e308, 1e308], [0.5, 0.5], [0.2, 0.8]], "sum to 1"),  # finite entries, the sum overflows
        ([[-0.1, np.nan], [0.5, 0.5], [0.2, 0.8]], "finite"),
        ([[-0.1, 1.2], [0.5, 0.5], [0.2, 0.8]], "nonnegative"),
        ([[], [], []], "one row per source node"),
        (np.zeros((0, 2)), "one row per source node"),
    ],
    ids=["nan", "inf", "minus-inf", "negative", "mass-2e-9", "overflow", "nan-before-negative",
         "negative-before-mass", "empty-rows", "no-rows"],
)
def test_kernel_checks_name_the_first_fault(rows, message):
    # pytest turns RuntimeWarning into an error, so an overflow warning fails here
    with pytest.raises(UsageError, match=message):
        MarkovKernel(CAT3.space, finite_space(2), rows)


@st.composite
def _kernel_rows(draw):
    """3 x k rows, each from positive weights normalized to mass 1, then
    possibly one entry or one row's mass disturbed."""
    k = draw(st.integers(1, 5))
    rows = np.array([draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)) for _ in range(3)])
    rows /= rows.sum(axis=1, keepdims=True)
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, k - 1))
    fault = draw(st.sampled_from(["none", "entry", "mass"]))
    if fault == "entry":
        rows[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.0, 0.0, 1e308]))
    elif fault == "mass":
        rows[i, j] += draw(st.sampled_from([-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9]))
    return rows


@given(_kernel_rows())
@settings(max_examples=200, deadline=None)
def test_kernel_accepts_exactly_what_the_ordered_checks_accept(rows):
    expected = _ordered_verdict(rows)
    assert _kernel_verdict(rows) == expected
    if expected is None:
        kernel = MarkovKernel(CAT3.space, finite_space(rows.shape[1]), rows)
        assert kernel.rows.tobytes() == rows.tobytes() and not kernel.rows.flags.writeable


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
    gap = monotonicity_gap(k, model, theta, v)[0]
    assert gap > 10 * 1e-7
    res = sufficiency_check(k, model, theta[None, :], v[None, :])
    assert not res["sufficient_consistent"]


def test_binomial_reduction_is_sufficient_for_equal_coins():
    # with p = q the mixed-outcome merge is the classical count statistic;
    # along the diagonal direction the metric is preserved
    model = _bernoulli_pair_model()
    k = binning_kernel(model.space, [0, 1, 1, 2])
    for p in (0.2, 0.5, 0.7):
        gap = monotonicity_gap(k, model, [p, p], [1.0, 1.0])[0]
        assert abs(gap) < 1e-9


def test_pushforward_model_matches_measure_pushforward():
    k = binning_kernel(CAT4.space, [0, 1, 1, 0])
    pushed = pushforward_model(k, CAT4)
    theta = [0.2, 0.3, 0.1]
    direct = pushforward_measure(k, CAT4.measure(theta))
    assert pushed.density(theta) == pytest.approx(direct.density)


def _counting(model, calls):
    """``model`` with every evaluation of it recorded in ``calls``."""

    def jet(thetas):
        calls.append("jet")
        return model.jet(thetas)

    return ParamModel(model.name, model.domain, model.space, jet_fn=jet)


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

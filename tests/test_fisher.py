import numpy as np
import pytest

from sigeo import fisher
from sigeo.errors import DomainError, UsageError
from sigeo.fisher import (
    directional_form,
    fisher_inner,
    fisher_matrices,
    fisher_matrix,
    jet_rows,
    metric_ranks,
    two_integrability_probe,
)
from sigeo.measures import TangentVector
from sigeo.models import (
    Box,
    CurveInModel,
    ParamModel,
    bernoulli_family,
    categorical_family,
    gaussian_location_family,
    gaussian_location_scale_family,
    gaussian_mixture,
    get_model,
    normalized_friedrich_model,
    reparameterized_model,
    tangent_at,
)

BERN = bernoulli_family()
CAT3 = categorical_family(3)
MIX = gaussian_mixture()


def test_inner_bernoulli_half():
    v = tangent_at(BERN, [0.5], [1.0])
    assert fisher_inner(v, v) == pytest.approx(4.0, rel=1e-12)


def test_inner_with_zero_tangent():
    v = tangent_at(BERN, [0.3], [1.0])
    assert fisher_inner(v, TangentVector(v.base, np.zeros(v.base.space.size))) == 0.0


def test_inner_rejects_mismatched_bases():
    v = tangent_at(BERN, [0.3], [1.0])
    w = tangent_at(BERN, [0.4], [1.0])
    with pytest.raises(UsageError):
        fisher_inner(v, w)


def test_mixture_corner_inner_products_vanish():
    for d in ([1.0, 0.0], [0.0, 1.0], [0.6, -0.8]):
        v = tangent_at(MIX, [0.0, 0.0], d)
        assert fisher_inner(v, v) == 0.0


# -- matrices ------------------------------------------------------------------

def test_bernoulli_matrix_on_grid():
    for p in np.arange(0.1, 0.95, 0.1):
        G = fisher_matrix(BERN, [p]).matrix[0, 0]
        assert G == pytest.approx(1.0 / (p * (1 - p)), rel=1e-8)


def test_gaussian_location_matrix_is_one():
    loc = gaussian_location_family()
    for th in (-1.2, 0.0, 0.8):
        assert fisher_matrix(loc, [th]).matrix[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_location_scale_matrix_closed_form():
    # diag(1/sigma^2, 2/sigma^2) for N(mu, sigma^2)
    ls = gaussian_location_scale_family()
    for mu, sig in ((0.0, 1.0), (0.7, 0.6), (-1.0, 1.7)):
        G = fisher_matrix(ls, [mu, sig]).matrix
        assert G[0, 0] == pytest.approx(1.0 / sig**2, rel=1e-8)
        assert G[1, 1] == pytest.approx(2.0 / sig**2, rel=1e-8)
        assert abs(G[0, 1]) < 1e-8


def test_matrix_matches_inner_products_on_coordinates():
    th = [0.25, 0.4]
    G = fisher_matrix(CAT3, th).matrix
    for i, ei in enumerate(np.eye(2)):
        for j, ej in enumerate(np.eye(2)):
            vi = tangent_at(CAT3, th, ei)
            vj = tangent_at(CAT3, th, ej)
            assert G[i, j] == pytest.approx(fisher_inner(vi, vj), abs=1e-10)


def test_matrix_symmetry_and_psd():
    G = fisher_matrix(MIX, [0.3, 1.7])
    assert np.max(np.abs(G.matrix - G.matrix.T)) < 1e-12
    assert np.min(G.eigenvalues) > -1e-12


def test_pullback_consistency():
    # theta = phi(u); Fisher in u equals J^T G J
    def phi(us):
        return np.column_stack([0.35 + 0.2 * np.tanh(us[:, 0]), 0.2 + 0.1 * us[:, 1] ** 2])

    def dphi(us):
        T = us.shape[0]
        out = np.zeros((T, 2, 2))
        out[:, 0, 0] = 0.2 / np.cosh(us[:, 0]) ** 2
        out[:, 1, 1] = 0.2 * us[:, 1]
        return out

    rep = reparameterized_model(CAT3, phi, dphi, Box([-1.0, 0.1], [1.0, 1.0]))
    u = np.array([0.4, 0.7])
    Gu = fisher_matrix(rep, u).matrix
    theta = phi(u[None, :])[0]
    G = fisher_matrix(CAT3, theta).matrix
    J = dphi(u[None, :])[0]
    assert np.max(np.abs(Gu - J @ G @ J.T)) < 1e-8


def test_cauchy_schwarz_on_random_tangents():
    rng = np.random.default_rng(11)
    for _ in range(100):
        th = [rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)]
        v = tangent_at(CAT3, th, rng.normal(size=2))
        w = tangent_at(CAT3, th, rng.normal(size=2))
        lhs = fisher_inner(v, w) ** 2
        rhs = fisher_inner(v, v) * fisher_inner(w, w)
        assert lhs <= rhs + 1e-9


# -- rank detection --------------------------------------------------------------

def test_rank_zero_at_corner():
    assert fisher_matrix(MIX, [0.0, 0.0]).rank == 0


def test_rank_drops_on_degenerate_line():
    assert fisher_matrix(MIX, [0.4, 0.0]).rank <= 1
    assert fisher_matrix(MIX, [0.0, 2.0]).rank <= 1


def test_rank_full_generic():
    assert fisher_matrix(MIX, [0.4, 1.5]).rank == 2
    assert fisher_matrix(BERN, [0.3]).rank == 1


# -- directional form -------------------------------------------------------------

def test_directional_form_matches_matrix():
    th = np.array([0.3, 0.25])
    v = np.array([0.7, -0.2])
    G = fisher_matrix(CAT3, th).matrix
    val = directional_form(CAT3, th[None, :], v[None, :])[0]
    assert val == pytest.approx(float(v @ G @ v), rel=1e-12)


# -- speed probe ------------------------------------------------------------------

def test_probe_bernoulli_line_smooth():
    curve = CurveInModel(BERN, [[0.25], [0.75]])
    grid = np.linspace(0.05, 0.95, 31)
    probe = two_integrability_probe(BERN, curve, grid)
    assert not probe.flagged.any()
    # closed-form speed: |dp/ds| / sqrt(p(1-p)) with dp/ds = 0.5
    ps = 0.25 + 0.5 * grid
    expected = 0.5 / np.sqrt(ps * (1 - ps))
    assert np.max(np.abs(probe.speed - expected)) < 1e-6


def test_probe_constant_curve():
    curve = CurveInModel(BERN, [[0.4], [0.4]])
    probe = two_integrability_probe(BERN, curve, np.linspace(0.1, 0.9, 9))
    assert np.max(probe.speed) < 1e-10  # interpolation roundoff only
    assert not probe.flagged.any()


def test_probe_flags_bump_family_jump():
    model = normalized_friedrich_model()
    curve = CurveInModel(model, [[-0.3], [0.3]])
    inner = np.array([0.01, 0.05])
    outer = np.array([0.1, 0.2, 0.3])
    thetas = np.concatenate([-outer[::-1], -inner[::-1], [0.0], inner, outer])
    probe = two_integrability_probe(model, curve, (thetas + 0.3) / 0.6)
    assert probe.flagged.sum() == 1
    assert probe.flagged_t()[0] == pytest.approx(0.5)


def test_probe_capped_mass_matches_fisher_matrix_per_point():
    # the speed-jump criterion's grid: the batched capped masses must be the
    # per-point fisher_matrix ones, bit for bit
    model = normalized_friedrich_model()
    curve = CurveInModel(model, [[-0.3], [0.3]])
    inner = np.array([0.001, 0.002, 0.005, 0.01, 0.02, 0.05])
    outer = np.linspace(0.1, 0.3, 5)
    thetas = np.concatenate([-outer[::-1], -inner[::-1], [0.0], inner, outer])
    grid = (thetas + 0.3) / 0.6
    probe = two_integrability_probe(model, curve, grid)
    per_point = np.array([fisher_matrix(model, curve.point_at(t)).capped_mass for t in grid])
    assert probe.capped_mass.shape == (23,)
    assert np.array_equal(probe.capped_mass, per_point)
    assert np.count_nonzero(per_point) == 22


REGISTRY_IDS = [
    "bernoulli", "categorical:3", "mixture", "gauss-location", "gauss-location-2d",
    "gauss-loc-scale", "weak-curve", "friedrich", "singular-curve",
]


def _assert_matches_per_row(model, thetas):
    G = fisher_matrices(model, thetas)
    per_row = [fisher_matrix(model, th) for th in thetas]
    assert G.shape == (len(thetas), model.param_dim, model.param_dim)
    assert np.array_equal(G, [f.matrix for f in per_row])
    eigs = np.linalg.eigvalsh(G)
    assert np.array_equal(eigs, [f.eigenvalues for f in per_row])
    assert np.array_equal(metric_ranks(eigs), [f.rank for f in per_row])
    assert np.array_equal(np.linalg.det(G), [np.linalg.det(f.matrix) for f in per_row])


@pytest.mark.parametrize("model_id", REGISTRY_IDS)
def test_fisher_matrices_match_fisher_matrix_bitwise(model_id, monkeypatch):
    model = get_model(model_id)
    rng = np.random.default_rng(0)
    thetas = np.array([model.domain.sample(rng) for _ in range(64)])
    _assert_matches_per_row(model, thetas[:1])
    _assert_matches_per_row(model, thetas)
    # jets of 5 rows: the 64 rows cross twelve chunk boundaries
    monkeypatch.setattr(fisher, "JET_ENTRY_BUDGET", 5 * model.space.size)
    assert jet_rows(model) == 5
    _assert_matches_per_row(model, thetas)


def test_fisher_matrices_chunk_at_the_node_budget():
    model = get_model("gauss-location-2d")  # 4096 nodes: 4 rows per jet
    rows = []

    def jet(thetas):
        rows.append(len(thetas))
        return model.jet(thetas)

    counting = ParamModel(model.name, model.domain, model.space, jet_fn=jet)
    fisher_matrices(counting, np.zeros((102, 2)))
    assert rows == [4] * 25 + [2]
    assert max(rows) * model.space.size <= fisher.JET_ENTRY_BUDGET


@pytest.mark.parametrize("model_id", REGISTRY_IDS)
def test_directional_form_is_the_same_in_every_block_size(model_id, monkeypatch):
    model = get_model(model_id)
    rng = np.random.default_rng(0)
    thetas = np.array([model.domain.sample(rng) for _ in range(64)])
    vs = rng.standard_normal(thetas.shape)
    one_jet = fisher._directional_values(*model.jet(thetas), vs, model.space.weights)
    np.testing.assert_array_equal(directional_form(model, thetas, vs), one_jet)
    # jets of 5 rows: the 64 rows cross twelve block boundaries
    monkeypatch.setattr(fisher, "JET_ENTRY_BUDGET", 5 * model.space.size)
    assert jet_rows(model) == 5
    np.testing.assert_array_equal(directional_form(model, thetas, vs), one_jet)


def test_directional_form_jets_hold_at_most_jet_rows():
    model = get_model("gauss-location-2d")  # 4096 nodes: 4 rows per jet
    rows = []

    def jet(thetas):
        rows.append(len(thetas))
        return model.jet(thetas)

    counting = ParamModel(model.name, model.domain, model.space, jet_fn=jet)
    thetas = np.linspace([-0.5, -0.5], [0.5, 0.5], 14)
    vals = directional_form(counting, thetas, np.ones_like(thetas))
    assert rows == [4, 4, 4, 2]
    assert vals.shape == (14,)
    rows.clear()
    assert directional_form(counting, np.empty((0, 2)), np.empty((0, 2))).shape == (0,)
    assert rows == []


def test_fisher_matrices_name_the_first_row_outside_the_domain():
    with pytest.raises(DomainError, match=r"\[0.2 0.9\]"):
        fisher_matrices(CAT3, [[0.2, 0.3], [0.2, 0.9], [1.5, 0.1]])
    with pytest.raises(DomainError, match="coordinates"):
        fisher_matrices(CAT3, [[0.2, 0.3, 0.1]])


@pytest.mark.parametrize("model_id", ["bernoulli", "categorical:3", "mixture", "gauss-loc-scale", "friedrich"])
def test_directional_values_are_the_expression_bitwise(model_id):
    # Squared, divided and weighted in place: the same operations in the
    # same order as the one-line expression.
    model = get_model(model_id)
    rng = np.random.default_rng(4)
    thetas = np.array([model.domain.sample(rng) for _ in range(20)])
    vs = rng.standard_normal(thetas.shape)
    P, J = model.jet(thetas)
    w = model.space.weights
    dv = np.einsum("tnx,tn->tx", J, vs)
    expected = np.sum(dv * dv / np.maximum(P, fisher.DOMINANCE_TOL) * w[None, :], axis=1)
    np.testing.assert_array_equal(fisher._directional_values(P, J, vs, w), expected)

"""The quadrature grids of the gridded models: discretization error, size
limit and the README's statement of both.

Every gridded model computes the Fisher integral g(v, v) = int (d_v p)^2 / p
on a fixed composite Gauss-Legendre grid, and every jet costs in proportion
to the grid's node count. The refinement test states how fine a grid has to
be: on a lattice over each model's region, the default grid's
``fisher_matrices`` agree with a grid of twice the panels per axis to the
tolerance next to the model's entry, max|dG| / max|G| per point. A lattice,
not uniform draws, because the largest differences lie on the region's walls
(sigma = 0.5 for gauss-loc-scale), where draws rarely fall.
"""

import functools
import inspect
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from sigeo import models
from sigeo.cli import main
from sigeo.errors import UsageError
from sigeo.fisher import fisher_matrices

# model id: (region lo, region hi, lattice points per axis, tolerance)
REFINEMENT = {
    "gauss-location": ([-2.0], [2.0], 401, 1e-10),
    "gauss-loc-scale": ([-2.0, 0.5], [2.0, 2.0], 41, 1e-10),
    "gauss-location-2d": ([-1.2, -1.2], [1.2, 1.2], 13, 2e-10),
    # The tv-lower-bound pairs' region. Toward a = 0 at large |b| the 1e-12
    # density floor decides G, not the grid; at (0, 0) G is 0.
    "mixture": ([0.1, -3.0], [0.9, 3.0], 41, 1e-10),
    # G is even in t; closer to t = 0 no fixed grid resolves sin(x/t).
    "weak-curve": ([0.02], [0.999], 401, 1e-10),
}
# The defaults set to the fewest panels that pass; weak-curve keeps a
# larger grid (see its builder).
SMALLEST = ("gauss-location", "gauss-loc-scale", "gauss-location-2d", "mixture")

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _builder(model_id):
    return models._BUILDERS[model_id]


def _default_panels(model_id):
    return inspect.signature(_builder(model_id)).parameters["panels"].default


def _lattice(lo, hi, n):
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


@functools.cache
def refinement_error(model_id, panels) -> float:
    """Largest max|G_P - G_2P| / max|G_2P| over the lattice of the model's region."""
    lo, hi, n, _ = REFINEMENT[model_id]
    thetas = _lattice(lo, hi, n)
    coarse = fisher_matrices(_builder(model_id)(panels=panels), thetas)
    fine = fisher_matrices(_builder(model_id)(panels=2 * panels), thetas)
    return float(np.max(np.max(np.abs(coarse - fine), axis=(1, 2)) / np.max(np.abs(fine), axis=(1, 2))))


def test_every_gridded_model_has_a_refinement_entry():
    assert sorted(REFINEMENT) == sorted(models._GRIDDED)


@pytest.mark.parametrize("model_id", sorted(REFINEMENT))
def test_default_grid_matches_a_twice_finer_grid(model_id):
    assert refinement_error(model_id, _default_panels(model_id)) <= REFINEMENT[model_id][3]


@pytest.mark.parametrize("model_id", SMALLEST)
def test_default_grid_is_the_smallest_that_passes(model_id):
    tol = REFINEMENT[model_id][3]
    assert all(refinement_error(model_id, panels) > tol for panels in range(1, _default_panels(model_id)))


# -- the README's table --------------------------------------------------------------

def _readme_grid_table() -> dict:
    """model id -> (panels, nodes, refinement error) from the README's grid table."""
    row = re.compile(r"^\| `([a-z0-9-]+)` \| (\d+) \| (\d+) \| ([0-9.e+-]+) \|")
    return {m[1]: (int(m[2]), int(m[3]), float(m[4]))
            for m in map(row.match, README.read_text().splitlines()) if m}


def test_readme_states_every_default_grid():
    table = _readme_grid_table()
    assert sorted(table) == sorted(models._GRIDDED)
    for model_id, (panels, nodes, _) in table.items():
        assert panels == _default_panels(model_id), model_id
        assert nodes == models.get_model(model_id).space.size, model_id


def test_readme_states_the_measured_refinement_errors():
    for model_id, (panels, _, error) in _readme_grid_table().items():
        assert f"{refinement_error(model_id, panels):.1e}" == f"{error:.1e}", model_id


# -- oversize grids are refused before anything is allocated -----------------------

@pytest.fixture
def no_grid_is_built(monkeypatch):
    """Make building any grid fail, so a missing size check cannot allocate."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(models, "grid1d_space", refuse)
    monkeypatch.setattr(models, "grid2d_space", refuse)


@pytest.mark.parametrize(
    "model_id, panels",
    [("gauss-location", 100_000_000), ("mixture", 2 ** 17 + 1), ("gauss-location-2d", 129), ("weak-curve", 0)],
)
def test_get_model_refuses_oversize_grids_before_building(model_id, panels, no_grid_is_built):
    cached = models._zoo_model.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="panel"):
            models.get_model(model_id, panels=panels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert models._zoo_model.cache_info().currsize == cached


def test_grid_limit_is_enum_limit():
    # 2^17 panels of 8 points, and 128 x 128 panels in 2-d, are exactly ENUM_LIMIT nodes
    assert (models.GRID_POINTS * 2 ** 17) == (models.GRID_POINTS * 128) ** 2 == models.ENUM_LIMIT
    models._require_grid_size(2 ** 17)
    models._require_grid_size(128, dim=2)
    with pytest.raises(UsageError, match="too large"):
        models._require_grid_size(129, dim=2)


def test_cli_refuses_an_oversize_grid_with_exit_1(capsys, no_grid_is_built):
    tracemalloc.start()
    try:
        code = main(["fisher-matrix", "--model", "gauss-location", "--theta", "0.3", "--grid", "100000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "too large" in capsys.readouterr().err
    assert peak < 1_000_000

import math

import numpy as np
import pytest

from sigeo.errors import UsageError
from sigeo.quadrature import (
    adaptive_integral,
    gauss_legendre_rule,
    geometric_edges,
    panel_nodes_weights,
    uniform_edges,
)


def test_gauss_rule_integrates_polynomials_exactly():
    nodes, weights = gauss_legendre_rule(4)
    # degree 7 is exact for a 4-point rule
    for k in range(8):
        est = float(np.sum(weights * nodes**k))
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(est - exact) < 1e-14


def test_panel_rule_gaussian_normalization():
    nodes, weights = panel_nodes_weights(uniform_edges(-8, 8, 64), 8)
    val = float(np.sum(weights * np.exp(-0.5 * nodes**2))) / math.sqrt(2 * math.pi)
    assert abs(val - 1.0) < 1e-13


def test_panel_nodes_strictly_increasing():
    nodes, weights = panel_nodes_weights(uniform_edges(0, 1, 7), 5)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)


def test_geometric_edges_cluster_toward_origin():
    edges = geometric_edges(1e-6, 1.0, 30)
    assert edges[0] == 0.0
    assert abs(edges[1] - 1e-6) < 1e-18
    assert abs(edges[-1] - 1.0) < 1e-12
    widths = np.diff(edges)
    assert np.all(np.diff(widths[1:]) > 0)  # widths grow away from 0


def test_adaptive_integral_smooth():
    val = adaptive_integral(math.sin, 0.0, math.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-10


def test_adaptive_integral_orientation_and_degenerate():
    assert adaptive_integral(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)
    assert adaptive_integral(lambda x: x, 2.0, 2.0) == 0.0


def test_adaptive_integral_endpoint_extension():
    # integrand extended by 0 at the endpoint; integrable log-type flatness
    def f(u):
        return 0.0 if u == 0.0 else 1.0 / math.log(u * u)

    val = adaptive_integral(f, 0.0, 0.5, tol=1e-10)
    # independent high-resolution midpoint oracle
    s = (np.arange(4_000_000) + 0.5) * (0.5 / 4_000_000)
    oracle = float(np.sum(1.0 / np.log(s * s)) * (0.5 / 4_000_000))
    assert abs(val - oracle) < 1e-6


@pytest.mark.parametrize(
    "build",
    [lambda: panel_nodes_weights([0.0]), lambda: panel_nodes_weights([0.0, 0.0])],
    ids=["one-edge", "flat-panel"],
)
def test_degenerate_rules_are_usage_errors(build):
    with pytest.raises(UsageError):
        build()

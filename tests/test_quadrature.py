import math

import numpy as np
import pytest

from sigeo.errors import UsageError
from sigeo.quadrature import (
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


@pytest.mark.parametrize(
    "build",
    [lambda: panel_nodes_weights([0.0], 8), lambda: panel_nodes_weights([0.0, 0.0], 8)],
    ids=["one-edge", "flat-panel"],
)
def test_degenerate_rules_are_usage_errors(build):
    with pytest.raises(UsageError):
        build()

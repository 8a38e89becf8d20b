import inspect
import math

import numpy as np
import pytest

import oracles
import workloads
from sigeo import acceptance, fisher, models

EPS = 1e-4


def local_length(model, theta, v):
    """sqrt(v^T G v) at the midpoint: the length of a short step eps * v."""
    G = fisher.fisher_matrix(model, theta + 0.5 * EPS * v).matrix
    return EPS * math.sqrt(v @ G @ v)


@pytest.mark.parametrize(
    "theta, v",
    [([0.2, 0.3], [1.0, -0.5]), ([0.6, 0.1], [-0.3, 0.8]), ([0.1, 0.1], [0.4, 0.4])],
)
def test_great_circle_matches_fisher_matrix_locally(theta, v):
    model = models.categorical_family(3)
    theta, v = np.array(theta), np.array(v)
    exact = oracles.categorical_distance(theta, theta + EPS * v)
    assert exact == pytest.approx(local_length(model, theta, v), rel=1e-6)


@pytest.mark.parametrize(
    "theta, v",
    [([0.0, 1.0], [1.0, 0.0]), ([1.2, 0.7], [-0.5, 0.3]), ([-1.0, 1.6], [0.2, -1.0])],
)
def test_hyperbolic_matches_fisher_matrix_locally(theta, v):
    model = models.gaussian_location_scale_family()
    theta, v = np.array(theta), np.array(v)
    exact = oracles.loc_scale_distance(theta, theta + EPS * v)
    assert exact == pytest.approx(local_length(model, theta, v), rel=1e-6)


def test_hyperbolic_closed_forms():
    # Same sigma: sqrt(2) * 2 asinh(|du| / (2 sigma)); same mu: sqrt(2) log(s2 / s1).
    assert oracles.loc_scale_distance([0.0, 1.0], [0.0, 2.0]) == pytest.approx(math.sqrt(2) * math.log(2))
    du = 1.0 / math.sqrt(2.0)
    assert oracles.loc_scale_distance([0.0, 1.0], [1.0, 1.0]) == pytest.approx(
        math.sqrt(2) * 2 * math.asinh(du / 2)
    )


def test_semicircle_filter():
    # Far apart at low sigma: the arc bulges above sigma = 2.
    assert not oracles.loc_scale_geodesic_inside([-1.5, 1.7], [1.5, 1.7], 2.0)
    # Close points: the arc stays near the endpoints.
    assert oracles.loc_scale_geodesic_inside([0.0, 1.0], [0.3, 1.1], 2.0)
    # Arc apex outside the endpoint span: the higher endpoint bounds it.
    assert oracles.loc_scale_geodesic_inside([0.0, 1.9], [0.2, 0.6], 2.0)
    assert oracles.loc_scale_geodesic_inside([0.5, 0.6], [0.5, 1.9], 2.0)


def test_arc_apex_is_on_the_geodesic():
    # The apex of the semicircle splits the distance additively.
    a, b = np.array([-1.0, 0.8]), np.array([1.2, 1.0])
    u1, u2 = a[0] / math.sqrt(2), b[0] / math.sqrt(2)
    centre = ((u1**2 + a[1] ** 2) - (u2**2 + b[1] ** 2)) / (2 * (u1 - u2))
    apex = np.array([centre * math.sqrt(2), math.hypot(u1 - centre, a[1])])
    whole = oracles.loc_scale_distance(a, b)
    parts = oracles.loc_scale_distance(a, apex) + oracles.loc_scale_distance(apex, b)
    assert whole == pytest.approx(parts, rel=1e-12)
    assert oracles.loc_scale_geodesic_inside(a, b, apex[1])
    assert not oracles.loc_scale_geodesic_inside(a, b, apex[1] - 1e-6)


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_pairs_are_drawn_like_the_tv_criterion(family):
    mine, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        a, b = workloads.random_pair(family, mine)
        _, c, d = acceptance._random_pair(family, theirs)
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, d)


def test_geodesic_pairs_follow_the_criterion():
    # The criterion splits its default 100 pairs evenly over the families,
    # drawn family by family in this order.
    assert acceptance._TV_MODELS == workloads.FAMILIES
    pairs = inspect.signature(acceptance.check_tv_lower_bound).parameters["pairs"].default
    assert pairs // len(workloads.FAMILIES) == workloads.CRITERION_PAIRS

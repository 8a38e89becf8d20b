"""Closed-form Fisher-Rao distances the geodesic workload checks against.

Categorical: the square-root map sends the simplex onto a sphere of
radius 2, so d(p, q) = 2 arccos(sum sqrt(p_i q_i)).

Gaussian N(mu, sigma): ds^2 = (dmu^2 + 2 dsigma^2) / sigma^2 is sqrt(2)
times the hyperbolic metric of the upper half plane in (mu / sqrt(2),
sigma) (Costa, Santos & Strapasson, Discrete Appl. Math. 197, 2015). The
geodesic is an arc of a semicircle centred on the sigma = 0 axis, so the
closed form is the distance in a parameter box only when that arc stays
inside the box.
"""

from __future__ import annotations

import math

import numpy as np


def categorical_distance(theta1, theta2) -> float:
    """Great-circle distance between categoricals given by their first m-1 probabilities."""
    p = np.append(theta1, 1.0 - np.sum(theta1))
    q = np.append(theta2, 1.0 - np.sum(theta2))
    return 2.0 * math.acos(min(1.0, float(np.sum(np.sqrt(p * q)))))


def loc_scale_distance(theta1, theta2) -> float:
    """sqrt(2) times the hyperbolic distance between (mu/sqrt(2), sigma) points."""
    (m1, s1), (m2, s2) = theta1, theta2
    du = (m1 - m2) / math.sqrt(2.0)
    return math.sqrt(2.0) * math.acosh(1.0 + (du * du + (s1 - s2) ** 2) / (2.0 * s1 * s2))


def loc_scale_geodesic_inside(theta1, theta2, sigma_hi) -> bool:
    """Whether the semicircle arc between the points stays below ``sigma_hi``.

    Along the arc mu moves monotonically between the endpoints and sigma is
    concave, so only the arc's highest point can leave a box that holds
    both endpoints.
    """
    (m1, s1), (m2, s2) = theta1, theta2
    u1, u2 = m1 / math.sqrt(2.0), m2 / math.sqrt(2.0)
    if u1 == u2:
        return max(s1, s2) <= sigma_hi
    centre = ((u1 * u1 + s1 * s1) - (u2 * u2 + s2 * s2)) / (2.0 * (u1 - u2))
    radius = math.hypot(u1 - centre, s1)
    top = radius if min(u1, u2) <= centre <= max(u1, u2) else max(s1, s2)
    return top <= sigma_hi

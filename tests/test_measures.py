import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigeo.errors import DomainError
from sigeo.measures import (
    Measure,
    TangentVector,
    bhattacharyya_angle,
    finite_space,
    grid1d_space,
    integrate,
    tv_norm,
)

F2 = finite_space(2)


def bernoulli(p):
    return Measure(F2, [1 - p, p])


# -- bhattacharyya_angle ------------------------------------------------------

def test_bhattacharyya_angle_is_the_bernoulli_arcsine_distance():
    p, q = 0.2, 0.7
    arc = 2 * abs(math.asin(math.sqrt(q)) - math.asin(math.sqrt(p)))
    assert bhattacharyya_angle(bernoulli(p), bernoulli(q)) == pytest.approx(arc, abs=1e-12)


def test_bhattacharyya_angle_of_equal_measures_is_zero():
    space = grid1d_space(-8.0, 8.0, panels=32)
    mu = Measure(space, np.exp(-0.5 * space.points**2) / math.sqrt(2 * math.pi))
    assert bhattacharyya_angle(mu, mu) == 0.0
    assert bhattacharyya_angle(mu, mu * 1.5) == 0.0  # mass does not enter


def test_bhattacharyya_angle_dominates_half_the_tv():
    # TV = |p - q|_1 <= 2 sin(angle / 2) <= angle
    rng = np.random.default_rng(4)
    space = finite_space(5)
    for _ in range(20):
        mu, nu = (Measure(space, rng.dirichlet([1.0] * 5)) for _ in range(2))
        angle = bhattacharyya_angle(mu, nu)
        assert tv_norm(mu - nu) <= 2 * math.sin(angle / 2) + 1e-12


# -- tv_norm ----------------------------------------------------------------

def test_tv_probability_is_one():
    assert tv_norm(bernoulli(0.3)) == pytest.approx(1.0, abs=1e-12)


def test_tv_symmetric_signed_mass():
    mu = Measure(F2, [0.5, -0.5], signed=True)
    assert tv_norm(mu) == pytest.approx(1.0, abs=1e-15)


def test_tv_of_bernoulli_difference():
    # |0.3-0.7| + |0.7-0.3| summed by hand
    assert tv_norm(bernoulli(0.3) - bernoulli(0.7)) == pytest.approx(0.8, abs=1e-15)


finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=8
)


@given(finite_vectors, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_tv_absolute_homogeneity(dens, c):
    space = finite_space(len(dens))
    mu = Measure(space, dens, signed=True)
    assert tv_norm(c * mu) == pytest.approx(abs(c) * tv_norm(mu), rel=1e-12, abs=1e-12)


@given(finite_vectors, finite_vectors)
def test_tv_triangle_inequality(d1, d2):
    n = min(len(d1), len(d2))
    space = finite_space(n)
    a = Measure(space, d1[:n], signed=True)
    b = Measure(space, d2[:n], signed=True)
    assert tv_norm(a + b) <= tv_norm(a) + tv_norm(b) + 1e-12


# -- integrate ----------------------------------------------------------------

GRID = grid1d_space(-8, 8, panels=64, npts=8)
GAUSS = Measure(GRID, np.exp(-0.5 * GRID.points**2) / math.sqrt(2 * math.pi))


def test_integrate_normalization():
    assert integrate(np.ones(GRID.size), GAUSS) == pytest.approx(1.0, abs=1e-9)


def test_integrate_odd_function_vanishes():
    assert integrate(lambda x: x, GAUSS) == pytest.approx(0.0, abs=1e-6)


def test_integrate_gaussian_second_moment():
    # independent high-resolution quadrature oracle for the second moment
    xs = np.linspace(-10, 10, 2_000_001)
    oracle = float(np.trapezoid(xs**2 * np.exp(-0.5 * xs**2), xs) / math.sqrt(2 * math.pi))
    assert integrate(lambda x: x**2, GAUSS) == pytest.approx(oracle, abs=1e-6)
    assert oracle == pytest.approx(1.0, abs=1e-9)


def test_integrate_rejects_nonfinite_on_mass():
    f = np.ones(2)
    f[1] = np.inf
    with pytest.raises(DomainError):
        integrate(f, bernoulli(0.5))


def test_integrate_ignores_nonfinite_off_support():
    mu = Measure(F2, [1.0, 0.0])
    f = np.array([2.0, np.nan])
    assert integrate(f, mu) == pytest.approx(2.0)


# -- tangent vectors ----------------------------------------------------------

def test_tangent_mass_defect_and_velocity():
    v = TangentVector(bernoulli(0.5), np.array([-2.0, 2.0]))
    assert integrate(v.log_rep, v.base) == pytest.approx(0.0, abs=1e-15)
    assert v.velocity_measure().density == pytest.approx([-1.0, 1.0])

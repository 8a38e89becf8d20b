"""Full verification suite, two tests per criterion.

`test_criterion` prints the pass/fail line (visible with pytest -s or on
failure) and asserts the criterion at its stated tolerance;
`test_criterion_details_golden` compares its details with the golden record
below. Both read one seed-0 run per criterion. The same checks back the
`sigeo verify-all` command.
"""

import functools
import json

import numpy as np
import pytest

from sigeo import acceptance

# details at seed 0; a change that moves any of these numbers changes what
# the criteria measure, so the record moves only with a stated reason.
GOLDEN_DETAILS = {
    # the gauss-location entries are measured on its 9-panel grid, the
    # fewest panels that pass the refinement test of tests/test_grids.py
    "fisher-oracles": {"worst_rel_err": 4.4152015377108e-11},
    "singular-locus": {"corner_frobenius": 0.0, "max_jeffrey_on_locus": 0.0},
    "tv-lower-bound": {
        "failures": 0,
        "min_angle_margin": -2.8310687127941492e-11,
        "min_margin": 0.0009695158251986635,
        "pairs": 100,
        "unconverged": 0,
        "warm_started": 53,
    },
    "metric-axioms": {
        "bernoulli": {
            "axiom_tol": 0.004314110338017201,
            "max_asymmetry": 4.440892098500626e-16,
            "max_identity": 0.0,
            "max_triangle_violation": 3.3306690738754696e-16,
        },
        "categorical": {
            "axiom_tol": 0.004203903964352966,
            "max_asymmetry": 4.440892098500626e-16,
            "max_identity": 0.0,
            "max_triangle_violation": 2.4835311204007837e-05,
        },
        "gauss-location": {
            "axiom_tol": 0.005375385717937427,
            "max_asymmetry": 4.440892098500626e-16,
            "max_identity": 0.0,
            "max_triangle_violation": 3.036459972349803e-14,
        },
    },
    "sphere-oracle": {"worst_rel_err": 0.00013592358544626252},
    "data-processing": {"max_abs_perm_gap": 2.842170943040401e-14, "min_gap": 0.04992072496178532},
    "hausdorff-jeffrey": {
        "bernoulli": {
            "hausdorff": 1.037418225274531,
            "jeffrey": 1.0471975511965963,
            "rel_err": 0.009338568363620429,
        },
        "dimension_1d": 0.967620496285553,
        "dimension_2d": 1.8886994271811002,
        "gauss_location": {
            "hausdorff": 1.9812499999921025,
            "jeffrey": 1.9999999999920368,
            "rel_err": 0.009375000000004487,
        },
    },
    # a permuted model sums its atoms in another order, so its segment
    # lengths, and the estimate, may differ in the last bit
    "hausdorff-monotonicity": {"failures": 0, "max_ratio": 0.43804942281557757, "perm_rel_dev": 2.6174869193188954e-16},
    # product models sum over the types of the draws, not the draw sequences,
    # so the two rounding residues are smaller than the sequence sums' 1.44e-14
    # and 5.19e-15
    "cramer-rao": {
        "max_efficiency_dev": 8.326672684688674e-17,
        "max_vmse_residual": 1.702197410802242e-17,
        "min_gap_eigenvalue": -8.551878178065214e-17,
    },
    "speed-jump": {
        "flagged": [0.5],
        "limit_speed": 1.3535240457719369,
        "speed_at_zero": 0.0,
        "velocity_tv_at_1e-3": 0.0005546855326184286,
    },
    "weak-demo": {"min_velocity_tv": 0.5505305482844678, "worst_exchange_dev": 4.758188947018294e-09},
}


def _assert_details_close(got, want, path=""):
    """Floats to 1e-12 relative (zero exactly), ints and lengths exactly."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key, value in want.items():
            _assert_details_close(got[key], value, f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_details_close(a, b, f"{path}[{i}]")
    elif isinstance(want, int):
        assert got == want, path
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0), path


@functools.cache
def _seed0_result(key):
    return dict(acceptance.CRITERIA)[key](seed=0)


@pytest.mark.parametrize("key", [k for k, _ in acceptance.CRITERIA])
def test_criterion(key):
    result = _seed0_result(key)
    print(result.line(), json.dumps(result.details, default=str))
    assert result.passed, f"{result.name}: {result.details}"


@pytest.mark.parametrize("key", sorted(GOLDEN_DETAILS))
def test_criterion_details_golden(key):
    _assert_details_close(_seed0_result(key).details, GOLDEN_DETAILS[key])


def test_golden_record_covers_every_criterion():
    assert sorted(GOLDEN_DETAILS) == sorted(k for k, _ in acceptance.CRITERIA)


def _array_dpi_point(rng):
    """The data-processing draw as numpy array arithmetic, the reference."""
    theta = np.clip(rng.dirichlet([2.0] * 4)[:3], 0.05, 0.9)
    return theta * 0.9 / np.sum(theta) if np.sum(theta) > 0.94 else theta


@pytest.mark.parametrize("seed", [6, 7, 9979])
def test_data_processing_points_are_the_array_formula(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = np.array([acceptance._dpi_point(rng) for _ in range(2000)])
    ref = np.array([_array_dpi_point(ref_rng) for _ in range(2000)])
    assert points.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.mean(np.abs(np.sum(ref, axis=1) - 0.9) < 1e-12) > 0.02  # the rescaling branch is taken

"""Full verification suite, one test per criterion.

Each test prints its pass/fail line (visible with pytest -s or on failure)
and asserts the criterion at its stated tolerance. The same checks back
the `sigeo verify-all` command.
"""

import json

import pytest

from sigeo import acceptance

# details at seed 0, recorded before the Hausdorff pipeline was folded
# into one schedule builder, one pair loop and one region-cloud builder
GOLDEN_DETAILS = {
    "hausdorff-jeffrey": {
        "bernoulli": {
            "hausdorff": 1.037418225274531,
            "jeffrey": 1.0471975511965963,
            "rel_err": 0.009338568363620429,
        },
        "dimension_1d": 0.967620496285553,
        "dimension_2d": 1.8886994271811002,
        "gauss_location": {
            "hausdorff": 1.9812499999925923,
            "jeffrey": 1.999999999992487,
            "rel_err": 0.009374999999982505,
        },
    },
    "hausdorff-monotonicity": {"failures": 0, "max_ratio": 0.43804942281557746, "perm_rel_dev": 0.0},
    "weak-demo": {"min_velocity_tv": 0.5505305482844678, "worst_exchange_dev": 4.758188947018294e-09},
}


@pytest.mark.parametrize("key,check", acceptance.CRITERIA, ids=[k for k, _ in acceptance.CRITERIA])
def test_criterion(key, check):
    result = check(seed=0)
    print(result.line(), json.dumps(result.details, default=str))
    assert result.passed, f"{result.name}: {result.details}"


def _assert_details_close(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            _assert_details_close(got[key], value)
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key


@pytest.mark.parametrize("key", sorted(GOLDEN_DETAILS))
def test_criterion_details_golden(key):
    check = dict(acceptance.CRITERIA)[key]
    _assert_details_close(check(seed=0).details, GOLDEN_DETAILS[key])

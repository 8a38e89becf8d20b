"""Desk-scale verification suite.

Each check pins one of the package's structural claims to a tolerance:
closed-form Fisher oracles, degeneracy of the mixture metric, the
total-variation lower bound, extended-metric axioms, the simplex
great-circle oracle, metric monotonicity under kernels, Jeffrey-vs-
Hausdorff agreement with dimension recovery, Hausdorff monotonicity,
variance-vs-inverse-Fisher gaps on enumerated experiments, the metric
speed jump of the shrinking-bump family, and the weak-vs-strong
convergence contrast of the oscillatory curve.

Every check is deterministic given its seed and reports pass/fail with
the numbers that decided it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import distance, estimation, fisher, hausdorff, markov, models
from .measures import QUAD_TOL, tv_norm


@dataclass
class CriterionResult:
    """One criterion's verdict and the numbers behind it; ``run_all``
    stamps the wall time in ``seconds``."""

    name: str
    passed: bool
    details: dict
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


# ---------------------------------------------------------------------------

def check_fisher_oracles(seed=0) -> CriterionResult:
    """Numeric Fisher matrices match closed forms to 1e-6 relative."""
    worst = 0.0

    bern = _model("bernoulli")
    for p in np.arange(0.1, 0.95, 0.1):
        G = fisher.fisher_matrix(bern, [p]).matrix[0, 0]
        oracle = 1.0 / (p * (1 - p))
        worst = max(worst, abs(G - oracle) / oracle)

    loc = _model("gauss-location")
    for th in (-1.0, -0.3, 0.0, 0.7, 1.0):
        G = fisher.fisher_matrix(loc, [th]).matrix[0, 0]
        worst = max(worst, abs(G - 1.0))

    cat = _model("categorical")
    for th in ([1 / 3, 1 / 3], [0.2, 0.5], [0.6, 0.1], [0.25, 0.25]):
        G = fisher.fisher_matrix(cat, th).matrix
        p1, p2 = th
        p3 = 1 - p1 - p2
        oracle = np.array([[1 / p1 + 1 / p3, 1 / p3], [1 / p3, 1 / p2 + 1 / p3]])
        worst = max(worst, float(np.max(np.abs(G - oracle)) / np.max(np.abs(oracle))))

    return CriterionResult(
        "fisher-oracles: closed forms within 1e-6 relative",
        bool(worst <= 1e-6),
        {"worst_rel_err": worst},
    )


def check_singularity(seed=0) -> CriterionResult:
    """Mixture metric vanishes at the corner; Jeffrey density on both
    degenerate lines."""
    mix = _model("mixture")
    frob = fisher.fisher_matrix(mix, [0.0, 0.0]).frobenius()

    jeffs = []
    for a in (0.15, 0.4, 0.85):
        jeffs.append(hausdorff.jeffrey_density(mix, [a, 0.0]))
    for b in (-4.0, -1.5, 0.5, 2.0, 5.0):
        jeffs.append(hausdorff.jeffrey_density(mix, [0.0, b]))
    max_jeff = max(jeffs)

    passed = frob <= 10 * QUAD_TOL and max_jeff <= 1e-6
    return CriterionResult(
        "singular-locus: corner metric ~0 and Jeffrey density vanishes on the degenerate lines",
        bool(passed),
        {"corner_frobenius": frob, "max_jeffrey_on_locus": max_jeff},
    )


def _random_pair(model_name, rng):
    """The cached registry model and a random pair of its points (the
    model stays because ``perfbench/tests/test_oracles.py`` unpacks it)."""
    if model_name == "bernoulli":
        pair = rng.uniform(0.05, 0.95, size=(2, 1))
    elif model_name == "categorical":
        pair = np.clip(rng.dirichlet([1.5] * 3, size=2)[:, :2], 0.03, 0.94)
        pair = pair[np.sum(pair, axis=1) < 0.97]
        while pair.shape[0] < 2:
            extra = np.clip(rng.dirichlet([1.5] * 3, size=1)[:, :2], 0.03, 0.94)
            if np.sum(extra) < 0.97:
                pair = np.vstack([pair, extra])
    elif model_name == "loc-scale":
        pair = np.column_stack([rng.uniform(-1.5, 1.5, 2), rng.uniform(0.6, 1.8, 2)])
    else:
        pair = np.column_stack([rng.uniform(0.1, 0.9, 2), rng.uniform(-3.0, 3.0, 2)])
    return _model(model_name), pair[0], pair[1]


_TV_MODELS = ("bernoulli", "categorical", "loc-scale", "mixture")
# Criterion names that differ from the registry's model ids.
_MODEL_IDS = {"loc-scale": "gauss-loc-scale", "categorical": "categorical:3"}


def _model(name):
    return models.get_model(_MODEL_IDS.get(name, name))


# Sample counts: random triples per model for the axioms, simplex pairs
# for the sphere oracle, random kernels and permutations for the data
# processing check, and random kernels for Hausdorff monotonicity.
AXIOM_TRIPLES = 50
SPHERE_PAIRS = 20
DPI_KERNELS = 1000
DPI_PERMUTATIONS = 50
MONOTONICITY_KERNELS = 20


def check_tv_lower_bound(seed=0, pairs=100) -> CriterionResult:
    """Distance upper estimates dominate the TV norm on random pairs, and
    never fall below the Bhattacharyya angle (a lower bound of the distance)."""
    rng = np.random.default_rng(seed + 3)
    failures = 0
    unconverged = 0
    warm_started = 0
    min_margin = min_angle_margin = np.inf
    per_model = pairs // len(_TV_MODELS)
    for name in _TV_MODELS:
        model = _model(name)
        for _ in range(per_model):
            _, th1, th2 = _random_pair(name, rng)
            res = distance.fisher_distance(model, th1, th2)
            min_margin = min(min_margin, res.length - res.lower_bound_tv)
            # An estimate below the angle is no upper estimate of the
            # distance, so it cannot witness the TV bound either.
            angle_margin = res.length - res.lower_bound_angle
            min_angle_margin = min(min_angle_margin, angle_margin)
            if not res.tv_holds or angle_margin < -QUAD_TOL:
                failures += 1
            unconverged += not res.converged
            warm_started += res.warm_start
    return CriterionResult(
        "tv-lower-bound: distance estimates >= TV on random pairs",
        failures == 0,
        {
            "pairs": per_model * len(_TV_MODELS),
            "failures": failures,
            "min_margin": float(min_margin),
            "min_angle_margin": float(min_angle_margin),
            "unconverged": unconverged,
            "warm_started": warm_started,
        },
    )


def check_metric_axioms(seed=0) -> CriterionResult:
    """Symmetry, triangle, identity on random triples per model."""
    rng = np.random.default_rng(seed + 4)
    stats = {}
    all_ok = True
    def sample_point(name):
        if name == "gauss-location":
            return rng.uniform(-1.5, 1.5, size=1)
        _, a, _ = _random_pair(name, rng)
        return a

    for name in ("bernoulli", "categorical", "gauss-location"):
        model = _model(name)
        worst_sym = worst_tri = worst_id = 0.0
        tol_used = 0.0
        for _ in range(AXIOM_TRIPLES):
            pts = [sample_point(name) for _ in range(3)]
            report = distance.metric_axiom_check(model, np.asarray(pts, dtype=float))
            worst_sym = max(worst_sym, report.max_asymmetry)
            worst_tri = max(worst_tri, report.max_triangle_violation)
            worst_id = max(worst_id, report.max_identity)
            tol_used = max(tol_used, report.axiom_tol)
            if not report.all_pass:
                all_ok = False
        stats[name] = {
            "max_asymmetry": worst_sym,
            "max_triangle_violation": worst_tri,
            "max_identity": worst_id,
            "axiom_tol": tol_used,
        }
    return CriterionResult(
        "metric-axioms: symmetry/triangle/identity on random triples",
        all_ok,
        stats,
    )


def check_sphere_oracle(seed=0) -> CriterionResult:
    """Simplex distances within 1% of the great-circle closed form."""
    rng = np.random.default_rng(seed + 5)
    cat = _model("categorical")
    worst = 0.0
    for _ in range(SPHERE_PAIRS):
        _, th1, th2 = _random_pair("categorical", rng)
        res = distance.fisher_distance(cat, th1, th2)
        # On the simplex the Bhattacharyya angle is the great circle.
        oracle = res.lower_bound_angle
        worst = max(worst, abs(res.length - oracle) / oracle)
    return CriterionResult(
        "sphere-oracle: simplex distances within 1% of the closed form",
        bool(worst <= 0.01),
        {"worst_rel_err": worst},
    )


def check_data_processing(seed=0) -> CriterionResult:
    """Metric never grows under kernels; permutations preserve it."""
    rng = np.random.default_rng(seed + 6)
    cat4 = _model("categorical:4")
    draws = ((_dpi_point(rng), rng.normal(size=3), int(rng.integers(2, 6))) for _ in range(DPI_KERNELS))
    min_gap = np.min(markov.random_kernel_gaps(cat4, draws, rng))

    thetas, vs, kernels = [], [], []
    for _ in range(DPI_PERMUTATIONS):
        thetas.append(_dpi_point(rng))
        vs.append(rng.normal(size=3))
        kernels.append(markov.permutation_kernel(cat4.space, rng.permutation(4)))
    worst_perm = float(np.max(np.abs(markov.monotonicity_gap(kernels, cat4, thetas, vs))))

    passed = min_gap >= -1e-9 and worst_perm <= 1e-10
    return CriterionResult(
        "data-processing: monotone under random kernels, equality under permutations",
        bool(passed),
        {"min_gap": float(min_gap), "max_abs_perm_gap": worst_perm},
    )


def _dpi_point(rng) -> list:
    """A categorical:4 point of the data-processing criterion, kept off the
    simplex faces: a Dirichlet(2) draw clipped to [0.05, 0.9] and scaled to
    mass 0.9 if it holds more than 0.94.

    Python floats do np.clip and np.sum's work: numpy sums three entries
    in order, so each point is bitwise the array formula's.
    """
    theta = [min(max(x, 0.05), 0.9) for x in rng.dirichlet([2.0] * 4)[:3].tolist()]
    total = theta[0] + theta[1] + theta[2]
    return [x * 0.9 / total for x in theta] if total > 0.94 else theta


def check_hausdorff_jeffrey(seed=0) -> CriterionResult:
    """Jeffrey measure matches the Hausdorff estimate; dimensions recover."""
    details = {}

    bern = _model("bernoulli")
    res_b = hausdorff.jeffrey_vs_hausdorff_check(bern, ([0.25], [0.75]))
    details["bernoulli"] = {k: res_b[k] for k in ("jeffrey", "hausdorff", "rel_err")}

    loc = _model("gauss-location")
    res_g = hausdorff.jeffrey_vs_hausdorff_check(loc, ([-1.0], [1.0]))
    details["gauss_location"] = {k: res_g[k] for k in ("jeffrey", "hausdorff", "rel_err")}

    params_1d = np.linspace(0.25, 0.75, 1201)[:, None]
    cloud_1d = hausdorff.cloud_from_params(bern, params_1d)
    dim_1d = hausdorff.hausdorff_dimension_estimate(cloud_1d)
    details["dimension_1d"] = dim_1d

    loc2 = _model("gauss-location-2d")
    dim_2d = hausdorff.flat_region_dimension_estimate(
        loc2, ([-1.0, -1.0], [1.0, 1.0]), seed=seed + 7
    )
    details["dimension_2d"] = dim_2d

    passed = (
        res_b["rel_err"] <= 0.05
        and res_g["rel_err"] <= 0.05
        and abs(dim_1d - 1.0) <= 0.15
        and abs(dim_2d - 2.0) <= 0.2
    )
    return CriterionResult(
        "hausdorff-jeffrey: measures agree within 5%, dimensions 1 and 2 recovered",
        bool(passed),
        details,
    )


def check_hausdorff_monotonicity(seed=0) -> CriterionResult:
    """Pushed-cloud Hausdorff estimates never exceed the original by >10%."""
    rng = np.random.default_rng(seed + 8)
    cat = _model("categorical")
    pts = np.clip(rng.dirichlet([2.0] * 3, size=48)[:, :2], 0.05, 0.9)
    pts = pts[np.sum(pts, axis=1) < 0.93]

    failures = 0
    ratios = []
    for _ in range(MONOTONICITY_KERNELS):
        kernel = markov.random_kernel(cat.space, int(rng.integers(2, 4)), rng)
        res = hausdorff.hausdorff_monotonicity_check(kernel, cat, pts)
        ratios.append(res["after"] / max(res["before"], 1e-300))
        if not res["holds"]:
            failures += 1

    perm = markov.permutation_kernel(cat.space, rng.permutation(3))
    res_p = hausdorff.hausdorff_monotonicity_check(perm, cat, pts)
    perm_dev = abs(res_p["after"] - res_p["before"]) / max(res_p["before"], 1e-300)

    passed = failures == 0 and perm_dev <= 1e-6
    return CriterionResult(
        "hausdorff-monotonicity: pushforward never inflates the estimate; permutations preserve it",
        bool(passed),
        {"failures": failures, "max_ratio": float(np.max(ratios)), "perm_rel_dev": perm_dev},
    )


def check_cramer_rao(seed=0) -> CriterionResult:
    """Gap PSD on the enumerated suite; efficiency equality for the mean."""
    bern = _model("bernoulli")
    cat = _model("categorical")
    min_eig = np.inf
    max_eff = 0.0
    max_vmse = 0.0

    for n in (1, 5, 10):
        prod_b = models.product_model(bern, n)
        phi_b = estimation.identity_chart(bern)
        mean_b = estimation.mean_estimator(bern, n)
        shrink_b = estimation.shrinkage_estimator(bern, n)
        for p in (0.3, 0.5, 0.7):
            res = estimation.cramer_rao_gap(prod_b, [p], phi_b, mean_b)
            min_eig = min(min_eig, res.min_eigenvalue)
            max_eff = max(max_eff, float(np.max(np.abs(res.gap.matrix))))
            res_s = estimation.cramer_rao_gap(prod_b, [p], phi_b, shrink_b)
            min_eig = min(min_eig, res_s.min_eigenvalue)
            max_vmse = max(max_vmse, res.mse_residual, res_s.mse_residual)

        prod_c = models.product_model(cat, n)
        phi_c = estimation.identity_chart(cat)
        mean_c = estimation.mean_estimator(cat, n)
        for th in ([0.3, 0.4], [0.2, 0.3]):
            res = estimation.cramer_rao_gap(prod_c, th, phi_c, mean_c)
            min_eig = min(min_eig, res.min_eigenvalue)
            max_eff = max(max_eff, float(np.max(np.abs(res.gap.matrix))))
            max_vmse = max(max_vmse, res.mse_residual)

    passed = min_eig >= -1e-7 and max_eff <= 1e-8 and max_vmse <= 1e-9
    return CriterionResult(
        "cramer-rao: gap PSD on the enumeration suite, mean estimator efficient",
        bool(passed),
        {"min_gap_eigenvalue": float(min_eig), "max_efficiency_dev": max_eff, "max_vmse_residual": max_vmse},
    )


def check_speed_jump(seed=0) -> CriterionResult:
    """Shrinking-bump family: one speed discontinuity at t=0, positive
    limit speed, vanishing velocity TV."""
    model = _model("friedrich")
    curve = models.CurveInModel(model, [[-0.3], [0.3]])

    inner = np.array([0.001, 0.002, 0.005, 0.01, 0.02, 0.05])
    outer = np.linspace(0.1, 0.3, 5)
    theta_grid = np.concatenate([-outer[::-1], -inner[::-1], [0.0], inner, outer])
    s_grid = (theta_grid + 0.3) / 0.6
    probe = fisher.two_integrability_probe(model, curve, s_grid)

    flagged = probe.flagged_t()
    mid = np.argmin(np.abs(s_grid - 0.5))
    limit_speed = min(probe.speed[mid - 1], probe.speed[mid + 1]) / 0.6

    tvs = []
    h = 1e-4
    for t in (-1e-3, 1e-3):
        dmu = (models.friedrich_measure(t + h) - models.friedrich_measure(t - h)) * (1 / (2 * h))
        tvs.append(tv_norm(dmu))
    max_tv = max(tvs)

    passed = (
        flagged.size == 1
        and abs(flagged[0] - 0.5) < 1e-12
        and limit_speed >= 0.1
        and max_tv <= 0.05
    )
    return CriterionResult(
        "speed-jump: exactly one flag at t=0, limit speed >= 0.1, velocity TV <= 0.05",
        bool(passed),
        {
            "flagged": flagged.tolist(),
            "limit_speed": float(limit_speed),
            "velocity_tv_at_1e-3": max_tv,
            "speed_at_zero": float(probe.speed[mid]),
        },
    )


def check_weak_demo(seed=0) -> CriterionResult:
    """Oscillatory curve: derivative exchanges with bounded integrals while
    the velocity keeps unit-scale TV norm."""
    rows, tvs = models.weak_oscillatory_exchange((0.3, 0.25, 0.15))
    worst_exchange = max(row[3] for row in rows)
    min_tv = min(tvs.values())

    passed = worst_exchange <= 1e-4 and min_tv >= 0.5
    return CriterionResult(
        "weak-demo: exchange identity within 1e-4, velocity TV stays >= 0.5",
        bool(passed),
        {"worst_exchange_dev": worst_exchange, "min_velocity_tv": float(min_tv)},
    )


CRITERIA = (
    ("fisher-oracles", check_fisher_oracles),
    ("singular-locus", check_singularity),
    ("tv-lower-bound", check_tv_lower_bound),
    ("metric-axioms", check_metric_axioms),
    ("sphere-oracle", check_sphere_oracle),
    ("data-processing", check_data_processing),
    ("hausdorff-jeffrey", check_hausdorff_jeffrey),
    ("hausdorff-monotonicity", check_hausdorff_monotonicity),
    ("cramer-rao", check_cramer_rao),
    ("speed-jump", check_speed_jump),
    ("weak-demo", check_weak_demo),
)


def run_all(seed=0, only=None):
    """Run every check (or those whose key contains ``only``)."""
    results = []
    for key, fn in CRITERIA:
        if only and only not in key:
            continue
        t0 = time.perf_counter()
        result = fn(seed=seed)
        result.seconds = time.perf_counter() - t0
        results.append(result)
    return results

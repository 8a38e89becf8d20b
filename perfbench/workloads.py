"""The benchmark's workloads: geodesic, cover and sweep.

Each workload is a closed loop with one client in one process. It draws a
round of operations from a generator seeded by ``--seed`` (all inputs of
a round are drawn before any of them runs, so the first N rounds of a
seed are the same however long the run lasts), runs the operations one
after another, and starts another round while one more fits in the
time. geodesic is the exception: its pairs are fixed and the seed only
orders them (see ``Geodesic``). Every
operation's output is checked, against a closed form where one exists
and against the README contract otherwise:

* ``ok``     the output passed its check;
* ``wrong``  the program returned a value that fails its check;
* ``failed`` the program raised, exited through ``SystemExit``, or broke
  the README's exit-code contract.

``wrong`` and ``failed`` operations both count as failed; the loop goes
on after either.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracles
from sigeo import cli, distance, fisher, hausdorff, markov, models
from sigeo.measures import QUAD_TOL

OK, WRONG, FAILED = "ok", "wrong", "failed"

# Tolerances the hausdorff-jeffrey, hausdorff-monotonicity and cramer-rao
# criteria of sigeo's verification suite apply to the same quantities.
JEFFREY_HAUSDORFF_TOL = 0.05
DIM_1D_TOL = 0.15
DIM_FLAT_TOL = 0.2
PERM_DEV_TOL = 1e-6
EFFICIENCY_TOL = 1e-8
MONO_TOL = 1e-9
CLOSED_FORM_REL_TOL = 1e-6


@dataclass
class Op:
    kind: str
    run: object  # () -> (status, info)


@dataclass
class OpRecord:
    kind: str
    request: str
    seconds: float
    status: str
    info: dict


@dataclass
class Run:
    records: list = field(default_factory=list)
    round_seconds: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.round_seconds)


def run_op(op: Op, request: str, tracer=None) -> OpRecord:
    if tracer is not None:
        tracer.request = request
    start = time.perf_counter()
    try:
        status, info = op.run()
    except (Exception, SystemExit) as exc:  # one failed request must not end the loop
        status = FAILED
        info = {"error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
    return OpRecord(op.kind, request, time.perf_counter() - start, status, info)


def run(workload, seed, seconds=None, rounds=None, tracer=None) -> Run:
    """Run whole rounds until ``rounds`` are done, or while one more round
    of average length still fits in ``seconds`` (at least one round)."""
    rng = np.random.default_rng(seed)
    out = Run()
    start = time.perf_counter()
    while rounds is None or out.rounds < rounds:
        if seconds is not None and out.rounds:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / out.rounds > seconds:
                break
        ops = workload.draw_round(rng, out.rounds)
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            out.records.append(run_op(op, f"{out.rounds}.{i}", tracer))
        out.round_seconds.append(time.perf_counter() - round_start)
    return out


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

CLI_ONLY_MODELS = ("categorical:4", "singular-curve", "friedrich", "weak-curve")


def build_models() -> dict:
    """Build every model the workloads use and warm sigeo's lazy caches."""
    zoo = {
        "bernoulli": models.bernoulli_family(),
        "categorical": models.categorical_family(3),
        "loc-scale": models.gaussian_location_scale_family(),
        "mixture": models.gaussian_mixture(),
        "gauss-location": models.gaussian_location_family(),
        "gauss-location-2d": models.gaussian_location2d_family(),
    }
    for key in CLI_ONLY_MODELS:
        zoo[key] = models.get_model(key)
    rng = np.random.default_rng(0)
    for model in zoo.values():
        theta = model.domain.sample(rng)
        fisher.directional_form(model, theta[None, :], np.ones((1, model.param_dim)))
        fisher.fisher_matrix(model, theta)
    return zoo


# ---------------------------------------------------------------------------
# geodesic: Fisher-Rao distances on the pairs of the tv-lower-bound criterion
# ---------------------------------------------------------------------------

FAMILIES = ("bernoulli", "categorical", "loc-scale", "mixture")
# check_tv_lower_bound at its default seed 0 draws 25 pairs per family, in
# the order of FAMILIES, from default_rng(0 + 3).
CRITERION_RNG_SEED = 3
CRITERION_PAIRS = 25
PAIRS_PER_FAMILY = 6


def random_pair(family, rng):
    """A pair drawn exactly as sigeo's ``acceptance._random_pair`` draws it."""
    if family == "bernoulli":
        pair = rng.uniform(0.05, 0.95, size=(2, 1))
    elif family == "categorical":
        pair = np.clip(rng.dirichlet([1.5] * 3, size=2)[:, :2], 0.03, 0.94)
        pair = pair[np.sum(pair, axis=1) < 0.97]
        while pair.shape[0] < 2:
            extra = np.clip(rng.dirichlet([1.5] * 3, size=1)[:, :2], 0.03, 0.94)
            if np.sum(extra) < 0.97:
                pair = np.vstack([pair, extra])
    elif family == "loc-scale":
        pair = np.column_stack([rng.uniform(-1.5, 1.5, 2), rng.uniform(0.6, 1.8, 2)])
    else:
        pair = np.column_stack([rng.uniform(0.1, 0.9, 2), rng.uniform(-3.0, 3.0, 2)])
    return pair[0], pair[1]


def criterion_pairs(per_family=PAIRS_PER_FAMILY):
    """The first ``per_family`` pairs of each family that the tv-lower-bound
    criterion runs at its default seed, as (family, a, b)."""
    rng = np.random.default_rng(CRITERION_RNG_SEED)
    out = []
    for family in FAMILIES:
        drawn = [random_pair(family, rng) for _ in range(CRITERION_PAIRS)]
        out += [(family, a, b) for a, b in drawn[:per_family]]
    return out


def oracle_distance(family, model, a, b):
    """Closed-form distance, or None where no closed form applies."""
    if family == "categorical":
        return oracles.categorical_distance(a, b)
    if family == "loc-scale" and oracles.loc_scale_geodesic_inside(a, b, model.domain.hi[1]):
        return oracles.loc_scale_distance(a, b)
    return None


def pair_op(family, model, a, b):
    res = distance.fisher_distance(model, a, b)
    info = {
        "family": family,
        "length": res.length,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    # Lengths are upper estimates: falling below TV or below the closed
    # form is a wrong answer, never good accuracy.
    ok = res.length >= res.lower_bound_tv - QUAD_TOL
    oracle = oracle_distance(family, model, a, b)
    if oracle is not None:
        info["rel_err"] = abs(res.length - oracle) / oracle
        ok = ok and res.length >= oracle - QUAD_TOL
    return (OK if ok else WRONG), info


class Geodesic:
    """Every round runs the same pairs; the seed only sets their order.

    A mixture pair costs from 0.02 s to 8.5 s (1 to 500 iterations), so
    pairs drawn afresh from each seed would make the time of a 30-second
    run depend on which few mixture pairs it drew, not on the program.
    Fixed pairs keep the iteration count inside the measured time.
    """

    name = "geodesic"

    def __init__(self, zoo, workdir=None):
        self.ops = [
            Op(family, functools.partial(pair_op, family, zoo[family], a, b))
            for family, a, b in criterion_pairs()
        ]

    def draw_round(self, rng, index):
        return [self.ops[i] for i in rng.permutation(len(self.ops))]


# ---------------------------------------------------------------------------
# cover: the Hausdorff-Jeffrey pipeline (never calls the path optimizer)
# ---------------------------------------------------------------------------

LOC2_SIDE = 12      # 144-point gauss-location-2d cloud, 10 296 pairs
MIXTURE_SIDE = 18   # 324-point mixture cloud, 52 326 pairs
CLOUD_1D_POINTS = 1201
MONOTONICITY_KERNELS = 20


def grid(lo, hi, side):
    axes = [np.linspace(l, h, side) for l, h in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


def segment_op(model, lo, hi, jeffrey_exact):
    res = hausdorff.jeffrey_vs_hausdorff_check(model, ([lo], [hi]))
    cloud = hausdorff.cloud_from_params(model, np.linspace(lo, hi, CLOUD_1D_POINTS)[:, None])
    dim = hausdorff.hausdorff_dimension_estimate(cloud)
    info = {
        "jeffrey": res["jeffrey"],
        "hausdorff": res["hausdorff"],
        "rel_err": res["rel_err"],
        "dimension": dim,
        "true_dimension": 1,
    }
    ok = (
        res["rel_err"] <= JEFFREY_HAUSDORFF_TOL
        and abs(dim - 1.0) <= DIM_1D_TOL
        and abs(res["jeffrey"] - jeffrey_exact) <= CLOSED_FORM_REL_TOL * jeffrey_exact
    )
    return (OK if ok else WRONG), info


def cloud_op(model, lo, hi, side):
    cloud = hausdorff.cloud_from_params(model, grid(lo, hi, side), mode="midpoint")
    diam = cloud.diameter()
    report = hausdorff.hausdorff_measure_estimate(
        cloud, 2.0, deltas=[diam / 2.0, diam / 4.0], enforce_density=False
    )
    dim = hausdorff.hausdorff_dimension_estimate(cloud)
    info = {
        "measure": report.estimate,
        "counts": report.counts.tolist(),
        "dimension": dim,
        "true_dimension": 2,
    }
    ok = math.isfinite(report.estimate) and report.estimate > 0 and math.isfinite(dim)
    return (OK if ok else WRONG), info


def flat_op(model, lo, hi, seed):
    dim = hausdorff.flat_region_dimension_estimate(model, (lo, hi), seed=seed)
    info = {"dimension": dim, "true_dimension": 2}
    return (OK if abs(dim - 2.0) <= DIM_FLAT_TOL else WRONG), info


def monotonicity_op(model, seed):
    rng = np.random.default_rng(seed)
    pts = np.clip(rng.dirichlet([2.0] * 3, size=48)[:, :2], 0.05, 0.9)
    pts = pts[np.sum(pts, axis=1) < 0.93]
    ratios = []
    holds = True
    for _ in range(MONOTONICITY_KERNELS):
        kernel = markov.random_kernel(model.space, int(rng.integers(2, 4)), rng)
        res = hausdorff.hausdorff_monotonicity_check(kernel, model, pts)
        ratios.append(res["after"] / max(res["before"], 1e-300))
        holds = holds and bool(res["holds"])
    perm = markov.permutation_kernel(model.space, rng.permutation(3))
    res = hausdorff.hausdorff_monotonicity_check(perm, model, pts)
    perm_dev = abs(res["after"] - res["before"]) / max(res["before"], 1e-300)
    info = {"max_ratio": max(ratios), "perm_rel_dev": perm_dev}
    return (OK if holds and perm_dev <= PERM_DEV_TOL else WRONG), info


def jeffrey_op(model, lo, hi):
    value = hausdorff.jeffrey_measure(model, (lo, hi))
    return (OK if math.isfinite(value) and value > 0 else WRONG), {"jeffrey": value}


class Cover:
    name = "cover"

    def __init__(self, zoo, workdir=None):
        self.zoo = zoo

    def draw_round(self, rng, index):
        z = self.zoo
        a = rng.uniform(0.1, 0.4)
        c = rng.uniform(-0.8, 0.8)
        loc2_lo = rng.uniform(-0.4, 0.4, 2) - 0.8
        mix_lo = np.array([rng.uniform(0.2, 0.4), rng.uniform(-0.6, -0.3)])
        mix_hi = np.array([mix_lo[0] + 0.4, rng.uniform(0.3, 0.6)])
        flat_lo = rng.uniform(-0.2, 0.2, 2) - 1.0
        flat_seed = int(rng.integers(2**31))
        mono_seed = int(rng.integers(2**31))
        jeff_lo = np.array([rng.uniform(0.1, 0.3), rng.uniform(-2.0, 0.0)])
        bern_exact = 2.0 * (math.asin(math.sqrt(a + 0.5)) - math.asin(math.sqrt(a)))
        return [
            Op("segment-bernoulli", functools.partial(segment_op, z["bernoulli"], a, a + 0.5, bern_exact)),
            Op("segment-gauss-location", functools.partial(segment_op, z["gauss-location"], c - 1.0, c + 1.0, 2.0)),
            Op("cloud-gauss-location-2d", functools.partial(cloud_op, z["gauss-location-2d"], loc2_lo, loc2_lo + 1.6, LOC2_SIDE)),
            Op("cloud-mixture", functools.partial(cloud_op, z["mixture"], mix_lo, mix_hi, MIXTURE_SIDE)),
            Op("flat-dimension", functools.partial(flat_op, z["gauss-location-2d"], flat_lo, flat_lo + 2.0, flat_seed)),
            Op("monotonicity", functools.partial(monotonicity_op, z["categorical"], mono_seed)),
            Op("jeffrey-mixture", functools.partial(jeffrey_op, z["mixture"], jeff_lo, jeff_lo + [0.6, 2.0])),
        ]


# ---------------------------------------------------------------------------
# sweep: many cheap CLI requests, a fixed share of them malformed
# ---------------------------------------------------------------------------

def num(x) -> str:
    return repr(float(x))


def csv(xs) -> str:
    return ",".join(num(x) for x in xs)


def timeless(payload):
    """A summary without its "seconds" entries, the only part that varies between runs."""
    if isinstance(payload, dict):
        return {k: timeless(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [timeless(v) for v in payload]
    return payload


def summary_check(value_ok, codes=(0,)):
    """Exit code within ``codes`` and one JSON summary on stdout, then ``value_ok``."""

    def check(code, out, err):
        info = {"code": code, "stdout": out}
        if code not in codes:
            # Exit 2 on a well-posed request means the property check
            # reported a violation: a wrong value, not a broken contract.
            return (WRONG if code == 2 else FAILED), info
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return FAILED, info
        info["stdout"] = timeless(payload)
        return (OK if value_ok(code, payload) else WRONG), info

    return check


def usage_error_check(code, out, err):
    """README: usage and config errors exit 1 with a message and no traceback."""
    ok = code == 1 and out == "" and err.strip() != "" and "Traceback" not in err
    return (OK if ok else FAILED), {"code": code, "stdout": out, "stderr": err}


def close(a, b, rel=CLOSED_FORM_REL_TOL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300))


def matrix_is(expected):
    return summary_check(lambda c, s: close(s["matrix"], expected))


def psd_matrix(code, p) -> bool:
    G = np.asarray(p["matrix"], float)
    eigs = np.asarray(p["eigenvalues"], float)
    scale = max(float(np.max(eigs, initial=0.0)), 1.0)
    return bool(np.all(np.isfinite(G)) and np.allclose(G, G.T) and np.min(eigs) >= -1e-9 * scale)


def categorical_point(rng, m=3):
    theta = np.clip(rng.dirichlet([2.0] * m)[: m - 1], 0.05, 0.9)
    if np.sum(theta) > 0.94:
        theta = theta * 0.9 / np.sum(theta)
    return theta


def cli_op(argv, check):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--no-timestamp"])
    return check(code, out.getvalue(), err.getvalue())


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class Sweep:
    name = "sweep"

    def __init__(self, zoo, workdir):
        self.workdir = workdir
        self.ragged = str(workdir / "kernel-ragged.json")
        self.bad_config = str(workdir / "config-bad-draws.json")
        write_json(self.ragged, {"rows": [[0.5, 0.5], [1.0], [0.2, 0.8]]})
        write_json(self.bad_config, {"draws": "many"})

    def draw_round(self, rng, index):
        """25 requests: 16 cheap (~5 ms), 5 middling, 4 slow (~250 ms).

        The cheap share keeps the median inside the cheap requests and the
        slow share (1 in 6) keeps p90 inside the slow ones, so neither
        percentile sits on the edge between two kinds of request.
        """
        ops = []

        def add(kind, argv, check):
            ops.append(Op(kind, functools.partial(cli_op, argv, check)))

        def fisher_request(model, theta, check):
            add(f"fisher-{model}", ["fisher-matrix", "--model", model, f"--theta={csv(theta)}"], check)

        for _ in range(2):
            p = rng.uniform(0.05, 0.95)
            fisher_request("bernoulli", [p], matrix_is([[1.0 / (p * (1.0 - p))]]))
            th = categorical_point(rng)
            p3 = 1.0 - th[0] - th[1]
            fisher_request("categorical:3", th, matrix_is([[1 / th[0] + 1 / p3, 1 / p3], [1 / p3, 1 / th[1] + 1 / p3]]))
        fisher_request("gauss-location", [rng.uniform(-1.5, 1.5)], matrix_is([[1.0]]))
        fisher_request("gauss-location-2d", rng.uniform(-1.0, 1.0, 2), matrix_is(np.eye(2)))
        sigma = rng.uniform(0.6, 1.8)
        fisher_request("gauss-loc-scale", [rng.uniform(-1.5, 1.5), sigma], matrix_is(np.diag([1.0, 2.0]) / sigma**2))
        fisher_request("mixture", [rng.uniform(0.05, 0.95), rng.uniform(-3.0, 3.0)], summary_check(psd_matrix))
        for key in ("singular-curve", "friedrich", "weak-curve"):
            fisher_request(key, [rng.uniform(-0.9, 0.9)], summary_check(psd_matrix))

        # Pushforward through a random kernel: the target density is p @ rows.
        th = categorical_point(rng)
        rows = rng.dirichlet(np.ones(int(rng.integers(2, 5))), size=3)
        kernel = self.workdir / "kernel-random.json"
        write_json(kernel, {"rows": rows.tolist()})
        target = np.append(th, 1.0 - np.sum(th)) @ rows
        add("pushforward", ["pushforward", "--model", "categorical:3", f"--theta={csv(th)}", "--kernel", str(kernel)],
            summary_check(lambda c, s: close(s["target_density"], target, 1e-12)
                          and abs(s["total_mass"] - 1.0) <= 1e-9
                          and s["tv_after"] <= s["tv_before"] + 1e-12))

        add("weak-demo", ["weak-demo", "--t", csv(rng.uniform(0.15, 0.3, 2))],
            summary_check(lambda c, s: s["worst_exchange_dev"] <= 1e-4
                          and min(s["velocity_tv"].values()) >= 0.5))

        efficient = summary_check(lambda c, s: float(np.max(np.abs(s["gap_matrix"]))) <= EFFICIENCY_TOL)
        add("cramer-rao-bernoulli", ["cramer-rao", "--model", "bernoulli", f"--theta={num(rng.uniform(0.1, 0.9))}",
                                     "--n", str(int(rng.integers(1, 11)))], efficient)
        # Monte Carlo gaps are noisy, so exit 2 is within the contract;
        # ``holds`` must agree with the exit code.
        add("cramer-rao-mc", ["cramer-rao", "--model", "bernoulli", f"--theta={num(rng.uniform(0.1, 0.9))}",
                              "--n", str(int(rng.integers(1, 11))), "--draws", "2000",
                              "--seed", str(int(rng.integers(10**6)))],
            summary_check(lambda c, s: s["holds"] == (c == 0), codes=(0, 2)))

        malformed = (
            ["fisher-matrix", "--model", "categorical:x", "--theta", "0.3,0.3"],
            ["fisher-matrix", "--model", "bernoulli", "--theta", "abc"],
            ["hausdorff", "--model", "bernoulli", "--region", "0.3:0.3"],
            ["pushforward", "--model", "categorical:3", "--theta", "0.3,0.3", "--kernel", self.ragged],
            ["dpi-sweep", "--model", "categorical:3", "--config", self.bad_config],
        )
        add("malformed", malformed[index % len(malformed)], usage_error_check)

        # A permutation kernel is sufficient, so every metric gap is ~0.
        perm_file = self.workdir / "kernel-permutation.json"
        write_json(perm_file, {"rows": np.eye(3)[rng.permutation(3)].tolist()})
        add("sufficiency", ["sufficiency", "--model", "categorical:3", "--kernel", str(perm_file),
                            "--seed", str(int(rng.integers(10**6)))],
            summary_check(lambda c, s: s["sufficient_consistent"] is True and s["max_abs_gap"] <= 1e-7))

        add("cramer-rao-categorical", ["cramer-rao", "--model", "categorical:3",
                                       f"--theta={csv(categorical_point(rng))}",
                                       "--n", str(int(rng.integers(1, 11)))], efficient)

        lo, hi = rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)
        bern_j = 2.0 * (math.asin(math.sqrt(hi)) - math.asin(math.sqrt(lo)))
        add("jeffrey-bernoulli", ["jeffrey", "--model", "bernoulli", f"--region={num(lo)}:{num(hi)}"],
            summary_check(lambda c, s: close(s["jeffrey"], bern_j)))
        c0, w = rng.uniform(-0.8, 0.8), rng.uniform(0.3, 1.0)
        add("jeffrey-gauss-location", ["jeffrey", "--model", "gauss-location", f"--region={num(c0 - w)}:{num(c0 + w)}"],
            summary_check(lambda c, s: close(s["jeffrey"], 2.0 * w)))

        seed = str(int(rng.integers(10**6)))
        passed = summary_check(lambda c, s: s["all_passed"] is True and len(s["criteria"]) == 1)
        for only in ("speed-jump", "cramer-rao", "data-processing"):
            add(f"verify-{only}", ["verify-all", "--only", only, "--seed", seed], passed)

        no_violation = summary_check(lambda c, s: s["min_gap"] >= -MONO_TOL)
        for model in ("categorical:3", "categorical:4"):
            add("dpi-sweep", ["dpi-sweep", "--model", model, "--draws", "500",
                              "--seed", str(int(rng.integers(10**6)))], no_violation)
        return ops


WORKLOADS = {"geodesic": Geodesic, "cover": Cover, "sweep": Sweep}

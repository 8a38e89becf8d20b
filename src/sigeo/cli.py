"""Batch front door: subcommand dispatch, JSON/CSV emission, verify suite.

Every run writes a JSON summary to stdout (and optionally a file); table
artifacts are whitespace-delimited with a header row so they feed straight
into gnuplot. Identical config and seed produce byte-identical summaries
when timestamps are suppressed. Exit codes: 0 success, 1 usage or I/O
error, 2 a property check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import acceptance, distance, estimation, fisher, hausdorff, markov, models
from .errors import ConfigError, SigeoError
from .measures import tv_norm

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_PROPERTY = 2


# ---------------------------------------------------------------------------
# Config handling: flat JSON file plus flag overrides (flags win)
# ---------------------------------------------------------------------------

def _load_config_file(path, allowed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r}")
    return raw


def _merge_config(args, parser, argv):
    """File values fill in defaults; explicit flags win."""
    allowed = {a.dest for a in parser._actions if a.dest not in ("help", "config")}
    merged = {k: v for k, v in vars(args).items() if k not in ("config", "func", "command")}
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config, allowed)
        explicit = _explicit_flags(parser, argv)
        for key, value in file_vals.items():
            if key not in explicit:
                merged[key] = value
    return merged


def _explicit_flags(parser, argv):
    # argparse does not track which flags were given; compare to the argv used
    given = set()
    for action in parser._actions:
        for opt in action.option_strings:
            if opt in argv:
                given.add(action.dest)
    return given


def _seed_from(options):
    seed = options.get("seed")
    if seed is None:
        seed = int(os.environ.get("SIGEO_SEED", "0"))
    return int(seed)


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _emit_summary(payload, options):
    if not options.get("no_timestamp"):
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    print(text)
    out = options.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not serializable: {type(value)}")


def _write_table(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")


def _parse_csv_floats(options, key):
    text = options[key]
    try:
        return np.array([float(s) for s in str(text).split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{key!r} needs comma-separated numbers, got {text!r}") from exc


def _parse_region(text, dim):
    parts = text.split(",")
    if len(parts) != dim:
        raise ConfigError(f"region needs {dim} lo:hi ranges, got {len(parts)}")
    lo, hi = [], []
    for part in parts:
        try:
            a, b = part.split(":")
        except ValueError as exc:
            raise ConfigError(f"bad region component {part!r}") from exc
        lo.append(float(a))
        hi.append(float(b))
    return np.array(lo), np.array(hi)


def _load_kernel(path, source_space):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read kernel file: {exc}") from exc
    if not isinstance(raw, dict) or "rows" not in raw:
        raise ConfigError("kernel file needs a JSON object with key 'rows'")
    try:
        rows = np.asarray(raw["rows"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kernel 'rows' must be a rectangular array of numbers: {exc}") from exc
    if rows.ndim != 2:
        raise ConfigError(f"kernel 'rows' must be a list of rows, got shape {rows.shape}")
    from .measures import finite_space

    return markov.MarkovKernel(source_space, finite_space(rows.shape[1]), rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fisher_matrix(options):
    model = models.get_model(options["model"], panels=options.get("grid"))
    theta = _parse_csv_floats(options, "theta")
    G = fisher.fisher_matrix(model, theta)
    _emit_summary(
        {
            "command": "fisher-matrix",
            "model": options["model"],
            "theta": theta,
            "matrix": G.matrix,
            "eigenvalues": G.eigenvalues,
            "rank": G.rank,
            "capped_mass": G.capped_mass,
        },
        options,
    )
    return _EXIT_OK


def _cmd_distance(options):
    model = models.get_model(options["model"])
    th1 = _parse_csv_floats(options, "from_theta")
    th2 = _parse_csv_floats(options, "to_theta")
    opts = distance.DistanceOptions(interior_nodes=int(options.get("nodes", 8)))
    res = distance.fisher_distance(model, th1, th2, opts)
    _emit_summary(
        {
            "command": "distance",
            "model": options["model"],
            "from": th1,
            "to": th2,
            "length": res.length,
            "lower_bound_tv": res.lower_bound_tv,
            "iterations": res.iterations,
            "converged": res.converged,
            "degenerate_segments": list(res.degenerate_segments),
        },
        options,
    )
    emit_curve = options.get("emit_curve")
    if emit_curve:
        rows = []
        curve = models.CurveInModel(model, res.nodes)
        for s in np.linspace(0.0, 1.0, 65):
            theta = curve.point_at(s)
            v = (curve.point_at(min(1.0, s + 1e-5)) - curve.point_at(max(0.0, s - 1e-5))) / (
                min(1.0, s + 1e-5) - max(0.0, s - 1e-5)
            )
            speed = float(
                np.sqrt(max(fisher.directional_form(model, theta[None, :], v[None, :])[0], 0.0))
            )
            rows.append([s, *theta, speed])
        _write_table(emit_curve, ["t"] + [f"theta{i}" for i in range(model.param_dim)] + ["speed"], rows)
    return _EXIT_OK


def _cmd_tv_check(options):
    model = models.get_model(options["model"])
    res = distance.tv_bound_check(
        model, _parse_csv_floats(options, "from_theta"), _parse_csv_floats(options, "to_theta")
    )
    _emit_summary(
        {
            "command": "tv-check",
            "model": options["model"],
            "distance_estimate": res.distance_estimate,
            "tv": res.tv,
            "holds": res.holds,
            "converged": res.converged,
            "iterations": res.iterations,
        },
        options,
    )
    return _EXIT_OK if res.holds else _EXIT_PROPERTY


def _cmd_metric_axioms(options):
    model = models.get_model(options["model"])
    seed = _seed_from(options)
    rng = np.random.default_rng(seed)
    pts = [model.domain.sample(rng) for _ in range(int(options.get("points", 3)))]
    report = distance.metric_axiom_check(model, np.asarray(pts))
    _emit_summary(
        {
            "command": "metric-axioms",
            "model": options["model"],
            "seed": seed,
            "points": np.asarray(pts),
            "axiom_tol": report.axiom_tol,
            "max_identity": report.max_identity,
            "max_asymmetry": report.max_asymmetry,
            "max_triangle_violation": report.max_triangle_violation,
            "all_pass": report.all_pass,
        },
        options,
    )
    return _EXIT_OK if report.all_pass else _EXIT_PROPERTY


def _cmd_pushforward(options):
    model = models.get_model(options["model"])
    theta = _parse_csv_floats(options, "theta")
    kernel = _load_kernel(options["kernel"], model.space)
    mu = model.measure(theta)
    pushed = markov.pushforward_measure(kernel, mu)
    _emit_summary(
        {
            "command": "pushforward",
            "model": options["model"],
            "theta": theta,
            "target_density": pushed.density,
            "total_mass": pushed.total_mass(),
            "tv_before": tv_norm(mu),
            "tv_after": tv_norm(pushed),
        },
        options,
    )
    return _EXIT_OK


def _cmd_dpi_sweep(options):
    model = models.get_model(options["model"])
    seed = _seed_from(options)
    rng = np.random.default_rng(seed)
    draws = int(options.get("draws", 200))
    gaps = []
    for _ in range(draws):
        theta = model.domain.sample(rng)
        v = rng.normal(size=model.param_dim)
        kernel = markov.random_kernel(model.space, int(rng.integers(2, model.space.size + 2)), rng)
        gaps.append(markov.monotonicity_gap(kernel, model, theta, v))
    gaps = np.asarray(gaps)
    ok = bool(np.min(gaps) >= -markov.MONO_TOL)
    _emit_summary(
        {
            "command": "dpi-sweep",
            "model": options["model"],
            "seed": seed,
            "draws": draws,
            "min_gap": float(np.min(gaps)),
            "mean_gap": float(np.mean(gaps)),
            "holds": ok,
        },
        options,
    )
    emit = options.get("emit")
    if emit:
        _write_table(emit, ["draw", "gap"], [[i, g] for i, g in enumerate(gaps)])
    return _EXIT_OK if ok else _EXIT_PROPERTY


def _cmd_sufficiency(options):
    model = models.get_model(options["model"])
    seed = _seed_from(options)
    rng = np.random.default_rng(seed)
    kernel = _load_kernel(options["kernel"], model.space)
    samples = int(options.get("samples", 20))
    thetas = np.asarray([model.domain.sample(rng) for _ in range(samples)])
    vs = rng.normal(size=thetas.shape)
    res = markov.sufficiency_check(kernel, model, thetas, vs)
    _emit_summary(
        {
            "command": "sufficiency",
            "model": options["model"],
            "seed": seed,
            "samples": samples,
            "max_abs_gap": res["max_abs_gap"],
            "sufficient_consistent": res["sufficient_consistent"],
        },
        options,
    )
    return _EXIT_OK


def _cmd_hausdorff(options):
    model = models.get_model(options["model"])
    lo, hi = _parse_region(options["region"], model.param_dim)
    k_opt = options.get("k")
    k = float(k_opt) if k_opt is not None else float(model.param_dim)
    cloud = hausdorff.region_cloud(model, lo, hi, int(options.get("points", 801)))
    deltas = hausdorff.halving_schedule(cloud, int(options.get("schedule", 6)), 4.0)
    report = hausdorff.hausdorff_measure_estimate(cloud, k, deltas)
    try:
        dim = hausdorff.hausdorff_dimension_estimate(cloud)
    except SigeoError:
        dim = float("nan")
    _emit_summary(
        {
            "command": "hausdorff",
            "model": options["model"],
            "k": k,
            "estimate": report.estimate,
            "stable": report.stable,
            "dimension_estimate": dim,
            "deltas": report.deltas,
            "covering_numbers": report.counts,
        },
        options,
    )
    emit = options.get("emit")
    if emit:
        _write_table(
            emit,
            ["delta", "covering_number", "premeasure"],
            [[d, c, p] for d, c, p in zip(report.deltas, report.counts, report.premeasures)],
        )
    return _EXIT_OK


def _cmd_jeffrey(options):
    model = models.get_model(options["model"])
    lo, hi = _parse_region(options["region"], model.param_dim)
    payload = {"command": "jeffrey", "model": options["model"]}
    if options.get("check_hausdorff"):
        res = hausdorff.jeffrey_vs_hausdorff_check(model, (lo, hi))
        payload.update(
            {"jeffrey": res["jeffrey"], "hausdorff": res["hausdorff"], "rel_err": res["rel_err"]}
        )
    else:
        payload["jeffrey"] = hausdorff.jeffrey_measure(model, (lo, hi))
    _emit_summary(payload, options)
    return _EXIT_OK


def _cmd_cramer_rao(options):
    base = models.get_model(options["model"])
    n = int(options.get("n", 1))
    theta = _parse_csv_floats(options, "theta")
    seed = _seed_from(options)
    sampling = estimation.Sampling()
    if options.get("draws"):
        sampling = estimation.Sampling("mc", int(options["draws"]), seed)
    prod = models.product_model(base, n)
    sigma = estimation.get_estimator(base, n, options.get("estimator", "mean"))
    phi = estimation.identity_chart(base)
    res = estimation.cramer_rao_gap(prod, theta, phi, sigma, sampling)
    _emit_summary(
        {
            "command": "cramer-rao",
            "model": options["model"],
            "estimator": sigma.name,
            "n": n,
            "theta": theta,
            "seed": seed,
            "gap_matrix": res.gap.matrix,
            "gap_eigenvalues": np.linalg.eigvalsh(res.gap.matrix),
            "min_eigenvalue": res.min_eigenvalue,
            "holds": res.holds,
            "variance": res.variance.matrix,
            "inverse_fisher": res.inverse_fisher.matrix,
        },
        options,
    )
    return _EXIT_OK if res.holds else _EXIT_PROPERTY


def _cmd_weak_demo(options):
    ts = _parse_csv_floats(options, "t")
    rows, tvs = models.weak_oscillatory_exchange(ts)
    _emit_summary(
        {
            "command": "weak-demo",
            "t_values": ts,
            "worst_exchange_dev": max(row[3] for row in rows),
            "velocity_tv": tvs,
        },
        options,
    )
    emit = options.get("emit")
    if emit:
        _write_table(emit, ["t", "ddt_integral", "velocity_integral", "abs_dev"], rows)
    return _EXIT_OK


def _cmd_verify_all(options):
    seed = _seed_from(options)
    results = acceptance.run_all(seed=seed, only=options.get("only"))
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "command": "verify-all",
        "seed": seed,
        "criteria": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3), "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit_summary(payload, options)
    return _EXIT_OK if payload["all_passed"] else _EXIT_PROPERTY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="flat JSON config file; flags win over file values")
    sp.add_argument("--seed", type=int, default=None, help="seed (fallback: SIGEO_SEED env)")
    sp.add_argument("--out", default="", help="also write the JSON summary here")
    sp.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigeo",
        description="Fisher geometry on singular statistical models: metrics, "
        "distances, Hausdorff-Jeffrey measures, kernel monotonicity, and "
        "estimator gap checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fisher-matrix", help="Fisher matrix, eigenvalues, rank at a point")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", required=True, help="comma-separated parameter point")
    sp.add_argument("--grid", type=int, default=None, help="quadrature panel override")
    _add_common(sp)
    sp.set_defaults(func=_cmd_fisher_matrix)

    sp = sub.add_parser("distance", help="optimized Fisher distance between two points")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", dest="from_theta", required=True)
    sp.add_argument("--to", dest="to_theta", required=True)
    sp.add_argument("--nodes", type=int, default=8)
    sp.add_argument("--emit-curve", dest="emit_curve", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("tv-check", help="distance >= total variation lower bound")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", dest="from_theta", required=True)
    sp.add_argument("--to", dest="to_theta", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_tv_check)

    sp = sub.add_parser("metric-axioms", help="symmetry/triangle/identity on sampled points")
    sp.add_argument("--model", required=True)
    sp.add_argument("--points", type=int, default=3)
    _add_common(sp)
    sp.set_defaults(func=_cmd_metric_axioms)

    sp = sub.add_parser("pushforward", help="push a model measure through a kernel")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--kernel", required=True, help="JSON file with key 'rows'")
    _add_common(sp)
    sp.set_defaults(func=_cmd_pushforward)

    sp = sub.add_parser("dpi-sweep", help="monotonicity gaps over random kernels")
    sp.add_argument("--model", required=True)
    sp.add_argument("--draws", type=int, default=200)
    sp.add_argument("--emit", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_dpi_sweep)

    sp = sub.add_parser("sufficiency", help="metric-equality consequence of sufficiency")
    sp.add_argument("--model", required=True)
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--samples", type=int, default=20)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sufficiency)

    sp = sub.add_parser("hausdorff", help="covering report and dimension estimate on a region")
    sp.add_argument("--model", required=True)
    sp.add_argument("--region", required=True, help="lo:hi per parameter, comma separated")
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--schedule", type=int, default=6)
    sp.add_argument("--points", type=int, default=801)
    sp.add_argument("--emit", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_hausdorff)

    sp = sub.add_parser("jeffrey", help="Jeffrey measure of a region")
    sp.add_argument("--model", required=True)
    sp.add_argument("--region", required=True)
    sp.add_argument("--check-hausdorff", action="store_true", dest="check_hausdorff")
    _add_common(sp)
    sp.set_defaults(func=_cmd_jeffrey)

    sp = sub.add_parser("cramer-rao", help="variance vs inverse-Fisher gap for an estimator")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--estimator", default="mean")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--draws", type=int, default=0, help="Monte Carlo draws (0 = exact)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_cramer_rao)

    sp = sub.add_parser("weak-demo", help="derivative-exchange and TV contrast of the oscillatory curve")
    sp.add_argument("--t", default="0.3,0.25,0.15")
    sp.add_argument("--emit", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_weak_demo)

    sp = sub.add_parser("verify-all", help="run the full verification suite")
    sp.add_argument("--only", default="", help="run only criteria whose key contains this")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    used_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(used_argv)
        sub = next(
            p for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            for name, p in a.choices.items() if name == args.command
        )
        options = _merge_config(args, sub, used_argv)
        code = args.func(options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SigeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

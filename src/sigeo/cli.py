"""Batch front door: subcommand dispatch, JSON/CSV emission, verify suite.

Every run writes a JSON summary to stdout (and optionally a file); table
artifacts are whitespace-delimited with a header row so they feed straight
into gnuplot. Identical config and seed produce byte-identical summaries
when timestamps are suppressed. Exit codes: 0 success, 1 usage or I/O
error, 2 a property check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import acceptance, distance, estimation, fisher, hausdorff, markov, models
from .errors import ConfigError, SigeoError, UsageError
from .measures import tv_norm

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_PROPERTY = 2


# ---------------------------------------------------------------------------
# Config handling: a flat JSON file read as flags ahead of the command line
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argparse errors become usage errors (exit 1), not a SystemExit(2)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# Finds --config ahead of the full parse. Built once: parsing leaves it unchanged.
_CONFIG_PARSER = _Parser(prog="sigeo", add_help=False)
_CONFIG_PARSER.add_argument("--config")


def _config_argv(path):
    """Flag tokens for a flat JSON config: {"draws": 7} -> --draws=7.

    ``true`` becomes the bare switch and ``false`` is dropped. The ``=``
    form keeps values such as ``-1:1`` from parsing as flags.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    tokens = []
    for key, value in raw.items():
        if value is True:
            tokens.append(f"--{key}")
        elif value is not False:
            tokens.append(f"--{key}={value}")
    return tokens


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

def _emit_summary(payload, args):
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


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


def _csv_floats(text):
    """Argparse type: a comma-separated parameter point."""
    try:
        return np.array([float(s) for s in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"needs comma-separated numbers, got {text!r}") from exc


def _int_at_least(minimum):
    """Argparse type: an integer no smaller than ``minimum``."""

    def count(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"needs an integer >= {minimum}, got {text!r}")
        return value

    return count


def _mc_draws(text):
    """Argparse type: Monte Carlo draws as ``estimation.Sampling`` takes them."""
    try:
        return estimation.Sampling(_int_at_least(0)(text)).draws
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_region(text, dim):
    parts = text.split(",")
    if len(parts) != dim:
        raise ConfigError(f"region needs {dim} lo:hi ranges, got {len(parts)}")
    lo, hi = [], []
    for part in parts:
        try:
            a, b = (float(v) for v in part.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad region component {part!r}") from exc
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ConfigError(f"region bounds must be finite, got {part!r}")
        if a > b:
            raise ConfigError(f"region component {part!r} needs lo <= hi")
        lo.append(a)
        hi.append(b)
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
# Subcommands: each returns (summary payload, exit code); tables are written
# before returning, so a failed write leaves stdout empty
# ---------------------------------------------------------------------------

def _cmd_fisher_matrix(args):
    model = models.get_model(args.model, panels=args.grid)
    G = fisher.fisher_matrix(model, args.theta)
    return {
        "theta": args.theta,
        "matrix": G.matrix,
        "eigenvalues": G.eigenvalues,
        "rank": G.rank,
        "capped_mass": G.capped_mass,
    }, _EXIT_OK


def _cmd_distance(args):
    model = models.get_model(args.model)
    res = distance.fisher_distance(model, args.from_theta, args.to_theta, args.nodes)
    if args.emit_curve:
        curve = models.CurveInModel(model, res.nodes)
        ts = np.linspace(0.0, 1.0, 65)
        thetas = np.array([curve.point_at(t) for t in ts])
        speeds = fisher.two_integrability_probe(model, curve, ts).speed
        rows = np.column_stack([ts, thetas, speeds])
        _write_table(args.emit_curve, ["t"] + [f"theta{i}" for i in range(model.param_dim)] + ["speed"], rows)
    return {
        "from": args.from_theta,
        "to": args.to_theta,
        "length": res.length,
        "lower_bound_tv": res.lower_bound_tv,
        "lower_bound_angle": res.lower_bound_angle,
        "iterations": res.iterations,
        "converged": res.converged,
        "warm_start": res.warm_start,
        "graph_length": res.graph_length,
        "degenerate_segments": list(res.degenerate_segments),
    }, _EXIT_OK


def _cmd_tv_check(args):
    model = models.get_model(args.model)
    res = distance.fisher_distance(model, args.from_theta, args.to_theta)
    return {
        "distance_estimate": res.length,
        "tv": res.lower_bound_tv,
        "angle": res.lower_bound_angle,
        "holds": res.tv_holds,
        "converged": res.converged,
        "iterations": res.iterations,
        "warm_start": res.warm_start,
        "graph_length": res.graph_length,
    }, _EXIT_OK if res.tv_holds else _EXIT_PROPERTY


def _cmd_metric_axioms(args):
    model = models.get_model(args.model)
    rng = np.random.default_rng(args.seed)
    pts = [model.domain.sample(rng) for _ in range(args.points)]
    report = distance.metric_axiom_check(model, np.asarray(pts))
    return {
        "seed": args.seed,
        "points": np.asarray(pts),
        "axiom_tol": report.axiom_tol,
        "max_identity": report.max_identity,
        "max_asymmetry": report.max_asymmetry,
        "max_triangle_violation": report.max_triangle_violation,
        "all_pass": report.all_pass,
    }, _EXIT_OK if report.all_pass else _EXIT_PROPERTY


def _cmd_pushforward(args):
    model = models.get_model(args.model)
    kernel = _load_kernel(args.kernel, model.space)
    mu = model.measure(args.theta)
    pushed = markov.pushforward_measure(kernel, mu)
    return {
        "theta": args.theta,
        "target_density": pushed.density,
        "total_mass": pushed.total_mass(),
        "tv_before": tv_norm(mu),
        "tv_after": tv_norm(pushed),
    }, _EXIT_OK


def _cmd_dpi_sweep(args):
    model = models.get_model(args.model)
    rng = np.random.default_rng(args.seed)
    draws = (
        (model.domain.sample(rng), rng.normal(size=model.param_dim), int(rng.integers(2, model.space.size + 2)))
        for _ in range(args.draws)
    )
    gaps = markov.random_kernel_gaps(model, draws, rng)
    ok = bool(np.min(gaps) >= -markov.MONO_TOL)
    if args.emit:
        _write_table(args.emit, ["draw", "gap"], [[i, g] for i, g in enumerate(gaps)])
    return {
        "seed": args.seed,
        "draws": args.draws,
        "min_gap": float(np.min(gaps)),
        "mean_gap": float(np.mean(gaps)),
        "holds": ok,
    }, _EXIT_OK if ok else _EXIT_PROPERTY


def _cmd_sufficiency(args):
    model = models.get_model(args.model)
    rng = np.random.default_rng(args.seed)
    kernel = _load_kernel(args.kernel, model.space)
    thetas = np.asarray([model.domain.sample(rng) for _ in range(args.samples)])
    vs = rng.normal(size=thetas.shape)
    res = markov.sufficiency_check(kernel, model, thetas, vs)
    return {
        "seed": args.seed,
        "samples": args.samples,
        "max_abs_gap": res["max_abs_gap"],
        "sufficient_consistent": res["sufficient_consistent"],
    }, _EXIT_OK


def _cmd_hausdorff(args):
    model = models.get_model(args.model)
    lo, hi = _parse_region(args.region, model.param_dim)
    if np.any(lo == hi):
        raise ConfigError(f"region {args.region!r} is empty; hausdorff needs lo < hi in every component")
    k = args.k if args.k is not None else float(model.param_dim)
    cloud = hausdorff.region_cloud(model, lo, hi, args.points)
    deltas = hausdorff.halving_schedule(cloud, args.schedule, 4.0)
    report = hausdorff.hausdorff_measure_estimate(cloud, k, deltas)
    try:
        dim = hausdorff.hausdorff_dimension_estimate(cloud)
    except SigeoError:
        dim = float("nan")
    if args.emit:
        _write_table(
            args.emit,
            ["delta", "covering_number", "premeasure"],
            [[d, c, p] for d, c, p in zip(report.deltas, report.counts, report.premeasures)],
        )
    return {
        "k": k,
        "estimate": report.estimate,
        "stable": report.stable,
        "dimension_estimate": dim,
        "deltas": report.deltas,
        "covering_numbers": report.counts,
    }, _EXIT_OK


def _cmd_jeffrey(args):
    model = models.get_model(args.model)
    lo, hi = _parse_region(args.region, model.param_dim)
    if args.check_hausdorff:
        res = hausdorff.jeffrey_vs_hausdorff_check(model, (lo, hi))
        payload = {"jeffrey": res["jeffrey"], "hausdorff": res["hausdorff"], "rel_err": res["rel_err"]}
    else:
        payload = {"jeffrey": hausdorff.jeffrey_measure(model, (lo, hi))}
    return payload, _EXIT_OK


def _cmd_cramer_rao(args):
    base = models.get_model(args.model)
    sampling = estimation.Sampling(args.draws, args.seed)
    prod = models.product_model(base, args.n)
    sigma = estimation.get_estimator(base, args.n, args.estimator)
    phi = estimation.identity_chart(base)
    res = estimation.cramer_rao_gap(prod, args.theta, phi, sigma, sampling)
    return {
        "estimator": sigma.name,
        "n": args.n,
        "theta": args.theta,
        "seed": args.seed,
        "gap_matrix": res.gap.matrix,
        "gap_eigenvalues": np.linalg.eigvalsh(res.gap.matrix),
        "min_eigenvalue": res.min_eigenvalue,
        "holds": res.holds,
        "noise_allowance": res.noise_allowance,
        "variance": res.variance.matrix,
        "inverse_fisher": res.inverse_fisher.matrix,
    }, _EXIT_OK if res.holds else _EXIT_PROPERTY


def _cmd_weak_demo(args):
    rows, tvs = models.weak_oscillatory_exchange(args.t)
    if args.emit:
        _write_table(args.emit, ["t", "ddt_integral", "velocity_integral", "abs_dev"], rows)
    return {
        "t_values": args.t,
        "worst_exchange_dev": max(row[3] for row in rows),
        "velocity_tv": tvs,
    }, _EXIT_OK


def _cmd_verify_all(args):
    results = acceptance.run_all(seed=args.seed, only=args.only)
    for r in results:
        print(r.line(), file=sys.stderr)
    passed = all(r.passed for r in results)
    return {
        "seed": args.seed,
        "criteria": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3), "details": r.details}
            for r in results
        ],
        "all_passed": passed,
    }, _EXIT_OK if passed else _EXIT_PROPERTY


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` fills an
    unset ``--seed`` from SIGEO_SEED at parse time."""
    parser = _Parser(
        prog="sigeo",
        description="Fisher geometry on singular statistical models: metrics, "
        "distances, Hausdorff-Jeffrey measures, kernel monotonicity, and "
        "estimator gap checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fisher-matrix", help="Fisher matrix, eigenvalues, rank at a point")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", type=_csv_floats, required=True, help="comma-separated parameter point")
    sp.add_argument("--grid", type=_int_at_least(1), default=None, help="quadrature panel override")
    sp.set_defaults(func=_cmd_fisher_matrix)

    sp = sub.add_parser("distance", help="optimized Fisher distance between two points")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", dest="from_theta", type=_csv_floats, required=True)
    sp.add_argument("--to", dest="to_theta", type=_csv_floats, required=True)
    sp.add_argument("--nodes", type=_int_at_least(0), default=8)
    sp.add_argument("--emit-curve", default="")
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("tv-check", help="distance >= total variation lower bound")
    sp.add_argument("--model", required=True)
    sp.add_argument("--from", dest="from_theta", type=_csv_floats, required=True)
    sp.add_argument("--to", dest="to_theta", type=_csv_floats, required=True)
    sp.set_defaults(func=_cmd_tv_check)

    sp = sub.add_parser("metric-axioms", help="symmetry/triangle/identity on sampled points")
    sp.add_argument("--model", required=True)
    sp.add_argument("--points", type=int, default=3)
    sp.set_defaults(func=_cmd_metric_axioms)

    sp = sub.add_parser("pushforward", help="push a model measure through a kernel")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", type=_csv_floats, required=True)
    sp.add_argument("--kernel", required=True, help="JSON file with key 'rows'")
    sp.set_defaults(func=_cmd_pushforward)

    sp = sub.add_parser("dpi-sweep", help="monotonicity gaps over random kernels")
    sp.add_argument("--model", required=True)
    sp.add_argument("--draws", type=_int_at_least(1), default=200)
    sp.add_argument("--emit", default="")
    sp.set_defaults(func=_cmd_dpi_sweep)

    sp = sub.add_parser("sufficiency", help="metric-equality consequence of sufficiency")
    sp.add_argument("--model", required=True)
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--samples", type=_int_at_least(1), default=20)
    sp.set_defaults(func=_cmd_sufficiency)

    sp = sub.add_parser("hausdorff", help="covering report and dimension estimate on a region")
    sp.add_argument("--model", required=True)
    sp.add_argument("--region", required=True, help="lo:hi per parameter, comma separated")
    sp.add_argument("--k", type=float, default=None)
    sp.add_argument("--schedule", type=_int_at_least(1), default=6)
    sp.add_argument("--points", type=_int_at_least(1), default=801)
    sp.add_argument("--emit", default="")
    sp.set_defaults(func=_cmd_hausdorff)

    sp = sub.add_parser("jeffrey", help="Jeffrey measure of a region")
    sp.add_argument("--model", required=True)
    sp.add_argument("--region", required=True)
    sp.add_argument("--check-hausdorff", action="store_true")
    sp.set_defaults(func=_cmd_jeffrey)

    sp = sub.add_parser("cramer-rao", help="variance vs inverse-Fisher gap for an estimator")
    sp.add_argument("--model", required=True)
    sp.add_argument("--theta", type=_csv_floats, required=True)
    sp.add_argument("--estimator", default="mean")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--draws", type=_mc_draws, default=0, help="Monte Carlo draws (0 = exact, else >= 2)")
    sp.set_defaults(func=_cmd_cramer_rao)

    sp = sub.add_parser("weak-demo", help="derivative-exchange and TV contrast of the oscillatory curve")
    sp.add_argument("--t", type=_csv_floats, default="0.3,0.25,0.15")
    sp.add_argument("--emit", default="")
    sp.set_defaults(func=_cmd_weak_demo)

    sp = sub.add_parser("verify-all", help="run the full verification suite")
    sp.add_argument("--only", default="", help="run only criteria whose key contains this")
    sp.set_defaults(func=_cmd_verify_all)

    # Flags every subcommand takes.
    for sp in sub.choices.values():
        sp.add_argument("--config", help="flat JSON config file; flags win over file values")
        sp.add_argument("--seed", type=_int_at_least(0), default=None, help="seed (default: SIGEO_SEED env, else 0)")
        sp.add_argument("--out", default="", help="also write the JSON summary here")
        sp.add_argument("--no-timestamp", action="store_true")
    return parser


def _env_seed():
    try:
        return _int_at_least(0)(os.environ.get("SIGEO_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"sigeo: argument --seed (from SIGEO_SEED): {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # Config values go in right after the subcommand name, so explicit
        # flags, which follow them, win by argparse's last-wins rule.
        config = _CONFIG_PARSER.parse_known_args(argv)[0].config
        if config:
            argv[1:1] = _config_argv(config)
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _env_seed()
        payload, code = args.func(args)
        payload["command"] = args.command
        if "model" in vars(args):
            payload["model"] = args.model
        _emit_summary(payload, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (SigeoError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

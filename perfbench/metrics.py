"""Metrics of a benchmark run: end to end (untraced) and per layer (traced).

End-to-end metrics describe one operation of the workload:

* geodesic: one ``fisher_distance`` call, so optimizer iterations are
  part of the time.
* cover: one stage of the Hausdorff-Jeffrey pipeline.
* sweep: one CLI request.

Only whole rounds are measured, so every run holds the same mix of
operations.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

import numpy as np

import tracing
import workloads
from workloads import OK, WRONG

REGULAR_FAMILIES = ("bernoulli", "categorical", "loc-scale")


def end_to_end(run) -> dict:
    ms = [r.seconds * 1e3 for r in run.records]
    return {
        "op_ms.p50": float(np.percentile(ms, 50)),
        "op_ms.p90": float(np.percentile(ms, 90)),
        "ops_per_s": 1e3 * len(ms) / sum(ms),
    }


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def workload_figures(workload, run) -> dict:
    """The workload's own figures, 0 where a figure belongs to another workload."""
    recs = run.records
    out = {
        "geodesic.wall_s": 0.0, "geodesic.mixture_s": 0.0, "geodesic.regular_s": 0.0,
        "geodesic.unconverged_frac": 0.0, "geodesic.failed_frac": 0.0, "geodesic.max_rel_err": 0.0,
        "cover.wall_s": 0.0, "cover.max_rel_err": 0.0, "cover.max_dim_err": 0.0,
        "sweep.request_s.p50": 0.0, "sweep.request_s.p90": 0.0, "sweep.requests_per_s": 0.0,
        "sweep.failed_frac": 0.0,
    }
    out[f"{workload}.failed_frac"] = _frac(sum(r.status != OK for r in recs), len(recs))
    errs = [r.info["rel_err"] for r in recs if "rel_err" in r.info]
    if workload == "geodesic":
        mixture = [r.seconds for r in recs if r.kind == "mixture"]
        out["geodesic.wall_s"] = statistics.fmean(run.round_seconds)
        out["geodesic.mixture_s"] = statistics.fmean(mixture)
        out["geodesic.regular_s"] = sum(r.seconds for r in recs if r.kind in REGULAR_FAMILIES) / run.rounds
        out["geodesic.unconverged_frac"] = _frac(sum(r.info.get("converged") is False for r in recs), len(recs))
        out["geodesic.max_rel_err"] = max(errs, default=0.0)
    elif workload == "cover":
        out["cover.wall_s"] = statistics.median(run.round_seconds)
        out["cover.max_rel_err"] = max(errs, default=0.0)
        out["cover.max_dim_err"] = max(
            (abs(r.info["dimension"] - r.info["true_dimension"]) for r in recs if "dimension" in r.info),
            default=0.0,
        )
    else:
        seconds = [r.seconds for r in recs]
        out["sweep.request_s.p50"] = float(np.percentile(seconds, 50))
        out["sweep.request_s.p90"] = float(np.percentile(seconds, 90))
        out["sweep.requests_per_s"] = len(seconds) / sum(seconds)
    return out


def layer_values(tracer) -> dict:
    counts, self_s = tracer.counts, tracer.self_seconds()
    spans = [f"{m}.{f}" for m, f, _ in tracing.ENTRY_POINTS]
    out = {}
    for name in spans:
        out[name + ".calls"] = counts[name + ".calls"]
        out[name + ".self_s"] = self_s[name]
    for key in (
        "models.density_calls", "models.jacobian_calls", "models.rows", "models.node_evals",
        "fisher.directional_form.rows", "distance.iterations", "distance.iterations_max",
        "distance.unconverged", "hausdorff.cloud_pairs", "hausdorff.cover_sets",
        "hausdorff.jeffrey_points", "estimation.outcomes",
    ):
        out[key] = counts[key]
    out["models.self_s"] = self_s["models.density_batch"] + self_s["models.jacobian_batch"]
    out["models.ns_per_node_eval"] = _frac(out["models.self_s"] * 1e9, counts["models.node_evals"])
    out["fisher.directional_form.rows_per_call"] = _frac(
        counts["fisher.directional_form.rows"], counts["fisher.directional_form.calls"]
    )
    out["distance.form_calls_per_iteration"] = _frac(counts["distance.form_calls"], counts["distance.iterations"])
    out["markov.self_s"] = sum(v for k, v in self_s.items() if k.startswith("markov."))
    out["cli.self_s"] = self_s["cli.main"]
    return out


def traced(workload, seed, seconds, path, env):
    """Half the time untraced, then the same rounds traced; per-layer values."""
    plain = workloads.run(workload, seed, seconds=seconds / 2.0)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        spanned = workloads.run(workload, seed, rounds=plain.rounds, tracer=tracer)
    tracer.write(path, header=env)
    values = layer_values(tracer)
    values["trace.overhead_frac"] = sum(spanned.round_seconds) / sum(plain.round_seconds) - 1.0
    values.update(workload_figures(workload.name, plain))
    return values, [plain, spanned]


def _outputs(run):
    return [json.dumps([r.kind, r.status, r.info], sort_keys=True, default=str) for r in run.records]


def all_correct(runs) -> bool:
    """No wrong value anywhere, and repeated rounds gave identical outputs."""
    if any(r.status == WRONG for run in runs for r in run.records):
        return False
    return all(_outputs(run) == _outputs(runs[0]) for run in runs[1:])


def summary(workload, run) -> str:
    failures = Counter(r.kind for r in run.records if r.status != OK)
    first = {}
    for r in run.records:
        if r.status != OK:
            first.setdefault(r.kind, r.info.get("error") or f"{r.status}: {r.info}")
    lines = [f"{workload}: {run.rounds} rounds, {len(run.records)} operations, {sum(failures.values())} failed"]
    lines += [f"  {kind}: {n} failed, e.g. {first[kind][:200]}" for kind, n in sorted(failures.items())]
    if workload == "geodesic":
        unconverged = sum(r.info.get("converged") is False for r in run.records)
        lines.append(f"  unconverged pairs: {unconverged} of {len(run.records)}")
    return "\n".join(lines)

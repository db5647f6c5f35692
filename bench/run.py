#!/usr/bin/env python3
"""Seeded benchmark for diamond-forests.

    python3 bench/run.py --workload affine-exponent --seed 1 --seconds 20 --trace 0

runs one workload (affine-exponent, mc-oracle, cli-cold or forest-build) as
a closed loop with one client, checks every output against its oracle after
the request's timer stops, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run (see README.md next to this file).  The line before it
is a report that is never gated: machine, versions, source size, sample
counts, failure causes and, for a traced run, the tracing overhead.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("forest-build", "affine-exponent", "mc-oracle", "cli-cold")
# Fresh processes that repeat the set-up; setup_s is the median of these
# and the benchmark's own set-up.
SETUP_PROBES = 2
# Requests of the traced phase that are run a second time to prove the
# exact counts repeat.
REPLAYED = 2
# A run stops mid-round once its measuring has taken this long, so that a
# stalled machine still lets it finish well inside three minutes.
MAX_MEASURE_S = 90.0
LAYERS = ("algebra", "expansions", "affine", "mc", "models", "verification", "cli")
# Counts whose repetition the traced run proves.
SELF_CHECKED = (
    "algebra.terms_out",
    "affine.tree_value.calls",
    "affine.kernel_convolve.calls",
    "affine.solve_riccati.grid_points",
    "mc.simulate.path_steps",
)

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> unit; "busy"/"self"/counts are means per traced request
PER_LAYER: Dict[str, str] = {
    "algebra.forest_diamond.calls": "count",
    "algebra.forest_diamond.self_s": "s",
    "algebra.forest_linear.self_s": "s",
    "algebra.forest_regrade.self_s": "s",
    "algebra.terms_out": "count",
    "algebra.coeff_max_bits": "bits",
    "algebra.poly_evaluate.calls": "count",
    "expansions.k_expansion.busy_s": "s",
    "expansions.g_expansion.busy_s": "s",
    "expansions.spx_g_expansion.busy_s": "s",
    "expansions.reorder.busy_s": "s",
    "expansions.specialize.busy_s": "s",
    "expansions.self_s": "s",
    "affine.solve_riccati.busy_s": "s",
    "affine.solve_riccati.grid_points": "count",
    "affine.riccati_residual.busy_s": "s",
    "affine.mgf_value.busy_s": "s",
    "affine.spx_expansion_value.busy_s": "s",
    "affine.tree_value.calls": "count",
    "affine.kernel_convolve.calls": "count",
    "affine.kernel_convolve.self_s": "s",
    **{f"mc.simulate.{m}.busy_s": "s" for m in (
        "BMdrift", "LevyArea", "Heston", "StoppedBM", "BESQ", "Chaos2")},
    "mc.simulate.path_steps": "count",
    "mc.simulate.path_steps_per_s": "1/s",
    "mc.simulate.cpu_per_wall": "ratio",
    "mc.simulate.workers": "count",
    "mc.nonfinite": "count",
    "mc.empirical_cumulants.busy_s": "s",
    "mc.empirical_cumulants.bootstrap_busy_s": "s",
    "mc.empirical_mgf.busy_s": "s",
    "models.chaos2.chaos2_cumulants.busy_s": "s",
    "models.chaos2.eigenvalue_cumulants.busy_s": "s",
    "models.levy.busy_s": "s",
    "models.bessel.busy_s": "s",
    "models.signature.busy_s": "s",
    "models.brownian.busy_s": "s",
    **{f"verification.{s}.busy_s": "s" for s in (
        "reorder", "levy", "cameron-martin", "bessel", "chaos2", "heston-riccati", "mc-cross")},
    "cli.run.busy_s": "s",
    "cli.render.busy_s": "s",
    "cli.output_bytes": "bytes",
    "cli.exit_nonzero": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"layer.{name}.self_s": "s" for name in LAYERS + ("startup",)},
    "trace.requests_per_s": "1/s",
    "trace.untraced_requests_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "workload.repeat_share": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# the closed loop


def measure(wl, ctx, seed: int, seconds: float, tracer=None, cap: float = MAX_MEASURE_S) -> dict:
    """Run whole rounds until ``seconds`` of wall time have passed (or ``cap``)."""
    from workloads import CheckFailed

    records: List[dict] = []
    counts: List[Dict[str, float]] = []
    seen = set()
    repeats = 0
    rounds = 0
    start = time.perf_counter()
    for batch in wl.rounds(seed):
        rounds += 1
        for request in batch:
            key = json.dumps(request, sort_keys=True)
            repeats += key in seen
            seen.add(key)
            if tracer is not None:
                tracer.request_id = len(records)
            latency, output, error, delta = run_request(wl, ctx, request, tracer)
            if error is None:
                try:
                    wl.check(request, output, ctx)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception as exc:  # a malformed output fails the request
                    error = f"check raised {type(exc).__name__}: {exc}"
            records.append({"latency": latency, "error": error, "request": request})
            counts.append(delta)
            if time.perf_counter() - start >= cap:
                break
        if time.perf_counter() - start >= min(seconds, cap):
            break
    return {
        "records": records,
        "counts": counts,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "repeat_share": repeats / len(records),
    }


def run_request(wl, ctx, request, tracer=None):
    """Time one request; with a tracer, also return the exact counts it added."""
    before = dict(tracer.exact_counts()) if tracer is not None else {}
    if tracer is not None:
        tracer.enabled = True
    error = None
    output = None
    t0 = time.perf_counter()
    try:
        output = wl.execute(request, ctx)
    except Exception as exc:  # a raising request is recorded, never dropped
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None and error is None and hasattr(wl, "split"):
        try:
            wl.split(request)
        except Exception as exc:
            error = f"in-process split raised {type(exc).__name__}: {exc}"
    if tracer is None:
        return latency, output, error, {}
    tracer.enabled = False
    after = tracer.exact_counts()
    delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
    return latency, output, error, delta


# ---------------------------------------------------------------------------
# metrics


def throughput(records: List[dict]) -> float:
    """Requests checked correct per second of measured request time."""
    ok = sum(1 for r in records if r["error"] is None)
    return ok / sum(r["latency"] for r in records)


def end_to_end(run: dict, setup_samples: List[float], peak_rss_mib: float) -> Dict[str, float]:
    records = run["records"]
    latencies = [r["latency"] for r in records]
    quartiles = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
    ok = sum(1 for r in records if r["error"] is None)
    return {
        "requests_per_s": throughput(records),
        "latency_p50_s": quartiles[1],
        "latency_p75_s": quartiles[2],
        "ok_share": ok / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": peak_rss_mib,
    }


def startup_times(runs: int = 3) -> Dict[str, float]:
    """Bare interpreter start and cold ``import diamond_forests.cli``, medians."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, imports = [], []
    code = (
        "import time; t = time.perf_counter(); import diamond_forests.cli; "
        "print(time.perf_counter() - t)"
    )
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
            capture_output=True, text=True,
        )
        imports.append(float(out.stdout))
    return {"cli.interpreter_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def per_layer(tracer, traced: dict, untraced: dict, startup: Dict[str, float], cold_cli: bool):
    n = len(traced["records"])
    values: Dict[str, float] = {}
    for key in PER_LAYER:
        if key.endswith(".busy_s"):
            values[key] = tracer.busy.get(key[: -len(".busy_s")], 0.0) / n
        elif key.endswith(".self_s") and not key.startswith("layer."):
            values[key] = tracer.self_time.get(key[: -len(".self_s")], 0.0) / n
        else:
            values[key] = tracer.counts.get(key, 0.0) / n
    values["expansions.self_s"] = sum(
        v for k, v in tracer.self_time.items() if k.startswith("expansions.")) / n
    values["mc.empirical_cumulants.bootstrap_busy_s"] = tracer.counts.get(
        "mc.empirical_cumulants.bootstrap_busy_s", 0.0) / n
    sim_wall = sum(v for k, v in tracer.busy.items() if k.startswith("mc.simulate."))
    sim_cpu = sum(tracer.cpu.values())
    values["mc.simulate.path_steps_per_s"] = (
        tracer.counts.get("mc.simulate.path_steps", 0.0) / sim_wall if sim_wall else 0.0)
    values["mc.simulate.cpu_per_wall"] = sim_cpu / sim_wall if sim_wall else 0.0
    values["mc.simulate.workers"] = tracer.maxima.get("mc.simulate.workers", 0.0)
    values["algebra.coeff_max_bits"] = tracer.maxima.get("algebra.coeff_max_bits", 0.0)
    values.update(startup)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            v for k, v in tracer.self_time.items() if k.split(".")[0] == layer) / n
    values["layer.startup.self_s"] = (
        startup["cli.interpreter_s"] + startup["cli.import_s"] if cold_cli else 0.0)
    m = min(n, len(untraced["records"]))
    values["trace.requests_per_s"] = throughput(traced["records"])
    values["trace.untraced_requests_per_s"] = throughput(untraced["records"])
    values["trace.overhead_ratio"] = sum(r["latency"] for r in traced["records"][:m]) / sum(
        r["latency"] for r in untraced["records"][:m])
    values["workload.repeat_share"] = traced["repeat_share"]
    return values


def self_check(wl, ctx, tracer, traced: dict) -> List[str]:
    """Replay the first traced requests; every exact count must repeat."""
    problems = []
    for i, record in enumerate(traced["records"][:REPLAYED]):
        _, _, error, delta = run_request(wl, ctx, record["request"], tracer)
        if error is not None:
            problems.append(f"replay of request {i} failed: {error}")
        for key in SELF_CHECKED:
            first, again = traced["counts"][i].get(key, 0), delta.get(key, 0)
            if first != again:
                problems.append(f"request {i}: {key} was {first}, replay gave {again}")
    return problems


# ---------------------------------------------------------------------------
# provenance


def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_threads_env": os.environ.get("DIAMOND_FORESTS_THREADS"),
    }


def setup_probe(args) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    return json.loads(out.stdout)["setup_s"]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diamond_forests", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, ROOT)
    ctx = wl.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    cold_cli = args.workload == "cli-cold"
    if args.trace == 0:
        setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        run = measure(wl, ctx, args.seed, args.seconds)
        peak = wl.peak_rss_mib if cold_cli else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = end_to_end(run, setup_samples, peak)
        units = END_TO_END
        problems: List[str] = []
        records = run["records"]
        report["setup_samples_s"] = setup_samples
    else:
        from tracing import Tracer

        untraced = measure(wl, ctx, args.seed, args.seconds / 2, cap=MAX_MEASURE_S / 2)
        tracer = Tracer()
        tracer.install(workloads)
        try:
            run = measure(wl, ctx, args.seed, args.seconds / 2, tracer, MAX_MEASURE_S / 2)
            problems = self_check(wl, ctx, tracer, run)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, run, untraced, startup_times(), cold_cli)
        units = PER_LAYER
        records = untraced["records"] + run["records"]
        layers = {k[len("layer."):-len(".self_s")]: v for k, v in metrics.items()
                  if k.startswith("layer.")}
        report["dominant_layer"] = max(layers, key=layers.get)
        report["tracing_overhead"] = metrics["trace.overhead_ratio"]
        report["self_check"] = problems or "exact counts repeated"
        report["spans"] = len(tracer.spans)
    failures = [{"request": r["request"], "cause": r["error"]} for r in records if r["error"]]
    report.update(
        rounds=run["rounds"],
        latency_samples=len(run["records"]),
        measured_wall_s=run["wall_s"],
        repeat_share=run["repeat_share"],
        failures=failures,
        **provenance(),
    )
    if cold_cli:
        report["known_defects"] = wl.probe_known_defects()
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

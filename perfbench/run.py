"""Pipeline benchmark for kurtdeconv: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload audio_ar2 [--seed N] [--seconds S] [--trace 0|1]

Each run is one closed loop in one process: executions of the workload's
pipeline run back to back, each starting after the previous one ends, until
--seconds have passed (the last one may run past it). Every execution checks
its own output. --trace 0 times whole executions, each scaled to a nominal
host speed by a fixed reference loop timed just before and after it, and
prints the end-to-end metrics; --trace 1 runs the pipeline with one span
around each call into a package module and prints the per-layer metrics. The last stdout line is the
result; the line before it holds run metadata and the ungated raw figures.
perfbench/README.md lists the metrics.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# One process generates all load, so the BLAS/OpenMP pools are pinned to one
# thread before numpy is imported.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "kurtdeconv" / "__init__.py").is_file():
    sys.exit(f"perfbench: kurtdeconv sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import kurtdeconv as kd
import workloads as wl

#: Fresh interpreters started per run to measure setup_s; the median is reported.
SETUP_REPEATS = 3
SETUP_SNIPPET = (
    "import kurtdeconv as kd\n"
    "x = kd.make_source(kd.SourceSpec(kind='laplace', seed=0, length=64))\n"
    "kd.run_adapt(x, kd.AdaptConfig(taps=3, warmup=16))\n"
)
TRACE_DIR = Path(__file__).resolve().parent / "traces"
#: Seconds reference_work takes at the nominal speed of the host the baseline
#: was measured on (2 vCPUs, Python 3.11, numpy 2.4); wall_s and setup_s are
#: scaled to it.
REF_NOMINAL_S = 0.3

#: Span name -> per-layer metric holding its median self time.
STAGE_METRICS = {
    "experiment.make_source": "experiment.source_s",
    "degrade.apply_degradation": "degrade.s",
    "whitening.highpass_whiten": "whitening.s",
    "adapt1d.run_adapt": "adapt1d.s",
    "adapt1d.kurtosis_surface": "adapt1d.surface_s",
    "adapt2d.run_adapt2d": "adapt2d.s",
    "signals.restore": "signals.restore_s",
    "metrics.score": "metrics.score_s",
}


def reference_work() -> None:
    """Fixed work that calls no kurtdeconv code, shaped like the pipeline: an
    interpreted per-sample loop over small numpy arrays, then vectorized passes
    over a large one."""
    h = np.zeros(8)
    x = np.linspace(0.0, 1.0, 8)
    for _ in range(80_000):
        y = float(h @ x)
        h += 1e-9 * y * x
    v = np.linspace(1.0, 2.0, 100_000)
    for _ in range(320):
        np.sqrt(v, out=v)
        v *= 1.5


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale_to_nominal(times, refs) -> list[float]:
    """Scale each time by the host's speed around it: refs[i] and refs[i + 1]
    are the reference timings just before and just after times[i]."""
    return [t * REF_NOMINAL_S / ((before + after) / 2) for t, before, after in zip(times, refs, refs[1:])]


def launch_setup() -> float:
    """Seconds for a fresh interpreter to import kurtdeconv and adapt once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], env=env)
    # Popen.wait polls every 50 ms when given a timeout, which would round the
    # time, so a timer kills a stuck child instead.
    killer = threading.Timer(120, proc.kill)
    killer.start()
    returncode = proc.wait()
    seconds = time.perf_counter() - t0
    killer.cancel()
    if returncode:
        raise subprocess.CalledProcessError(returncode, proc.args)
    return seconds


def measure_setup() -> tuple[float, list[float]]:
    """Median setup seconds at nominal host speed, and the raw launch times."""
    refs = [time_reference()]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(launch_setup())
        refs.append(time_reference())
    return statistics.median(scale_to_nominal(raw, refs)), raw


def attempt(w: wl.Workload, cfg, run_once):
    """Time one execution; return (seconds, outcome or None, failure text or None).

    Only run_once is timed; the correctness check runs after the clock stops.
    """
    t0 = time.perf_counter()
    try:
        outcome = run_once()
    except Exception as exc:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return seconds, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    problems = w.check(cfg, outcome)
    if problems:
        print(f"{w.name}: check failed: {'; '.join(problems)}", file=sys.stderr)
    return seconds, outcome, "; ".join(problems) or None


def closed_loop(seconds: float, run_once) -> list:
    """Start executions back to back until `seconds` have passed (at least one)."""
    results = []
    t_start = time.perf_counter()
    while not results or time.perf_counter() - t_start < seconds:
        results.append(run_once())
    return results


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def median_or(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def untraced_metrics(w, cfg, seconds, surface_input):
    # On a shared 2-vCPU VM the host's speed drifts by up to 40% over tens of
    # seconds, in interpreter loops as much as in numpy. Each setup launch and
    # each execution is therefore timed between two runs of reference_work and
    # scaled to the nominal speed by their mean; raw seconds print as ungated.
    setup_s, setup_raw = measure_setup()
    refs = [time_reference()]

    def run_once():
        run = attempt(w, cfg, lambda: wl.execute(w, cfg, surface_input))
        refs.append(time_reference())
        return run

    runs = closed_loop(seconds, run_once)
    scaled = scale_to_nominal([t for t, _, _ in runs], refs)
    outcomes = [out for _, out, _ in runs if out is not None]
    failed = sum(failure is not None for _, _, failure in runs)
    err = median_or([o.param_err_max for o in outcomes], None)
    metrics = {
        "wall_s": metric(statistics.median(scaled), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        # 1 - param_err_max: near 1, so its run-to-run spread is small next
        # to its median; a bound b lets the error grow by about b.
        "param_acc": metric(1.0 - err if err is not None else 0.0, "ratio"),
        "rho_restored": metric(median_or([o.rho_restored for o in outcomes]), "ratio"),
        "ok_frac": metric((len(runs) - failed) / len(runs), "fraction"),
    }
    ungated = {
        "param_err_max": {"value": err, "unit": "coef"},
        "failed_frac": metric(failed / len(runs), "fraction"),
        "failures": sorted({failure for _, _, failure in runs if failure is not None}),
        "wall_raw_s": metric(statistics.median(t for t, _, _ in runs), "s"),
        "execution_s": [t for t, _, _ in runs],
        "reference_s": refs,
        "setup_raw_s": setup_raw,
    }
    return runs, failed, metrics, ungated


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def traced_metrics(w, cfg, seconds, surface_input):
    """Alternate untraced and traced executions; the pairs give the tracing overhead."""
    tracer = wl.Tracer()

    def run_pair():
        plain = attempt(w, cfg, lambda: wl.execute(w, cfg, surface_input))
        tracer.execution += 1
        t, outcome, failure = attempt(w, cfg, lambda: wl.execute_traced(w, cfg, tracer))
        # Faithfulness, outside the timed region: the traced composition must
        # compute exactly what the untraced execution computes.
        if outcome is not None and (
            plain[1] is None
            or not np.array_equal(outcome.estimate, plain[1].estimate)
            or outcome.surface_argmax != plain[1].surface_argmax
        ):
            failure = "; ".join(filter(None, [failure, "traced outcome differs from the untraced execution"]))
            print(f"{w.name}: {failure}", file=sys.stderr)
        return plain, (t, outcome, failure)

    pairs = closed_loop(seconds, run_pair)
    runs = [run for pair in pairs for run in pair]
    failed = sum(failure is not None for _, _, failure in runs)
    own = self_times(tracer.spans)
    per_exec = {}  # execution -> {span name: self seconds}; "pipeline" holds the root's full duration
    for s in tracer.spans:
        per_exec.setdefault(s.execution, {})[s.name] = own[s.id] if s.parent is not None else s.end - s.start

    def stage_s(name):
        return median_or([e.get(name, 0.0) for e in per_exec.values()])

    def share(name):
        return median_or([e.get(name, 0.0) / e["pipeline"] for e in per_exec.values()])

    n_samples = wl.samples(cfg)
    n_updates = wl.updates(cfg)
    flops = n_updates * (4 * wl.regressor_taps(cfg) + wl.FLOPS_PER_UPDATE_FIXED)
    metrics = {name: metric(stage_s(span), "s") for span, name in STAGE_METRICS.items()}
    for layer, span in (("adapt1d", "adapt1d.run_adapt"), ("adapt2d", "adapt2d.run_adapt2d")):
        used = (layer == "adapt2d") == wl.is_image(cfg)
        layer_s = metrics[f"{layer}.s"]["value"]
        metrics[f"{layer}.updates"] = metric(n_updates if used else 0, "count")
        metrics[f"{layer}.ns_per_update"] = metric(layer_s / n_updates * 1e9 if used else 0.0, "ns")
        metrics[f"{layer}.share"] = metric(share(span), "fraction")
        metrics[f"{layer}.gflop_per_s"] = metric(flops / layer_s / 1e9 if used and layer_s else 0.0, "Gflop/s-computed")
    surface_s = metrics["adapt1d.surface_s"]["value"]
    cell_samples = wl.SURFACE_GRID.size ** 2 * n_samples
    metrics["adapt1d.surface_share"] = metric(share("adapt1d.kurtosis_surface"), "fraction")
    metrics["adapt1d.surface_ns_per_cell_sample"] = metric(surface_s / cell_samples * 1e9 if w.surface else 0.0, "ns")
    metrics["degrade.ns_per_sample"] = metric(metrics["degrade.s"]["value"] / n_samples * 1e9, "ns")
    metrics["trace.overhead_s"] = metric(statistics.median(traced[0] - plain[0] for plain, traced in pairs), "s")
    metrics["trace.coverage"] = metric(
        median_or([1.0 - own[s.id] / (s.end - s.start) for s in tracer.spans if s.parent is None]), "fraction"
    )
    ungated = {
        "failures": sorted({failure for _, _, failure in runs if failure is not None}),
        "untraced_s": [plain[0] for plain, _ in pairs],
        "traced_s": [traced[0] for _, traced in pairs],
    }
    return runs, failed, metrics, ungated, tracer.spans


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def metadata(w, seed, seconds, trace, tiny) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def measure(w: wl.Workload, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result, details). ``result`` is the gated JSON object."""
    cfg = w.config(seed)
    if tiny:
        cfg = wl.shrink(cfg)
    surface_input = wl.sweep_input(cfg) if w.surface else None
    # Warm-up outside the clock: one tiny execution finishes lazy imports and
    # first-call set-up, which steady-state executions do not pay. Its output
    # goes unchecked: one pass over a tiny input is not expected to converge.
    small = wl.shrink(cfg)
    unchecked = replace(w, check=lambda cfg, out: [])
    attempt(unchecked, small, lambda: wl.execute(w, small, wl.sweep_input(small) if w.surface else None))
    details = {"metadata": metadata(w, seed, seconds, trace, tiny)}
    if trace:
        runs, failed, metrics, details["ungated"], spans = traced_metrics(w, cfg, seconds, surface_input)
        details["trace_file"] = write_spans(w, seed, spans)
    else:
        runs, failed, metrics, details["ungated"] = untraced_metrics(w, cfg, seconds, surface_input)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    return result, details


def write_spans(w, seed, spans) -> str:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{w.name}-seed{seed}.json"
    rows = [
        {"id": s.id, "name": s.name, "parent": s.parent, "execution": s.execution, "start": s.start, "end": s.end}
        for s in spans
    ]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, help="source seed (default: the workload's acceptance seed)")
    p.add_argument("--seconds", type=float, default=20.0, help="how long the closed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    result, details = measure(w, seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the pipeline each one executes.

A workload is one acceptance-derived experiment config plus the check its
output must pass. One execution runs source -> degrade -> whiten -> adapt
-> restore -> score. ``execute`` runs it the way a user does, through
``run_experiment``; ``execute_traced`` composes the same public stage calls
itself with one span around each call into a package module.

Only top-level ``kurtdeconv`` names are used, and none of the helpers the
package plans to delete (``adapt_step``, ``adapt2d_step``, ``row_chain``,
``window_at``, ``patch_at``).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import kurtdeconv as kd

#: The c04 grid: 41 values per coefficient, step 0.05, so (0.6, 0.3) is a cell.
SURFACE_GRID = np.linspace(-1.0, 1.0, 41)
#: Flops counted per adaptive update with K regressor taps: y = h'w costs
#: 2K, the tap update 2K, and the moment and feedback scalars 16.
FLOPS_PER_UPDATE_FIXED = 16


@dataclass(frozen=True)
class Outcome:
    """What an execution produced, as far as the checks need it."""

    estimate: np.ndarray
    param_err_max: float
    rho_restored: float
    surface_argmax: tuple[float, float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    config: Callable[[int], kd.ExperimentConfig]
    check: Callable[[kd.ExperimentConfig, Outcome], list[str]]
    #: Whether an execution also sweeps the c04 kurtosis surface.
    surface: bool = False


def _identification_check(cfg: kd.ExperimentConfig, out: Outcome) -> list[str]:
    """c05/c08 tolerances: every coefficient within 0.1, rho >= 0.95."""
    problems = []
    if not out.param_err_max <= 0.1:
        problems.append(f"param_err_max {out.param_err_max:.4f} > 0.1")
    if not out.rho_restored >= 0.95:
        problems.append(f"rho_restored {out.rho_restored:.4f} < 0.95")
    return problems


def _ar2_check(cfg: kd.ExperimentConfig, out: Outcome) -> list[str]:
    """c05 tolerances plus the c04 surface argmax within 0.05 of the truth."""
    problems = _identification_check(cfg, out)
    truth = (cfg.degrade.a1, cfg.degrade.a2)
    if any(abs(got - want) > 0.05 + 1e-9 for got, want in zip(out.surface_argmax, truth)):
        problems.append(f"surface argmax {out.surface_argmax} not within 0.05 of {truth}")
    return problems


def _echo_check(cfg: kd.ExperimentConfig, out: Outcome) -> list[str]:
    """c06 tolerances: taps at lags D and 2D within 0.1, off-taps <= 0.05."""
    problems = _identification_check(cfg, out)
    taps = kd.normalize_taps(kd.FilterTaps1D(out.estimate)).taps
    d = cfg.degrade.delay
    off = np.delete(np.abs(taps), [0, d, 2 * d]).max()
    if not off <= 0.05:
        problems.append(f"largest off-tap {off:.4f} > 0.05")
    return problems


def _audio_ar2(seed: int) -> kd.ExperimentConfig:
    # c05 with (a1, a2) = (0.6, 0.3), plus the c04 surface on the same
    # whitened observation: the paper's AR(2) landscape and its online
    # identification. At K = 3 per-sample interpreter overhead dominates
    # adapt1d, and the surface is the only batch use of stats. mu is 1.5e-6,
    # not c05's 3e-6: the unnormalized update's tap norm shrinks pass by pass
    # until one sample throws the taps to another solution, which at 3e-6
    # happens within 4 passes on some seeds (seed 1 converges, then jumps in
    # pass 4).
    return kd.ExperimentConfig(
        experiment_id="audio_ar2",
        source=kd.SourceSpec(kind="integrated_laplace", seed=seed, length=100_000),
        degrade=kd.DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3),
        whiten=kd.WhitenSpec(kind="highpass"),
        adapt=kd.AdaptConfig(taps=3, mu=1.5e-6, beta=0.999, warmup=2000, passes=4),
    )


def _audio_echo(seed: int) -> kd.ExperimentConfig:
    # c06: the same run_adapt loop at K = 201, where per-tap arithmetic
    # dominates. A change that helps K = 3 and hurts K = 201 shows here, and
    # so does one that trades memory for speed. No whitening, no surface.
    # mu = 5e-7 over 6 passes instead of c06's 1e-6 over 4: at 1e-6 the
    # off-tap jitter alone pulls rho below 0.95 on some seeds.
    return kd.ExperimentConfig(
        experiment_id="audio_echo",
        source=kd.SourceSpec(kind="laplace", seed=seed, length=200_000),
        degrade=kd.DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=100),
        whiten=kd.WhitenSpec(kind="none"),
        adapt=kd.AdaptConfig(taps=201, mu=5e-7, beta=0.999, warmup=2000, passes=6),
    )


def _image_iir(seed: int) -> kd.ExperimentConfig:
    # c08 with (a1, a2) = (0.5, 0.4): the only workload on adapt2d and on the
    # image degradation and whitening; it never calls run_adapt, so a
    # 1-D-only change should leave it unchanged. mu = -1.5e-5 over 4 passes
    # instead of c08's -1e-3 over 16: at -1e-3 a burst of large updates early
    # in the first pass inflates the kernel norm about 70-fold on some seeds,
    # after which the kernel barely moves, and the off-centre jitter alone
    # drops rho below 0.95 on others (still so at -3e-4 over 8 passes). At
    # -1.5e-5 the worst of 97 seeds tried kept rho at 0.996.
    return kd.ExperimentConfig(
        experiment_id="image_iir",
        source=kd.SourceSpec(kind="integrated_uniform", seed=seed, height=256, width=256),
        degrade=kd.DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4),
        whiten=kd.WhitenSpec(kind="highpass"),
        adapt=kd.Adapt2dConfig(rows=3, cols=3, mu=-1.5e-5, beta=0.999, warmup=2000, passes=4),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audio_ar2", 105, _audio_ar2, _ar2_check, surface=True),
        Workload("audio_echo", 106, _audio_echo, _echo_check),
        Workload("image_iir", 108, _image_iir, _identification_check),
    )
}


def shrink(cfg: kd.ExperimentConfig) -> kd.ExperimentConfig:
    """The same pipeline on a tiny input: one pass over 5000 samples or 48x48 pixels."""
    if cfg.source.is_image:
        source = replace(cfg.source, height=48, width=48)
    else:
        source = replace(cfg.source, length=5000)
    return replace(cfg, source=source, adapt=replace(cfg.adapt, warmup=200, passes=1))


def is_image(cfg: kd.ExperimentConfig) -> bool:
    return isinstance(cfg.adapt, kd.Adapt2dConfig)


def samples(cfg: kd.ExperimentConfig) -> int:
    """Source samples (pixels for images) one execution processes."""
    src = cfg.source
    return src.height * src.width if src.is_image else src.length


def updates(cfg: kd.ExperimentConfig) -> int:
    """Adaptive updates one execution performs: passes * (samples - warmup)."""
    return cfg.adapt.passes * (samples(cfg) - cfg.adapt.warmup)


def regressor_taps(cfg: kd.ExperimentConfig) -> int:
    return cfg.adapt.rows * cfg.adapt.cols if is_image(cfg) else cfg.adapt.taps


def sweep_input(cfg: kd.ExperimentConfig):
    """The whitened observation the surface sweep reads, built like a file the
    ``sweep`` subcommand would be given."""
    return kd.highpass_whiten(kd.apply_degradation(cfg.degrade, kd.make_source(cfg.source)))


def execute(w: Workload, cfg: kd.ExperimentConfig, surface_input=None) -> Outcome:
    """One untraced execution: what the ``experiment`` (and ``sweep``) CLI run."""
    report = kd.run_experiment(cfg)
    argmax = None
    if w.surface:
        argmax = kd.kurtosis_surface(surface_input, SURFACE_GRID, SURFACE_GRID).argmax
    return Outcome(
        estimate=report.estimate,
        param_err_max=max(row.err for row in report.parameters),
        rho_restored=report.rho_restored,
        surface_argmax=argmax,
    )


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    execution: int
    start: float
    end: float = float("nan")


@dataclass
class Tracer:
    """In-memory span recorder; spans of one execution share ``execution``."""

    spans: list[Span] = field(default_factory=list)
    execution: int = 0
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, self.execution, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()


def execute_traced(w: Workload, cfg: kd.ExperimentConfig, tracer: Tracer) -> Outcome:
    """One execution composed from the public stage calls, as run_experiment
    composes them, with a span around each call into a package module."""
    span = tracer.span
    with span("pipeline"):
        with span("experiment.make_source"):
            s = kd.make_source(cfg.source)
        with span("degrade.apply_degradation"):
            x = kd.apply_degradation(cfg.degrade, s)
        if is_image(cfg):
            # The guard run_experiment applies to a degraded image.
            peak = float(np.max(np.abs(x.pixels)))
            if peak > 1e9:
                raise kd.DivergenceError(f"degraded image peak {peak:g} indicates an unstable 2-D recursion")
        if cfg.whiten.kind == "highpass":
            with span("whitening.highpass_whiten"):
                x1 = kd.highpass_whiten_2d(x) if is_image(cfg) else kd.highpass_whiten(x)
        else:
            x1 = x
        if is_image(cfg):
            with span("adapt2d.run_adapt2d"):
                estimate = kd.run_adapt2d(x1, cfg.adapt).kernel
            with span("signals.restore"):
                restored = kd.apply_kernel(x, estimate)
            values = (s.pixels, x.pixels, restored.pixels)
            estimate_array = estimate.weights
        else:
            with span("adapt1d.run_adapt"):
                estimate = kd.run_adapt(x1, cfg.adapt).filter
            with span("signals.restore"):
                restored = kd.apply_taps(x, estimate)
            values = (s.samples, x.samples, restored.samples)
            estimate_array = estimate.taps
        with span("metrics.score"):
            err = max(kd.parameter_error(cfg.degrade, estimate).values())
            kd.normalized_correlation(s, x)
            rho = kd.normalized_correlation(s, restored)
            for v in values:
                kd.kurtosis_excess(v)
        argmax = None
        if w.surface:
            with span("adapt1d.kurtosis_surface"):
                argmax = kd.kurtosis_surface(x1, SURFACE_GRID, SURFACE_GRID).argmax
    return Outcome(estimate_array, err, rho, argmax)

"""Experiment harness: source -> degrade -> whiten -> adapt -> score.

Configs are line-oriented ``section.key = value`` files (see parse_config)
and every synthetic source is seeded, so a config fully determines its
report. CSV reports deliberately exclude wall time: two runs of the same
config must be byte-identical.
"""
from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from .adapt import Adapt2dConfig, AdaptConfig, run_adapt
from .degrade import DegradeSpec, apply_degradation, extract_parameters, true_parameters
from .errors import ContractViolationError, FormatError
from .fileio import is_image_path, read_any, rescale_unit
from .signals import Image2D, Signal1D, _apply, _array
from .stats import kurtosis_excess, normalized_correlation
from .whitening import WhitenSpec, whiten

SYNTHETIC_KINDS = ("laplace", "uniform", "gaussian", "integrated_laplace", "integrated_uniform")


@dataclass(frozen=True)
class SourceSpec:
    """Either a synthetic generator (kind + size + seed) or a .wav/.pgm path.

    A field the source does not use is a ContractViolationError: seed and
    sizes on a file, path on a synthetic source, length on a synthetic
    image (one given a height or width).
    """

    kind: str
    seed: int | None = None
    length: int | None = None
    height: int | None = None
    width: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind == "file":
            self._reject_unused("a file", "seed", "length", "height", "width")
            if not self.path:
                raise ContractViolationError("file sources need a nonempty path")
            is_image_path(self.path)  # FormatError for any other extension
            return
        if self.kind not in SYNTHETIC_KINDS:
            raise ContractViolationError(f"unknown source kind {self.kind!r}")
        if self.seed is None or self.seed < 0:
            raise ContractViolationError(f"synthetic sources require a nonnegative seed, got {self.seed}")
        if self.is_image:
            self._reject_unused("a 2-D synthetic", "path", "length")
            if not (self.height and self.width and self.height > 0 and self.width > 0):
                raise ContractViolationError("2-D synthetic sources need positive height and width")
            return
        self._reject_unused("a 1-D synthetic", "path")
        if not (self.length and self.length > 0):
            raise ContractViolationError("1-D synthetic sources need a positive length")

    def _reject_unused(self, what: str, *names: str) -> None:
        for name in names:
            if getattr(self, name) is not None:
                raise ContractViolationError(f"source.{name} does not apply to {what} source")

    @property
    def is_image(self) -> bool:
        if self.kind == "file":
            return is_image_path(self.path)
        return self.height is not None or self.width is not None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    source: SourceSpec
    adapt: AdaptConfig | Adapt2dConfig
    degrade: DegradeSpec | None = None
    whiten: WhitenSpec = field(default_factory=WhitenSpec)
    report_path: str | None = None

    def __post_init__(self):
        if not self.experiment_id:
            raise ContractViolationError("experiment id must be nonempty")
        if self.source.is_image != isinstance(self.adapt, Adapt2dConfig):
            raise ContractViolationError("source dimensionality does not match the adapt configuration")
        if self.degrade is not None:
            # a filter with no slot for a parameter, the other dimension's
            # included, fails here, not after adapting
            extract_parameters(self.degrade, self.adapt.identity())


def make_source(spec: SourceSpec):
    """Materialize a SourceSpec into a Signal1D or Image2D."""
    if spec.kind == "file":
        return read_any(spec.path)
    rng = np.random.default_rng(spec.seed)
    if not spec.is_image:
        n = spec.length
        if spec.kind == "laplace":
            return Signal1D(rng.laplace(0.0, 1.0 / np.sqrt(2.0), n))
        if spec.kind == "uniform":
            return Signal1D(rng.uniform(-1.0, 1.0, n))
        if spec.kind == "gaussian":
            return Signal1D(rng.standard_normal(n))
        # integrated kinds: random walks whose first difference is exactly
        # the i.i.d. draw, i.e. correlated speech/texture stand-ins. Pure
        # scaling only; an offset would plant an outlier at the whitened
        # boundary.
        if spec.kind == "integrated_laplace":
            return Signal1D(np.cumsum(rng.laplace(0.0, 1.0 / np.sqrt(2.0), n)) / np.sqrt(n))
        return Signal1D(np.cumsum(rng.uniform(-1.0, 1.0, n)) / np.sqrt(n))
    shape = (spec.height, spec.width)
    if spec.kind == "uniform":
        return Image2D(rng.random(shape))
    if spec.kind == "gaussian":
        return rescale_unit(Image2D(rng.standard_normal(shape)))
    if spec.kind == "laplace":
        return rescale_unit(Image2D(rng.laplace(0.0, 1.0, shape)))
    if spec.kind == "integrated_laplace":
        noise = rng.laplace(0.0, 1.0 / np.sqrt(2.0), shape)
    else:
        noise = rng.uniform(-1.0, 1.0, shape)
    # the running sum down the columns. Row by row it makes np.cumsum(axis=0)'s
    # additions in its order, several times faster on C-order rows of 128 or
    # more pixels; on narrower rows the per-row overhead costs more than it
    # saves (38x slower at 100000 x 4)
    if shape[1] >= 128:
        for i in range(1, shape[0]):
            noise[i] += noise[i - 1]
    else:
        noise = np.cumsum(noise, axis=0)
    field2d = np.cumsum(noise, axis=1)
    return Image2D(field2d / np.sqrt(shape[0] * shape[1]))


@dataclass(frozen=True)
class ParameterRow:
    name: str
    true: float
    est: float
    err: float


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    experiment_id: str
    mode: str
    source_desc: str
    seed: int | None
    size_desc: str
    degrade_desc: str
    whiten_desc: str
    filter_desc: str
    mu: float
    beta: float
    warmup: int
    passes: int
    parameters: tuple[ParameterRow, ...]
    kurt_source: float
    kurt_degraded: float
    kurt_restored: float
    rho_sx: float
    rho_restored: float
    wall_time_s: float
    estimate: np.ndarray  # converged taps (1-D) or kernel weights (2-D)

    CSV_HEADER = (
        "id,mode,source,seed,size,degrade,whiten,filter,mu,beta,warmup,passes,"
        "p1_name,p1_true,p1_est,p1_err,p2_name,p2_true,p2_est,p2_err,"
        "p3_name,p3_true,p3_est,p3_err,"
        "kurt_source,kurt_degraded,kurt_restored,rho_sx,rho_restored"
    )

    def csv_row(self) -> str:
        cells = [
            self.experiment_id,
            self.mode,
            self.source_desc,
            "" if self.seed is None else str(self.seed),
            self.size_desc,
            self.degrade_desc,
            self.whiten_desc,
            self.filter_desc,
            _fmt(self.mu),
            _fmt(self.beta),
            str(self.warmup),
            str(self.passes),
        ]
        rows = list(self.parameters) + [None] * (3 - len(self.parameters))
        for row in rows[:3]:
            if row is None:
                cells += ["", "", "", ""]
            else:
                cells += [row.name, _fmt(row.true), _fmt(row.est), _fmt(row.err)]
        cells += [
            _fmt(self.kurt_source),
            _fmt(self.kurt_degraded),
            _fmt(self.kurt_restored),
            _fmt(self.rho_sx),
            _fmt(self.rho_restored),
        ]
        return ",".join(map(_csv_cell, cells))

    def text(self) -> str:
        lines = [
            f"experiment      {self.experiment_id}",
            f"mode            {self.mode}",
            f"source          {self.source_desc} seed={self.seed} size={self.size_desc}",
            f"degradation     {self.degrade_desc}",
            f"whitening       {self.whiten_desc}",
            f"filter          {self.filter_desc} mu={self.mu:g} beta={self.beta:g} "
            f"warmup={self.warmup} passes={self.passes}",
        ]
        for row in self.parameters:
            lines.append(f"  {row.name}: true={row.true:+.4f} est={row.est:+.4f} err={row.err:.4f}")
        lines += [
            f"kurtosis        source={self.kurt_source:.4f} degraded={self.kurt_degraded:.4f} "
            f"restored={self.kurt_restored:.4f}",
            f"correlation     rho_sx={self.rho_sx:.4f} rho_restored={self.rho_restored:.4f}",
            f"wall time       {self.wall_time_s:.2f} s",
        ]
        return "\n".join(lines)


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it: quoted, inner quotes doubled, when it
    holds a comma, a double quote, a CR or an LF; unchanged otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt(v: float) -> str:
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return ""
    return repr(float(v))


def _degrade_desc(spec: DegradeSpec | None) -> str:
    if spec is None:
        return "none"
    parts = [spec.kind, f"a1={spec.a1:g}", f"a2={spec.a2:g}"]
    if spec.kind == "image_iir3":
        parts.append(f"a3={spec.a3:g}")
    if spec.kind == "echo_iir":
        parts.append(f"D={spec.delay}")
    return " ".join(parts)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full pipeline for one config."""
    t0 = time.perf_counter()
    s = make_source(cfg.source)
    x = apply_degradation(cfg.degrade, s) if cfg.degrade is not None else s
    x1 = whiten(x, cfg.whiten)
    # The inverse is identified on the whitened domain but, because the
    # whitener and the degradation are both LTI, it restores the raw
    # observation directly.
    result = run_adapt(x1, cfg.adapt)
    estimate = result.filter
    s_est = _apply(x, estimate)
    kurt_source, kurt_degraded, kurt_restored = map(kurtosis_excess, (s, x, s_est))
    return ExperimentReport(
        experiment_id=cfg.experiment_id,
        mode=f"{_array(s).ndim}d",
        source_desc=cfg.source.kind if cfg.source.kind != "file" else str(cfg.source.path),
        seed=cfg.source.seed,
        size_desc="x".join(map(str, _array(s).shape)),
        degrade_desc=_degrade_desc(cfg.degrade),
        whiten_desc=f"lpc({cfg.whiten.order})" if cfg.whiten.kind == "lpc" else cfg.whiten.kind,
        filter_desc="x".join(map(str, _array(estimate).shape)),
        mu=cfg.adapt.mu,
        beta=cfg.adapt.beta,
        warmup=cfg.adapt.warmup,
        passes=cfg.adapt.passes,
        parameters=_parameter_rows(cfg.degrade, estimate),
        kurt_source=kurt_source,
        kurt_degraded=kurt_degraded,
        kurt_restored=kurt_restored,
        rho_sx=normalized_correlation(s, x),
        rho_restored=normalized_correlation(s, s_est),
        wall_time_s=time.perf_counter() - t0,
        estimate=_array(estimate),
    )


def _parameter_rows(spec: DegradeSpec | None, estimated) -> tuple[ParameterRow, ...]:
    if spec is None:
        return ()
    true, est = true_parameters(spec), extract_parameters(spec, estimated)
    return tuple(ParameterRow(k, float(true[k]), float(est[k]), float(abs(est[k] - true[k]))) for k in true)


def write_report_csv(path, reports) -> None:
    """Write reports as one fixed-header UTF-8 CSV (LF endings, atomic
    replace; the temporary file is removed if the write fails)."""
    lines = [ExperimentReport.CSV_HEADER] + [r.csv_row() for r in reports]
    body = "\n".join(lines) + "\n"
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# --- config file parsing ---------------------------------------------------

_KEYS = {
    "experiment.id": str, "report.path": str,
    "source.kind": str, "source.path": str, "source.seed": int, "source.length": int, "source.height": int, "source.width": int,
    "degrade.kind": str, "degrade.a1": float, "degrade.a2": float, "degrade.a3": float, "degrade.delay": int,
    "whiten.kind": str, "whiten.order": int,
    "adapt.taps": int, "adapt.rows": int, "adapt.cols": int, "adapt.mu": float, "adapt.beta": float, "adapt.warmup": int, "adapt.passes": int,
}


def _build(cls, given: dict, name):
    """cls(**given) from the fields a user set, so cls keeps every default;
    a key cls has no field for is a ContractViolationError naming name(key)."""
    extra = sorted(given.keys() - {f.name for f in fields(cls)})
    if extra:
        raise ContractViolationError(f"{name(extra[0])} does not apply to {cls.__name__}")
    return cls(**given)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a line-oriented ``section.key = value`` experiment config.

    Blank lines and lines starting with '#' are ignored; later keys
    override earlier ones. Only the keys set reach the specs, so a key left
    out takes the spec's default (an image's mu is Adapt2dConfig's, < 0); a
    key the spec lacks (adapt.rows on audio) is a ContractViolationError.
    """
    given: dict[str, dict] = defaultdict(dict)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise FormatError(f"config line {lineno}: unknown key {key!r}")
        try:
            value = _KEYS[key](value)
        except ValueError:
            raise FormatError(f"config key {key}: invalid number {value!r}") from None
        section, _, name = key.partition(".")
        given[section][name] = value

    source = SourceSpec(**{"kind": "laplace", **given["source"]})
    degrade_kind = given["degrade"].pop("kind", "none")
    degrade = None
    if degrade_kind != "none":
        degrade = DegradeSpec(kind=degrade_kind, **given["degrade"])
    elif given["degrade"]:
        raise ContractViolationError(f"degrade.{min(given['degrade'])} is set but degrade.kind is none")
    return ExperimentConfig(
        experiment_id=given["experiment"].get("id", "experiment"),
        source=source,
        adapt=_build(Adapt2dConfig if source.is_image else AdaptConfig, given["adapt"], "adapt.{}".format),
        degrade=degrade,
        whiten=WhitenSpec(**given["whiten"]),
        report_path=given["report"].get("path"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

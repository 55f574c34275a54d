"""Experiment harness: source -> degrade -> whiten -> adapt -> score.

Configs are line-oriented ``section.key = value`` files (see parse_config)
and every synthetic source is seeded, so a config fully determines its
report. CSV reports deliberately exclude wall time: two runs of the same
config must be byte-identical.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from ._native import integrate
from .adapt import Adapt2dConfig, AdaptConfig, run_adapt
from .degrade import DegradeSpec, apply_degradation, extract_parameters, true_parameters
from .errors import ContractViolationError, FormatError, _count
from .fileio import _write_file, is_image_path, read_any, rescale_unit
from .signals import Image2D, Signal1D, _apply, _array, _Owned
from .stats import _scores
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
        if self.seed is None or _count(self.seed, "seed") < 0:
            raise ContractViolationError(f"synthetic sources require a nonnegative seed, got {self.seed}")
        if self.is_image:
            self._reject_unused("a 2-D synthetic", "path", "length")
            if self.height is None or self.width is None or min(_count(self.height, "height"), _count(self.width, "width")) < 1:
                raise ContractViolationError("2-D synthetic sources need positive height and width")
            return
        self._reject_unused("a 1-D synthetic", "path")
        if self.length is None or _count(self.length, "length") < 1:
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
        if self.source.is_image and self.whiten.kind == "lpc":
            raise ContractViolationError("lpc whitening takes a 1-D source, not an image")
        if self.degrade is not None:
            # a filter with no slot for a parameter, the other dimension's
            # included, fails here, not after adapting
            extract_parameters(self.degrade, self.adapt.identity())


def make_source(spec: SourceSpec):
    """Materialize a SourceSpec into a Signal1D or Image2D."""
    if spec.kind == "file":
        return read_any(spec.path)
    rng = np.random.default_rng(spec.seed)
    if spec.kind.startswith("integrated_"):
        # random walks (a signal is one row) whose first difference is
        # exactly the i.i.d. draw, i.e. correlated speech/texture stand-ins.
        # Pure scaling only; an offset would plant an outlier at the
        # whitened boundary.
        shape = (spec.height, spec.width) if spec.is_image else spec.length
        if spec.kind == "integrated_laplace":
            draw = rng.laplace(0.0, 1.0 / np.sqrt(2.0), shape)
        else:
            draw = rng.uniform(-1.0, 1.0, shape)
        walk = integrate(draw, np.sqrt(draw.size))
        return Image2D(_Owned(walk)) if spec.is_image else Signal1D(_Owned(walk))
    if not spec.is_image:
        n = spec.length
        if spec.kind == "laplace":
            return Signal1D(_Owned(rng.laplace(0.0, 1.0 / np.sqrt(2.0), n)))
        if spec.kind == "uniform":
            return Signal1D(_Owned(rng.uniform(-1.0, 1.0, n)))
        return Signal1D(_Owned(rng.standard_normal(n)))
    shape = (spec.height, spec.width)
    if spec.kind == "uniform":
        return Image2D(_Owned(rng.random(shape)))
    if spec.kind == "gaussian":
        return rescale_unit(Image2D(_Owned(rng.standard_normal(shape))))
    return rescale_unit(Image2D(_Owned(rng.laplace(0.0, 1.0, shape))))


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
        """The fields in declaration order up to rho_restored, one _cell each,
        but four per parameter row (name, true, est, err), padded to three
        rows; wall_time_s, estimate and any later field are never written."""
        names = [f.name for f in fields(self)]
        cells = []
        for name in names[: names.index("rho_restored") + 1]:
            value = getattr(self, name)
            if name == "parameters":
                for row in value:
                    cells += astuple(row)
                cells += [None] * 4 * (3 - len(value))
            else:
                cells.append(value)
        return ",".join(_csv_cell(_cell(v)) for v in cells)

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


def _cell(v) -> str:
    """The one CSV cell rule: text as it is, an int in decimal, a finite float
    as repr(float(v)), and an empty cell for None or a non-finite value."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(v)
    return repr(float(v)) if v is not None and np.isfinite(v) else ""


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
    # The inverse is identified on the whitened domain but, because the
    # whitener and the degradation are both LTI, it restores the raw
    # observation directly. The whitened input and the result are gone
    # before the restore, so they add nothing to the peak.
    estimate = run_adapt(whiten(x, cfg.whiten), cfg.adapt).filter
    kurt_source, kurt_degraded, kurt_restored, rho_sx, rho_restored = _scores(s, x, _apply(x, estimate))
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
        rho_sx=rho_sx,
        rho_restored=rho_restored,
        wall_time_s=time.perf_counter() - t0,
        estimate=_array(estimate),
    )


def _parameter_rows(spec: DegradeSpec | None, estimated) -> tuple[ParameterRow, ...]:
    if spec is None:
        return ()
    true, est = true_parameters(spec), extract_parameters(spec, estimated)
    return tuple(ParameterRow(k, float(true[k]), float(est[k]), float(abs(est[k] - true[k]))) for k in true)


def write_report_csv(path, reports) -> None:
    """Write reports as one fixed-header UTF-8 CSV with LF endings, by
    fileio's atomic replace."""
    lines = [ExperimentReport.CSV_HEADER] + [r.csv_row() for r in reports]
    _write_file(path, "\n".join(lines) + "\n")


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
    """parse_config of the file at path; a file that is not UTF-8 is a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"config {path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_config(text)

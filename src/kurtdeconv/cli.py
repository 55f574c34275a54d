"""Command-line front end.

Subcommands:
    degrade     run a parametric degradation over a WAV/PGM file
    whiten      highpass or LPC whitening of a file
    deconv      adapt an inverse filter and restore a file
    sweep       kurtosis surface over an (a1, a2) grid, CSV + argmax
    experiment  run config-file experiments and emit report CSV/text
    metrics     correlation and kurtosis between two files

Files are WAV or PGM by extension. An option left out takes the default of
the library spec it sets; one the input lacks (--taps on a PGM) is an error.

Exit codes: 0 success, 1 usage error, 2 format error, 3 numeric divergence.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .adapt import Adapt2dConfig, AdaptConfig, kurtosis_surface, run_adapt
from .degrade import KINDS, DegradeSpec, apply_degradation
from .errors import ContractViolationError, DivergenceError, FormatError, KurtdeconvError
from .experiment import SourceSpec, _build, load_config, make_source, run_experiment, write_report_csv
from .fileio import is_image_path, read_any, read_wav, rescale_unit, write_image, write_wav
from .signals import Image2D, Kernel2D, Signal1D, _apply, _array, normalize_kernel, normalize_taps
from .stats import aligned_correlation, kurtosis_excess, normalized_correlation
from .whitening import WHITEN_KINDS, WhitenSpec, whiten


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented
    # contract reserves 2 for format errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}") from None


def _given(args, *names) -> dict:
    """The options among names that the command line set (the degrade,
    whiten and deconv parsers have no defaults but CLI-specific ones)."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _write_any(path: str, data) -> None:
    image = is_image_path(path)
    if not isinstance(data, Image2D if image else Signal1D):
        raise ContractViolationError(f"{path} takes {'an image' if image else 'a signal'}, got {type(data).__name__}")
    if image:
        write_image(path, rescale_unit(data))
    else:
        clipped = write_wav(path, data)
        if clipped:
            print(f"clipped {clipped} samples to [-1, 1)")


def _add_degrade_args(p):
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--a1", type=float)
    p.add_argument("--a2", type=float)
    p.add_argument("--a3", type=float)
    p.add_argument("--delay", type=int, help="echo spacing D (echo_iir only)")


def _cmd_degrade(args) -> int:
    spec = DegradeSpec(**_given(args, "kind", "a1", "a2", "a3", "delay"))
    print(f"degrade: {spec} input={args.input} output={args.output}")
    if args.input.startswith("synthetic:"):
        source = SourceSpec(kind=args.input.split(":", 1)[1], **_given(args, "seed", "length", "height", "width"))
        print(f"  source={source}")
        data = make_source(source)
    else:
        data = read_any(args.input)
    _write_any(args.output, apply_degradation(spec, data))
    return 0


def _cmd_whiten(args) -> int:
    spec = WhitenSpec(**_given(args, "kind", "order"))
    print(f"whiten: {spec} input={args.input} output={args.output}")
    _write_any(args.output, whiten(read_any(args.input), spec))
    return 0


def _cmd_deconv(args) -> int:
    options = _given(args, "taps", "rows", "cols", "mu", "beta", "warmup", "passes")
    cfg = _build(Adapt2dConfig if is_image_path(args.input) else AdaptConfig, options, "--{}".format)
    spec = WhitenSpec(**_given(args, "kind", "order"))
    print(f"deconv: input={args.input} {cfg} whiten={spec}")
    data = read_any(args.input)
    work = whiten(data, spec)
    # The converged filter carries an arbitrary blind gain/sign; normalize
    # (largest tap -> +1) before restoring so the output amplitude stays
    # comparable to the input.
    result = run_adapt(work, cfg)
    estimate = (normalize_kernel if isinstance(result.filter, Kernel2D) else normalize_taps)(result.filter)
    restored = _apply(data, estimate)
    # one line per tap, or per kernel row
    coeffs = _array(estimate)
    dump = "\n".join(" ".join(map(repr, row)) for row in coeffs.reshape(len(coeffs), -1).tolist())
    # reading the trace filters the whitened input once per pass; any error
    # of that filtering comes before a file is written
    print(f"final kurtosis {result.final_kurtosis:.4f}; trace {[round(k, 4) for k in result.kurtosis_trace]}")
    _write_any(args.output, restored)
    with open(args.filter_out, "w", encoding="ascii") as fh:
        fh.write(dump + "\n")
    print(f"filter written to {args.filter_out}")
    return 0


def _grid(lo: float, hi: float, count: float) -> np.ndarray:
    if not (np.isfinite(count) and count >= 1 and count == int(count)):
        raise ContractViolationError(f"grid COUNT must be a whole number of at least 1, got {count:g}")
    return np.linspace(lo, hi, int(count))


def _cmd_sweep(args) -> int:
    grid_a1 = _grid(*args.a1_range)
    grid_a2 = _grid(*args.a2_range)
    print(f"sweep: input={args.input} a1 grid {grid_a1[0]:g}..{grid_a1[-1]:g} ({grid_a1.size}) "
          f"a2 grid {grid_a2[0]:g}..{grid_a2[-1]:g} ({grid_a2.size})")
    signal = read_wav(args.input)
    result = kurtosis_surface(signal, grid_a1, grid_a2)
    with open(args.output, "w", encoding="ascii", newline="") as fh:
        fh.write("a1,a2,abs_kurtosis\n")
        for i, a1 in enumerate(grid_a1):
            for j, a2 in enumerate(grid_a2):
                v = result.surface[i, j]
                fh.write(f"{float(a1)!r},{float(a2)!r},{'' if np.isnan(v) else repr(float(v))}\n")
    print(f"argmax a1={result.argmax[0]:g} a2={result.argmax[1]:g}; surface written to {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    reports = []
    by_path: dict[str, list] = {}
    for path in args.config:
        cfg = load_config(path)
        print(f"running {cfg.experiment_id} from {path}")
        print(f"  source={cfg.source} degrade={cfg.degrade} whiten={cfg.whiten} adapt={cfg.adapt}")
        report = run_experiment(cfg)
        print(report.text())
        reports.append(report)
        out = args.report or cfg.report_path
        if out:
            by_path.setdefault(out, []).append(report)
    for out, rs in by_path.items():
        write_report_csv(out, rs)
        print(f"report written to {out}")
    return 0


def _cmd_metrics(args) -> int:
    a = read_any(args.file_a)
    b = read_any(args.file_b)
    rho = normalized_correlation(a, b)
    print(f"rho (zero lag)  {rho:.6f}")
    if args.max_lag:
        al = aligned_correlation(a, b, args.max_lag)
        print(f"rho (aligned)   {al.rho:.6f} at lag {al.lag} sign {al.sign:+d}")
    ka, kb = map(kurtosis_excess, (a, b))
    print(f"kurtosis        {ka:.6f} vs {kb:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kurtdeconv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="apply a parametric degradation", argument_default=argparse.SUPPRESS)
    p.add_argument("input", help="WAV/PGM path, or synthetic:<kind> with --length/--height/--width and --seed")
    p.add_argument("output")
    _add_degrade_args(p)
    p.add_argument("--seed", type=int, help="synthetic source seed")
    p.add_argument("--length", type=int, help="synthetic 1-D length")
    p.add_argument("--height", type=int, help="synthetic image height")
    p.add_argument("--width", type=int, help="synthetic image width")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("whiten", help="highpass/LPC whitening", argument_default=argparse.SUPPRESS)
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", choices=[k for k in WHITEN_KINDS if k != "none"], default="highpass")
    p.add_argument("--order", type=int)
    p.set_defaults(func=_cmd_whiten)

    p = sub.add_parser("deconv", help="adapt an inverse filter and restore", argument_default=argparse.SUPPRESS)
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--filter-out", default="filter.txt")
    p.add_argument("--taps", type=int, help="1-D filter length")
    p.add_argument("--rows", type=int, help="2-D kernel rows")
    p.add_argument("--cols", type=int, help="2-D kernel cols")
    p.add_argument("--mu", type=float, help="signed step size (default: the AdaptConfig or Adapt2dConfig one)")
    p.add_argument("--beta", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--whiten", dest="kind", choices=WHITEN_KINDS, help="whitening kind")
    p.add_argument("--order", type=int, help="LPC order when --whiten lpc")
    p.set_defaults(func=_cmd_deconv)

    p = sub.add_parser("sweep", help="kurtosis surface over an (a1, a2) grid")
    p.add_argument("input")
    p.add_argument("output", help="surface CSV path")
    p.add_argument("--a1-range", nargs=3, type=float, default=(-0.95, 0.95, 39), metavar=("LO", "HI", "COUNT"))
    p.add_argument("--a2-range", nargs=3, type=float, default=(-0.95, 0.95, 39), metavar=("LO", "HI", "COUNT"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("experiment", help="run experiment config file(s)")
    p.add_argument("config", nargs="+")
    p.add_argument("--report", help="override report CSV path for all configs")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("metrics", help="correlation/kurtosis between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-lag", type=int, default=0)
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (KurtdeconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

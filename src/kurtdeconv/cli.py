"""Command-line front end.

Subcommands:
    degrade     run a parametric degradation over a WAV/PGM file
    whiten      highpass or LPC whitening of a file
    deconv      adapt an inverse filter and restore a file
    sweep       kurtosis surface over an (a1, a2) grid, CSV + argmax
    experiment  run config-file experiments and emit report CSV/text
    metrics     correlation and kurtosis between two files

Exit codes: 0 success, 1 usage error, 2 format error, 3 numeric divergence.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .adapt1d import AdaptConfig, kurtosis_surface, run_adapt
from .adapt2d import Adapt2dConfig, run_adapt2d
from .degrade import KINDS, DegradeSpec, apply_degradation
from .errors import ContractViolationError, DivergenceError, FormatError, KurtdeconvError
from .experiment import load_config, run_experiment, write_report_csv
from .fileio import read_image, read_wav, rescale_unit, write_image, write_wav
from .metrics import aligned_correlation, normalize_kernel, normalize_taps, normalized_correlation
from .signals import apply_kernel, apply_taps
from .stats import kurtosis_excess
from .whitening import WHITEN_KINDS, WhitenSpec, whiten


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented
    # contract reserves 2 for format errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}") from None


def _is_image_path(path: str) -> bool:
    if path.lower().endswith(".pgm"):
        return True
    if path.lower().endswith(".wav"):
        return False
    raise FormatError(f"cannot tell WAV from PGM by extension: {path!r}")


def _read_any(path: str):
    return read_image(path) if _is_image_path(path) else read_wav(path)


def _write_any(path: str, data) -> None:
    if _is_image_path(path):
        write_image(path, rescale_unit(data))
    else:
        clipped = write_wav(path, data)
        if clipped:
            print(f"clipped {clipped} samples to [-1, 1)")


def _add_degrade_args(p):
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--a1", type=float, default=0.0)
    p.add_argument("--a2", type=float, default=0.0)
    p.add_argument("--a3", type=float, default=0.0)
    p.add_argument("--delay", type=int, default=1, help="echo spacing D (echo_iir only)")


def _cmd_degrade(args) -> int:
    spec = DegradeSpec(kind=args.kind, a1=args.a1, a2=args.a2, a3=args.a3, delay=args.delay)
    print(f"degrade: {spec} input={args.input} output={args.output}")
    if args.input.startswith("synthetic:"):
        from .experiment import SourceSpec, make_source

        source = SourceSpec(
            kind=args.input.split(":", 1)[1],
            seed=args.seed,
            length=args.length,
            height=args.height,
            width=args.width,
        )
        print(f"  source={source}")
        data = make_source(source)
    else:
        data = _read_any(args.input)
    _write_any(args.output, apply_degradation(spec, data))
    return 0


def _cmd_whiten(args) -> int:
    print(f"whiten: kind={args.kind} order={args.order} input={args.input} output={args.output}")
    _write_any(args.output, whiten(_read_any(args.input), WhitenSpec(kind=args.kind, order=args.order)))
    return 0


def _cmd_deconv(args) -> int:
    print(
        f"deconv: input={args.input} taps={args.taps} kernel={args.rows}x{args.cols} "
        f"mu={args.mu:g} beta={args.beta:g} warmup={args.warmup} passes={args.passes} whiten={args.whiten}"
    )
    data = _read_any(args.input)
    work = whiten(data, WhitenSpec(kind=args.whiten, order=args.order))
    # The converged filter carries an arbitrary blind gain/sign; normalize
    # (largest tap -> +1) before restoring so the output amplitude stays
    # comparable to the input.
    if _is_image_path(args.input):
        cfg = Adapt2dConfig(rows=args.rows, cols=args.cols, mu=args.mu, beta=args.beta,
                            warmup=args.warmup, passes=args.passes)
        result = run_adapt2d(work, cfg)
        kernel = normalize_kernel(result.kernel)
        restored = apply_kernel(data, kernel)
        dump = "\n".join(" ".join(repr(v) for v in row) for row in kernel.weights.tolist())
    else:
        cfg = AdaptConfig(taps=args.taps, mu=args.mu, beta=args.beta, warmup=args.warmup, passes=args.passes)
        result = run_adapt(work, cfg)
        taps = normalize_taps(result.filter)
        restored = apply_taps(data, taps)
        dump = "\n".join(repr(v) for v in taps.taps.tolist())
    with open(args.filter_out, "w", encoding="ascii") as fh:
        fh.write(dump + "\n")
    print(f"final kurtosis {result.final_kurtosis:.4f}; trace {[round(k, 4) for k in result.kurtosis_trace]}")
    _write_any(args.output, restored)
    print(f"filter written to {args.filter_out}")
    return 0


def _grid(lo: float, hi: float, count: float) -> np.ndarray:
    if not np.isfinite(count) or int(count) < 1:
        raise ContractViolationError(f"grid COUNT must be at least 1, got {count:g}")
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
    a = _read_any(args.file_a)
    b = _read_any(args.file_b)
    rho = normalized_correlation(a, b)
    print(f"rho (zero lag)  {rho:.6f}")
    if not _is_image_path(args.file_a) and args.max_lag > 0:
        al = aligned_correlation(a, b, args.max_lag)
        print(f"rho (aligned)   {al.rho:.6f} at lag {al.lag} sign {al.sign:+d}")
    ka = kurtosis_excess(a.samples if hasattr(a, "samples") else a.pixels)
    kb = kurtosis_excess(b.samples if hasattr(b, "samples") else b.pixels)
    print(f"kurtosis        {ka:.6f} vs {kb:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kurtdeconv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="apply a parametric degradation")
    p.add_argument("input", help="WAV/PGM path, or synthetic:<kind> with --length/--height/--width and --seed")
    p.add_argument("output")
    _add_degrade_args(p)
    p.add_argument("--seed", type=int, help="synthetic source seed")
    p.add_argument("--length", type=int, help="synthetic 1-D length")
    p.add_argument("--height", type=int, help="synthetic image height")
    p.add_argument("--width", type=int, help="synthetic image width")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("whiten", help="highpass/LPC whitening")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", choices=("highpass", "lpc"), default="highpass")
    p.add_argument("--order", type=int, default=5)
    p.set_defaults(func=_cmd_whiten)

    p = sub.add_parser("deconv", help="adapt an inverse filter and restore")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--filter-out", default="filter.txt")
    p.add_argument("--taps", type=int, default=3, help="1-D filter length")
    p.add_argument("--rows", type=int, default=3, help="2-D kernel rows")
    p.add_argument("--cols", type=int, default=3, help="2-D kernel cols")
    p.add_argument("--mu", type=float, default=1e-3)
    p.add_argument("--beta", type=float, default=0.99)
    p.add_argument("--warmup", type=int, default=256)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--whiten", choices=WHITEN_KINDS, default="none")
    p.add_argument("--order", type=int, default=5, help="LPC order when --whiten lpc")
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

"""Command-line front end.

Subcommands:
    degrade     run a parametric degradation over a WAV/PGM file
    whiten      highpass or LPC whitening of a file
    deconv      adapt an inverse filter and restore a file
    sweep       kurtosis surface of a WAV over an (a1, a2) grid, CSV + argmax
    experiment  run config-file experiments and emit report CSV/text
    metrics     correlation and kurtosis between two files

Files are WAV or PGM by extension. An option left out takes the default of
the library spec it sets; one the input lacks (--taps on a PGM) is an error.

Exit codes: 0 success; 1 a usage error, any other contract violation or
degenerate input, a file that cannot be read or written, or a size the host
cannot allocate (MemoryError); 2 a format error, a config file that is not
UTF-8 included; 3 numeric divergence. A command fails only by raising, and
main maps the exception to its code and prints it as one stderr line, after
the usage for a usage error.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from .adapt import Adapt2dConfig, AdaptConfig, kurtosis_surface, run_adapt
from .degrade import KINDS, DegradeSpec, _degrades, apply_degradation
from .errors import ContractViolationError, DivergenceError, FormatError, KurtdeconvError
from .experiment import SourceSpec, _build, load_config, make_source, run_experiment, write_report_csv
from .fileio import _check_target, _write_file, is_image_path, read_any, read_wav, rescale_unit, write_image, write_wav
from .signals import Image2D, Kernel2D, Signal1D, _apply, _array, normalize_kernel, normalize_taps
from .stats import aligned_correlation, kurtosis_excess, normalized_correlation
from .whitening import WHITEN_KINDS, WhitenSpec, whiten


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented
    # contract reserves 2 for format errors, so a usage error is raised
    # as the contract violation it is, which main maps to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ContractViolationError(message)


def _given(args, *names) -> dict:
    """The options among names that the command line set (the degrade,
    whiten and deconv parsers have no defaults but CLI-specific ones)."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _check_output(path: str, kind: type) -> None:
    """A .pgm output takes an Image2D, a .wav one a Signal1D; each command checks before it computes."""
    image = is_image_path(path)
    if kind is not (Image2D if image else Signal1D):
        raise ContractViolationError(f"{path} takes {'an image' if image else 'a signal'}, got {kind.__name__}")


def _write_any(path: str, data) -> None:
    """Write data to path, whose kind the command checked before it computed data."""
    if is_image_path(path):
        write_image(path, rescale_unit(data))
    else:
        clipped = write_wav(path, data)
        if clipped:
            print(f"clipped {clipped} samples to [-1, 1)")


def _cmd_degrade(args) -> int:
    spec = DegradeSpec(**_given(args, "kind", "a1", "a2", "a3", "delay"))
    _check_output(args.output, _degrades(spec))
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
    _check_output(args.output, Image2D if is_image_path(args.input) else Signal1D)
    print(f"whiten: {spec} input={args.input} output={args.output}")
    _write_any(args.output, whiten(read_any(args.input), spec))
    return 0


def _cmd_deconv(args) -> int:
    options = _given(args, "taps", "rows", "cols", "mu", "beta", "warmup", "passes")
    cfg = _build(Adapt2dConfig if is_image_path(args.input) else AdaptConfig, options, "--{}".format)
    spec = WhitenSpec(**_given(args, "kind", "order"))
    _check_output(args.output, Image2D if is_image_path(args.input) else Signal1D)
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
    # of that filtering, or a target that cannot be replaced, comes before
    # either file is written
    print(f"final kurtosis {result.final_kurtosis:.4f}; trace {[round(k, 4) for k in result.kurtosis_trace]}")
    _check_target(args.output)
    _check_target(args.filter_out)
    _write_any(args.output, restored)
    _write_file(args.filter_out, dump + "\n")
    print(f"filter written to {args.filter_out}")
    return 0


#: The memory limits of this process's container, read (never written) by
#: _grids: cgroup v2's memory.max (a number of bytes, or "max" for none) and
#: cgroup v1's memory.limit_in_bytes (a number, near 2**63 for none).
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
_CGROUP_V1_LIMIT = "/sys/fs/cgroup/memory/memory.limit_in_bytes"

#: Lines of the sweep CSV built and written at a time.
_CSV_BLOCK = 4096


def _memory() -> int:
    """The bytes this process may fill: the smallest of the host's physical
    memory and the numbers in the cgroup files memory.max (v2) and
    memory.limit_in_bytes (v1)."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for path in (_CGROUP_MEMORY_MAX, _CGROUP_V1_LIMIT):
        try:
            with open(path, "rb") as fh:
                memory = min(memory, int(fh.read()))
        except (OSError, ValueError):  # no such file, or "max"
            pass
    return memory


def _grids(*ranges: tuple[float, float, float]) -> list[np.ndarray]:
    """The sweep's grids, one (LO, HI, COUNT) each. Every COUNT is checked,
    and so is the surface of 8 bytes a cell, against _memory(), before any
    grid is allocated."""
    for *_, count in ranges:
        if not (np.isfinite(count) and count >= 1 and count == int(count)):
            raise ContractViolationError(f"grid COUNT must be a whole number of at least 1, got {count:g}")
    counts = [int(count) for *_, count in ranges]
    surface, memory = 8 * math.prod(counts), _memory()
    if surface > memory:
        raise ContractViolationError(f"a {' x '.join(map(str, counts))} surface takes {surface:,} bytes, more than the "
                                     f"{memory:,} of the host's physical memory (or of its cgroup's memory limit, if lower)")
    return [np.linspace(lo, hi, count) for (lo, hi, _), count in zip(ranges, counts)]


def _surface_csv(grid_a1: np.ndarray, grid_a2: np.ndarray, surface: np.ndarray):
    """The sweep CSV's text: the header, then the lines of _CSV_BLOCK cells a
    chunk, so that no more than one block's text is held at a time. Each
    cell follows experiment._cell's rule for a float, read as a Python float
    from one tolist() per surface row: a call of _cell on each numpy scalar
    cost ten times as much."""

    def cell(v: float) -> str:
        return repr(v) if math.isfinite(v) else ""

    def lines():
        a2 = [cell(v) for v in grid_a2.tolist()]
        for a1, row in zip(grid_a1.tolist(), surface):
            head = cell(a1)
            for tail, v in zip(a2, row.tolist()):
                yield f"{head},{tail},{cell(v)}\n"

    yield "a1,a2,abs_kurtosis\n"
    chunks = lines()
    while block := list(itertools.islice(chunks, _CSV_BLOCK)):
        yield "".join(block)


def _cmd_sweep(args) -> int:
    if is_image_path(args.input):
        raise ContractViolationError(f"sweep takes a WAV signal, not the image {args.input}")
    grid_a1, grid_a2 = _grids(args.a1_range, args.a2_range)
    print(f"sweep: input={args.input} a1 grid {grid_a1[0]:g}..{grid_a1[-1]:g} ({grid_a1.size}) "
          f"a2 grid {grid_a2[0]:g}..{grid_a2[-1]:g} ({grid_a2.size})")
    signal = read_wav(args.input)
    result = kurtosis_surface(signal, grid_a1, grid_a2)
    _write_file(args.output, _surface_csv(grid_a1, grid_a2, result.surface))
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
    # every value first, so a failed command prints nothing
    rho = normalized_correlation(a, b)
    al = aligned_correlation(a, b, args.max_lag) if args.max_lag else None
    ka, kb = map(kurtosis_excess, (a, b))
    print(f"rho (zero lag)  {rho:.6f}")
    if args.max_lag:
        print(f"rho (aligned)   {al.rho:.6f} at lag {al.lag} sign {al.sign:+d}")
    print(f"kurtosis        {ka:.6f} vs {kb:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kurtdeconv", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="apply a parametric degradation", argument_default=argparse.SUPPRESS)
    p.add_argument("input", help="WAV/PGM path, or synthetic:<kind> with --length/--height/--width and --seed")
    p.add_argument("output")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--a1", type=float)
    p.add_argument("--a2", type=float)
    p.add_argument("--a3", type=float)
    p.add_argument("--delay", type=int, help="echo spacing D (echo_iir only)")
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
        # argparse exits by itself only after printing --help, with code 0
        return exc.code
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (KurtdeconvError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

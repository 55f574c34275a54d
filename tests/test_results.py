"""The adaptation results keep each pass's filter and filter their input
only for the fields that are read."""
import pickle
from dataclasses import replace

import numpy as np
import pytest

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    DegenerateInputError,
    DegradeSpec,
    ExperimentConfig,
    FilterTaps1D,
    Image2D,
    Signal1D,
    SourceSpec,
    WhitenSpec,
    _native,
    adapt1d,
    adapt2d,
    experiment,
    run_adapt,
    run_adapt2d,
    run_experiment,
    write_wav,
)
from kurtdeconv.cli import main
from conftest import laplace_signal

RUNS = {
    "1-D": (run_adapt, Signal1D(laplace_signal(81, 400)), AdaptConfig(taps=3, mu=1e-4, beta=0.99, warmup=32, passes=4)),
    "2-D": (
        run_adapt2d,
        Image2D(np.random.default_rng(82).laplace(0.0, 1.0, (12, 14))),
        Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.99, warmup=16, passes=4),
    ),
}


@pytest.fixture
def filterings(monkeypatch):
    """The full filterings adapt1d, adapt2d and experiment do, by function name."""
    calls = []
    for module, name in ((adapt1d, "apply_taps"), (adapt2d, "apply_kernel"),
                         (experiment, "apply_taps"), (experiment, "apply_kernel")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def coefficients(f):
    return f.taps if isinstance(f, FilterTaps1D) else f.weights


def values(container):
    return container.samples if isinstance(container, Signal1D) else container.pixels


@pytest.mark.parametrize("dim", RUNS)
def test_adapting_filters_nothing(dim, filterings):
    run, x, cfg = RUNS[dim]
    run(x, cfg)
    assert filterings == []


@pytest.mark.parametrize("dim", RUNS)
def test_each_pass_is_filtered_at_most_once(dim, filterings):
    run, x, cfg = RUNS[dim]
    res = run(x, cfg)
    res.kurtosis_trace
    assert len(filterings) == cfg.passes
    res.output, res.final_kurtosis, res.kurtosis_trace
    assert len(filterings) == cfg.passes

    res = run(x, cfg)
    filterings.clear()
    res.output
    res.final_kurtosis
    assert len(filterings) == 1
    res.kurtosis_trace
    assert len(filterings) == cfg.passes


@pytest.mark.parametrize("source, degrade, adapt", [
    pytest.param(
        SourceSpec(kind="integrated_laplace", seed=3, length=5000), DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3),
        AdaptConfig(taps=3, mu=1e-5, beta=0.999, warmup=200, passes=3), id="1-D",
    ),
    pytest.param(
        SourceSpec(kind="integrated_uniform", seed=4, height=32, width=32), DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4),
        Adapt2dConfig(rows=3, cols=3, mu=-1e-4, beta=0.999, warmup=200, passes=3), id="2-D",
    ),
])
@pytest.mark.parametrize("whiten", ["highpass", "none"])
def test_experiment_filters_once(source, degrade, adapt, whiten, filterings):
    # the restoration of the observation, or, unwhitened, the adaptation's
    # own output; no pass is filtered for its trace
    run_experiment(ExperimentConfig("count", source, adapt, degrade, WhitenSpec(kind=whiten)))
    assert len(filterings) == 1


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("dim", RUNS)
def test_pass_filters_are_the_shorter_runs(dim, engine, monkeypatch):
    if engine == "python":
        monkeypatch.setattr(_native, "_LIBRARY", None)
    run, x, cfg = RUNS[dim]
    res = run(x, cfg)
    assert len(res.pass_filters) == len(res.kurtosis_trace) == cfg.passes
    assert len({coefficients(f).tobytes() for f in res.pass_filters}) == cfg.passes
    for i, f in enumerate(res.pass_filters):
        short = run(x, replace(cfg, passes=i + 1))
        assert np.array_equal(coefficients(f), coefficients(short.pass_filters[-1]))
        assert res.kurtosis_trace[i] == short.final_kurtosis


@pytest.mark.parametrize("dim", RUNS)
def test_pickle_round_trip(dim, filterings):
    run, x, cfg = RUNS[dim]
    res = run(x, cfg)
    unread = pickle.loads(pickle.dumps(res))
    res.output
    read = pickle.loads(pickle.dumps(res))
    filterings.clear()
    read.output
    assert filterings == []  # the value read before pickling came along
    for got in (unread, read):
        assert np.array_equal(values(got.input), values(res.input))
        assert [coefficients(f).tolist() for f in got.pass_filters] == [coefficients(f).tolist() for f in res.pass_filters]
        assert np.array_equal(values(got.output), values(res.output))
        assert got.final_kurtosis == res.final_kurtosis
        assert got.kurtosis_trace == res.kurtosis_trace


@pytest.mark.parametrize("run, x, cfg", [
    pytest.param(run_adapt, Signal1D(np.full(200, 2.0)), AdaptConfig(taps=2, mu=0.0, warmup=16, passes=2), id="1-D"),
    pytest.param(run_adapt2d, Image2D(np.full((8, 8), 2.0)), Adapt2dConfig(mu=0.0, warmup=16, passes=2), id="2-D"),
])
def test_filtering_errors_surface_on_read(run, x, cfg):
    # a constant input adapts, but its filtered output has no variance
    res = run(x, cfg)
    assert np.array_equal(values(res.output), values(x))
    with pytest.raises(DegenerateInputError, match="zero-variance"):
        res.final_kurtosis
    with pytest.raises(DegenerateInputError, match="zero-variance"):
        res.kurtosis_trace


def test_deconv_read_error_comes_before_any_file(tmp_path):
    # unwhitened, a constant recording adapts, and the trace deconv prints
    # fails on read: exit 1 with neither the filter nor the output written
    src = tmp_path / "c.wav"
    write_wav(src, Signal1D(np.full(400, 0.25)))
    out, taps = tmp_path / "o.wav", tmp_path / "f.txt"
    rc = main(["deconv", str(src), str(out), "--filter-out", str(taps), "--whiten", "none", "--mu", "0", "--warmup", "16"])
    assert rc == 1
    assert not out.exists() and not taps.exists()

"""The benchmark in perfbench/ calls the package only as ``kd.<name>``; each
name it reads must still exist, and so must the result attributes its
traced pipeline reads (``.kernel`` of a 2-D result, ``.filter`` of a 1-D
one). The benchmark files are read, not imported or changed."""
import re
from pathlib import Path

import numpy as np

import kurtdeconv as kd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_perfbench_reads_exists():
    names = {name for path in PERFBENCH.glob("*.py") for name in re.findall(r"kd\.([A-Za-z_]\w*)", path.read_text())}
    assert names
    assert sorted(name for name in names if not hasattr(kd, name)) == []


def test_result_attributes_perfbench_reads():
    img = kd.Image2D(np.random.default_rng(1).laplace(0.0, 1.0, (12, 14)))
    res2 = kd.run_adapt2d(img, kd.Adapt2dConfig(warmup=16))
    assert isinstance(res2.kernel, kd.Kernel2D) and res2.kernel is res2.pass_filters[-1]
    res1 = kd.run_adapt(kd.Signal1D(np.random.default_rng(2).laplace(0.0, 1.0, 400)), kd.AdaptConfig(warmup=16))
    assert isinstance(res1.filter, kd.FilterTaps1D) and res1.filter is res1.pass_filters[-1]

import os
import subprocess
import sys
from pathlib import Path

import kurtdeconv

# Imports the package and its CLI, runs a 1-D and an image experiment and a
# kurtosis surface sweep, and prints every scipy module loaded along the way.
SNIPPET = """
import sys
import kurtdeconv as kd
import kurtdeconv.cli

kd.run_experiment(kd.ExperimentConfig(
    experiment_id="audio",
    source=kd.SourceSpec(kind="laplace", seed=1, length=2000),
    degrade=kd.DegradeSpec(kind="fir2", a1=0.5, a2=-0.3),
    whiten=kd.WhitenSpec(kind="lpc", order=3),
    adapt=kd.AdaptConfig(taps=5, warmup=64),
))
kd.run_experiment(kd.ExperimentConfig(
    experiment_id="image",
    source=kd.SourceSpec(kind="integrated_uniform", seed=1, height=16, width=16),
    degrade=kd.DegradeSpec(kind="image_iir3", a1=0.3, a2=0.2, a3=0.1),
    whiten=kd.WhitenSpec(kind="highpass"),
    adapt=kd.Adapt2dConfig(warmup=16),
))
kd.kurtosis_surface(
    kd.make_source(kd.SourceSpec(kind="laplace", seed=1, length=2000)),
    [-0.5, 0.0, 0.5],
    [-0.5, 0.0, 0.5],
)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_pipeline_runs_without_scipy():
    src = Path(kurtdeconv.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"

"""The per-layer tracer in perfbench/ still finds what it wraps.

perfbench/tracer.py patches functions and methods by name; a rename in
distlab would silently drop their metrics. This runs it on small spectral,
complex and cohomology workloads, each in its own process so every cache
starts cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(suite: str, levels: str = "8") -> dict:
    """The tracer's metrics for one CLI suite, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), suite, "--m-list", levels, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
        check=True,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    return result["metrics"]


def test_tracer_reports_spectral_layers():
    metrics = _traced("spectral")
    for name in (
        "spectral.DoubleComplex.e_term.calls",
        "spectral.DoubleComplex.e_term.hit_ratio",
        "spectral.build_double.hit_ratio",
    ):
        assert name in metrics
    assert metrics["spectral.DoubleComplex.e_term.calls"][0] > 0
    # spectral takes its kernels on rows, so no dense front end runs here
    assert metrics["spectral.DoubleComplex.total_cohomology.calls"][0] > 0


def test_tracer_reports_complex_layers():
    metrics = _traced("complex")
    # Every name is reported, at 0.0 when its wrapper never ran.
    for name in ("lcomplex.build_jcomplex.self_s", "lcomplex.homotopy_check.self_s"):
        assert metrics[name][0] > 0


def test_tracer_reports_tate_sweep_layers():
    # the command of the tate_sweep workload; its builders are memoised
    metrics = _traced("cohomology", "12")
    # The Tate groups come from F_2/F_3 ranks on the sparse Hermite relation
    # rows, which the quotient builders make with the Hermite row core, so
    # their time is the builders' own; tate_group (the Smith route), hnf and
    # to_int are still wrapped, so a rename fails here, and this command
    # reaches none of the dense ones.
    for name in (
        "abgroup.ZQuotient.calls",
        "distribution.universal_distribution.self_s",
    ):
        assert metrics[name][0] > 0
    for name in (
        "exact_linalg.hnf.calls",
        "exact_linalg.to_int.calls",
        "abgroup.tate_group.calls",
    ):
        assert metrics[name][0] == 0

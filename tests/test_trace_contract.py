"""The per-layer tracer in perfbench/ still finds what it wraps.

perfbench/tracer.py patches functions and methods by name; a rename in
distlab would silently drop their metrics. This runs it once on a small
spectral workload, in its own process so every cache starts cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_reports_spectral_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "spectral", "--m-list", "8", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
        check=True,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    metrics = result["metrics"]
    for name in (
        "spectral.DoubleComplex.e_term.calls",
        "spectral.DoubleComplex.e_term.hit_ratio",
        "spectral.build_double.hit_ratio",
    ):
        assert name in metrics
    assert metrics["spectral.DoubleComplex.e_term.calls"][0] > 0
    assert metrics["exact_linalg.kernel_basis.calls"][0] > 0

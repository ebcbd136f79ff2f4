"""Tests of the benchmark harness itself (not part of the package suite).

    python3 -m pytest -q perfbench

Each workload runs end to end on two small levels, with its recorded digests
replaced by ones taken from a reference CLI run of the same levels.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = ((5, 7), (12,))


def _tiny(name: str) -> run.Workload:
    return run.Workload(name, run.WORKLOADS[name].argv, TINY)


def _reference(workload: run.Workload, levels: list[int]) -> dict:
    child = run.spawn(["-m", "distlab.cli", *workload.cli_args(levels)], timeout=120)
    assert child.code == 0, child.err
    report = json.loads(child.out)
    return {"levels": run.level_digests(report), "report": run.report_digest(report)}


@pytest.fixture
def tiny_bench(monkeypatch, request):
    w = _tiny(request.param)
    ref = _reference(w, w.levels(run.DEFAULT_SEED))
    monkeypatch.setattr(run, "load_digests", lambda name: ref)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    return w


@pytest.mark.parametrize("tiny_bench", sorted(run.WORKLOADS), indirect=True)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload(tiny_bench, trace):
    out = run.run(tiny_bench, run.DEFAULT_SEED, 0, trace)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert out["info"]["reps"] == (1 if trace else run.MIN_REPS)
    if trace:
        assert "trace_overhead" in res["metrics"]
        assert "exact_linalg.hnf.calls" in res["metrics"]
    else:
        assert set(res["metrics"]) == {"run_s", "setup_s", "check_max_s", "peak_rss_mib"}
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_changed_record_counts_as_failed(monkeypatch):
    w = _tiny("tate_sweep")
    levels = w.levels(run.DEFAULT_SEED)
    ref = _reference(w, levels)
    ref["levels"][str(levels[0])] = "0" * 64
    monkeypatch.setattr(run, "load_digests", lambda name: ref)
    res = run.run(w, run.DEFAULT_SEED, 0, False)["result"]
    assert not res["correct"] and res["failed"] > 0


def test_traced_and_untraced_reports_match():
    w = _tiny("verify_small")
    argv = w.cli_args(w.levels(run.DEFAULT_SEED))
    plain = run.spawn(["-m", "distlab.cli", *argv], timeout=120)
    traced = run.spawn([str(run.HERE / "tracer.py"), *argv], timeout=120)
    res = json.loads(traced.out)
    assert plain.code == 0 and res["code"] == 0
    assert run.report_digest(json.loads(res["report"])) == run.report_digest(json.loads(plain.out))


def test_slowest_check_takes_each_checks_median_first():
    # Two near-equal checks, each slowed in a different repetition; a crashed
    # repetition reports no times.
    reps = [{"a": 1.0, "b": 3.0}, {"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, {}]
    assert run.slowest_check(reps) == 1.0
    assert run.slowest_check([{}]) == 0.0


def test_probe_keeps_the_report_and_samples_the_core():
    w = _tiny("tate_sweep")
    argv = w.cli_args(w.levels(run.DEFAULT_SEED))
    plain = run.spawn(["-m", "distlab.cli", *argv], timeout=120)
    probed = run.spawn_probed(argv, timeout=120)
    assert probed.code == plain.code == 0
    assert json.loads(probed.out)["pass"]
    assert run.report_digest(json.loads(probed.out)) == run.report_digest(json.loads(plain.out))
    assert probed.ref_ns > 0 and 0 < probed.import_s < probed.wall_s
    assert probed.scale == pytest.approx(probe.REF_NS / probed.ref_ns)

    setup = run.spawn_probed(["--import-only"], timeout=60)
    assert setup.code == 0 and setup.ref_ns > 0 and 0 < setup.import_s < setup.wall_s


def _bindings() -> dict:
    import distlab  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "distlab" or name.startswith("distlab."):
            out.update({(name, k): v for k, v in vars(mod).items()})
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__.startswith("distlab"):
                    out.update({(name, k, a): f for a, f in vars(v).items()})
    return out


def test_tracer_restores_every_binding():
    import distlab.cli  # noqa: F401

    before = _bindings()
    res = tracer.traced_main(["verify", "--suite", "all", "--m-list", "5,12", "--format", "json"])
    after = _bindings()
    assert res["code"] == 0 and res["spans"] > 0
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_self_time_leaves_out_tracer_work():
    t = tracer.Tracer()
    # A parent call of 10 s holds a 3 s child, 1 s of which is the
    # tracer scanning the child's arguments; the parent's own scan is 0.5 s.
    t.spans = [
        ["exact_linalg.hnf", 0.0, 10.0, -1, 0.5],
        ["exact_linalg.kernel_basis", 2.0, 5.0, 0, 1.0],
    ]
    m = t.metrics()
    assert m["exact_linalg.hnf.self_s"][0] == pytest.approx(6.5)
    assert m["exact_linalg.kernel_basis.self_s"][0] == pytest.approx(2.0)

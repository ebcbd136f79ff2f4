"""distlab benchmark: time to a verdict of the ``distlab`` CLI.

    python3 perfbench/run.py --workload tate_sweep --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing). The seed draws one level from each of
the workload's strata; the CLI receives only those levels. One client in a
closed loop starts a fresh CLI process, waits for it, checks its report and
starts the next while another repetition fits in ``--seconds`` (at least
``MIN_REPS`` times), after one untimed warm-up repetition. Each process
starts with cold caches, as a user's does.

Each CLI process runs under ``probe.py``, which samples the speed of the
core it runs on. Every time is scaled by that process's median sample to
seconds on a reference core (``probe.REF_NS``), so that a core slowed by
other work on the host does not read as a slower program.

``--trace 0`` prints the end-to-end metrics: medians over the repetitions of
scaled wall time (``run_s``) and of the child's own peak RSS
(``peak_rss_mib``); the largest of the checks' median scaled times
(``check_max_s``); and ``setup_s``, the median scaled time from spawning a
fresh interpreter until it has imported ``distlab.cli``. ``--trace 1``
alternates untraced runs with runs under ``tracer.py`` and prints
per-layer metrics and ``trace_overhead``; these are not scaled. The last
stdout line is the JSON result; the line before it records the machine,
the levels, each repetition's raw and scaled times, its speed samples and
the report digest.

A check fails if it reports ``pass: false`` or if its record differs from
the one in ``digests.json``; a crash or a non-zero exit fails every check of
that run. Regenerate ``digests.json`` with ``record_digests.py``, only when
an output change is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_REPS = 3
SETUP_REPS = 15
# Every child is killed once the whole run has used this much wall time,
# so the benchmark ends well inside its 180 s limit.
HARD_LIMIT_S = 160.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # One level is drawn from each stratum; the levels of a stratum cost
    # about the same, so every draw does too.
    strata: tuple[tuple[int, ...], ...]

    def levels(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}:{seed}")
        return sorted(rng.choice(s) for s in self.strata)

    def cli_args(self, levels: list[int]) -> list[str]:
        return [*self.argv, "--m-list", ",".join(map(str, levels)), "--format", "json", "--timings"]


# The first stratum of each workload is a single level, its heaviest: it
# holds the largest check, so check_max_s times the same check on every
# seed. Every other stratum holds levels of one kind (same number of
# primes, same parity) and about the same cost, so the seed varies which
# level of a kind runs, not the kind or the cost. README.md gives the
# reasons for each choice.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tate_sweep", ("cohomology",),
                 ((111,), (156,), (103, 107, 109))),
        Workload("verify_small", ("verify", "--suite", "all"),
                 ((21,), (8,), (5, 7))),
    )
}


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mib: float
    out: str
    err: str
    # From probe.py: median reference sample (0 if none) and the seconds
    # from spawn until distlab.cli was imported (0 if it never was).
    ref_ns: int = 0
    import_s: float = 0.0

    @property
    def scale(self) -> float:
        """Factor from this child's seconds to seconds on the reference core."""
        return probe.REF_NS / self.ref_ns if self.ref_ns else 1.0


def spawn(args: list[str], timeout: float, pass_fds: tuple = ()) -> Child:
    """Run one Python child to completion; peak RSS is that child's alone."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=_env(), pass_fds=pass_fds,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(timeout, 0.0), p.kill)
    timer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        reader.join()
        # wait4 reports this child's own rusage; RUSAGE_CHILDREN would keep
        # the maximum over every child reaped so far.
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no child running.
        p.kill()
        p.wait()
        reader.join()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Child(p.returncode, wall, usage.ru_maxrss / 1024, out, "".join(err))


def spawn_probed(args: list[str], timeout: float) -> Child:
    """``spawn`` of ``probe.py`` with ``args``; reads back its speed samples."""
    r, w = os.pipe()
    with os.fdopen(r) as fh:
        try:
            t0 = probe.now()
            child = spawn([str(HERE / "probe.py"), str(w), *args], timeout, (w,))
        finally:
            os.close(w)
        fields = fh.read().split()
    if len(fields) == 3:
        child.ref_ns = int(fields[0])
        child.import_s = max(float(fields[2]) - t0, 0.0)
    return child


# ---------------------------------------------------------------------------
# report checking


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def report_digest(report: dict) -> str:
    """sha256 of the exact bytes ``distlab <args> --format json`` prints."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from distlab.cli import render_json

    return hashlib.sha256(render_json(report, timings=False).encode()).hexdigest()


def level_digests(report: dict) -> dict[str, str]:
    """One digest per level over that level's check records, timings left out."""
    by_level: dict[int, list] = {}
    for rec in report["checks"]:
        rec = {k: v for k, v in rec.items() if k != "runtime_ms"}
        by_level.setdefault(rec["m"], []).append(rec)
    return {str(m): _digest(recs) for m, recs in sorted(by_level.items())}


@dataclass
class Verdict:
    attempted: int
    failed: int
    check_s: dict[str, float]  # seconds of each check, keyed "<m>:<name>"
    digest: str | None


def judge(code: int, text: str, levels: list[int], recorded: dict) -> Verdict:
    """Count the checks of one run and those that failed.

    ``recorded`` maps each level to the digest of its records; every check
    of a level that is missing there or differs counts as failed.
    """
    try:
        report = json.loads(text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError):
        return Verdict(max(len(levels), 1), max(len(levels), 1), {}, None)
    n = len(checks)
    if code != 0 or report.get("levels") != levels or n == 0:
        return Verdict(max(n, 1), max(n, 1), {}, None)
    bad_levels = {
        int(m) for m, d in level_digests(report).items()
        if m not in recorded or recorded[m] != d
    }
    failed = sum(1 for r in checks if not r["pass"] or r["m"] in bad_levels)
    times = {f"{r['m']}:{r['name']}": r["runtime_ms"] / 1000 for r in checks}
    return Verdict(n, failed, times, report_digest(report))


def load_digests(workload: str) -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# machine record


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else "missing",
    }


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


# ---------------------------------------------------------------------------
# measurement


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median time from spawn until ``distlab.cli`` is imported: scaled, raw."""
    spawn_probed(["--import-only"], deadline - time.perf_counter())  # bytecode cache
    kids = [
        spawn_probed(["--import-only"], deadline - time.perf_counter())
        for _ in range(SETUP_REPS)
    ]
    return (statistics.median(k.import_s * k.scale for k in kids),
            statistics.median(k.import_s for k in kids))


def slowest_check(check_s: list[dict]) -> float:
    """The largest of the checks' median times over the repetitions.

    Taking each repetition's largest check first and then the median would
    time, in each repetition, whichever of several near-equal checks the
    host slowed most.
    """
    timed = [t for t in check_s if t]
    if not timed:
        return 0.0
    return max(statistics.median(t[k] for t in timed if k in t) for k in timed[0])


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    levels = workload.levels(seed)
    recorded = load_digests(workload.name)
    cli = workload.cli_args(levels)
    info = {"workload": workload.name, "seed": seed, "levels": levels,
            "machine": machine(), "loadavg_start": loadavg()}

    attempted = failed = 0
    digests: set = set()
    plain: list[Child] = []
    check_s: list[dict] = []
    traced: list[dict] = []
    traced_wall: list[float] = []

    def tally(code, text):
        nonlocal attempted, failed
        v = judge(code, text, levels, recorded["levels"])
        attempted += v.attempted
        failed += v.failed
        digests.add(v.digest)
        return v

    setup_s, setup_wall_s = (None, None) if trace else measure_setup(deadline)
    # One untimed repetition first, so that the timed ones find every module
    # the CLI loads (scipy too) in the page cache. Its report is still checked.
    warm = spawn_probed(cli, deadline - time.perf_counter())
    tally(warm.code, warm.out)
    window_end = time.perf_counter() + seconds
    reps = 0
    last_rep_s = 0.0
    # A traced repetition is a pair of runs, so one pair is enough.
    min_reps = 1 if trace else MIN_REPS
    # A repetition starts only if one as long as the last ends in the window.
    while reps < min_reps or time.perf_counter() + last_rep_s <= window_end:
        rep_start = time.perf_counter()
        child = spawn_probed(cli, deadline - time.perf_counter())
        plain.append(child)
        times = tally(child.code, child.out).check_s
        check_s.append({k: t * child.scale for k, t in times.items()})
        if trace:
            t = spawn([str(HERE / "tracer.py"), *cli], deadline - time.perf_counter())
            try:
                res = json.loads(t.out)
            except ValueError:
                res = {"code": t.code or 1, "report": "", "metrics": {}}
            tally(res["code"] if t.code == 0 else t.code, res["report"])
            traced.append(res["metrics"])
            traced_wall.append(t.wall_s)
        reps += 1
        last_rep_s = time.perf_counter() - rep_start
        if time.perf_counter() > deadline:
            break

    # Traced and untraced runs must print the same report.
    if len(digests) != 1 or None in digests:
        failed = max(failed, 1)
    digest = next(iter(digests)) if len(digests) == 1 else None
    if seed == DEFAULT_SEED and digest != recorded["report"]:
        failed = max(failed, 1)
    info.update(report_sha256=digest, reps=reps, loadavg_end=loadavg(),
                setup_wall_s=setup_wall_s,
                rep_wall_s=[round(c.wall_s, 4) for c in plain],
                rep_run_s=[round(c.wall_s * c.scale, 4) for c in plain],
                rep_ref_ns=[c.ref_ns for c in plain],
                rep_check_max_s=[round(max(t.values(), default=0.0), 4) for t in check_s])
    if not all(c.code == 0 for c in plain):
        info["stderr_tail"] = next(c.err for c in plain if c.code != 0)[-2000:]

    if trace:
        metrics = {}
        for name in traced[0] if traced and traced[0] else ():
            values = [m[name][0] for m in traced if name in m]
            metrics[name] = {"value": statistics.median(values), "unit": traced[0][name][1]}
        metrics["trace_overhead"] = {
            "value": statistics.median(traced_wall) / statistics.median(c.wall_s for c in plain),
            "unit": "ratio",
        }
    else:
        metrics = {
            "run_s": {"value": statistics.median(c.wall_s * c.scale for c in plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "check_max_s": {"value": slowest_check(check_s), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(c.peak_rss_mib for c in plain), "unit": "MiB"},
        }
    return {"info": info, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "distlab" / "cli.py").is_file():
        print(f"perfbench: no distlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

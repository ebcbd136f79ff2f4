"""Run one ``distlab`` CLI invocation and sample the speed of its core.

    PYTHONPATH=src python3 perfbench/probe.py FD cohomology --m-list 109,156 --format json
    PYTHONPATH=src python3 perfbench/probe.py FD --import-only

The cores this benchmark runs on are shared with other work, and a core's
speed for pure-Python code drifts by a third within seconds. This script
measures that speed where the program runs: every ``PERIOD_S`` of wall time
a SIGALRM handler times ``REF_ITERS`` turns of a fixed ``Fraction`` loop,
the kind of arithmetic distlab spends its time on, in the process and on
the core that runs the CLI. Meanwhile it runs
``distlab.cli.main(argv)``, as ``python -m distlab.cli`` does, so stdout
and the exit code are the CLI's own.

With ``--import-only`` it imports ``distlab.cli``, reads the monotonic
clock, and then takes ``IMPORT_SAMPLES`` samples back to back.

On exit it writes one line to file descriptor FD:
``<median sample in ns> <number of samples> <monotonic time after import>``.
In that mode only modules that every interpreter loads at start-up are
imported before ``distlab.cli``, so the timed import is that of
``distlab.cli`` alone.
"""

import os
import signal
import sys
import time

PERIOD_S = 0.02
REF_ITERS = 12
IMPORT_SAMPLES = 50
# Median sample on the reference core (2-vCPU Xeon VM, Python 3.11.7);
# run.py scales every time to a core that takes this long.
REF_NS = 100_000


def now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the host, so the
    # parent can subtract its own reading at spawn from this one.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Sampler:
    def __init__(self):
        from fractions import Fraction

        self.fraction = Fraction
        self.ns: list[int] = []

    def sample(self, *_):
        F = self.fraction
        t = time.perf_counter_ns()
        x = F(1, 3)
        for i in range(REF_ITERS):
            x = x * F(i + 1, i + 2) + F(1, 7)
        self.ns.append(time.perf_counter_ns() - t)

    def median(self) -> int:
        ns = sorted(self.ns)
        return ns[len(ns) // 2] if ns else 0


def main(argv: list[str]) -> int:
    fd, args = int(argv[0]), argv[1:]
    imported = 0.0
    code = 1
    sampler = None
    try:
        if args == ["--import-only"]:
            import distlab.cli  # noqa: F401

            imported = now()
            sampler = Sampler()
            for _ in range(IMPORT_SAMPLES):
                sampler.sample()
            code = 0
        else:
            sampler = Sampler()
            signal.signal(signal.SIGALRM, sampler.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            try:
                import distlab.cli

                imported = now()
                code = distlab.cli.main(args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        ns = (sampler.median(), len(sampler.ns)) if sampler else (0, 0)
        os.write(fd, f"{ns[0]} {ns[1]} {imported!r}\n".encode())
        os.close(fd)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

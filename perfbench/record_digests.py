"""Regenerate ``digests.json``: the reference output of every workload.

    python3 perfbench/record_digests.py [workload ...]

For each workload it runs the CLI once over every level of its strata and
stores one digest per level, then once over the default seed's levels and
stores the digest of that whole report. Run it only when a change to the
program's output is intended; the benchmark fails any check whose record
no longer matches.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, DIGESTS, WORKLOADS, level_digests, report_digest, spawn


def _report(workload, levels) -> dict:
    child = spawn(["-m", "distlab.cli", *workload.cli_args(levels)], timeout=3600)
    report = json.loads(child.out)
    if child.code != 0 or not report["pass"]:
        raise SystemExit(f"{workload.name} {levels}: checks failed, nothing recorded")
    return report


def main(names: list[str]) -> None:
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        every = sorted({m for s in w.strata for m in s})
        table[name] = {
            "levels": level_digests(_report(w, every)),
            "report": report_digest(_report(w, w.levels(DEFAULT_SEED))),
        }
        print(name, len(every), "levels recorded", flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

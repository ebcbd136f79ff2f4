"""Command-line front end: runs verification suites and emits reports.

Every subcommand resolves a set of levels, runs its checks, and prints one
report. JSON reports are deterministic for fixed inputs: records are sorted
by (level, check name) and timings are left out unless requested. Exit code
0 means every check passed, 1 means at least one failed, 2 is a usage error.

Each suite builder imports the modules its checks use, and ``main`` builds
every item before the first check is timed, so no check time covers a
module import.  Only ``arith`` is imported at the top, so importing the
CLI loads no other submodule; no suite of ``verify`` loads numpy.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .arith import primes_of, prime_to_p_part, validate_level

ASSUMPTIONS = {
    "w": "root-of-unity count: m for even levels, 2m for odd levels",
    "Q": "unit-index corrector: 1 at prime-power levels, 2 otherwise",
    "S": "integral span of all fractional-part elements theta(a), a = 1..m-1; "
    "the principal single-element variant is reported separately per level",
}


def _plain(x):
    """JSON-safe, deterministic rendering of check values."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, (str, float)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return str(x)


def _run_items(items):
    """items: iterable of (m, name, inputs, fn); fn() -> (expected, computed, ok)."""
    recs = []
    for m, name, inputs, fn in items:
        t0 = time.perf_counter()
        expected, computed, ok = fn()
        ms = int(round((time.perf_counter() - t0) * 1000))
        recs.append(
            {
                "m": m,
                "name": name,
                "inputs": _plain(inputs),
                "expected": _plain(expected),
                "computed": _plain(computed),
                "pass": bool(ok),
                "runtime_ms": ms,
            }
        )
    return recs


def _all_true(d: dict) -> dict:
    return {k: (True if isinstance(v, bool) else _all_true(v) if isinstance(v, dict) else v) for k, v in d.items()}


def _breakdown(res: dict) -> dict:
    return {k: v for k, v in res.items() if k not in ("level", "kind", "ok")}


def _bool_check(fn_res: dict):
    got = _breakdown(fn_res)
    if not got:
        return True, fn_res["ok"], fn_res["ok"]
    return _all_true(got), got, fn_res["ok"]


def _flag(fn):
    def run():
        v = fn()
        return True, v, v

    return run


# ---------------------------------------------------------------------------
# suites: each returns a list of (m, name, inputs, fn) items


def suite_cohomology(m: int, args) -> list:
    from .distribution import cohomology_check, tate_distribution

    def closed():
        res = cohomology_check(m)
        expected = {
            "distribution": res["u_expected"],
            "predistribution": res["o_expected"],
        }
        computed = {k: res[k] for k in ("u_odd", "u_even", "o_odd", "o_even")}
        return expected, computed, res["ok"]

    def h1_rank():
        g = tate_distribution(m, "odd")
        want = 2 ** (len(primes_of(m)) - 1)
        got = len(g.torsion)
        return want, got, got == want and g.free_rank == 0

    return [
        (m, "h1_rank", {"m": m}, h1_rank),
        (m, "tate_closed_forms", {"m": m}, closed),
    ]


def suite_complex(m: int, args) -> list:
    from .distribution import exp_kernel_check, smoothing_check
    from .lcomplex import acyclicity_check, homotopy_check, intertwine_check

    return [
        (m, "acyclic_and_h0", {"m": m}, lambda: _bool_check(acyclicity_check(m))),
        (m, "homotopy_identities", {"m": m}, lambda: _bool_check(homotopy_check(m))),
        (m, "smoothing_intertwines", {"m": m}, lambda: _bool_check(intertwine_check(m))),
        (m, "smoothing_inverse", {"m": m}, lambda: _bool_check(smoothing_check(m))),
        (m, "exp_kernel", {"m": m}, lambda: _bool_check(exp_kernel_check(m))),
    ]


def suite_detphi(m: int, args) -> list:
    from .cyclotomic import (
        character_product_full,
        character_product_minus,
        smoothing_det,
        smoothing_det_minus,
    )
    from .lcomplex import det_check

    def dets():
        res = det_check(m)
        expected = {"full": res["full_expected"], "minus": res["minus_expected"]}
        computed = {"full": res["full"], "minus": res["minus"]}
        return expected, computed, res["ok"]

    items = [(m, "det_products", {"m": m}, dets)]
    for p in primes_of(m):
        f = prime_to_p_part(m, p)

        def charprod(p=p, f=f):
            expected = {"full": smoothing_det(p, f), "minus": smoothing_det_minus(p, f)}
            computed = {
                "full": 1 / character_product_full(p, f),
                "minus": 1 / character_product_minus(p, f),
            }
            ok = expected == computed
            return expected, computed, ok

        items.append(
            (m, f"character_product:p={p}", {"m": m, "p": p, "f": f}, charprod)
        )
    return items


def _kinds(args) -> list[str]:
    """The differential kinds of a run: the one ``--d`` names, or both."""
    from .lcomplex import AVERAGE, DIFFERENCE, KINDS

    flag = getattr(args, "d", None)
    return [{"d1": DIFFERENCE, "d2": AVERAGE}[flag]] if flag else list(KINDS)


def _index_values(m: int):
    """The check of the index invariant of each variant against its closed form."""
    from .lcomplex import KINDS
    from .spectral import index_values_check

    def run():
        res = index_values_check(m)
        expected = {k: res[k]["expected"] for k in KINDS}
        computed = {k: res[k]["value"] for k in KINDS}
        return expected, computed, res["ok"]

    return run


def suite_spectral(m: int, args) -> list:
    from .lcomplex import DIFFERENCE
    from .spectral import (
        abutment_check,
        degeneration_check,
        e1_page_check,
        e2_page_check,
        scaled_rows_check,
        splitting_check,
    )

    items = []
    for kind in _kinds(args):
        tag = "d1" if kind == DIFFERENCE else "d2"
        items += [
            (m, f"page1:{tag}", {"m": m, "d": tag}, lambda k=kind: _bool_check(e1_page_check(m, k))),
            (m, f"page2:{tag}", {"m": m, "d": tag}, lambda k=kind: _bool_check(e2_page_check(m, k))),
            (m, f"degeneration:{tag}", {"m": m, "d": tag}, lambda k=kind: _bool_check(degeneration_check(m, k))),
            (m, f"abutment:{tag}", {"m": m, "d": tag}, lambda k=kind: _bool_check(abutment_check(m, k))),
            (m, f"h0_splitting:{tag}", {"m": m, "d": tag}, lambda k=kind: _bool_check(splitting_check(m, k))),
        ]

    items.append((m, "i_invariant", {"m": m}, _index_values(m)))
    items.append((m, "scaled_rows", {"m": m}, lambda: _bool_check(scaled_rows_check(m))))
    return items


def page_table(m: int, kind: str, page: int, qmax: int) -> dict:
    """Entries of one page of the first-quadrant-style variant, as strings."""
    from .lcomplex import DIFFERENCE
    from .spectral import HALF, build_double

    dc = build_double(m, kind, HALF, q_hi=qmax)
    cells = [
        {"p": p, "q": q, "group": str(dc.e_term(p, q, page))}
        for p, q in dc.interior_cells(page)
    ]
    return {
        "m": m,
        "d": "d1" if kind == DIFFERENCE else "d2",
        "page": page,
        "cells": cells,
    }


def suite_index(m: int, args) -> list:
    from .lcomplex import index_formula_check

    def formula():
        res = index_formula_check(m)
        computed = {
            "lhs": res["lhs"],
            "det_part": res["det_part"],
            "i_d1": res["i_d1"],
            "i_d2": res["i_d2"],
        }
        return res["rhs"], computed, res["equal"]

    return [
        (m, "i_invariant_closed_forms", {"m": m}, _index_values(m)),
        (m, "index_formula", {"m": m}, formula),
    ]


def random_index_items(seed: int, trials: int) -> list:
    from .abgroup import euler_regulator_check, random_regulator_pair

    rng = random.Random(seed)
    items = []
    for t in range(trials):
        CA, CB, lam = random_regulator_pair(rng)

        def prop(CA=CA, CB=CB, lam=lam):
            res = euler_regulator_check(CA, CB, lam)
            return res["rhs"], res["lhs"], res["equal"]

        items.append(
            (0, f"regulator_multiplicativity:{t:03d}", {"seed": seed, "trial": t}, prop)
        )
    return items


def suite_stickelberger(m: int, args) -> list:
    from .stickelberger import (
        alpha_compat_check,
        alpha_ideal_index_check,
        alpha_image_index_check,
        antisymmetrization_index_check,
        definition_report,
        group_stability_check,
        minus_ideal_index_check,
        smoothing_minus_image_check,
        stickelberger_ideal,
        theta_norm_check,
        units_of,
    )

    def ranks():
        data = stickelberger_ideal(m)
        half = len(units_of(m)) // 2
        expected = {"ideal": half + 1, "minus": half}
        computed = {"ideal": data.S.rank, "minus": data.S_minus.rank}
        return expected, computed, expected == computed

    def value_check(fn):
        def run():
            res = fn(m)
            return res["expected"], res["value"], res["ok"]

        return run

    def definitions():
        rep = definition_report(m)
        return (
            "informational: principal variant coincides only at prime-power levels",
            {k: v for k, v in rep.items() if k != "level"},
            True,
        )

    return [
        (m, "alpha_structure", {"m": m}, lambda: _bool_check(alpha_compat_check(m))),
        (m, "antisymmetrization_index", {"m": m}, value_check(antisymmetrization_index_check)),
        (m, "group_stability", {"m": m}, _flag(lambda: group_stability_check(m))),
        (m, "ideal_ranks", {"m": m}, ranks),
        (m, "minus_ideal_index", {"m": m}, value_check(minus_ideal_index_check)),
        (m, "minus_ideal_in_alpha_image", {"m": m}, value_check(alpha_ideal_index_check)),
        (m, "minus_index_of_alpha_image", {"m": m}, value_check(alpha_image_index_check)),
        (m, "principal_variant_report", {"m": m}, definitions),
        (m, "smoothed_minus_image", {"m": m}, value_check(smoothing_minus_image_check)),
        (m, "theta_norm", {"m": m}, _flag(lambda: theta_norm_check(m))),
    ]


def suite_hminus(m: int, args) -> list:
    from .cyclotomic import L_VALUE_TOL, h_minus, l_value_crosscheck

    def value():
        h = h_minus(m)
        return "positive integer", h, h >= 1

    def floats():
        rows = l_value_crosscheck(m)
        worst = max(r["rel_err"] for r in rows)
        return f"relative error <= {L_VALUE_TOL}", f"{worst:.3e}", all(r["ok"] for r in rows)

    return [
        (m, "h_minus", {"m": m}, value),
        (m, "l1_float_crosscheck", {"m": m}, floats),
    ]


SUITES = {
    "cohomology": suite_cohomology,
    "complex": suite_complex,
    "detphi": suite_detphi,
    "spectral": suite_spectral,
    "index": suite_index,
    "stickelberger": suite_stickelberger,
    "hminus": suite_hminus,
}


# ---------------------------------------------------------------------------
# report assembly and output


def assemble(suite: str, levels: list, records: list, tables=None) -> dict:
    records = sorted(records, key=lambda r: (r["m"], r["name"]))
    report = {
        "schema": 1,
        "tool": "distlab",
        "version": __version__,
        "suite": suite,
        "levels": levels,
        "assumptions": ASSUMPTIONS,
        "checks": records,
        "pass": all(r["pass"] for r in records),
    }
    if tables:
        report["tables"] = tables
    return report


def render_json(report: dict, timings: bool) -> str:
    out = dict(report)
    if not timings:
        out["checks"] = [
            {k: v for k, v in rec.items() if k != "runtime_ms"}
            for rec in report["checks"]
        ]
    return json.dumps(out, indent=2) + "\n"


def _compact(x) -> str:
    s = x if isinstance(x, str) else json.dumps(x)
    return s if len(s) <= 48 else s[:45] + "..."


def render_text(report: dict) -> str:
    lines = [f"distlab {report['version']}, suite {report['suite']}"]
    width = max((len(r["name"]) for r in report["checks"]), default=10)
    for r in report["checks"]:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(
            f"m={r['m']:<4d} {r['name']:<{width}s} {status} "
            f"{r['runtime_ms']:>6d}ms  expected {_compact(r['expected'])}"
            f" | computed {_compact(r['computed'])}"
        )
    for tab in report.get("tables", ()):
        lines.append("")
        lines.append(f"page {tab['page']} of ({tab['m']}, {tab['d']}):")
        ps = sorted({c["p"] for c in tab["cells"]})
        qs = sorted({c["q"] for c in tab["cells"]}, reverse=True)
        by_pos = {(c["p"], c["q"]): c["group"] for c in tab["cells"]}
        colw = max([len(v) for v in by_pos.values()] + [3])
        for q in qs:
            row = " ".join(f"{by_pos.get((p, q), '.'):>{colw}s}" for p in ps)
            lines.append(f"  q={q:>2d} | {row}")
        lines.append(f"       +-{'-' * ((colw + 1) * len(ps))}")
        lines.append(
            "         " + " ".join(f"{('p=' + str(p)):>{colw}s}" for p in ps)
        )
    n = len(report["checks"])
    failed = sum(1 for r in report["checks"] if not r["pass"])
    lines.append(f"{n} checks, {n - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def emit(report: dict, args) -> None:
    text = (
        render_json(report, args.timings)
        if args.format == "json"
        else render_text(report)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument handling


def _add_common(sp) -> None:
    sp.add_argument("--m", type=int, help="single level")
    sp.add_argument("--m-list", dest="m_list", help="comma-separated levels")
    sp.add_argument(
        "--m-max", dest="m_max", type=int, help="sweep all valid levels up to this"
    )
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", help="write the report to a file instead of stdout")
    sp.add_argument(
        "--timings",
        action="store_true",
        help="include per-check runtimes in JSON output (text always shows them)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distlab",
        description="exact verification suites for distribution lattices and their index formulas",
    )
    parser.add_argument("--version", action="version", version=f"distlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("cohomology", "Tate cohomology of the distribution quotients vs closed forms"),
        ("complex", "acyclicity, degree-zero cohomology, homotopy and operator identities"),
        ("detphi", "determinant products of the smoothing operator, dual-route"),
        ("index", "index formula and regulator multiplicativity"),
        ("spectral", "pages of the involution double complexes"),
        ("stickelberger", "minus-part lattice indices in the group ring"),
        ("hminus", "relative class number oracle and float cross-check"),
        ("verify", "aggregate suites over a set of levels"),
    ):
        sp = sub.add_parser(name, help=help_)
        _add_common(sp)
        if name == "spectral":
            sp.add_argument("--d", choices=("d1", "d2"), help="restrict to one differential")
            sp.add_argument("--qmax", type=int, default=6, help="vertical window for page tables")
            sp.add_argument("--page", type=int, help="also emit the page table at this page")
        if name == "index":
            sp.add_argument("--seed", type=int, default=0, help="seed for the randomized suite")
            sp.add_argument("--trials", type=int, default=0, help="randomized property trials")
        if name == "verify":
            sp.add_argument(
                "--suite",
                choices=("all",) + tuple(SUITES),
                default="all",
                help="which suite(s) to aggregate",
            )
    return parser


def _is_level(m: int) -> bool:
    try:
        validate_level(m)
    except ValueError:
        return False
    return True


def resolve_levels(args, parser, required=True) -> list:
    ms = []
    if args.m is not None:
        ms.append(args.m)
    if args.m_list:
        for part in args.m_list.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                ms.append(int(part))
            except ValueError:
                parser.error(f"--m-list entry {part!r} is not an integer")
    if args.m_max is not None:
        sweep = [x for x in range(args.m_max + 1) if _is_level(x)]
        if not sweep:
            parser.error(f"--m-max {args.m_max} sweeps no level: the least level is 3")
        ms.extend(sweep)
    if not ms:
        if required:
            parser.error("one of --m, --m-list, --m-max is required")
        return []
    for x in ms:
        try:
            validate_level(x)
        except ValueError as exc:
            parser.error(str(exc))
    return sorted(set(ms))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trials = getattr(args, "trials", 0)
    if trials < 0:
        parser.error("--trials must be at least 0")
    levels = resolve_levels(args, parser, required=trials == 0)
    page = getattr(args, "page", None)
    if page is not None and page < 1:
        parser.error("--page must be at least 1")
    if args.command == "spectral" and args.qmax < 2:
        parser.error("--qmax must be at least 2")
    if page is not None and page > args.qmax + 1:
        # page r at (p, q) reads rows up to q + r - 1, so row 0 needs qmax >= r - 1
        parser.error(
            f"--page {page} has no cell inside --qmax {args.qmax}: "
            f"it needs --qmax {page - 1} or more"
        )
    if args.out:
        # Fail before any check runs; append mode keeps an existing report
        # intact until the new one is written.
        try:
            open(args.out, "a").close()
        except OSError as exc:
            parser.error(f"cannot write the report to --out {args.out}: {exc.strerror}")

    if args.command == "verify":
        suite = f"verify:{args.suite}"
        names = list(SUITES) if args.suite == "all" else [args.suite]
    else:
        suite, names = args.command, [args.command]
    items = []
    tables = []
    for m in levels:
        for name in names:
            items += SUITES[name](m, args)
        if page is not None:
            tables += [page_table(m, kind, page, args.qmax) for kind in _kinds(args)]
    if trials:
        items += random_index_items(args.seed, trials)
    report = assemble(suite, levels, _run_items(items), tables)

    emit(report, args)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

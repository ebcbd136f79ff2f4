import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from distlab import cli, cyclotomic
from distlab.arith import validate_level
from distlab.cyclotomic import l_value_crosscheck

ROOT = Path(__file__).resolve().parents[1]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cohomology_json_report(capsys):
    code, out = run(["cohomology", "--m", "12", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["suite"] == "cohomology"
    assert rep["levels"] == [12]
    assert set(rep["assumptions"]) == {"w", "Q", "S"}
    assert rep["pass"] is True
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["h1_rank"]["computed"] == 2
    assert by_name["h1_rank"]["pass"] is True


def test_cohomology_at_four_primes(capsys):
    # level 420 = 2^2 * 3 * 5 * 7: the distribution's groups are (Z/2)^8
    code, out = run(["cohomology", "--m-list", "420", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    by_name = {c["name"]: c for c in rep["checks"]}
    eight = " + ".join(["Z/2"] * 8)
    assert by_name["tate_closed_forms"]["computed"] == {
        "u_odd": eight, "u_even": eight, "o_odd": "0", "o_even": "0"
    }
    assert by_name["h1_rank"]["computed"] == 8


def test_checks_sorted_and_timings_opt_in(capsys):
    code, out = run(["detphi", "--m-list", "12,5", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    keys = [(c["m"], c["name"]) for c in rep["checks"]]
    assert keys == sorted(keys)
    assert all("runtime_ms" not in c for c in rep["checks"])

    code, out = run(["detphi", "--m", "5", "--format", "json", "--timings"], capsys)
    rep = json.loads(out)
    assert all(isinstance(c["runtime_ms"], int) for c in rep["checks"])


def test_json_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(
            ["verify", "--suite", "hminus", "--m-list", "5,8", "--format", "json",
             "--out", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_forbidden_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", "--m", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "twice an odd number" in err


def test_missing_levels_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology"])
    assert exc.value.code == 2


def test_bad_list_entry_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", "--m-list", "5,x"])
    assert exc.value.code == 2


def test_small_level_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["hminus", "--m", "1"])
    assert exc.value.code == 2


def test_failure_exit_code(monkeypatch, capsys):
    # the hminus builder imports h_minus when it runs, so this reaches it
    monkeypatch.setattr(cyclotomic, "h_minus", lambda m: 0)
    code, out = run(["hminus", "--m", "5", "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["h_minus"]["pass"] is False
    assert by_name["l1_float_crosscheck"]["pass"] is True


def test_spectral_page_table(capsys):
    code, out = run(
        ["spectral", "--m", "12", "--d", "d1", "--qmax", "6", "--page", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    (table,) = rep["tables"]
    assert table["d"] == "d1"
    cells = {(c["p"], c["q"]): c["group"] for c in table["cells"]}
    # binomial pattern on odd rows at a two-prime level
    assert cells[(0, 1)] == "Z/2"
    assert cells[(-1, 1)] == "Z/2 + Z/2"
    assert cells[(-2, 1)] == "Z/2"
    assert cells[(-1, 2)] == "0"


def test_spectral_text_table(capsys):
    code, out = run(["spectral", "--m", "12", "--d", "d1", "--page", "2"], capsys)
    assert code == 0
    assert "page 2 of (12, d1):" in out
    assert "Z/2 + Z/2" in out


def test_randomized_index_suite_no_levels_needed(capsys):
    code, out = run(
        ["index", "--trials", "4", "--seed", "11", "--format", "json"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["levels"] == []
    assert len(rep["checks"]) == 4
    assert all(c["m"] == 0 for c in rep["checks"])


def test_randomized_index_suite_is_seeded(capsys):
    _, out1 = run(["index", "--trials", "3", "--seed", "5", "--format", "json"], capsys)
    _, out2 = run(["index", "--trials", "3", "--seed", "5", "--format", "json"], capsys)
    assert out1 == out2


def test_verify_aggregates_suites(capsys):
    code, out = run(
        ["verify", "--suite", "cohomology", "--m-list", "5,8", "--format", "json"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "verify:cohomology"
    assert rep["levels"] == [5, 8]
    assert {c["m"] for c in rep["checks"]} == {5, 8}


def test_m_max_sweep_skips_forbidden(capsys):
    code, out = run(["hminus", "--m-max", "9", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["levels"] == [3, 4, 5, 7, 8, 9]


def test_m_max_sweep_is_every_valid_level(capsys):
    code, out = run(["cohomology", "--m-max", "40", "--format", "json"], capsys)
    assert code == 0

    def valid(m):
        try:
            validate_level(m)
        except ValueError:
            return False
        return True

    assert json.loads(out)["levels"] == [m for m in range(41) if valid(m)]


def test_m_max_below_the_least_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", "--m-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--m-max 2" in err and "least level is 3" in err


def test_negative_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["index", "--trials", "-1", "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_page_past_the_window_is_usage_error(capsys):
    # page 9 at (p, q) reads rows up to q + 8, so no cell fits under --qmax 6
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectral", "--m", "12", "--d", "d1", "--page", "9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--page 9" in captured.err and "--qmax 8" in captured.err
    # the largest page with a cell in the window still runs
    code, out = run(
        ["spectral", "--m", "12", "--d", "d1", "--qmax", "2", "--page", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["tables"][0]["cells"]


def test_unwritable_out_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "r.json"
    proc = _python(
        "import sys; from distlab.cli import main; sys.exit(main(sys.argv[1:]))",
        "cohomology", "--m", "12", "--out", str(target),
    )
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert str(target) in err
    assert proc.stdout == b""


def test_out_keeps_the_old_report_until_the_new_one_is_ready(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r.json"
    path.write_text("old report\n")

    def broken(m):
        raise RuntimeError("check crashed")

    monkeypatch.setattr(cyclotomic, "h_minus", broken)
    with pytest.raises(RuntimeError, match="check crashed"):
        cli.main(["hminus", "--m", "5", "--out", str(path)])
    assert path.read_text() == "old report\n"


# The report digests that the benchmark checks on every run.
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("verify_small", ["verify", "--suite", "all", "--m-list", "7,8,21"]),
        ("tate_sweep", ["cohomology", "--m-list", "109,111,156"]),
    ],
)
def test_benchmark_reports_are_pinned(workload, argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[workload]["report"]


def test_text_format_summary_line(capsys):
    code, out = run(["cohomology", "--m", "5"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "2 checks, 2 passed, 0 failed"


README = ROOT / "README.md"
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.startswith("distlab ")
]


def test_readme_commands_are_found():
    assert len(README_COMMANDS) >= 4


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_passes(line, capsys):
    code, _ = run(shlex.split(line)[1:], capsys)
    assert code == 0, line


# repr of every row of the float net, recorded with scipy's digamma
L_VALUE_GOLDEN = json.loads((ROOT / "tests" / "data" / "l_value_golden.json").read_text())


@pytest.mark.parametrize("m", [5, 7, 8, 21, 105])
def test_l_value_rows_are_pinned(m):
    assert repr(l_value_crosscheck(m)) == L_VALUE_GOLDEN[str(m)]


NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
from distlab.cli import main
code = main(["verify", "--suite", "all", "--m-list", "7", "--format", "json"])
print("scipy" in sys.modules)
sys.exit(code)
"""


def test_verify_runs_without_scipy():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this checkout's sources; stdout as bytes."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, timeout=300
    )


REFUSE_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError("numpy refused: " + name)
"""

NO_NUMPY = REFUSE_NUMPY + """
if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseNumpy())
from distlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _same_without_numpy(*argv: str) -> None:
    """The JSON report of argv, with numpy refused, is byte for byte the one with numpy allowed."""
    refused = _python(NO_NUMPY, "refuse", *argv, "--format", "json")
    assert refused.returncode == 0, refused.stderr.decode()
    normal = _python(NO_NUMPY, "allow", *argv, "--format", "json")
    assert normal.returncode == 0, normal.stderr.decode()
    assert refused.stdout == normal.stdout
    assert json.loads(refused.stdout)["pass"] is True


def test_cohomology_runs_without_numpy():
    _same_without_numpy("cohomology", "--m-list", "109,111,156")


def test_verify_runs_without_numpy():
    # every suite, on the strata of the benchmark and the index formula at 105
    _same_without_numpy("verify", "--suite", "all", "--m-list", "5,7,8,21,105")


def test_index_trials_run_without_numpy():
    # the regulator route, end to end
    _same_without_numpy("index", "--trials", "20")


def test_every_module_imports_without_numpy():
    code = REFUSE_NUMPY + (
        "sys.meta_path.insert(0, RefuseNumpy())\n"
        "import importlib, distlab\n"
        "for module in distlab._EXPORTS:\n"
        "    importlib.import_module('distlab.' + module)\n"
        "for name in distlab.__all__:\n"
        "    getattr(distlab, name)\n"
        "print(len(distlab._EXPORTS), 'numpy' in sys.modules)\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"8", b"False"]


def test_index_trials_are_pinned(capsys):
    # the regulators of the first 100 trials of seed 0, as first recorded: a
    # change in the order of the random draws moves them
    code, out = run(["index", "--trials", "100", "--seed", "0", "--format", "json"], capsys)
    assert code == 0
    want = json.loads((ROOT / "tests" / "data" / "regulator_trials_seed0.json").read_text())
    assert [[c["expected"], c["computed"]] for c in json.loads(out)["checks"]] == want


def test_importing_the_package_and_cli_loads_no_numpy():
    code = (
        "import sys, distlab; a = 'numpy' in sys.modules; "
        "import distlab.cli; print(a, 'numpy' in sys.modules)"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"False", b"False"]


def test_importing_the_cli_loads_only_arith():
    # every other submodule is imported by the suite builders that use it
    code = (
        "import sys; before = set(sys.modules); import distlab.cli; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'distlab'))"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"['distlab',", b"'distlab.arith',", b"'distlab.cli']"]


TIMED_IMPORTS = """
import sys
from distlab import cli

run_items = cli._run_items
entered = []

def timed(items):
    before = set(sys.modules)
    records = run_items(items)
    entered.extend(sorted(set(sys.modules) - before))
    return records

cli._run_items = timed
code = cli.main(["verify", "--suite", "all", "--m-list", "7", "--format", "json"])
print([m for m in entered if m.split(".")[0] in ("numpy", "distlab")])
sys.exit(code)
"""


def test_no_timed_check_pays_for_an_import():
    # The builders import what their checks use before any check is timed.
    proc = _python(TIMED_IMPORTS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.splitlines()[-1] == b"[]"


def test_lazy_package_names():
    import distlab
    from distlab import abgroup, exact_linalg, spectral

    assert distlab.tate_group is abgroup.tate_group
    assert distlab.Lattice is exact_linalg.Lattice
    assert distlab.spectral is spectral
    # dir lists every re-export and submodule, whether loaded yet or not
    submodules = {
        "abgroup", "arith", "cyclotomic", "distribution", "exact_linalg", "lcomplex",
        "spectral", "stickelberger",
    }
    public = {name for name in dir(distlab) if not name.startswith("_")}
    assert public - {"cli"} == set(distlab.__all__) | submodules
    assert len(distlab.__all__) == len(set(distlab.__all__)) == 96
    namespace = {}
    exec("from distlab import *", namespace)
    assert namespace["DoubleComplex"] is spectral.DoubleComplex
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        distlab.nonexistent

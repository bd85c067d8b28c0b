import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lanemorse
from lanemorse import cli, spectral
from lanemorse.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    RunConfig,
    SWEEP_COLUMNS,
    dumps,
    main,
    parse_args,
    run,
)
from lanemorse.errors import ConfigError, SolverError
from lanemorse.radial import RadialSolution


def test_parse_args_roundtrip():
    cfg = parse_args(["morse", "--p", "5", "--N", "3"])
    assert cfg.command == "morse"
    assert cfg.p_list == [5.0]
    assert cfg.N == 3
    cfg = parse_args(["sweep", "--p", "3,5,10", "--format", "csv"])
    assert cfg.p_list == [3.0, 5.0, 10.0]
    assert cfg.fmt == "csv"


def test_the_reused_parser_carries_no_flag_over(capsys):
    # one parser serves every call: each config holds its own flags and
    # defaults, and a bad call after a good one is still a config error
    assert parse_args(["sweep", "--p", "3", "--N", "4", "--format", "csv", "--out", "x.csv"]) \
        == RunConfig(command="sweep", p_list=[3.0], N=4, fmt="csv", out="x.csv")
    assert parse_args(["solve", "--p", "5"]) == RunConfig(command="solve", p_list=[5.0])
    assert parse_args(["limit-check"]) == RunConfig(command="limit-check")
    assert main(["sweep", "--p", "abc"]) == EXIT_CONFIG
    assert main(["bogus"]) == EXIT_CONFIG
    assert "bad --p value 'abc'" in capsys.readouterr().err


def test_bad_config_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_args(["sweep", "--p", "abc"])
    with pytest.raises(ConfigError):
        RunConfig(command="solve", p_list=[])
    with pytest.raises(ConfigError):
        RunConfig(command="solve", p_list=[5.0], fmt="csv")
    with pytest.raises(ConfigError):
        RunConfig(command="morse", p_list=[0.5])
    # each command accepts only the flags it reads; bad values fail up front
    for argv in (["morse", "--p", "5", "--ell", "7"],
                 ["morse", "--p", "5", "--tol-eig", "1e-8"],
                 ["solve", "--p", "5", "--grid-M", "512"],
                 ["limit-check", "--tol-shoot", "1e-9"],
                 ["limit-check", "--ell", "7"],
                 ["morse", "--p", "5", "--format", "json"],
                 # the annulus, the grid and the shooting tolerances follow
                 # from p and N: no command has a flag for them, so these are
                 # unknown flags (the library names their limits, see
                 # test_spectral)
                 ["spectrum", "--p", "5", "--grid-M", "0"],
                 ["sweep", "--p", "8", "--grid-M", "2"],
                 ["sweep", "--p", "5", "--inner-rule", "abc"],
                 ["morse", "--p", "5", "--inner-rule", "5e-324"],
                 ["sweep", "--p", "5", "--inner-rule", "5e-324"],
                 # non-finite numbers and dimensions below 2, on every command
                 ["solve", "--p", "nan"],
                 ["solve", "--p", "inf"],
                 ["solve", "--p", "1e400"],
                 ["sweep", "--p", "5,nan"],
                 ["limit-check", "--N", "1"],
                 ["limit-check", "--N", "0"],
                 ["morse", "--p", "5", "--N", "1"],
                 # an unknown flag as well
                 ["solve", "--p", "5", "--tol-shoot", "nan"],
                 # past the float64 range of the arithmetic, and unwritable output
                 ["solve", "--p", "1.001"],
                 ["limit-check", "--N", "140"],
                 ["solve", "--p", "5", "--out", str(tmp_path / "missing" / "x.json")]):
        assert main(argv) == EXIT_CONFIG, argv


def test_dumps_deterministic_floats():
    text = dumps({"x": 1.0 / 3.0, "flags": [True, False, None], "n": 7})
    assert '"x": 0.333333333333333' in text
    assert "[true, false, null]" in text


def test_solve_record_deterministic():
    cfg1 = parse_args(["solve", "--p", "5"])
    cfg2 = parse_args(["solve", "--p", "5"])
    code1, text1 = run(cfg1)
    code2, text2 = run(cfg2)
    assert code1 == code2 == EXIT_OK
    assert text1 == text2  # byte-identical output for identical config


def test_sweep_row_independence():
    # the p=5 row must render identically alone and inside a longer sweep
    import re

    _, alone = run(parse_args(["sweep", "--p", "5"]))
    _, pair = run(parse_args(["sweep", "--p", "3,5"]))

    def rows(text):
        return re.findall(r"\{[^{}]*\"morse_total\"[^{}]*\}", text, re.S)

    r5_alone = [r for r in rows(alone) if '"p": 5' in r]
    r5_pair = [r for r in rows(pair) if '"p": 5' in r]
    assert len(r5_alone) == 1
    assert r5_alone == r5_pair


def test_sweep_keeps_rows_after_an_error():
    # p = 1.001 is past the float64 range of u(0); the p = 5 row still runs
    code, text = run(parse_args(["sweep", "--p", "1.001,5"]))
    assert code == EXIT_SOLVER
    rows = json.loads(text)["results"]["sweep"]
    assert [row["p"] for row in rows] == [1.001, 5.0]
    assert rows[0]["status"].startswith("error: p=1.001 is too close to 1")
    assert rows[1]["status"] == "ok" and rows[1]["morse_total"] == 10


@pytest.mark.parametrize("p_list, code", [("3,5", EXIT_CHECK), ("1.001,3", EXIT_SOLVER)])
def test_sweep_exit_code_names_an_unstable_row(monkeypatch, p_list, code):
    # an unstable report at p = 3 exits 2, as morse does, unless another
    # row failed to solve (p = 1.001 is past the float64 range of u(0))
    real = spectral.morse_index

    def unstable_at_3(sol):
        rep = real(sol)
        return dataclasses.replace(rep, stable=False) if sol.p == 3.0 else rep

    monkeypatch.setattr(spectral, "morse_index", unstable_at_3)
    got, text = run(parse_args(["sweep", "--p", p_list]))
    assert got == code
    rows = json.loads(text)["results"]["sweep"]
    assert [row["status"] for row in rows if row["p"] == 3.0] == ["unstable"]


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--p", "3,5", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS + ["status"])
    assert len(lines) == 4 and lines[3] == ""  # 2 rows + trailing newline
    first = lines[1].split(",")
    assert float(first[0]) == 3.0
    assert int(first[11]) == 2  # m_rad column
    assert first[-1] == "ok"
    assert "\r" not in text


def test_sweep_csv_quotes_a_status_with_commas(monkeypatch):
    # an error message with commas stays one cell and round-trips
    message = "found 1 (inner=2e-2, M=1304)"
    real_solve = cli.solve_nodal

    def solve_or_fail(p, **kwargs):
        if p == 3.0:
            raise SolverError(message)
        return real_solve(p, **kwargs)

    monkeypatch.setattr(cli, "solve_nodal", solve_or_fail)
    code, text = run(parse_args(["sweep", "--p", "3,5", "--format", "csv"]))
    assert code == EXIT_SOLVER
    header, *rows = list(csv.reader(text.splitlines()))
    assert header == SWEEP_COLUMNS + ["status"]
    assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
    assert rows[0][-1] == "error: " + message
    assert rows[1][-1] == "ok"


@pytest.mark.parametrize("argv", [["solve", "--p", "3"], ["spectrum", "--p", "3"],
                                  ["morse", "--p", "3"], ["sweep", "--p", "3"],
                                  ["limit-check"]])
def test_config_block_lists_the_flags_the_command_reads(argv, capsys):
    assert main([argv[0], "--help"]) == EXIT_OK
    options = re.findall(r"^\s+--([\w-]+)", capsys.readouterr().out, re.M)
    flags = [opt.replace("-", "_") for opt in options if opt != "out"]
    code, text = run(parse_args(argv))
    assert code == EXIT_OK
    assert list(json.loads(text)["config"]) == flags


def test_limit_check_command():
    code, text = run(parse_args(["limit-check", "--N", "3"]))
    assert code == EXIT_OK
    assert '"name": "rayleigh_eta1"' in text
    assert '"status": "fail"' not in text
    # the reported value is -(N-1) = -2 up to quadrature tolerance
    import re

    m = re.search(r'"name": "rayleigh_eta1",[^}]*"value": ([^,]+),', text, re.S)
    assert m and abs(float(m.group(1)) + 2.0) < 1e-5


def test_limit_check_computes_the_constants_once(monkeypatch):
    from lanemorse import limits

    calls = []
    original = limits.limit_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(limits, "limit_constants", counting)
    # a binding cli may hold from importing limits at module level
    monkeypatch.setattr(cli, "limit_constants", counting, raising=False)
    code, text = run(parse_args(["limit-check", "--N", "2"]))
    assert code == EXIT_OK
    assert len(calls) == 1
    assert '"constants"' in text


def test_morse_command_small_p():
    code, text = run(parse_args(["morse", "--p", "5"]))
    assert code == EXIT_OK
    assert '"m_rad": 2' in text
    assert '"stable": true' in text
    assert '"anchors"' in text


def test_morse_reports_the_ledger_and_pruefer_totals():
    # stability_totals is [ledger total, Pruefer total] (schema 7)
    (rec,) = _records("morse", "--p", "5")
    assert rec["stability_totals"] == [rec["total"], rec["total"]] == [10, 10]


def test_solve_builds_no_pruefer_cells(monkeypatch):
    def refuse(self):
        raise AssertionError("solve built Pruefer cells")

    monkeypatch.setattr(RadialSolution, "fp_cells", refuse)
    assert run(parse_args(["solve", "--p", "5"]))[0] == EXIT_OK


def _records(command, *args):
    code, text = run(parse_args([command, *args]))
    assert code == EXIT_OK
    return json.loads(text)["results"][command]


def test_spectrum_anchors_name_the_sturm_count():
    (rec,) = _records("spectrum", "--p", "5")
    assert rec["anchors"] == {
        "betas": "ascending weighted radial eigenvalues",
        "neg_count": "negative count by Sturm count (LAPACK stebz)",
    }


def test_ledger_detail_flags_the_tie():
    # at p = 50 the sum beta_2 + lambda_1 is about -1.7e-11, inside the tie window
    (rec,) = _records("morse", "--p", "50")
    flagged = [(e["i"], e["k"]) for e in rec["ledger_detail"] if e["boundary"]]
    assert flagged == [(2, 1)]
    assert all(e["boundary"] is False for e in rec["ledger_detail"]
               if (e["i"], e["k"]) != (2, 1))


def test_commands_share_the_spectral_pipeline():
    # spectrum, morse and sweep resolve the same annulus from p and N and
    # report the same extrapolated betas, digit for digit
    args = ("--p", "5")
    (morse,) = _records("morse", *args)
    (sweep,) = _records("sweep", *args)
    (spectrum,) = _records("spectrum", *args)
    assert (morse["inner"], morse["M"]) == (spectrum["inner"], spectrum["M"])
    assert [sweep["beta1"], sweep["beta2"]] == [morse["beta1"], morse["beta2"]]
    assert spectrum["betas"] == [morse["beta1"], morse["beta2"], morse["beta3"]]


def _run_python(*args):
    # Run `python *args` in a child process, on the same source tree this test
    # process imported, so no install is needed.
    src = str(Path(lanemorse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _run_cli(*args):
    return _run_python("-m", "lanemorse", *args)


def test_cli_import_leaves_the_limit_modules_unloaded():
    # scipy.integrate, scipy.special and lanemorse.limits load only on a
    # limit-check request or a first access to a limits name, scipy.linalg and
    # lanemorse.spectral only on a spectral request or name, or with limits,
    # whose eigenvalue counts take the Pruefer walk from spectral
    proc = _run_python("-c", (
        "import sys, lanemorse.cli, lanemorse\n"
        "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.special', 'lanemorse.limits',\n"
        "         'scipy.linalg', 'lanemorse.spectral')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "print(lanemorse.limit_constants().morse_Z, 'lanemorse.limits' in sys.modules)\n"
        "print(lanemorse.sphere_spectrum(2, 1), 'lanemorse.spectral' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "11 True", "[(0, 1), (1, 2)] True"]


def test_every_exported_name_resolves():
    # each name in __all__ is an attribute of the package, lazy ones included,
    # and prufer_counts, the route that confirms the ledger, is one of them
    from lanemorse import spectral

    missing = [name for name in lanemorse.__all__ if not hasattr(lanemorse, name)]
    assert missing == []
    assert lanemorse.prufer_counts is spectral.prufer_counts


def test_exit_codes_via_entry_point():
    proc = _run_cli("limit-check", "--N", "2")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert '"schema_version": 9' in proc.stdout, proc.stderr
    proc = _run_cli("solve", "--p", "0.5")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    proc = _run_cli("bogus")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    # the installed `lanemorse` console script wraps the same main()
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = None
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["lanemorse"] == "lanemorse.cli:main"


def test_an_underflowing_root_bracket_is_a_named_solver_error():
    # at N = 1000 near p = 1 the event interpolants take values whose
    # products underflow; the shooting ends at the tangential zero it
    # reaches, a named solver error
    proc = _run_cli("solve", "--p", "1.0036072144288577", "--N", "1000")
    assert proc.returncode == EXIT_SOLVER, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: degenerate zero"), lines


def test_a_solve_past_the_horizon_writes_one_error_line():
    # at p = 1e19 an extra dense-output stage overflows before the horizon
    # error; its 0 * inf once reached stderr as a raw RuntimeWarning
    proc = _run_cli("solve", "--p", "1e19")
    assert proc.returncode == EXIT_SOLVER, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error: second zero not found"), lines


def test_schema_shape():
    _, text = run(parse_args(["solve", "--p", "3"]))
    assert text.startswith('{\n  "schema_version": 9')
    for key in ('"command"', '"config"', '"results"', '"checks"'):
        assert key in text
    assert text.endswith("}\n")
    # the config block echoes the flags the command read: p and N only
    assert json.loads(text)["config"] == {"p": [3.0], "N": 2}

"""Correctness checks for the benchmark's requests.

`check(argv, code, text)` returns the list of problems found in one
CLI result (empty when the answer is right). Fields are read by name, so a
deliberate `schema_version` bump or an added field does not break a check.
Anchor requests are additionally compared with the values the CLI printed at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import math

TIE_EPS = 1e-7            # ledger tie window of the spectral module
RESIDUAL_MAX = 1e-7       # shooting contract of the acceptance suite
SHOOT_REL_TOL = 1e-7      # anchor tolerance on shooting-derived floats
BETA_ABS_TOL = {"beta1": 1e-7, "beta2": 1e-8, "beta3": 1e-7}

MORSE_LEDGER = [1, 1, 2, 2, 2, 2, 2]

# values printed by the CLI for the anchor requests, keyed by their exact argv
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
ANCHORS = {
    ("morse", "--p", "400", "--N", "2"): {
        "beta1": -26.7471221471375,
        "beta2": -1.00000000004608,
        "beta3": 0.000121926818488687,
    },
    ("sweep", "--p", "8", "--N", "2"): {
        "u0": 3.70376578300699, "r_p": 0.10639049506639,
        "s_p": 0.391904519012284, "eps_plus": 0.00361578587122877,
        "eps_minus": 0.0627054763415823, "ell_hat": 6.24992491688318,
        "max_plus": 2.14737552683248, "max_minus": 41.3412286211969,
        "beta1": -21.1391092904232, "beta2": -0.999371510120302,
    },
    ("solve", "--p", "400", "--N", "2"): {
        "u0": 2.45923831506215, "r_p": 8.60614827540338e-36,
        "s_p": 6.80791607380473e-15, "u_min": -1.17160296673304,
        "eps_plus": 5.42309240804854e-80, "eps_minus": 9.49003227445975e-16,
        "ell_hat": 7.1737543950474, "max_plus": 2.00272996667002,
        "max_minus": 53.4677013662171,
    },
}


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _record(command: str, argv: list[str], text: str):
    out = json.loads(text)
    records = out["results"][command]
    if len(records) != 1:
        return None, [f"expected one {command} record, got {len(records)}"]
    rec = records[0]
    problems = []
    if not math.isclose(float(rec["p"]), float(_argv_value(argv, "--p")),
                        rel_tol=1e-15):
        problems.append(f"record is for p={rec['p']}, not the requested p")
    return rec, problems


def _check_morse(rec: dict, N: int) -> list[str]:
    problems = []
    if rec["total"] != 12:
        problems.append(f"total {rec['total']} != 12")
    if rec["ledger"] != MORSE_LEDGER:
        problems.append(f"ledger {rec['ledger']} != {MORSE_LEDGER}")
    if rec["m_rad"] != 2:
        problems.append(f"m_rad {rec['m_rad']} != 2")
    if rec["stable"] is not True:
        problems.append("count not stable under n and M doubling")
    if not rec["stability_totals"] or any(t != 12 for t in rec["stability_totals"]):
        problems.append(f"stability_totals {rec['stability_totals']} not all 12")
    if not rec["beta2"] >= -(N - 1) - TIE_EPS:
        problems.append(f"beta2 {rec['beta2']} below -(N-1) - {TIE_EPS}")
    if not rec["beta3"] >= -TIE_EPS:
        problems.append(f"beta3 {rec['beta3']} below -{TIE_EPS}")
    return problems


def _check_sweep(rec: dict, N: int) -> list[str]:
    problems = []
    if rec["status"] != "ok":
        problems.append(f"status {rec['status']!r}")
    if rec["morse_total"] != 10:
        problems.append(f"morse_total {rec['morse_total']} != 10")
    if rec["m_rad"] != 2:
        problems.append(f"m_rad {rec['m_rad']} != 2")
    return problems


def _check_solve(rec: dict, N: int) -> list[str]:
    problems = []
    if not rec["residual_sup"] < RESIDUAL_MAX:
        problems.append(f"residual_sup {rec['residual_sup']} >= {RESIDUAL_MAX}")
    if not 0.0 < rec["r_p"] < rec["s_p"] < 1.0:
        problems.append(f"radii out of order: r_p={rec['r_p']} s_p={rec['s_p']}")
    if not rec["u_min"] < 0.0:
        problems.append(f"u_min {rec['u_min']} is not negative")
    return problems


CHECKS = {"morse": _check_morse, "sweep": _check_sweep, "solve": _check_solve}


def _check_anchor(rec: dict, expected: dict) -> list[str]:
    problems = []
    for field, want in expected.items():
        got = rec[field]
        if field in BETA_ABS_TOL:
            ok = got is not None and abs(got - want) <= BETA_ABS_TOL[field]
        else:
            ok = got is not None and math.isclose(got, want, rel_tol=SHOOT_REL_TOL)
        if not ok:
            problems.append(f"anchor {field} = {got}, recorded {want}")
    return problems


def check(argv: list[str], code: int, text: str) -> list[str]:
    """Problems with one CLI result; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    command = argv[0]
    try:
        rec, problems = _record(command, argv, text)
        if rec is None:
            return problems
        problems += CHECKS[command](rec, int(_argv_value(argv, "--N")))
        if tuple(argv) in ANCHORS:
            problems += _check_anchor(rec, ANCHORS[tuple(argv)])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    return problems

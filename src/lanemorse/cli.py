"""Command-line driver: solve / spectrum / morse / sweep / limit-check.

Output is machine-readable JSON (or CSV for sweeps) with a fixed schema:
one top-level object carrying schema_version, config (the flags the command
read, in parser order: p and N, plus format for sweep; N alone for
limit-check), results and checks.
Every result follows from p and N alone: the annulus, its grid and the
shooting tolerances are rules of the radial and spectral modules, and the
records report the inner radius and grid size M that the rules chose.
Floats are always rendered with 15 significant digits in insertion order, so
identical configurations produce byte-identical files. Every emitted record
carries an `anchor` string naming the quantity it reports.

Exit codes: 0 success, 1 solver failure, 2 failed check or unstable count,
3 bad config. A sweep exits 1 if any row failed, else 2 if any is unstable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, LaneMorseError
from .profile import scales
from .radial import solve_nodal

# spectral (and with it scipy.linalg) and limits are imported in the
# branches that use them, so that solve loads neither

SCHEMA_VERSION = 9

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CHECK = 2
EXIT_CONFIG = 3

# each command accepts only the flags it reads, in this (parser) order, and
# echoes them in the config block; every command also takes --out
COMMAND_FLAGS = {
    "solve": ("p", "N"),
    "spectrum": ("p", "N"),
    "morse": ("p", "N"),
    "sweep": ("p", "N", "format"),
    "limit-check": ("N",),
}

_FLAG_ARGS = {
    "p": dict(required=True, help="exponent, or comma-separated list for sweeps"),
    "N": dict(type=int, default=2),
    "format": dict(dest="fmt", choices=("json", "csv"), default="json"),
}

# column order is the CSV contract; do not reorder
SWEEP_COLUMNS = [
    "p", "u0", "r_p", "s_p", "eps_plus", "eps_minus", "ell_hat",
    "max_plus", "max_minus", "beta1", "beta2", "m_rad", "morse_total",
]

ANCHORS = {
    "u0": "central value u(0) (sup norm)",
    "r_p": "interior nodal radius",
    "s_p": "negative minimum radius",
    "eps_plus": "blow-up scale of the positive region",
    "eps_minus": "blow-up scale of the negative region",
    "ell_hat": "scale ratio s_p/eps_minus (reference 7.1979)",
    "max_plus": "peak of the weighted potential, positive region (limit 2)",
    "max_minus": "peak of the weighted potential, negative region (limit ell^2+2)",
    "beta1": "first weighted radial eigenvalue (limit -(ell^2+2)/2)",
    "beta2": "second weighted radial eigenvalue (bounded below by -(N-1))",
    "m_rad": "radial Morse index (= 2)",
    "morse_total": "Morse index (12 for large p, N=2)",
    "residual_sup": "normalized interpolated ODE residual",
    "betas": "ascending weighted radial eigenvalues",
    "neg_count": "negative count by Sturm count (LAPACK stebz)",
    "ledger": "per-mode contributions beta_i + lambda_k < 0",
}


@dataclass
class RunConfig:
    """Parsed CLI parameters for one run."""

    command: str
    p_list: list[float] = field(default_factory=list)
    N: int = 2
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.command not in COMMAND_FLAGS:
            raise ConfigError(f"unknown command {self.command!r}")
        if "p" in COMMAND_FLAGS[self.command] and not self.p_list:
            raise ConfigError(f"command {self.command!r} needs at least one p value")
        if not all(math.isfinite(p) and p > 1 for p in self.p_list):
            raise ConfigError("exponents must be finite and satisfy p > 1")
        if self.N < 2:
            raise ConfigError(f"dimension N must be >= 2, got {self.N}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.fmt == "csv" and self.command != "sweep":
            raise ConfigError("csv output is only defined for sweep")


def format_float(x: float) -> str:
    """15-significant-digit rendering; CSV cells keep nan/inf spellings."""
    return format(x, ".15g")


def _json_float(x: float) -> str:
    # strict JSON has no literal for non-finite floats
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return format_float(x)


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 15 digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dumps(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _solution_record(sol) -> dict:
    sc = scales(sol)
    return {
        "p": sol.p, "N": sol.N,
        "u0": sol.u0, "r_p": sol.r_p, "s_p": sol.s_p, "u_min": sol.u_min,
        "eps_plus": sc.eps_plus, "eps_minus": sc.eps_minus,
        "ell_hat": sc.ell_hat,
        "ratio_plus": sc.ratio_plus, "ratio_minus": sc.ratio_minus,
        "max_plus": sol.max_plus, "max_minus": sol.max_minus,
        "sup_f": max(sol.max_plus, sol.max_minus),
        "residual_sup": sol.residual_sup,
        "anchors": {k: ANCHORS[k] for k in
                    ("u0", "r_p", "s_p", "eps_plus", "eps_minus", "ell_hat",
                     "max_plus", "max_minus", "residual_sup")},
    }


def _spectrum_record(sol) -> dict:
    from .spectral import annulus_betas

    ann = annulus_betas(sol)
    return {
        "p": sol.p, "N": sol.N, "inner": ann.inner, "M": ann.M,
        "betas": [float(b) for b in ann.betas],
        "betas_raw": [float(b) for b in ann.coarse],
        "refinement_delta": [float(b2 - b1) for b1, b2 in zip(ann.coarse, ann.fine)],
        "neg_count": ann.m_rad,
        "anchors": {k: ANCHORS[k] for k in ("betas", "neg_count")},
    }


def _morse_record(sol) -> dict:
    from .spectral import morse_index

    rep = morse_index(sol)
    ann = rep.annulus
    beta1, beta2, beta3 = (float(b) for b in ann.betas)
    return {
        "p": rep.p, "N": rep.N,
        "beta1": beta1, "beta2": beta2, "beta3": beta3,
        "m_rad": ann.m_rad,
        "total": rep.total,
        "ledger": rep.contributions,
        "ledger_detail": [
            {"i": e.i, "k": e.k, "lambda": e.lam, "mult": e.mult,
             "sum": e.total_eig, "contributes": e.contributes,
             "boundary": e.boundary}
            for e in rep.ledger
        ],
        "inner": ann.inner, "M": ann.M,
        "stable": rep.stable,
        "stability_totals": list(rep.stability_totals),
        "anchors": {k: ANCHORS[k] for k in
                    ("beta1", "beta2", "m_rad", "morse_total", "ledger")},
    }


def _sweep_row(p: float, cfg: RunConfig) -> dict:
    # each row is an independent pure pipeline (identical alone or in a
    # sweep), read off the solve and morse records so that it cannot drift
    # from them
    try:
        sol = solve_nodal(p, N=cfg.N)
        rec = _solution_record(sol) | _morse_record(sol)
        rec["morse_total"] = rec["total"]
        row = {c: rec[c] for c in SWEEP_COLUMNS}
        row["status"] = "ok" if rec["stable"] else "unstable"
    except LaneMorseError as exc:
        row = {c: float("nan") for c in SWEEP_COLUMNS}
        row["p"] = p
        row["status"] = f"error: {exc}"
    return row


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered artifact)."""
    flags = {"p": config.p_list, "N": config.N, "format": config.fmt}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "config": {key: flags[key] for key in COMMAND_FLAGS[config.command]},
        "results": {},
        "checks": [],
    }
    code = EXIT_OK

    if config.command in ("solve", "spectrum", "morse"):
        builders = {"solve": _solution_record, "spectrum": _spectrum_record,
                    "morse": _morse_record}
        records = []
        for p in config.p_list:
            records.append(builders[config.command](solve_nodal(p, N=config.N)))
        payload["results"][config.command] = records
        if config.command == "morse" and any(not r["stable"] for r in records):
            code = EXIT_CHECK
    elif config.command == "sweep":
        rows = [_sweep_row(p, config) for p in config.p_list]
        payload["results"]["sweep"] = rows
        if any(row["status"].startswith("error") for row in rows):
            code = EXIT_SOLVER
        elif any(row["status"] == "unstable" for row in rows):
            code = EXIT_CHECK
        if config.fmt == "csv":
            return code, _render_csv(rows)
    else:  # limit-check
        from .limits import limit_constants, verification_battery

        k = limit_constants()
        checks = verification_battery(N=config.N, constants=k)
        payload["checks"] = [
            {"name": c.name, "anchor": c.anchor, "value": c.value,
             "expected": c.expected, "tol": c.tol,
             "status": "pass" if c.passed else "fail"}
            for c in checks
        ]
        payload["results"]["constants"] = {
            "ell": k.ell, "gamma": k.gamma, "delta": k.delta, "H": k.H,
            "morse_Z": k.morse_Z,
        }
        if not all(c.passed for c in checks):
            code = EXIT_CHECK

    return code, dumps(payload) + "\n"


def _render_csv(rows: list[dict]) -> str:
    # minimal quoting: only a cell with a comma or quote (an error status) changes
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS + ["status"])
    for row in rows:
        cells = [str(row[c]) if isinstance(row[c], int) else format_float(float(row[c]))
                 for c in SWEEP_COLUMNS]
        writer.writerow(cells + [row["status"]])
    return buf.getvalue()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: each parse fills a new namespace
    parser = argparse.ArgumentParser(
        prog="lanemorse",
        description="Nodal radial Lane-Emden solutions and their Morse index",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), **_FLAG_ARGS[key])
        sp.add_argument("--out", default=None)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    opts = vars(_parser().parse_args(argv))
    p = opts.pop("p", None)
    p_list = []
    if p:
        try:
            p_list = [float(tok) for tok in str(p).split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --p value {p!r}") from exc
    return RunConfig(p_list=p_list, **opts)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        code, text = run(config)
        if config.out:
            _write_out(config.out, text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LaneMorseError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SystemExit as exc:  # argparse errors
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    return code


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


if __name__ == "__main__":
    sys.exit(main())

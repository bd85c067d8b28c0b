"""Benchmark of the lanemorse CLI: time to a verified answer.

    python3 perfbench/run.py --workload morse-large-p --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the package is imported from ../src
relative to this file. A run times the import of lanemorse.cli in
SETUP_PROBES fresh interpreters, then starts one fresh worker (worker.py) with
BLAS/OpenMP threads pinned to 1 that imports the package, sends the
workload's anchor request and then the workload's requests, one at a time,
for --seconds. One process works at a time, all on one CPU (run.py itself
only samples the host speed while a set-up probe imports). Every
timing is scaled to a reference host speed measured beside it (speed.py);
the raw wall-clock figures are printed too. With --trace 0 the end-to-end
metrics are reported, with --trace 1 the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run (environment, seed,
every argv, every latency, traced spans) goes to .perfbench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 7          # fresh interpreters timing the import, per run
IMPORTTIME_PROBES = 3     # fresh `-X importtime` interpreters per traced run
RUN_LIMIT_S = 170.0       # a run must end within 180 s
IMPORT_MODULES = ("lanemorse", "lanemorse.limits", "scipy.integrate",
                  "scipy.linalg", "scipy.interpolate", "scipy.special")
P90_MIN_SAMPLES = 100
SETUP_INTERP_SHARE = 1.0  # an import runs module code and the loader


class BenchError(Exception):
    """The run could not produce a result."""


def _python(args: list[str], deadline: float, capture_stderr: bool = False):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run ended")
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None, text=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args[0]} did not finish in time") from None
    if proc.returncode != 0:
        if err:
            sys.stderr.write(err)
        raise BenchError(f"{args[0:2]} exited with code {proc.returncode}")
    return out, err


WARM_IMPORT = "import sys; sys.path.insert(0, {src!r}); import lanemorse.cli"
TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import lanemorse.cli; print(time.perf_counter() - t)"
)


def setup_times(deadline: float) -> list[tuple[float, float]]:
    """(import time of lanemorse.cli, host speed meanwhile) in SETUP_PROBES
    fresh interpreters. This process is pinned to the probes' CPU, so its
    speed sampler measures the CPU the import runs on."""
    code = TIMED_IMPORT.format(src=str(SRC))
    probes = []
    for _ in range(SETUP_PROBES):
        with speed.Sampler() as sampler:
            import_s = float(_python(["-c", code], deadline)[0].split()[-1])
        probes.append((import_s, speed.speed(sampler.interp_s, sampler.lapack_s,
                                             SETUP_INTERP_SHARE)))
    return probes


def worker_args(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [str(HERE / "worker.py"), "--src", str(SRC), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def import_breakdown(deadline: float) -> dict[str, float]:
    """Median cumulative import time of each IMPORT_MODULES entry, in seconds."""
    code = WARM_IMPORT.format(src=str(SRC))
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_PROBES):
        _, err = _python(["-X", "importtime", "-c", code], deadline,
                         capture_stderr=True)
        seen = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (c.strip() for c in line[12:].split("|"))
            if cumulative.isdigit():
                seen[name] = int(cumulative) * 1e-6
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns metrics, counts and the raw record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    spans = OUT / f"{tag}.spans.json"
    _python(["-c", WARM_IMPORT.format(src=str(SRC))], deadline)  # bytecode, file cache
    probes = [] if trace else setup_times(deadline)
    imports = import_breakdown(deadline) if trace else {}
    args = worker_args(workload, seed, seconds, trace)
    if trace:
        args += ["--spans", str(spans)]
    out, _ = _python(args, deadline)
    rec = json.loads(out.strip().splitlines()[-1])
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               setup_probes_s=probes, import_breakdown=imports)
    (OUT / f"{tag}.json").write_text(json.dumps(rec, indent=1), encoding="utf-8")

    lat = rec["latencies_s"]
    if not lat:
        raise BenchError("no request completed in the timed window")
    share = WORKLOADS[workload]["interp_share"]
    host = speed.speed(*rec["kernel_s"], share) if rec["kernel_s"] else None
    attempted = len(lat) + 1  # the anchor counts
    failed = len(rec["failed_requests"]) + (1 if rec["anchor_problems"] else 0)
    table = []  # (name, value, unit, samples note)
    if trace:
        for m, v in imports.items():
            table.append((f"setup.import.{m}_s", v, "s",
                          f"median, n={IMPORTTIME_PROBES}"))
        for m, (v, unit) in rec["per_layer"].items():
            table.append((m, v, unit, f"per request, n={len(lat)}"))
    else:
        table += [
            ("setup_s", statistics.median(t * k for t, k in probes), "s",
             f"median, n={len(probes)}, reference speed"),
            ("latency_p50_s", statistics.median(lat) * host, "s",
             f"n={len(lat)}, reference speed"),
            ("throughput_rps", len(lat) / (sum(lat) * host), "1/s",
             f"n={len(lat)} per second of request time, reference speed"),
            ("peak_rss_mb", rec["peak_rss_mb"], "MB", "n=1"),
        ]
    extra = [("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted}")]
    if not trace:
        first_ref = rec["first_request_s"] * speed.speed(*rec["first_request_kernel_s"],
                                                         share)
        extra.append(("first_request_s", first_ref, "s", "anchor, n=1, reference speed"))
        if len(lat) >= P90_MIN_SAMPLES:
            extra.append(("latency_p90_s", statistics.quantiles(lat, n=10)[8] * host, "s",
                          f"n={len(lat)}, reference speed"))
        else:
            extra.append(("latency_p90_s", None, "s",
                          f"not reported: n={len(lat)} < {P90_MIN_SAMPLES}"))
        extra += [
            ("wall.setup_s", statistics.median(t for t, _ in probes), "s",
             f"median, n={len(probes)}, wall clock"),
            ("wall.latency_p50_s", statistics.median(lat), "s",
             f"n={len(lat)}, wall clock"),
            ("wall.throughput_rps", len(lat) / sum(lat), "1/s",
             f"n={len(lat)} per second of request time, wall clock"),
            ("host.speed", host, "ratio",
             f"interp share {share}, n={len(rec['kernel_s'][0])} interp and "
             f"{len(rec['kernel_s'][1])} lapack kernel calls"),
        ]
    return {"table": table, "extra": extra, "attempted": attempted,
            "failed": failed, "record": rec}


def print_run(res: dict) -> None:
    rec = res["record"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{len(rec['latencies_s'])} timed requests after the anchor {rec['anchor']}")
    print("environment " + json.dumps(rec["environment"], sort_keys=True))
    print("requests " + json.dumps(rec["argv"]))
    if rec["anchor_problems"]:
        print("anchor FAILED: " + "; ".join(rec["anchor_problems"]))
    for bad in rec["failed_requests"][:5]:
        print(f"request {bad['argv']} FAILED: " + "; ".join(bad["problems"]))
    if rec.get("probe_errors"):
        print("trace probe errors " + json.dumps(rec["probe_errors"]))
    for name, value, unit, note in res["table"] + res["extra"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>12s} {unit:10s} ({note})")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must lie in (0, 120]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "lanemorse" / "cli.py").is_file():
        print(f"lanemorse sources not found under {SRC}", file=sys.stderr)
        return 2
    # every process of the run on one CPU, the one the speed sampler measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: one_run(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for w, res in results.items():
        print_run(res)
        prefix = "" if len(names) == 1 else f"{w}."
        for name, value, unit, _ in res["table"]:
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

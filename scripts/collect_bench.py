"""Collect perfbench run records into one committed BENCH_<n>.json.

    python scripts/collect_bench.py BENCH_6.json \
        parent=../parent/.perfbench_out change=.perfbench_out --seed 21

Each LABEL=DIR names the .perfbench_out/ directory of one checkout (e.g. the
parent commit and the change). Every record `<workload>-seed<N>-trace<t>.json`
found there for one of the --seed values (one or more, so that several
parent/change pairs of a workload land in one file) is summarized: seed, workload, trace flag, request counts and, for
--trace 0, the end-to-end metrics computed from the record as perfbench/run.py
computes them (timings scaled to the reference host speed); for --trace 1, the
per-layer metrics and the import breakdown. The host and library versions are
taken from the records; the bulky argv and latency lists are left out, since
the same workload and seed replay them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def summarize(rec: dict) -> dict:
    lat = rec["latencies_s"]
    out = {
        "workload": rec["workload"], "seed": rec["seed"], "trace": rec["trace"],
        "seconds": rec["seconds"],
        "attempted": len(lat) + 1,  # the anchor counts
        "failed": len(rec["failed_requests"]) + (1 if rec["anchor_problems"] else 0),
    }
    if rec["trace"]:
        out["per_layer"] = {m: v for m, (v, _unit) in rec["per_layer"].items()}
        out["import_breakdown_s"] = rec["import_breakdown"]
        return out
    host = speed.speed(*rec["kernel_s"], WORKLOADS[rec["workload"]]["interp_share"])
    probes = rec["setup_probes_s"]
    out["metrics"] = {
        "setup_s": statistics.median(t * k for t, k in probes),
        "latency_p50_s": statistics.median(lat) * host,
        "throughput_rps": len(lat) / (sum(lat) * host),
        "peak_rss_mb": rec["peak_rss_mb"],
        "host.speed": host,
        "wall.latency_p50_s": statistics.median(lat),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    ap.add_argument("sides", nargs="+", metavar="LABEL=DIR")
    args = ap.parse_args(argv)
    runs, environment = [], None
    for side in args.sides:
        label, _, directory = side.partition("=")
        files = [path for seed in args.seed
                 for path in sorted(Path(directory).glob(f"*-seed{seed}-trace[01].json"))]
        if not files:
            ap.error(f"no seed {args.seed} records in {directory}")
        for path in files:
            rec = json.loads(path.read_text(encoding="utf-8"))
            environment = environment or rec["environment"]
            runs.append({"side": label, **summarize(rec)})
    doc = {
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--seconds <seconds> --trace <trace>",
        "environment": environment,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

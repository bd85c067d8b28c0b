"""One benchmark run inside a fresh interpreter; started by run.py.

Imports lanemorse.cli from the given source tree, sends the workload's anchor
request (untimed warm-up, checked against recorded values), then sends
requests from the seeded stream, one at a time, until the time is up. Each
request is an in-process `cli.run(cli.parse_args(argv))` call whose output is
parsed and checked. The host speed (speed.py) is measured on a background
thread while the anchor and the requests run, so that their timings can be
scaled to the reference speed; run.py has pinned the process to one CPU, so
the thread measures the CPU the requests run on. With --trace 1 the layer
tracer is installed after the anchor and the result carries the per-layer
metrics. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from checks import check  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    fields = dict((k.strip(), v.strip()) for k, v in
                  (line.split(":", 1) for line in cpuinfo.splitlines() if ":" in line))
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": fields.get("model name") or platform.processor(),
        "cache_sizes": caches or {"cpuinfo": fields.get("cache size")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def send(cli, argv: list[str]) -> tuple[float, int, str, list[str]]:
    """(seconds, exit code, output, problems) of one request."""
    t0 = time.perf_counter()
    try:
        code, text = cli.run(cli.parse_args(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code, text = exc.code if isinstance(exc.code, int) else 3, ""
    except Exception:  # a failed request is counted, the run goes on
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, 1, "", ["raised " + traceback.format_exc(limit=1).strip()]
    elapsed = time.perf_counter() - t0
    return elapsed, code, text, check(argv, code, text)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import lanemorse.cli as cli
    import_s = time.perf_counter() - t0

    anchor = WORKLOADS[args.workload]["anchor"]
    with speed.Sampler() as anchor_speed:
        first_s, _, _, anchor_problems = send(cli, anchor)

    stream = requests(args.workload, args.seed)
    sent, latencies, problems = [], [], []
    output_bytes = 0
    tracer = sampler = None
    with contextlib.ExitStack() as stack:
        if args.trace:  # the traced run reports layers, not host speed
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
            stack.callback(tracer.uninstall)
        else:
            sampler = stack.enter_context(speed.Sampler())
        start = time.perf_counter()
        deadline = start + args.seconds
        end = start
        while time.perf_counter() < deadline:
            argv = next(stream)
            if tracer is not None:
                tracer.begin(len(sent))
            elapsed, code, text, bad = send(cli, argv)
            if tracer is not None:
                tracer.end()
            end = time.perf_counter()
            sent.append(argv)
            latencies.append(elapsed)
            output_bytes += len(text.encode("utf-8"))
            if bad:
                problems.append({"argv": argv, "problems": bad})

    result = {
        "import_s": import_s,
        "first_request_s": first_s,
        "first_request_kernel_s": (anchor_speed.interp_s, anchor_speed.lapack_s),
        "kernel_s": (sampler.interp_s, sampler.lapack_s) if sampler else None,
        "anchor": anchor,
        "anchor_problems": anchor_problems,
        "argv": sent,
        "latencies_s": latencies,
        "window_s": end - start,
        "failed_requests": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        n = len(sent)
        layer = tracer.metrics(n, sum(latencies))
        layer["cli.output_bytes"] = (output_bytes / max(n, 1), "B/req")
        result["per_layer"] = layer
        result["probe_errors"] = tracer.probe_errors()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["request", "id", "parent", "name",
                                      "start_s", "end_s"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: the checker rejects bad output, the request
streams are replayable, and the tracer restores what it wraps.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import ANCHORS, check  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

MORSE = {"p": 400.0, "N": 2, "beta1": -26.7471221471375,
         "beta2": -1.00000000004608, "beta3": 0.000121926818488687,
         "m_rad": 2, "total": 12, "ledger": [1, 1, 2, 2, 2, 2, 2],
         "stable": True, "stability_totals": [12, 12, 12]}
SWEEP = {"p": 8.0, "u0": 3.70376578300699, "r_p": 0.10639049506639,
         "s_p": 0.391904519012284, "eps_plus": 0.00361578587122877,
         "eps_minus": 0.0627054763415823, "ell_hat": 6.24992491688318,
         "max_plus": 2.14737552683248, "max_minus": 41.3412286211969,
         "beta1": -21.1391092904232, "beta2": -0.999371510120302,
         "m_rad": 2, "morse_total": 10, "status": "ok"}
SOLVE = {"p": 400.0, "N": 2, "u0": 2.45923831506215, "r_p": 8.60614827540338e-36,
         "s_p": 6.80791607380473e-15, "u_min": -1.17160296673304,
         "eps_plus": 5.42309240804854e-80, "eps_minus": 9.49003227445975e-16,
         "ell_hat": 7.1737543950474, "max_plus": 2.00272996667002,
         "max_minus": 53.4677013662171, "residual_sup": 4.95718688320324e-09}
GOOD = {
    "morse": (["morse", "--p", "400", "--N", "2"], MORSE),
    "sweep": (["sweep", "--p", "8", "--N", "2"], SWEEP),
    "solve": (["solve", "--p", "400", "--N", "2"], SOLVE),
}


def _output(command: str, record: dict) -> str:
    return json.dumps({"schema_version": 1, "command": command,
                       "results": {command: [record]}, "checks": []})


@pytest.mark.parametrize("command", sorted(GOOD))
def test_good_records_pass(command):
    argv, record = GOOD[command]
    assert check(argv, 0, _output(command, record)) == []
    # a drawn (non-anchor) request with the same answer passes as well
    drawn = [argv[0], "--p", f"{record['p']:.9f}", "--N", "2"]
    assert check(drawn, 0, _output(command, record)) == []


@pytest.mark.parametrize("command, field, value", [
    ("morse", "total", 11),
    ("morse", "stable", False),
    ("morse", "ledger", [1, 1, 2, 2, 2, 2]),
    ("morse", "m_rad", 3),
    ("morse", "stability_totals", [12, 11, 12]),
    ("morse", "beta2", -1.0 - 2e-7),
    ("morse", "beta3", -2e-7),
    ("sweep", "status", "error: second zero not found"),
    ("sweep", "morse_total", 12),
    ("sweep", "m_rad", 1),
    ("solve", "residual_sup", 2e-7),
    ("solve", "u_min", 0.5),
    ("solve", "s_p", 1e-40),
    ("solve", "p", 401.0),
])
def test_corrupted_records_fail(command, field, value):
    argv, record = GOOD[command]
    bad = copy.deepcopy(record)
    bad[field] = value
    assert check(argv, 0, _output(command, bad))


@pytest.mark.parametrize("command", sorted(GOOD))
def test_nonzero_exit_and_malformed_output_fail(command):
    argv, record = GOOD[command]
    assert check(argv, 2, _output(command, record)) == ["exit code 2"]
    assert check(argv, 0, "not json")
    missing = {k: v for k, v in record.items() if k not in ("total", "status",
                                                            "residual_sup")}
    assert check(argv, 0, _output(command, missing))
    assert check(argv, 0, json.dumps({"results": {command: []}}))


def test_anchor_drift_fails_only_for_the_anchor():
    argv, record = GOOD["morse"]
    drifted = dict(record, beta2=record["beta2"] + 5e-8)
    assert check(argv, 0, _output("morse", drifted))
    drawn = ["morse", "--p", "400.000000000", "--N", "2"]
    assert check(drawn, 0, _output("morse", drifted)) == []
    argv, record = GOOD["solve"]
    assert check(argv, 0, _output("solve", dict(record, u0=record["u0"] * (1 + 1e-6))))


def test_schema_version_bump_and_new_fields_accepted():
    argv, record = GOOD["morse"]
    out = json.loads(_output("morse", dict(record, diagnostics={"steps": 1})))
    out["schema_version"] = 2
    assert check(argv, 0, json.dumps(out)) == []


def test_every_anchor_has_recorded_values():
    for spec in WORKLOADS.values():
        assert tuple(spec["anchor"]) in ANCHORS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_request_stream_is_seeded_distinct_and_in_band(workload):
    def take(seed, n=60):
        stream = requests(workload, seed)
        return [next(stream) for _ in range(n)]

    first = take(7)
    assert first == take(7)
    assert first != take(8)
    assert len({tuple(a) for a in first}) == len(first)
    bands = WORKLOADS[workload]["bands"]
    for i, argv in enumerate(first):
        command, N, lo, hi, _ = bands[i % len(bands)]
        assert argv[0] == command and argv[4] == str(N)
        assert lo <= float(argv[2]) <= hi


def test_tracer_counts_and_restores():
    import lanemorse
    import lanemorse.cli as cli
    import lanemorse.profile as profile
    import lanemorse.spectral as spectral
    from layertrace import Tracer

    originals = (cli.run, spectral.fp_values, lanemorse.fp_values,
                 profile.fp_values, lanemorse.RadialSolution.eval,
                 spectral.eigvalsh_tridiagonal)
    tracer = Tracer()
    tracer.install()
    try:
        # one wrapper per function, shared by every namespace binding it
        assert spectral.fp_values is profile.fp_values is lanemorse.fp_values
        assert spectral.fp_values is not originals[1]
        tracer.begin(0)
        code, text = cli.run(cli.parse_args(["solve", "--p", "3", "--N", "2"]))
        tracer.end()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.run, spectral.fp_values, lanemorse.fp_values, profile.fp_values,
            lanemorse.RadialSolution.eval, spectral.eigvalsh_tridiagonal) == originals
    m = tracer.metrics(1, 1.0)
    assert m["radial.integrate_ivp.calls"][0] == 1
    assert m["profile.scales.calls"][0] >= 1
    assert m["radial.rk_steps"][0] > 0
    # the solve path does no spectral work, and absent spans read zero
    assert m["spectral.build_problem.calls"][0] == 0
    assert m["lapack.stebz.calls"][0] == 0
    assert m["spectral.count_negative.distinct_ratio"][0] == 0
    assert tracer.probe_errors() == {}


def test_host_speed_is_relative_to_the_reference():
    import speed

    ref = ([speed.INTERP_REF_S], [speed.LAPACK_REF_S])
    assert speed.speed(*ref, 0.5) == pytest.approx(1.0)
    # both kernels twice as slow: half the speed, whatever the weighting
    slow = ([2 * speed.INTERP_REF_S], [2 * speed.LAPACK_REF_S])
    assert speed.speed(*slow, 0.25) == pytest.approx(0.5)
    # only the interp kernel slower: weighted by the interpreter-bound share
    mixed = ([2 * speed.INTERP_REF_S], [speed.LAPACK_REF_S])
    assert speed.speed(*mixed, 1.0) == pytest.approx(0.5)
    assert speed.speed(*mixed, 0.0) == pytest.approx(1.0)
    assert speed.speed(*mixed, 0.5) == pytest.approx(2 ** -0.5)
    with speed.Sampler(interval_s=0.001) as sampler:
        sum(i * i for i in range(300_000))
    assert sampler.interp_s and sampler.lapack_s
    # a block too short for the sampler still yields one time per kernel
    with speed.Sampler(interval_s=60.0) as idle:
        pass
    assert (len(idle.interp_s), len(idle.lapack_s)) == (1, 1)


def test_every_workload_weights_the_speed_kernels():
    for spec in WORKLOADS.values():
        assert 0.0 <= spec["interp_share"] <= 1.0

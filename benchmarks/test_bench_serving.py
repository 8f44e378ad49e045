"""Serving admission perf harness: fleet requests per second by policy.

Submits seeded Poisson streams at 0.9x saturation to a fast-tier
``tiny_resnet`` fleet (2 chips x 8 replicas) through
:meth:`repro.serve.Fleet.submit` and records the host-side request rate
of three setups in ``BENCH_serving.json`` (CI uploads it as an artifact
next to ``BENCH_cyclesim.json`` and ``BENCH_compile.json``):

- ``rr``: round-robin dispatch, no faults;
- ``jsq``: join-shortest-queue dispatch, no faults;
- ``faulted_rr``: round-robin through the failover engine, with a
  replica crash, a 2x slowdown window and 2% transient failures.

Sizes are 10^4 and 10^5 requests (``REPRO_BENCH_TINY=1``: 10^3 and
10^4).  The gate: at the largest size JSQ must reach at least half of
round-robin's request rate.  JSQ reads each replica's in-flight count at
every release, so a depth count that rescans admitted finishes makes
dispatch quadratic in the stream length and fails this gate.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import (
    FaultPlan,
    Fleet,
    PoissonArrivals,
    ReplicaCrash,
    ReplicaSlowdown,
    RetryPolicy,
    TransientRequestFailure,
)
from repro.config import small_test_arch

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
_RESULTS = {}

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
SIZES = (1_000, 10_000) if TINY else (10_000, 100_000)
SETUPS = ("rr", "jsq", "faulted_rr")
REPLICAS = 8
CHIPS = 2
LOAD = 0.9
SEED = 5


def _fleet(policy):
    return Fleet(
        "tiny_resnet", small_test_arch(), replicas=REPLICAS, chips=CHIPS,
        policy=policy, tier="fast", input_size=8, num_classes=10,
    )


@pytest.fixture(scope="module")
def fleets():
    built = {policy: _fleet(policy) for policy in ("rr", "jsq")}
    # The probe also fills the service-profile cache before any timing.
    saturation = built["rr"].submit(batch=REPLICAS).saturation_inf_per_s
    built["jsq"].submit(batch=REPLICAS)
    return built, saturation


def _plan(releases):
    n = len(releases)
    return FaultPlan(
        events=(
            ReplicaCrash(1, releases[n // 2]),
            ReplicaSlowdown(2, 2.0, releases[n // 4], releases[3 * n // 4]),
            TransientRequestFailure(0.02, seed=SEED),
        ),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=1_000),
    )


@pytest.mark.parametrize("requests", SIZES)
@pytest.mark.parametrize("setup", SETUPS)
def test_bench_serving_rate(fleets, setup, requests):
    built, saturation = fleets
    fleet = built["jsq" if setup == "jsq" else "rr"]
    releases = PoissonArrivals(LOAD * saturation, seed=SEED).release_cycles(
        requests, fleet.arch.chip.cycle_ns
    )
    faults = _plan(releases) if setup == "faulted_rr" else None
    t0 = time.perf_counter()
    report = fleet.submit(batch=1, arrivals=releases, faults=faults)
    elapsed = time.perf_counter() - t0
    assert report.submitted == requests
    assert report.submitted == report.completed + report.dropped
    rate = requests / elapsed
    _RESULTS.setdefault(setup, {})[str(requests)] = {
        "seconds": round(elapsed, 4),
        "req_per_s": round(rate, 1),
        "completed": report.completed,
    }
    print(f"\n{setup} @ {requests}: {rate:,.0f} req/s ({elapsed:.3f} s)")


def test_bench_serving_jsq_keeps_pace_with_rr():
    """JSQ dispatch stays within 2x of round-robin at the largest size."""
    size = str(SIZES[-1])
    if not all(size in _RESULTS.get(s, {}) for s in ("rr", "jsq")):
        pytest.skip("rate benchmarks did not run")
    rr = _RESULTS["rr"][size]["req_per_s"]
    jsq = _RESULTS["jsq"][size]["req_per_s"]
    assert jsq >= 0.5 * rr, (
        f"jsq {jsq:,.0f} req/s < half of rr {rr:,.0f} req/s at {size} "
        f"requests: dispatch is no longer linear"
    )


def test_bench_serving_write_results():
    """Persist BENCH_serving.json (runs last; non-gating artifact)."""
    if not _RESULTS:
        pytest.skip("no benchmark results collected")
    payload = {
        "benchmark": "serving_admission",
        "model": "tiny_resnet",
        "tier": "fast",
        "replicas": REPLICAS,
        "chips": CHIPS,
        "load": LOAD,
        "tiny": TINY,
        "setups": _RESULTS,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS_PATH}")

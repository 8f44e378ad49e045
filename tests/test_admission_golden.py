"""Golden admission battery for the serving paths.

Fleet dispatch (rr and jsq), the failover engine under a mixed fault
plan (rr and jsq) and the fast model's fault-free ``serve_fleet`` are
diffed exactly against a fixture checked into ``tests/data/``: every
assignment, finish cycle, drop status and dispatch attempt of a
2,000-request Poisson stream at 0.9x saturation on a fast-tier
``tiny_resnet`` fleet (2 chips x 4 replicas).  Any change to the
streaming admission recurrence, the replica-choice rule or the retry
engine's event order fails here.

Regenerate the fixture after an *intentional* admission change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_admission_golden.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro import (
    FaultPlan,
    Fleet,
    LinkDegrade,
    PoissonArrivals,
    ReplicaCrash,
    ReplicaSlowdown,
    RetryPolicy,
    TransientRequestFailure,
)
from repro.config import small_test_arch
from repro.explore import evaluate_fast
from repro.faults import run_fault_schedule
from repro.sim.fastmodel import serve_fleet

GOLDEN = Path(__file__).parent / "data" / "admission_golden_v1.json"

MODEL_KW = dict(input_size=8, num_classes=10)
REPLICAS = 4
CHIPS = 2
REQUESTS = 2_000
LOAD = 0.9
SEED = 13


def _fleet(policy):
    return Fleet(
        "tiny_resnet", small_test_arch(), replicas=REPLICAS, chips=CHIPS,
        policy=policy, tier="fast", **MODEL_KW,
    )


def _plan(releases):
    n = len(releases)
    return FaultPlan(events=(
        ReplicaCrash(1, releases[n // 2]),
        ReplicaSlowdown(2, 2.0, releases[n // 4], releases[3 * n // 4]),
        LinkDegrade(0.5, releases[n // 3], releases[2 * n // 3], replica=0),
        TransientRequestFailure(0.02, seed=SEED),
    ))


def _record():
    probe = _fleet("rr")
    saturation = probe.submit(batch=REPLICAS).saturation_inf_per_s
    releases = PoissonArrivals(LOAD * saturation, seed=SEED).release_cycles(
        REQUESTS, probe.arch.chip.cycle_ns
    )
    row, edges = probe._service_profile()
    link = probe.arch.interchip
    retry = RetryPolicy(
        max_attempts=3, backoff_cycles=500,
        per_request_deadline_cycles=40 * sum(row),
    )
    payload = {"releases": releases, "fleet": {}, "faults": {}}
    for policy in ("rr", "jsq"):
        report = _fleet(policy).submit(batch=1, arrivals=releases)
        payload["fleet"][policy] = {
            "assignments": report.assignments,
            "input_finishes": report.input_finishes,
        }
        schedule = run_fault_schedule(
            releases, row, edges, link, REPLICAS, policy, _plan(releases),
            retry,
        )
        payload["faults"][policy] = {
            "assignments": schedule.assignments,
            "finishes": schedule.finishes,
            "statuses": schedule.statuses,
            "attempts": [
                [a.replica, a.dispatch_cycle, a.finish_cycle, a.status]
                for a in schedule.attempts
            ],
        }
    base = evaluate_fast(
        "tiny_resnet", small_test_arch(), "dp", chips=CHIPS, **MODEL_KW
    ).report
    payload["serve_fleet_rr"] = serve_fleet(
        base, releases, link, REPLICAS
    ).to_dict()
    return payload


@pytest.fixture(scope="module")
def recorded():
    return _record()


@pytest.fixture(scope="module")
def golden(recorded):
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(recorded, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_releases_match(recorded, golden):
    assert recorded["releases"] == golden["releases"]


@pytest.mark.parametrize("policy", ["rr", "jsq"])
def test_fleet_submit_matches_golden(recorded, golden, policy):
    assert recorded["fleet"][policy] == golden["fleet"][policy]


@pytest.mark.parametrize("policy", ["rr", "jsq"])
def test_fault_schedule_matches_golden(recorded, golden, policy):
    live, fixed = recorded["faults"][policy], golden["faults"][policy]
    for key in ("assignments", "finishes", "statuses"):
        assert live[key] == fixed[key], key
    assert live["attempts"] == fixed["attempts"]


def test_serve_fleet_rr_matches_golden(recorded, golden):
    assert (
        json.loads(json.dumps(recorded["serve_fleet_rr"]))
        == golden["serve_fleet_rr"]
    )


def test_fixture_exercises_every_fault_path(golden):
    """The plan must bite: crashes, retries and drops all occur."""
    for policy in ("rr", "jsq"):
        statuses = {a[3] for a in golden["faults"][policy]["attempts"]}
        assert {"completed", "crashed", "transient"} <= statuses, statuses
    assert golden["fleet"]["rr"]["assignments"] != (
        golden["fleet"]["jsq"]["assignments"]
    )

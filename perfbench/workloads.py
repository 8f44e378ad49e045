"""The four benchmark workloads, driven through the program's public API.

Each workload has a ``setup()`` (everything before the first timed call)
and a ``run_round(tracer)`` that performs one timed round and checks every
output against an independent reference.  A round returns a
:class:`Round`: operations attempted and failed, host timings, modelled
metrics (deterministic for a given seed) and per-layer counters that are
not spans.  All inputs derive from the benchmark seed alone.
"""

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import repro
from repro.serve import latency_percentile
from repro.sim import blockengine

STRATEGIES = ("generic", "duplication", "dp")


@dataclass
class Round:
    ops: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Host-time samples of this round, by metric (end-to-end names plus
    #: ``workload.*`` per-layer host times).
    host: Dict[str, List[float]] = field(default_factory=dict)
    #: Modelled metrics; identical on every round of one seed.
    modelled: Dict[str, float] = field(default_factory=dict)
    #: Non-span per-layer counters.
    layer: Dict[str, float] = field(default_factory=dict)


def derived_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent 31-bit seeds drawn from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) & 0x7FFFFFFF for s in state]


def _operation(tracer, op: int) -> None:
    if tracer is not None:
        tracer.request = op


# ---------------------------------------------------------------------------
# dse_sweep
# ---------------------------------------------------------------------------

class DseSweep:
    """Fast-tier sweeps: ResNet18 MG x flit x strategy, MobileNetV2 x strategy."""

    def __init__(self, seed: int):
        self.seed = seed  # the sweep draws no random inputs

    def setup(self) -> None:
        self.specs = [
            repro.SweepSpec(
                models=("resnet18",), strategies=STRATEGIES,
                mg_sizes=(4, 8, 12, 16), flit_sizes=(8, 16),
                input_sizes=(224,),
            ),
            repro.SweepSpec(
                models=("mobilenetv2",), strategies=STRATEGIES,
                input_sizes=(224,),
            ),
        ]

    def run_round(self, tracer) -> Round:
        points = []
        stamps = []

        def progress(done, total, point):
            stamps.append(time.perf_counter())
            _operation(tracer, len(points) + done)

        _operation(tracer, 0)
        start = time.perf_counter()
        for spec in self.specs:
            points.extend(repro.run_sweep(
                spec, workers=1, cache=None, progress=progress,
            ))
        elapsed = time.perf_counter() - start

        out = Round(ops=len(points))
        # Fig. 5 ordering: dp <= duplication <= generic at every
        # model/architecture point.
        by_arch: Dict[tuple, Dict[str, int]] = {}
        for p in points:
            key = (p.model, p.mg_size, p.flit_bytes)
            by_arch.setdefault(key, {})[p.strategy] = p.cycles
        for key, cycles in sorted(by_arch.items()):
            ordered = (
                set(cycles) == set(STRATEGIES)
                and cycles["dp"] <= cycles["duplication"] <= cycles["generic"]
            )
            if not ordered:
                out.failed += len(cycles)
                out.errors.append(f"strategy ordering broken at {key}: {cycles}")
        if len(by_arch) != 9 or len(points) != 27:
            out.failed = len(points) or 1
            out.errors.append(
                f"expected 27 points on 9 architectures, got {len(points)} "
                f"on {len(by_arch)}"
            )

        out.host = {"job_s": [elapsed], "work_per_s": [len(points) / elapsed]}
        latencies = [p.cycles for p in points]
        out.modelled = {
            "sim_cycles": sum(latencies),
            "sim_energy_mj": sum(p.energy_mj for p in points),
            "sim_p99_latency_cycles": latency_percentile(latencies, 99),
            "goodput_ratio": (len(points) - out.failed) / len(points),
        }
        gaps = np.diff([start] + stamps)
        out.layer["explore.point_p50_s"] = float(np.median(gaps))
        out.layer["explore.points"] = len(gaps)
        return out


# ---------------------------------------------------------------------------
# cyclesim_golden
# ---------------------------------------------------------------------------

#: (model, model kwargs, chips, batch).
CYCLESIM_CASES = (
    ("resnet18", {"input_size": 64, "num_classes": 100}, 1, 2),
    ("mobilenetv2", {"input_size": 64}, 1, 2),
    ("weight_stream", {"branches": 16}, 1, 4),
    ("resnet18", {"input_size": 64, "num_classes": 100}, 2, 4),
)

_ENGINE_KEYS = (
    "fallback_instructions", "loop_iterations_stepped",
    "loop_iterations_batched", "batch_attempts", "batch_successes",
    "template_builds", "template_hits", "noc_batch_attempts",
    "noc_batch_successes",
)


class CyclesimGolden:
    """Generic-strategy deployments, cycle-accurate with golden validation."""

    def __init__(self, seed: int):
        self.input_seeds = derived_seeds(seed, len(CYCLESIM_CASES))

    def setup(self) -> None:
        self.arch = repro.default_arch()

    def run_round(self, tracer) -> Round:
        compile_s = submit_s = fast_s = 0.0
        instructions = 0
        cycles = energy = 0.0
        latencies: List[int] = []
        rel_errors: List[float] = []
        out = Round(ops=len(CYCLESIM_CASES))
        before = dict(blockengine.ENGINE_STATS)
        for op, (model, kwargs, chips, batch) in enumerate(CYCLESIM_CASES):
            _operation(tracer, op)
            label = f"{model} x{chips} chips, B={batch}"
            try:
                t0 = time.perf_counter()
                dep = repro.Deployment(
                    model, self.arch, chips=chips, strategy="generic",
                    **kwargs,
                )
                t1 = time.perf_counter()
                report = dep.submit(
                    batch=batch, seed=self.input_seeds[op], validate=True,
                )
                t2 = time.perf_counter()
                fast = repro.Deployment(dep.compiled, tier="fast").submit(
                    batch=batch
                )
                t3 = time.perf_counter()
            except repro.ReproError as exc:
                out.failed += 1
                out.errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if not report.validated or len(report.per_input_outputs) != batch:
                out.failed += 1
                out.errors.append(f"{label}: outputs not golden-validated")
            compile_s += t1 - t0
            submit_s += t2 - t1
            fast_s += t3 - t2
            instructions += report.instructions
            cycles += report.makespan_cycles
            energy += report.total_energy_mj
            latencies.extend(report.latency_cycles)
            rel_errors.append(
                abs(fast.makespan_cycles - report.makespan_cycles)
                / report.makespan_cycles
            )
        after = blockengine.ENGINE_STATS
        if out.failed:
            return out

        out.host = {
            "job_s": [compile_s + submit_s + fast_s],
            "work_per_s": [instructions / submit_s],
            "workload.compile_s": [compile_s],
        }
        out.modelled = {
            "sim_cycles": cycles,
            "sim_energy_mj": energy,
            "sim_p99_latency_cycles": latency_percentile(latencies, 99),
            "goodput_ratio": (out.ops - out.failed) / out.ops,
            "sim.fastmodel.rel_error": sum(rel_errors) / len(rel_errors),
        }
        out.layer = {
            f"engine.{key}": after[key] - before[key] for key in _ENGINE_KEYS
        }
        return out


# ---------------------------------------------------------------------------
# Fleet workloads
# ---------------------------------------------------------------------------

FLEET_REPLICAS = 8
FLEET_CHIPS = 2


def _fleet(policy: str):
    fleet = repro.Fleet(
        "resnet18", replicas=FLEET_REPLICAS, policy=policy,
        chips=FLEET_CHIPS, tier="fast", input_size=224,
    )
    # Saturation of this fleet (its steady-state ceiling); the probe
    # also fills the deployment's service-profile cache before timing.
    saturation = fleet.submit(batch=FLEET_REPLICAS).saturation_inf_per_s
    return fleet, saturation


def _fleet_modelled(reports) -> Dict[str, float]:
    """Modelled metrics pooled over one round's independent streams."""
    latencies = [lat for r in reports for lat in r.latency_cycles]
    submitted = sum(r.submitted for r in reports)
    return {
        "sim_cycles": sum(r.makespan_cycles for r in reports),
        "sim_energy_mj": sum(r.total_energy_mj for r in reports),
        "sim_p99_latency_cycles": latency_percentile(latencies, 99),
        "goodput_ratio": sum(r.completed for r in reports) / submitted,
    }


def _poisson_releases(fleet, rate: float, seed: int, n: int) -> List[int]:
    return repro.PoissonArrivals(rate, seed=seed).release_cycles(
        n, fleet.arch.chip.cycle_ns
    )


class FleetJsq:
    """Offline JSQ admission of seeded Poisson streams at 0.7x saturation.

    A round submits ``streams`` independent streams, one ``Fleet.submit``
    each; each submit is one host-time sample, and the modelled latency
    percentile pools every stream of the round.
    """

    streams = 2
    requests = 8_000
    load = 0.7

    def __init__(self, seed: int):
        self.arrival_seeds = derived_seeds(seed, self.streams)

    def setup(self) -> None:
        self.fleet, saturation = _fleet("jsq")
        self.releases = [
            _poisson_releases(
                self.fleet, self.load * saturation, seed, self.requests
            )
            for seed in self.arrival_seeds
        ]

    def _check(self, report, releases, out: Round) -> None:
        """Each request assigned exactly once, finishing after release."""
        n = len(releases)
        if list(report.releases) != releases:
            out.failed += n
            out.errors.append("fleet report releases differ from the input")
            return
        served = [0] * n
        for replica, sub in enumerate(report.replica_reports):
            index = [
                i for i, a in enumerate(report.assignments) if a == replica
            ]
            if list(sub.releases) != [releases[i] for i in index]:
                out.failed += n
                out.errors.append(f"replica {replica} served other releases")
                return
            for i in index:
                served[i] += 1
        bad = [
            i for i in range(n)
            if served[i] != 1
            or not 0 <= report.assignments[i] < FLEET_REPLICAS
            or report.input_finishes[i] < releases[i]
        ]
        if bad:
            out.failed += len(bad)
            out.errors.append(
                f"{len(bad)} requests not served exactly once after their "
                f"release (first: {bad[0]})"
            )

    def run_round(self, tracer) -> Round:
        out = Round(ops=self.streams * self.requests)
        reports = []
        for k, releases in enumerate(self.releases):
            _operation(tracer, k)
            start = time.perf_counter()
            report = self.fleet.submit(batch=1, arrivals=releases)
            elapsed = time.perf_counter() - start
            self._check(report, releases, out)
            reports.append(report)
            out.host.setdefault("job_s", []).append(elapsed)
            out.host.setdefault("work_per_s", []).append(
                len(releases) / elapsed
            )
        out.modelled = _fleet_modelled(reports)
        shares = np.bincount(
            [a for r in reports for a in r.assignments],
            minlength=FLEET_REPLICAS,
        )
        out.modelled["serve.max_replica_share"] = (
            float(shares.max()) / shares.sum()
        )
        return out


class FleetFaultsLive:
    """Online rr admission of a faulted fleet through the async runtime.

    A round opens ``sessions`` independent serving sessions, each with
    its own seeded arrivals and fault plan: replica 1 crashes at the
    median release, replica 2 runs 2x slow over the middle half of the
    releases, and every attempt fails with probability 0.02.  Each
    session is one host-time sample; modelled metrics pool the round.
    """

    sessions = 4
    requests = 16_000
    load = 0.7

    def __init__(self, seed: int):
        seeds = derived_seeds(seed, 2 * self.sessions)
        self.arrival_seeds = seeds[:self.sessions]
        self.flaky_seeds = seeds[self.sessions:]

    def setup(self) -> None:
        self.fleet, saturation = _fleet("rr")
        n = self.requests
        self.releases = []
        self.plans = []
        for arrival_seed, flaky_seed in zip(
            self.arrival_seeds, self.flaky_seeds
        ):
            releases = _poisson_releases(
                self.fleet, self.load * saturation, arrival_seed, n
            )
            self.releases.append(releases)
            self.plans.append(repro.FaultPlan(events=(
                repro.ReplicaCrash(1, releases[n // 2]),
                repro.ReplicaSlowdown(
                    2, 2.0, releases[n // 4], releases[3 * n // 4]
                ),
                repro.TransientRequestFailure(0.02, seed=flaky_seed),
            )))
        self.retry = repro.RetryPolicy(
            max_attempts=3, backoff_cycles=1000,
            per_request_deadline_cycles=2_000_000,
        )

    async def _session(self, tracer, first_op, releases, plan):
        start = time.perf_counter()
        handle = await self.fleet.serve_forever(
            clock=repro.VirtualClock(), faults=plan, retry=self.retry,
        )
        futures = []
        for op, release in enumerate(releases, first_op):
            _operation(tracer, op)
            futures.append(await handle.submit(at=release))
            # Yield so the admission scheduler settles each request
            # online, as a live client's awaits would let it.
            await asyncio.sleep(0)
        submitted = time.perf_counter()
        _operation(tracer, -1)
        report = await handle.drain()
        drained = time.perf_counter()
        completions = [f.result() for f in futures]
        return report, completions, (start, submitted, drained)

    def _check(self, report, completions, out: Round) -> None:
        n = len(completions)
        if report.submitted != report.completed + report.dropped:
            out.failed += n
            out.errors.append(
                f"conservation: {report.submitted} submitted != "
                f"{report.completed} completed + {report.dropped} dropped"
            )
            return
        wrong = sum(
            1 for i, c in enumerate(completions)
            if c.request != i
            or c.dropped != (i in report.drop_reasons)
            or (c.completed and c.finish_cycle != report.input_finishes[i])
        )
        if wrong:
            out.failed += wrong
            out.errors.append(f"{wrong} live completions disagree with drain")

    def run_round(self, tracer) -> Round:
        out = Round(ops=self.sessions * self.requests)
        reports = []
        for k, (releases, plan) in enumerate(zip(self.releases, self.plans)):
            try:
                report, completions, (start, submitted, drained) = (
                    asyncio.run(self._session(
                        tracer, k * self.requests, releases, plan,
                    ))
                )
            except repro.SimulationError as exc:
                # drain()'s live-vs-offline cross-check failed.
                out.failed += len(releases)
                out.errors.append(f"session {k} cross-check: {exc}")
                continue
            self._check(report, completions, out)
            reports.append(report)
            out.host.setdefault("job_s", []).append(drained - start)
            out.host.setdefault("work_per_s", []).append(
                len(releases) / (submitted - start)
            )
            out.host.setdefault("workload.drain_s", []).append(
                drained - submitted
            )
        if not reports:
            return out
        out.modelled = _fleet_modelled(reports)
        attempts = sum(sum(r.attempt_counts) for r in reports)
        submitted = sum(r.submitted for r in reports)
        out.modelled.update({
            "faults.attempts": attempts,
            "faults.retries": sum(r.retries for r in reports),
            "faults.dropped_deadline": sum(
                1 for r in reports for reason in r.drop_reasons.values()
                if reason == "deadline"
            ),
            "faults.retry_ratio": attempts / submitted,
        })
        return out


WORKLOADS = {
    "dse_sweep": DseSweep,
    "cyclesim_golden": CyclesimGolden,
    "fleet_jsq": FleetJsq,
    "fleet_faults_live": FleetFaultsLive,
}

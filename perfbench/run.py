"""Repository benchmark: end-to-end and per-layer numbers for one workload.

Run from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] \
        [--seconds S] [--trace 0|1]

Workloads (``perfbench/spec.py`` says why each was chosen):
``dse_sweep``, ``cyclesim_golden``, ``fleet_jsq``, ``fleet_faults_live``;
``all`` (the default) runs them in turn, and its last line sums the
counts and prefixes each metric with its workload.

Every round runs in a fresh ``worker.py`` process, so the program's memo
caches start empty.  ``dse_sweep`` and ``cyclesim_golden`` run one round
per process, and processes follow one another while the next one still
fits in ``--seconds``; the fleet workloads split ``--seconds`` over a few
processes, each of which repeats the seeded round on the fleet it built.
Extra set-up-only processes bring the set-up samples to
``spec.SETUP_SAMPLES``.  Host times are medians over rounds (sample
counts are printed beside them); modelled metrics must repeat exactly on
every round, or the run is reported incorrect.

``--trace 1`` instead runs one untraced and one traced process of one
round each and reports the per-layer metrics: self time and call counts
of each wrapped layer (``perfbench/spans.py``), the program's own
counters, and the tracing overhead.  It fails if a span declared for the
workload never fires, if the self times do not sum to the traced wall
time, or if the traced process's modelled metrics differ from the
untraced one's.  Spans are written to ``.perfbench/``.

Progress lines go to stdout; the last stdout line is the JSON result.
The exit code is 0 only if every output check passed.
"""

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
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Fleet workloads split ``--seconds`` over this many processes.
FLEET_PROCESSES = 2
#: No single worker process may run longer than this.
WORKER_TIMEOUT_S = 170.0

_ENGINE_RATIOS = {
    "sim.blockengine.batched_iteration_ratio": (
        "loop_iterations_batched",
        ("loop_iterations_batched", "loop_iterations_stepped"),
    ),
    "sim.blockengine.batch_success_ratio": (
        "batch_successes", ("batch_attempts",),
    ),
    "sim.blockengine.template_hit_ratio": (
        "template_hits", ("template_hits", "template_builds"),
    ),
    "sim.blockengine.noc_batch_success_ratio": (
        "noc_batch_successes", ("noc_batch_attempts",),
    ),
}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, *extra):
    """Run one worker process to completion; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--t0", repr(t0), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def _check_rounds(rounds, errors, between="rounds of one seed"):
    """Attempted/failed counts; modelled metrics must repeat exactly."""
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        errors.extend(r["errors"])
    if any(r["modelled"] != rounds[0]["modelled"] for r in rounds):
        errors.append(f"modelled metrics differ between {between}")
        failed = max(failed, 1)
    return attempted, failed


def timed_run(workload, seed, seconds):
    cfg = spec.WORKLOADS[workload]
    start = time.monotonic()
    workers = []
    if cfg["fresh_process_per_round"]:
        while True:
            workers.append(spawn(workload, seed, "--rounds", "1"))
            elapsed = time.monotonic() - start
            if elapsed + workers[-1]["process_s"] > seconds:
                break
    else:
        for k in range(FLEET_PROCESSES):
            remaining = seconds - (time.monotonic() - start)
            budget = max(remaining / (FLEET_PROCESSES - k), 0.0)
            workers.append(
                spawn(workload, seed, "--budget", repr(budget))
            )
    setups = [w["setup_s"] for w in workers]
    while len(setups) < spec.SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])

    rounds = [r for w in workers for r in w["rounds"]]
    errors = []
    attempted, failed = _check_rounds(rounds, errors)
    samples = {"setup_s": len(setups)}
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    for name in ("work_per_s", "job_s"):
        values = [v for r in rounds for v in r["host"].get(name, [])]
        if values:
            metrics[name] = statistics.median(values)
            samples[name] = len(values)
    modelled = rounds[0]["modelled"]
    for name, *_ in spec.END_TO_END:
        if name in modelled:
            metrics[name] = modelled[name]
    return attempted, failed, errors, metrics, samples


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(workload, seed):
    plain = spawn(workload, seed, "--rounds", "1")
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    traced = spawn(
        workload, seed, "--rounds", "1", "--trace", "--spans", str(spans)
    )
    errors = []
    attempted, failed = _check_rounds(
        plain["rounds"] + traced["rounds"], errors,
        between="the traced and the untraced run",
    )

    # Span metrics come from the traced process; host times, modelled
    # values and the program's own counters from the untraced one.
    metrics = dict(traced["layers"])
    first = plain["rounds"][0]
    counters = first["layer"]
    host = {name: sum(values) for name, values in first["host"].items()}
    untraced = {**counters, **host, **first["modelled"]}
    for name, *_ in spec.PER_LAYER:
        if name in untraced:
            metrics[name] = untraced[name]
    for name, (num, den) in _ENGINE_RATIOS.items():
        metrics[name] = _ratio(
            counters.get(f"engine.{num}", 0),
            sum(counters.get(f"engine.{d}", 0) for d in den),
        )
    metrics["sim.blockengine.fallback_instructions"] = counters.get(
        "engine.fallback_instructions", 0
    )
    metrics["compiler.cost.calls_per_stage"] = _ratio(
        metrics["compiler.cost.estimate_stage_calls"],
        metrics["compiler.partition.stages_priced"],
    )
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    for name, *_ in spec.PER_LAYER:
        metrics.setdefault(name, 0)
    return attempted, failed, errors, metrics, {}


def _declared_names(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    declared = json.loads(path.read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Run one workload and print its table; returns the JSON result."""
    if trace:
        attempted, failed, errors, values, samples = traced_run(workload, seed)
    else:
        attempted, failed, errors, values, samples = timed_run(
            workload, seed, seconds
        )
    table = spec.PER_LAYER if trace else spec.END_TO_END
    units = {name: unit for name, unit, *_ in table}
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units if name in values
    }
    if len(metrics) != len(units):
        errors.append(f"missing metrics: {sorted(set(units) - set(metrics))}")
        failed = max(failed, 1)

    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}: "
          f"{attempted} operations, {failed} failed")
    for name, entry in metrics.items():
        n = samples.get(name)
        note = f"  (median, n={n})" if n else ""
        print(f"  {name:42s} {entry['value']:>16.6g} {entry['unit']}{note}")
    for error in errors:
        print(f"  CHECK FAILED: {error[:300]}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    declared = _declared_names(args.trace)
    if declared is not None and sorted(declared) != sorted(
        name for name, *_ in table
    ):
        print("BENCHMARK.json and perfbench/spec.py list different metrics",
              file=sys.stderr)
        return 3

    names = list(spec.WORKLOADS) if args.workload == "all" else [
        args.workload
    ]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, args.trace
            )
    except (WorkerError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

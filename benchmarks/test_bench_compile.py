"""CG-level compiler perf harness: per-phase wall time of the DP flow.

For each of the paper's four models this runs the CG-level compile of
:func:`repro.compiler.pipeline.plan_graph` under the ``dp`` strategy one
phase at a time and writes ``BENCH_compile.json`` (CI uploads it as a
non-gating artifact), so the compiler's performance trajectory is
tracked PR-over-PR next to ``BENCH_cyclesim.json``:

- ``condense_s``: condensation and linearization (:func:`condense`);
- ``geometry_s``: per-node mapping geometry (:func:`build_geometries`);
- ``closures_s``: dependency-closure enumeration on its own (the
  partition phase enumerates them again internally);
- ``partition_s``: Algorithm 1's DP partition with duplication;
- ``assign_s``: core and row assignment of the chosen stages.

Each phase reports the minimum over ``ROUNDS`` runs.  Beside the times
the harness counts ``estimate_stage`` calls and priced stages
(``optimal_mapping`` calls) and gates the DP's cost contract on them:
every priced stage is estimated once, and a duplication trial re-prices
only the node it changes, so ``estimate_stage_calls <= stages_priced``.

``REPRO_BENCH_TINY=1`` switches to smoke scale (32 px inputs); the
contract gate is unchanged.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.compiler import partition as partition_module
from repro.compiler.closures import DEFAULT_CLOSURE_LIMIT, closure_masks
from repro.compiler.cost import CostModel
from repro.compiler.frontend import condense
from repro.compiler.plan import assign_cores_and_rows
from repro.compiler.strategies import build_geometries, partition_with_strategy
from repro.config import default_arch
from repro.graph.models import PAPER_SUITE, get_model

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
_RESULTS = {}

#: Timing rounds per model (minimum per phase is reported).
ROUNDS = 2

#: Smoke scale: small inputs, same phases and gate.
TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

INPUT_SIZE = 32 if TINY else 224

#: The Fig. 7 sweep's closure limits: EfficientNetB0 is capped at 64.
CLOSURE_LIMIT = {"efficientnetb0": 64}


def _counting(monkeypatch, owner, attr, counts, key):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def _compile_phases(graph, arch, limit):
    """One phased CG-level compile: ``(phase -> seconds, partition)``."""
    times = {}

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[phase] = time.perf_counter() - t0
        return result

    cgraph = timed("condense_s", condense, graph)
    geometries = timed("geometry_s", build_geometries, cgraph, arch)
    masks = timed("closures_s", closure_masks, cgraph.dep_list(), limit)
    result = timed(
        "partition_s", partition_with_strategy, "dp", cgraph, geometries,
        arch, CostModel(arch), limit,
    )
    timed("assign_s", assign_cores_and_rows, cgraph, geometries, result, arch)
    return times, len(cgraph), len(masks), result


@pytest.mark.parametrize("model", PAPER_SUITE)
def test_bench_compile_phases(model, monkeypatch):
    graph = get_model(model, input_size=INPUT_SIZE)
    arch = default_arch()
    limit = CLOSURE_LIMIT.get(model, DEFAULT_CLOSURE_LIMIT)
    counts = {"estimate_stage_calls": 0, "stages_priced": 0}
    _counting(monkeypatch, CostModel, "estimate_stage", counts,
              "estimate_stage_calls")
    _counting(monkeypatch, partition_module, "optimal_mapping", counts,
              "stages_priced")

    best = {}
    for _ in range(ROUNDS):
        for key in counts:
            counts[key] = 0
        times, nodes, closures, result = _compile_phases(graph, arch, limit)
        for phase, seconds in times.items():
            best[phase] = min(seconds, best.get(phase, seconds))

    covered = sorted(i for stage in result.stages for i in stage.node_indices)
    assert covered == list(range(nodes))
    assert 0 < counts["estimate_stage_calls"] <= counts["stages_priced"], (
        f"{model}: {counts} breaks one estimate_stage call per priced stage"
    )
    entry = {
        "input_size": INPUT_SIZE,
        "closure_limit": limit,
        "condensed_nodes": nodes,
        "closures": closures,
        "stages": len(result.stages),
        **{phase: round(seconds, 4) for phase, seconds in best.items()},
        "total_s": round(sum(best.values()), 4),
        **counts,
        "calls_per_stage": round(
            counts["estimate_stage_calls"] / counts["stages_priced"], 4
        ),
    }
    _RESULTS[model] = entry
    print(
        f"\n{model}: "
        + ", ".join(f"{p} {s:.3f}s" for p, s in best.items())
        + f"; {counts['estimate_stage_calls']} estimate_stage calls for "
        f"{counts['stages_priced']} priced stages"
    )


def test_bench_compile_write_results():
    """Persist BENCH_compile.json (runs last; non-gating artifact)."""
    if not _RESULTS:
        pytest.skip("no benchmark results collected")
    payload = {
        "benchmark": "compile_phases",
        "strategy": "dp",
        "rounds": ROUNDS,
        "tiny": TINY,
        "models": _RESULTS,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS_PATH}")

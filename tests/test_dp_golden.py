"""Golden DP-plan regression battery.

The CG-level plans of the paper's four models at 224 px (closure limit
64) under all three strategies -- stage membership, replica counts, the
stage and per-node cost estimates -- plus the fast model's cycles,
energy breakdown and per-stage cycles are diffed exactly against a
fixture checked into ``tests/data/``.  Floats are compared through
``repr``, so any change to the cost model's arithmetic, the DP's
tie-breaking or the greedy duplication order fails here, naming the
first diverging stage.

Regenerate the fixture after an *intentional* cost-model change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_dp_golden.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.compiler.pipeline import plan_graph
from repro.config import default_arch
from repro.config.presets import with_flit_bytes, with_mg_size
from repro.graph.models import PAPER_SUITE, get_model
from repro.sim.fastmodel import analyze_plan

GOLDEN = Path(__file__).parent / "data" / "dp_plans_224_v1.json"

INPUT_SIZE = 224
CLOSURE_LIMIT = 64
STRATEGIES = ("generic", "duplication", "dp")

#: arch label -> (MG size, flit bytes); ``None`` keeps the default arch.
ARCHES = {"default": None, "mg4_flit8": (4, 8)}

CASES = [
    (model, "default", strategy)
    for model in PAPER_SUITE
    for strategy in STRATEGIES
] + [("resnet18", "mg4_flit8", strategy) for strategy in STRATEGIES]


def _case_id(case) -> str:
    return "/".join(case)


def _arch(label):
    arch = default_arch()
    if ARCHES[label] is not None:
        mg, flit = ARCHES[label]
        arch = with_flit_bytes(with_mg_size(arch, mg), flit)
    return arch


def _floats(mapping):
    return {key: repr(value) for key, value in mapping.items()}


def _node_record(cost):
    return {
        "replicas": cost.replicas,
        "cores": cost.cores,
        "load_cycles": cost.load_cycles,
        "row_cycles": cost.row_cycles,
        "rows_per_replica": cost.rows_per_replica,
        "latency": cost.latency,
        "energy_pj": repr(cost.energy_pj),
        "energy_categories": _floats(cost.energy_categories),
    }


def _record(case):
    model, arch_label, strategy = case
    graph = get_model(model, input_size=INPUT_SIZE)
    plan = plan_graph(
        graph, _arch(arch_label), strategy, closure_limit=CLOSURE_LIMIT
    )
    fast = analyze_plan(plan)
    return {
        "stages": [
            {
                "nodes": list(stage.node_indices),
                "replicas": dict(stage.replicas),
                "latency": stage.estimate.latency,
                "energy_pj": repr(stage.estimate.energy_pj),
                "node_costs": [
                    _node_record(cost) for cost in stage.estimate.node_costs
                ],
            }
            for stage in plan.partition.stages
        ],
        "fast": {
            "cycles": fast.cycles,
            "energy_breakdown_pj": _floats(fast.energy_breakdown_pj),
            "stage_cycles": {
                str(index): cycles
                for index, cycles in fast.stage_cycles.items()
            },
        },
    }


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        payload = {
            "workload": {
                "input_size": INPUT_SIZE,
                "closure_limit": CLOSURE_LIMIT,
                "arches": {k: v and list(v) for k, v in ARCHES.items()},
            },
            "cases": {_case_id(case): _record(case) for case in CASES},
        }
        GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    assert GOLDEN.exists(), f"missing golden fixture {GOLDEN}"
    return json.loads(GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_dp_plan_matches_golden(golden, case):
    expected = golden[_case_id(case)]
    actual = _record(case)
    assert len(actual["stages"]) == len(expected["stages"])
    for index, (got, want) in enumerate(
        zip(actual["stages"], expected["stages"])
    ):
        assert got == want, f"stage {index} diverges"
    assert actual["fast"] == expected["fast"]

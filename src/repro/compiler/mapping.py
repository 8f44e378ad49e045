"""Core-mapping optimisation with operator (weight) duplication.

Given the nodes of one partition stage, :func:`optimal_mapping` decides how
many *replicas* each node gets (the paper's weight duplication across
clusters of cores): starting from the minimum feasible mapping, leftover
cores are granted to whichever node currently bounds the stage pipeline,
as long as the cost model says the extra replica actually helps --
"strategically duplicating operator weights across clusters of cores when
deemed beneficial by the cost estimation model".
"""

from typing import Dict, List, Optional, Tuple

from repro.config import ArchConfig
from repro.compiler.cost import CostModel, StageEstimate
from repro.compiler.geometry import NodeGeometry


def minimum_cores(geoms: List[NodeGeometry]) -> int:
    """Cores needed by one replica of every node in the stage."""
    return sum(g.cores_min for g in geoms)


def optimal_mapping(
    geoms: List[NodeGeometry],
    arch: ArchConfig,
    cost_model: CostModel,
    duplicate: bool = True,
    spill: Optional[Dict[str, bool]] = None,
) -> Optional[Tuple[Dict[str, int], StageEstimate]]:
    """Choose replica counts for a stage; ``None`` when the stage cannot fit.

    With ``duplicate=False`` the mapping is the generic single-replica
    placement (used by the baseline strategies).
    """
    total_cores = arch.num_cores
    base = minimum_cores(geoms)
    if base > total_cores:
        return None
    replicas: Dict[str, int] = {g.node.name: 1 for g in geoms}
    estimate = cost_model.estimate_stage(geoms, replicas, spill)
    if not duplicate:
        return replicas, estimate

    # The stage's structure does not depend on replica counts, so each
    # trial re-prices only the node it grants one more replica.
    structure = cost_model.stage_structure(geoms, spill)
    cores_used = base
    blocked = set()
    # Greedy duplication: relieve the pipeline bottleneck while it helps.
    for _ in range(4 * total_cores):
        candidates = [
            position
            for position, geom in enumerate(geoms)
            if geom.node.name not in blocked
            and replicas[geom.node.name] < geom.max_replicas
            and cores_used + geom.cores_min <= total_cores
        ]
        if not candidates:
            break
        candidates.sort(key=lambda position: (
            -estimate.node_costs[position].latency, geoms[position].node.name
        ))
        improved = False
        for position in candidates:
            geom = geoms[position]
            name = geom.node.name
            node_costs = list(estimate.node_costs)
            node_costs[position] = cost_model.estimate_node(
                geom, replicas[name] + 1, *structure[position]
            )
            trial_estimate = cost_model.combine_stage(node_costs)
            if trial_estimate.cost < estimate.cost:
                replicas[name] += 1
                estimate = trial_estimate
                cores_used += geom.cores_min
                improved = True
                break
            blocked.add(name)
        if not improved:
            break
    return replicas, estimate

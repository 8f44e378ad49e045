"""Property tests for the streaming admission kernel.

:class:`repro.sim.multichip.PipelineState` is the one implementation of
the streaming recurrence every serving path admits through.  Here it is
checked against a frozen reference copy of the original loop-form
``streaming_schedule`` body over random per-input rows, transfer edges,
non-decreasing releases and fault-plan timing hooks, and its bisection
in-flight count against a brute-force count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import InterChipConfig
from repro.faults import FaultPlan, LinkDegrade, ReplicaSlowdown
from repro.sim.multichip import PipelineState, streaming_schedule


def reference_schedule(batch_chip_cycles, transfers, link, releases,
                       service_time=None, link_time=None):
    """The recurrence as originally written, kept verbatim as an oracle."""
    n = len(batch_chip_cycles[0]) if batch_chip_cycles else 0
    link_free = {}
    prev_finish = [0] * n
    all_starts, all_finishes, input_finishes = [], [], []
    for index, chip_cycles in enumerate(batch_chip_cycles):
        arrival = [0] * n
        if releases is not None and n:
            arrival[0] = releases[index]
        starts = [0] * n
        finishes = [0] * n
        for k in range(n):
            starts[k] = max(arrival[k], prev_finish[k])
            occupancy = chip_cycles[k]
            if service_time is not None:
                occupancy = service_time(k, starts[k], occupancy)
            finishes[k] = starts[k] + occupancy
            for src, dst, nbytes in transfers:
                if src != k:
                    continue
                depart = max(finishes[k], link_free.get((src, dst), 0))
                if link_time is None:
                    ser = link.serialization_cycles(nbytes)
                    lat = link.transfer_cycles(nbytes)
                else:
                    ser, lat = link_time(src, dst, depart, nbytes)
                link_free[(src, dst)] = depart + ser
                arrive = depart + lat
                arrival[dst] = max(arrival[dst], arrive)
        prev_finish = finishes
        all_starts.append(starts)
        all_finishes.append(finishes)
        input_finishes.append(max(finishes) if finishes else 0)
    makespan = max(input_finishes) if input_finishes else 0
    return all_starts, all_finishes, input_finishes, makespan


def _windows(draw, count):
    windows = []
    for _ in range(count):
        start = draw(st.integers(0, 2_000))
        length = draw(st.one_of(st.none(), st.integers(1, 2_000)))
        windows.append((start, None if length is None else start + length))
    return windows


@st.composite
def streams(draw):
    shards = draw(st.integers(1, 4))
    edges = [
        (src, dst, draw(st.integers(0, 4_096)))
        for src in range(shards) for dst in range(src + 1, shards)
        for _ in range(draw(st.integers(0, 2)))
    ]
    edges = draw(st.permutations(edges))
    batch = draw(st.integers(0, 12))
    rows = [
        draw(st.lists(st.integers(0, 400), min_size=shards, max_size=shards))
        for _ in range(batch)
    ]
    gaps = draw(st.lists(st.integers(0, 500), min_size=batch, max_size=batch))
    releases = [sum(gaps[:i + 1]) for i in range(batch)]
    link = InterChipConfig(
        bandwidth_bytes_per_cycle=draw(st.integers(1, 64)),
        latency_cycles=draw(st.integers(0, 600)),
    )
    events = [
        ReplicaSlowdown(0, draw(st.floats(1.0, 3.0)), start, end)
        for start, end in _windows(draw, draw(st.integers(0, 2)))
    ] + [
        LinkDegrade(draw(st.floats(0.1, 1.0)), start, end)
        for start, end in _windows(draw, draw(st.integers(0, 2)))
    ]
    hooks = FaultPlan(events=tuple(events)).schedule_hooks(0, link)
    return rows, edges, link, releases, hooks


@settings(max_examples=300, deadline=None)
@given(streams())
def test_kernel_matches_reference_recurrence(stream):
    rows, edges, link, releases, (service_time, link_time) = stream
    expected = reference_schedule(
        rows, edges, link, releases, service_time, link_time
    )
    assert streaming_schedule(
        rows, edges, link, releases, service_time, link_time
    ) == expected
    assert streaming_schedule(
        rows, edges, link, None, service_time, link_time
    ) == reference_schedule(rows, edges, link, None, service_time, link_time)


@settings(max_examples=300, deadline=None)
@given(streams(), st.lists(st.integers(0, 10_000), max_size=8))
def test_in_flight_bisection_matches_brute_force(stream, probes):
    rows, edges, link, releases, (service_time, link_time) = stream
    shards = len(rows[0]) if rows else 1
    state = PipelineState(shards, edges, link, service_time, link_time)
    for release, row in zip(releases, rows):
        state.admit(release, row)
        # Monotone finishes are what make the bisection exact.
        assert state.finishes == sorted(state.finishes)
        for now in [release, *probes]:
            brute = sum(1 for f in state.finishes if f > now)
            assert state.in_flight(now) == brute

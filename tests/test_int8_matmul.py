"""Exact float-BLAS int8 contractions and the CIM_CFG tile bound.

:func:`repro.graph.quantize.int8_matmul` carries every int8 x int8
contraction of the simulator and the golden model on float BLAS.  These
tests pin its exactness bound (float32 up to depth 1024, float64 beyond,
refusal from 2^17 on), check it against an int64 reference, and drive a
1025-row tile -- the first depth float32 would round -- through
``CIM_LOAD``/``CIM_MVM`` on both engines, straight-line and batched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_arch, small_test_arch
from repro.config.arch import GLOBAL_BASE
from repro.errors import SimulationError
from repro.graph.quantize import exact_float_dtype, int8_matmul
from repro.isa import ProgramBuilder, SReg
from repro.sim import blockengine
from repro.sim.chip import ChipSimulator

ENGINES = ("interp", "block")


def _i64_reference(x, w):
    return (x.astype(np.int64) @ w.astype(np.int64)).astype(np.int32)


class TestExactFloatDtype:
    def test_float32_up_to_depth_1024(self):
        assert exact_float_dtype(1) is np.float32
        assert exact_float_dtype(1024) is np.float32

    def test_float64_beyond(self):
        assert exact_float_dtype(1025) is np.float64
        assert exact_float_dtype((1 << 17) - 1) is np.float64

    def test_int32_overflow_depth_refused(self):
        with pytest.raises(SimulationError, match="overflow"):
            exact_float_dtype(1 << 17)

    def test_depth_1025_rounding_case_is_exact(self):
        # 1024 * (-128)^2 + 1 = 2^24 + 1: float32 would round it to 2^24.
        x = np.array([-128] * 1024 + [1], dtype=np.int8)
        w = x.reshape(-1, 1)
        assert np.float32(np.float32(1 << 24) + np.float32(1)) == 1 << 24
        dtype = exact_float_dtype(len(x))
        assert dtype is np.float64
        out = int8_matmul(x, w.astype(dtype))
        assert out.dtype == np.int32
        assert out.tolist() == [16777217]


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from((1, 1024, 1025, 4608)),
    m=st.integers(1, 5),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**31 - 1),
    extreme=st.booleans(),
)
def test_int8_matmul_matches_int64_reference(k, m, n, seed, extreme):
    rng = np.random.default_rng(seed)
    if extreme:
        # Saturated operands push every partial sum to its bound.
        x = rng.choice(np.array([-128, 127], np.int8), size=(m, k))
        w = rng.choice(np.array([-128, 127], np.int8), size=(k, n))
    else:
        x = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
        w = rng.integers(-128, 128, size=(k, n), dtype=np.int8)
    out = int8_matmul(x, w.astype(exact_float_dtype(k)))
    assert out.dtype == np.int32
    np.testing.assert_array_equal(out, _i64_reference(x, w))
    # A single vector and a stack of them (the batched-replay shapes).
    np.testing.assert_array_equal(
        int8_matmul(x[0], w.astype(exact_float_dtype(k))),
        _i64_reference(x[0], w),
    )
    stacked = np.broadcast_to(w, (m, k, n)).astype(exact_float_dtype(k))
    np.testing.assert_array_equal(
        int8_matmul(x[:, None, :], stacked)[:, 0, :], _i64_reference(x, w)
    )


# ---------------------------------------------------------------------------
# A 1025-row tile through both engines
# ---------------------------------------------------------------------------

ROWS, COLS, ITERS = 1025, 2, 6
TILE, VEC, OUT_ONE, OUT_RES, OUT_VIRT = 0, 4096, 8192, 8448, 9216


def _deep_tile_image():
    rng = np.random.default_rng(5)
    image = rng.integers(-128, 128, 6144, dtype=np.int8)
    tile = image[TILE:TILE + ROWS * COLS].reshape(ROWS, COLS)
    tile[:1024, 0] = -128
    tile[1024, 0] = 1
    image[VEC:VEC + 1024] = -128
    image[VEC + 1024] = 1
    return image


def _deep_tile_program():
    """Straight-line MVM, a resident-tile loop and a load-per-iteration
    loop, all on a 1025-row tile (float64 representation)."""
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, 6144)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)
    b.set_sreg(SReg.MVM_ROWS, 10, ROWS)
    b.set_sreg(SReg.MVM_COLS, 10, COLS)
    b.li(4, TILE)
    b.li(5, 0)
    b.emit("CIM_LOAD", rs=4, rt=5)
    b.li(6, VEC)
    b.li(7, OUT_ONE)
    b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
    # Resident tile: (M, rows) @ tile in one batched product.
    b.li(8, OUT_RES)
    b.li(1, 0)
    b.li(2, ITERS)
    with b.loop(1, 2):
        b.emit("CIM_MVM", rs=6, rt=5, re=8, flags=0)
        b.emit("SC_ADDIW", rs=6, rt=6, offset=1)
        b.emit("SC_ADDIW", rs=8, rt=8, offset=4 * COLS)
    # A fresh tile every iteration: the stacked (virtual) replay.
    b.li(4, TILE)
    b.li(9, 1)
    b.li(6, VEC)
    b.li(8, OUT_VIRT)
    b.li(1, 0)
    b.li(2, ITERS)
    with b.loop(1, 2):
        b.emit("CIM_LOAD", rs=4, rt=9)
        b.emit("CIM_MVM", rs=6, rt=9, re=8, flags=0)
        b.emit("SC_ADDIW", rs=4, rt=4, offset=COLS)
        b.emit("SC_ADDIW", rs=8, rt=8, offset=4 * COLS)
    b.halt()
    return b.finalize()


def _outputs(sim, base):
    raw = sim.memory.locals[0][base:base + 4 * COLS * ITERS]
    return raw.copy().view(np.int32).reshape(ITERS, COLS)


def test_deep_tile_mvm_exact_on_both_engines():
    image = _deep_tile_image()
    program = _deep_tile_program()
    sims = {}
    for engine in ENGINES:
        before = dict(blockengine.ENGINE_STATS)
        sim = ChipSimulator(
            default_arch(), {0: program},
            global_image=image.view(np.uint8).copy(), engine=engine,
        )
        sims[engine] = (sim, sim.run())
        if engine == "block":
            after = blockengine.ENGINE_STATS
            assert after["batch_successes"] - before["batch_successes"] == 2
    (interp, r_interp), (block, r_block) = sims["interp"], sims["block"]
    assert r_interp.cycles == r_block.cycles
    assert r_interp.macs == r_block.macs
    assert np.array_equal(interp.memory.locals[0], block.memory.locals[0])

    tile = image[TILE:TILE + ROWS * COLS].reshape(ROWS, COLS)
    vec = image[VEC:VEC + ROWS]
    one = block.memory.locals[0][OUT_ONE:OUT_ONE + 4 * COLS].view(np.int32)
    assert one[0] == 16777217
    np.testing.assert_array_equal(one, _i64_reference(vec, tile))
    resident = np.stack([image[VEC + i:VEC + i + ROWS] for i in range(ITERS)])
    np.testing.assert_array_equal(
        _outputs(block, OUT_RES), _i64_reference(resident, tile)
    )
    for i, row in enumerate(_outputs(block, OUT_VIRT)):
        start = TILE + COLS * i
        shifted = image[start:start + ROWS * COLS].reshape(ROWS, COLS)
        np.testing.assert_array_equal(row, _i64_reference(vec, shifted))
    for sim, _ in sims.values():
        assert sim.cores[0].mgs[0][0].dtype == np.float64


# ---------------------------------------------------------------------------
# CIM_CFG must stay inside the loaded tile
# ---------------------------------------------------------------------------

def _cfg_program(cfg_rows, cfg_cols, tile_rows=16, tile_cols=8):
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, tile_rows * tile_cols + tile_rows)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)
    b.set_sreg(SReg.MVM_ROWS, 10, tile_rows)
    b.set_sreg(SReg.MVM_COLS, 10, tile_cols)
    b.li(4, 0)
    b.li(5, 0)
    b.emit("CIM_LOAD", rs=4, rt=5)
    b.set_sreg(SReg.MVM_ROWS, 10, cfg_rows)
    b.set_sreg(SReg.MVM_COLS, 10, cfg_cols)
    b.emit("CIM_CFG", rt=5)
    b.li(6, tile_rows * tile_cols)
    b.li(7, 1024)
    b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
    b.halt()
    return b.finalize()


def _cfg_image():
    rng = np.random.default_rng(9)
    return rng.integers(-128, 128, 1024, dtype=np.int8)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "rows,cols", [(16, 16), (32, 8), (17, 9), (0, 8), (16, 0), (-1, 4)]
)
def test_cim_cfg_outside_tile_rejected(engine, rows, cols):
    sim = ChipSimulator(
        small_test_arch(), {0: _cfg_program(rows, cols)},
        global_image=_cfg_image().view(np.uint8), engine=engine,
    )
    with pytest.raises(SimulationError, match="outside the 16x8 tile"):
        sim.run()


@pytest.mark.parametrize("engine", ENGINES)
def test_cim_cfg_narrows_within_tile(engine):
    image = _cfg_image()
    sim = ChipSimulator(
        small_test_arch(), {0: _cfg_program(8, 4)},
        global_image=image.view(np.uint8), engine=engine,
    )
    report = sim.run()
    tile = image[:128].reshape(16, 8)
    vec = image[128:144]
    out = sim.memory.locals[0][1024:1024 + 16].view(np.int32)
    np.testing.assert_array_equal(out, _i64_reference(vec[:8], tile[:8, :4]))
    assert report.macs == 8 * 4

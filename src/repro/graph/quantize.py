"""Shared INT8 quantisation arithmetic.

Both the golden functional model (:mod:`repro.sim.functional`) and the
simulator's vector/CIM units import these helpers, so the two always agree
bit-for-bit; any residual mismatch is a genuine compiler or simulator bug
and is caught by functional validation.

The scheme is the standard fixed-point one used by INT8 inference stacks:
32-bit accumulators are requantised by ``clip((acc * qmul) >> qshift)``
with a per-operator multiplier/shift pair; nonlinearities act on the int8
domain through 256-entry lookup tables.

Every int8 x int8 contraction (CIM MVMs, convolution and GEMM in the
golden model) goes through :func:`int8_matmul`, which runs on float BLAS
yet returns exactly the int32 result -- see :func:`exact_float_dtype`.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

I8_MIN, I8_MAX = -128, 127

#: Largest magnitude of one int8 x int8 product: (-128) * (-128).
_PRODUCT_MAX = 1 << 14

#: Quantized representation constants for the activation LUTs: int8 code x
#: represents the real value x / ACT_SCALE.
ACT_SCALE = 16.0
#: ReLU6 clip point in int8 codes (6.0 * ACT_SCALE, saturated).
RELU6_CLIP = min(I8_MAX, int(round(6.0 * ACT_SCALE)))


@dataclass(frozen=True)
class QuantParams:
    """Requantisation parameters of one operator: out = (acc*qmul) >> qshift."""

    qmul: int = 1
    qshift: int = 0

    def __post_init__(self):
        if self.qmul <= 0 or not 0 <= self.qshift < 32:
            raise ValueError(f"bad quantisation parameters {self}")


def default_qparams(fan_in: int) -> QuantParams:
    """Deterministic requantisation parameters for a given accumulation
    fan-in, sized so int8 outputs neither saturate constantly nor vanish."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    # weights ~ U[-64,63], activations ~ int8: acc std ~ sqrt(fan_in)*37*40
    shift = max(0, int(math.ceil(math.log2(math.sqrt(fan_in) * 64))))
    return QuantParams(qmul=1, qshift=shift)


def avgpool_qparams(window: int, qshift: int = 8) -> QuantParams:
    """Fixed-point divide-by-``window`` for average pooling."""
    if window <= 0:
        raise ValueError("window must be positive")
    return QuantParams(qmul=max(1, round((1 << qshift) / window)), qshift=qshift)


def saturate_i8(values: np.ndarray) -> np.ndarray:
    """Clip int values into int8 range and cast."""
    return np.clip(values, I8_MIN, I8_MAX).astype(np.int8)


def requantize(acc: np.ndarray, params: QuantParams) -> np.ndarray:
    """int32 accumulators -> int8 activations (arithmetic right shift)."""
    acc = acc.astype(np.int64)
    return saturate_i8((acc * params.qmul) >> params.qshift)


def exact_float_dtype(k: int) -> type:
    """Float dtype whose int8 contractions of depth ``k`` are exact.

    Each product has magnitude at most 2^14, so every partial sum -- in
    any BLAS blocking, thread split or FMA order -- is an integer of
    magnitude at most ``k * 2^14``.  float32 holds every integer up to
    2^24 (so ``k <= 1024``), float64 every integer up to 2^53.  From
    ``k >= 2^17`` on the int32 accumulator itself could wrap, so such a
    contraction has no exact int32 result to reproduce and is refused.
    """
    if k * _PRODUCT_MAX <= 1 << 24:
        return np.float32
    if k < 1 << 17:
        return np.float64
    raise SimulationError(
        f"int8 contraction of depth {k} can overflow its int32 accumulator"
    )


def int8_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact int32 ``x @ w`` of int8-valued operands.

    ``w`` is already held in ``exact_float_dtype(w.shape[-2])``; ``x`` is
    cast to it.  The result equals the int32 matmul bit for bit.
    """
    return (x.astype(w.dtype) @ w).astype(np.int32)


def _lut(fn) -> np.ndarray:
    """Build a 256-entry int8 LUT over the int8 input domain."""
    codes = np.arange(-128, 128, dtype=np.int64)
    real = codes.astype(np.float64) / ACT_SCALE
    out = np.round(fn(real) * ACT_SCALE)
    return saturate_i8(out)


SIGMOID_LUT = _lut(lambda x: 1.0 / (1.0 + np.exp(-x)))
SILU_LUT = _lut(lambda x: x / (1.0 + np.exp(-x)))
TANH_LUT = _lut(np.tanh)


def apply_lut(values: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Apply a 256-entry LUT to int8 data (index = code + 128)."""
    return lut[values.astype(np.int16) + 128]


def relu_i8(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, 0).astype(np.int8)


def relu6_i8(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0, RELU6_CLIP).astype(np.int8)


def add_i8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Saturating int8 elementwise add."""
    return saturate_i8(a.astype(np.int16) + b.astype(np.int16))


def cmul_i8(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-channel Q7 scale multiply: (x * s) >> 7, saturated.

    ``x`` has channels in its last axis; ``scale`` is one int8 value per
    channel (typically a sigmoid gate output, interpreted as Q7 in [0, 1)).
    """
    prod = x.astype(np.int32) * scale.astype(np.int32)
    return saturate_i8(prod >> 7)

"""Reference implementations that only the tests use.

Each is the plain, definition-level form of something the package computes
another way, or a way to build a test input; the tests compare the package
with them.
"""

import math

import numpy as np

from weightsteg.steg import Payload
from weightsteg.weights_io import ModelWeights, WeightTensor


def from_bitstring(text: str) -> Payload:
    """The payload of a string of '0' and '1' characters, first bit first."""
    return Payload(np.array([int(c) for c in text], dtype=np.uint8))


def effective_fill_payload(bits: np.ndarray, n_weights: int, lsb: int) -> np.ndarray:
    """The exact bit stream a fill attack embeds: prefix or repeat-and-truncate."""
    capacity = n_weights * lsb
    k = len(bits)
    if k > capacity:
        return bits[:capacity]
    reps = math.ceil(capacity / k)
    return np.tile(bits, reps)[:capacity]


def write_raw(tensor: WeightTensor) -> bytes:
    """The bytes of a raw .f32/.f16 file: the tensor's little-endian words."""
    return np.asarray(tensor.bits, dtype=tensor.dtype.word_dtype).tobytes()


def unflatten(model: ModelWeights, flat_bits: np.ndarray) -> ModelWeights:
    """Split a flat word sequence back into the model's tensor structure."""
    total = sum(t.n for t in model.tensors)
    flat_bits = np.asarray(flat_bits).reshape(-1)
    if len(flat_bits) != total:
        raise ValueError(f"expected {total} words, got {len(flat_bits)}")
    tensors = []
    cursor = 0
    for t in model.tensors:
        tensors.append(t.with_bits(flat_bits[cursor : cursor + t.n]))
        cursor += t.n
    return ModelWeights(tensors, metadata=dict(model.metadata))

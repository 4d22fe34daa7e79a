"""Reference implementations that only the tests use.

Each is the plain, definition-level form of something the package computes
another way, or a way to build a test input; the tests compare the package
with them.
"""

import json
import math
import os
import struct

import numpy as np

from weightsteg.steg import Payload
from weightsteg.weights_io import DType, ModelWeights, WeightTensor, write_container


def make_tensor(words, dtype=DType.F32, name="", shape=None) -> WeightTensor:
    """The tensor of the given words, flat unless shape is given."""
    words = np.array(words, dtype=dtype.word_dtype)
    return WeightTensor(name, dtype, shape or (len(words),), words)


def f32_tensor(words, name="", shape=None) -> WeightTensor:
    return make_tensor(words, DType.F32, name, shape)


def random_tensor(rng, n, dtype=DType.F32) -> WeightTensor:
    """A flat tensor of n words drawn from rng."""
    return make_tensor(rng.integers(0, 2**dtype.word_bits, size=n, dtype=np.uint64), dtype)


def random_tensors(dtype, shapes, seed=0) -> list[WeightTensor]:
    """Tensors t0, t1, ... of the given shapes, their words drawn from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [make_tensor(rng.integers(0, 2**dtype.word_bits, size=math.prod(shape), dtype=np.uint64),
                        dtype, f"t{i}", shape) for i, shape in enumerate(shapes)]


def scrambled_container(tensors, data_order, metadata=None) -> bytes:
    """A container whose header lists tensors in their order but whose data
    section stores them in data_order, so header order is not offset order."""
    offsets, chunks, cursor = {}, [], 0
    for i in data_order:
        buf = tensors[i].bits.tobytes()
        offsets[tensors[i].name] = [cursor, cursor + len(buf)]
        chunks.append(buf)
        cursor += len(buf)
    header = {"__metadata__": metadata} if metadata else {}
    for t in tensors:
        header[t.name] = {"dtype": t.dtype.value, "shape": list(t.shape),
                          "data_offsets": offsets[t.name]}
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(header_bytes)) + header_bytes + b"".join(chunks)


def layout_bytes(tensors, layout, metadata=None) -> bytes:
    """tensors in a "raw" file, a "scrambled" container (offsets in reverse
    header order), a "spaced" one (an indented header) or a canonical one."""
    if layout == "raw":
        return b"".join(t.bits.tobytes() for t in tensors)
    if layout == "scrambled":
        return scrambled_container(tensors, list(range(len(tensors)))[::-1], metadata)
    data = write_container(ModelWeights(tensors, metadata=metadata or {}))
    if layout == "spaced":
        (header_len,) = struct.unpack("<Q", data[:8])
        header = json.dumps(json.loads(data[8 : 8 + header_len]), indent=1).encode()
        data = struct.pack("<Q", len(header)) + header + data[8 + header_len :]
    return data


def fourpart_oracle(words):
    """The four-part image of float32 words, built on bit strings only."""
    n = len(words)
    side = math.ceil(math.sqrt(n))
    strings = [format(int(w), "032b") for w in words]
    planes = []
    for part in range(4):
        values = [int(s[8 * part : 8 * (part + 1)], 2) for s in strings]
        values += [0] * (side * side - n)
        rows = [values[r * side : (r + 1) * side] for r in range(side)]
        planes.append(rows)
    top = [planes[0][r] + planes[1][r] for r in range(side)]
    bottom = [planes[2][r] + planes[3][r] for r in range(side)]
    return np.array(top + bottom, dtype=np.uint8)


def splice_oracle(words, word_bits, lsb, bitstring):
    """Straight-from-the-definition LSB attack: keep the top s-X bits, place
    each payload chunk MSB-first in the low field; a short final chunk covers
    only the topmost bits of the field."""
    out = [format(w, f"0{word_bits}b") for w in words]
    k = len(bitstring)
    assert k <= len(words) * lsb
    n_chunks = math.ceil(k / lsb)
    for i in range(n_chunks):
        chunk = bitstring[i * lsb : min((i + 1) * lsb, k)]
        head = out[i][: word_bits - lsb]
        field = out[i][word_bits - lsb :]
        out[i] = head + chunk + field[len(chunk) :]
    return [int(b, 2) for b in out]


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


def count_preads(monkeypatch) -> list[int]:
    """The byte counts of the os.pread calls made from now on, in call order."""
    reads, pread = [], os.pread

    def counting(fd, nbytes, offset):
        reads.append(nbytes)
        return pread(fd, nbytes, offset)

    monkeypatch.setattr(os, "pread", counting)
    return reads

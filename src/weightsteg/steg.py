"""LSB-substitution embedding and extraction on weight tensors.

A payload is a bit string consumed first-bit-first. Each cover word keeps its
top ``s - X`` bits and receives one X-bit payload chunk in its low field,
most-significant-first. A partial final chunk occupies the topmost bits of
the field and the remaining low bits keep their cover values; extraction
mirrors the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .weights_io import DType, WeightTensor, sha256_hex


@dataclass(frozen=True, eq=False)
class Payload:
    """A bit string destined for (or recovered from) cover weights."""

    bits: np.ndarray
    provenance: str = "memory"

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8).reshape(-1)
        if bits.size and bits.max() > 1:
            raise ValueError("payload bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def k(self) -> int:
        return len(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes, provenance: str = "bytes") -> "Payload":
        return cls(np.unpackbits(np.frombuffer(data, dtype=np.uint8)), provenance)

    @classmethod
    def from_file(cls, path) -> "Payload":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), provenance=f"file:{path}")

    @classmethod
    def from_bitstring(cls, text: str) -> "Payload":
        return cls(np.array([int(c) for c in text], dtype=np.uint8), "bitstring")

    @classmethod
    def synthetic(cls, n_bytes: int, seed: int) -> "Payload":
        """Seeded pseudo-random bytes standing in for a malware sample."""
        if n_bytes < 1:
            raise ValueError("synthetic payload needs at least one byte")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=n_bytes, dtype=np.uint8)
        return cls(np.unpackbits(data), f"synthetic(bytes={n_bytes},seed={seed})")

    def to_bytes(self) -> bytes:
        """Pack MSB-first per byte; a ragged tail is zero-padded."""
        return np.packbits(self.bits).tobytes()

    def sha256(self) -> str:
        return sha256_hex(self.to_bytes())

    def __eq__(self, other):
        return isinstance(other, Payload) and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class AttackSpec:
    """One embedding configuration, as driven from the CLI."""

    lsb: int
    fill: bool
    payload: Payload
    mantissa_only: bool = True

    def validate_for(self, dtype: DType) -> None:
        _check_lsb(self.lsb, dtype.word_bits)
        if self.mantissa_only and self.lsb > dtype.mantissa_bits:
            raise ValueError(
                f"lsb={self.lsb} exceeds the {dtype.mantissa_bits}-bit mantissa of "
                f"{dtype.value}; embed and build-dataset go beyond it only with --allow-exponent"
            )

    def apply(self, tensor: WeightTensor) -> WeightTensor:
        self.validate_for(tensor.dtype)
        attack = lsb_attack_fill if self.fill else lsb_attack
        return attack(tensor, self.lsb, self.payload)


def _check_lsb(lsb: int, word_bits: int) -> None:
    if not 1 <= lsb <= word_bits:
        raise ValueError(f"lsb must be in [1, {word_bits}], got {lsb}")


def _payload_bits(payload) -> np.ndarray:
    return payload.bits if isinstance(payload, Payload) else Payload(payload).bits


def _chunk_values(bits: np.ndarray, lsb: int) -> np.ndarray:
    """Fold a bit matrix of full chunks into integer field values, MSB first."""
    weights = np.uint64(1) << np.arange(lsb, dtype=np.uint64)[::-1]
    return (bits.reshape(-1, lsb).astype(np.uint64) * weights).sum(axis=1)


def lsb_attack(tensor: WeightTensor, lsb: int, payload) -> WeightTensor:
    """Substitute the payload into the low bits of consecutive weights.

    Weights beyond the last chunk are left bit-identical. Raises
    CapacityError when the payload cannot fully fit.
    """
    word_bits = tensor.dtype.word_bits
    _check_lsb(lsb, word_bits)
    bits = _payload_bits(payload)
    k, n = len(bits), tensor.n
    if k > n * lsb:
        raise CapacityError(f"payload of {k} bits exceeds capacity {n}*{lsb}={n * lsb}")
    if k == 0:
        return tensor

    n_chunks = math.ceil(k / lsb)
    tail = k - (n_chunks - 1) * lsb  # length of the final chunk, in [1, lsb]
    n_full = n_chunks if tail == lsb else n_chunks - 1

    word_dtype = tensor.dtype.word_dtype
    word_mask = (1 << word_bits) - 1
    field_mask = (1 << lsb) - 1
    words = tensor.bits.copy()
    if n_full:
        values = _chunk_values(bits[: n_full * lsb], lsb).astype(word_dtype)
        keep = np.array((word_mask ^ field_mask) & word_mask, dtype=word_dtype)
        words[:n_full] = (words[:n_full] & keep) | values
    if tail != lsb:
        # partial chunk lands in the topmost bits of the low field
        value = int(_chunk_values(bits[n_full * lsb :], tail)[0]) << (lsb - tail)
        mask = ((1 << tail) - 1) << (lsb - tail)
        keep = np.array((word_mask ^ mask) & word_mask, dtype=word_dtype)
        words[n_chunks - 1] = (words[n_chunks - 1] & keep) | np.array(value, dtype=word_dtype)
    return tensor.with_bits(words)


def lsb_attack_fill(tensor: WeightTensor, lsb: int, payload) -> WeightTensor:
    """Fill every weight's low field by repeating or truncating the payload.

    Equal to ``lsb_attack(tensor, lsb, effective_fill_payload(bits, n, lsb))``.
    Word i's field holds stream bits ``(i*lsb + t) mod k`` for t < lsb, so the
    field values repeat every ``k / gcd(k, lsb)`` words: one period is built,
    then laid over all words, costing O(n) word operations and no per-bit work.
    """
    word_bits = tensor.dtype.word_bits
    _check_lsb(lsb, word_bits)
    bits = _payload_bits(payload)
    k, n = len(bits), tensor.n
    if k == 0:
        raise ValueError("fill attack requires a non-empty payload")
    if n == 0:
        raise ValueError("fill attack requires at least one weight")

    word_dtype = tensor.dtype.word_dtype
    period = min(n, k // math.gcd(k, lsb))
    starts = np.arange(period, dtype=np.int64) * lsb % k
    fields = np.zeros(period, dtype=word_dtype)
    for t in range(lsb):  # MSB of the field first
        fields <<= 1
        fields |= np.take(bits, starts + t, mode="wrap")

    keep = ((1 << word_bits) - 1) ^ ((1 << lsb) - 1)
    words = tensor.bits & np.array(keep, dtype=word_dtype)
    words |= np.resize(fields, n)
    return tensor.with_bits(words)


def effective_fill_payload(bits: np.ndarray, n_weights: int, lsb: int) -> np.ndarray:
    """The exact bit stream a fill attack embeds: prefix or repeat-and-truncate."""
    capacity = n_weights * lsb
    k = len(bits)
    if k > capacity:
        return bits[:capacity]
    reps = math.ceil(capacity / k)
    return np.tile(bits, reps)[:capacity]


def extract_lsb(tensor: WeightTensor, lsb: int, n_bits: int) -> Payload:
    """Read back the first ``n_bits`` payload bits using the embedding convention."""
    word_bits = tensor.dtype.word_bits
    _check_lsb(lsb, word_bits)
    if n_bits < 0:
        raise ValueError("cannot extract a negative number of bits")
    if n_bits > tensor.n * lsb:
        raise ValueError(
            f"requested {n_bits} bits but capacity is {tensor.n}*{lsb}={tensor.n * lsb}"
        )
    if n_bits == 0:
        return Payload(np.zeros(0, dtype=np.uint8), "extracted")

    n_chunks = math.ceil(n_bits / lsb)
    tail = n_bits - (n_chunks - 1) * lsb
    n_full = n_chunks if tail == lsb else n_chunks - 1

    fields = tensor.bits[:n_chunks].astype(np.uint64) & ((1 << lsb) - 1)
    pieces = []
    if n_full:
        shifts = np.arange(lsb, dtype=np.uint64)[::-1]
        pieces.append(((fields[:n_full, None] >> shifts) & 1).astype(np.uint8).reshape(-1))
    if tail != lsb:
        shifts = np.arange(lsb - tail, lsb, dtype=np.uint64)[::-1]
        pieces.append(((fields[-1] >> shifts) & 1).astype(np.uint8))
    return Payload(np.concatenate(pieces), "extracted")


def embedding_rate(lsb: int, word_bits: int) -> float:
    """Fraction of cover bits carrying payload under a fill attack."""
    _check_lsb(lsb, word_bits)
    return lsb / word_bits


def embedding_rate_general(n_payload_bits: int, n_weights: int, word_bits: int) -> float:
    if n_weights < 1:
        raise ValueError("cover model has no weights")
    if not 1 <= n_payload_bits <= n_weights * word_bits:
        raise ValueError(
            f"payload bits must be in [1, {n_weights * word_bits}], got {n_payload_bits}"
        )
    return n_payload_bits / (n_weights * word_bits)

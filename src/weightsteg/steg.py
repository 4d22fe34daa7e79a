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

    def words(self, source) -> "FillWords | LsbWords":
        """The attacked words of source, a flat cover, computed on demand."""
        self.validate_for(source.dtype)
        return (FillWords if self.fill else LsbWords)(source, self.lsb, self.payload)


def _check_lsb(lsb: int, word_bits: int) -> None:
    if not 1 <= lsb <= word_bits:
        raise ValueError(f"lsb must be in [1, {word_bits}], got {lsb}")


def _payload_bits(payload) -> np.ndarray:
    return payload.bits if isinstance(payload, Payload) else Payload(payload).bits


def _chunk_values(bits: np.ndarray, lsb: int) -> np.ndarray:
    """Fold a bit matrix of full chunks into integer field values, MSB first."""
    chunks = bits.reshape(-1, lsb)
    values = np.zeros(len(chunks), dtype=np.uint64)
    for t in range(lsb):
        values <<= np.uint64(1)
        values |= chunks[:, t]
    return values


def _keep_mask(dtype: DType, field_mask: int) -> np.ndarray:
    """The word mask that clears field_mask's bits, as a dtype word."""
    return np.array(((1 << dtype.word_bits) - 1) ^ field_mask, dtype=dtype.word_dtype)


class LsbWords:
    """Plain LSB substitution of the payload into a flat cover, word by word.

    Word i < ceil(k / lsb) gets payload chunk i in its low lsb bits, most
    significant bit first; a short final chunk fills only the top of its
    field. Later words are left bit-identical. source, the cover, is
    anything with dtype and n (a WeightTensor or a weights_io.FileWords).
    Raises CapacityError when the payload cannot fully fit.
    """

    def __init__(self, source, lsb: int, payload):
        self.dtype, self.lsb, n = source.dtype, lsb, source.n
        _check_lsb(lsb, self.dtype.word_bits)
        self.bits = _payload_bits(payload)
        k = len(self.bits)
        if k > n * lsb:
            raise CapacityError(f"payload of {k} bits exceeds capacity {n}*{lsb}={n * lsb}")
        self.n_chunks = math.ceil(k / lsb)
        self.tail = k - (self.n_chunks - 1) * lsb  # length of the final chunk, in [1, lsb]
        self.n_full = self.n_chunks if self.tail == lsb else self.n_chunks - 1

    def rewrite(self, words: np.ndarray, first: int) -> np.ndarray:
        """The attacked words of a run of consecutive cover words, the first at flat index first."""
        lsb, word_dtype = self.lsb, self.dtype.word_dtype
        hi = first + len(words)
        if first >= self.n_chunks:
            return words
        words = words.copy()
        full_hi = min(hi, self.n_full)
        if first < full_hi:
            values = _chunk_values(self.bits[first * lsb : full_hi * lsb], lsb).astype(word_dtype)
            head = words[: full_hi - first]
            head &= _keep_mask(self.dtype, (1 << lsb) - 1)
            head |= values
        last = self.n_chunks - 1
        if self.tail != lsb and first <= last < hi:
            # partial chunk lands in the topmost bits of the low field
            tail = self.tail
            value = int(_chunk_values(self.bits[self.n_full * lsb :], tail)[0]) << (lsb - tail)
            keep = _keep_mask(self.dtype, ((1 << tail) - 1) << (lsb - tail))
            words[last - first] = (words[last - first] & keep) | np.array(value, dtype=word_dtype)
        return words


class FillWords:
    """The fill attack of a flat cover, word by word: every word's low lsb
    bits carry the payload, repeated or truncated to the cover's capacity.

    Word i holds stream bits ``(i*lsb + t) mod k``, t < lsb, so its attacked
    value is ``(w_i & keep) | fields[i mod period]``, where the field values
    repeat every ``period = k / gcd(k, lsb)`` words (at most n). One period
    is built; ``take`` gives the attacked words at any flat indices, reading
    only those cover words (what render taps), and ``rewrite`` lays the
    period over a run of consecutive cover words in place (what save_model
    writes). The attacked cover is never held whole. source, the cover, is
    a WeightTensor or a weights_io.FileWords.
    """

    def __init__(self, source, lsb: int, payload):
        self.source, self.dtype, self.n = source, source.dtype, source.n
        _check_lsb(lsb, self.dtype.word_bits)
        bits = _payload_bits(payload)
        k = len(bits)
        if k == 0:
            raise ValueError("fill attack requires a non-empty payload")
        if self.n == 0:
            raise ValueError("fill attack requires at least one weight")
        period = min(self.n, k // math.gcd(k, lsb))
        starts = np.arange(period, dtype=np.int64) * lsb % k
        self.fields = np.zeros(period, dtype=self.dtype.word_dtype)
        for t in range(lsb):  # MSB of the field first
            self.fields <<= 1
            self.fields |= np.take(bits, starts + t, mode="wrap")
        self.keep = _keep_mask(self.dtype, (1 << lsb) - 1)

    def take(self, flat_indices) -> np.ndarray:
        """The attacked words at flat_indices (any shape), in that shape."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        return (self.source.take(idx) & self.keep) | self.fields[idx % len(self.fields)]

    def rewrite(self, words: np.ndarray, first: int) -> np.ndarray:
        """The attacked words of a run of consecutive cover words, the first at flat index first.

        Equal to take(range(first, first + len(words))) for words read from
        the cover, but the period is or-ed into the masked words in place.
        """
        fields, period = self.fields, len(self.fields)
        out = words & self.keep
        phase = first % period
        head = min(len(out), period - phase)
        out[:head] |= fields[phase : phase + head]
        rest = out[head:]  # starts at phase 0
        whole = len(rest) - len(rest) % period
        periods = rest[:whole].reshape(-1, period)
        np.bitwise_or(periods, fields, out=periods)
        rest[whole:] |= fields[: len(rest) - whole]
        return out


def lsb_attack(tensor: WeightTensor, lsb: int, payload) -> WeightTensor:
    """Substitute the payload into the low bits of consecutive weights.

    Weights beyond the last chunk are left bit-identical. Raises
    CapacityError when the payload cannot fully fit.
    """
    return tensor.with_bits(LsbWords(tensor, lsb, payload).rewrite(tensor.bits, 0))


def lsb_attack_fill(tensor: WeightTensor, lsb: int, payload) -> WeightTensor:
    """Fill every weight's low field by repeating or truncating the payload.

    Equal to ``lsb_attack(tensor, lsb, effective_fill_payload(bits, n, lsb))``;
    see FillWords, which costs O(n) word operations and no per-bit work.
    """
    return tensor.with_bits(FillWords(tensor, lsb, payload).rewrite(tensor.bits, 0))


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

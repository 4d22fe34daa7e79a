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
from .weights_io import CHUNK_WORDS, DType, WeightTensor, Words, _check_words, sha256_hex


@dataclass(frozen=True, eq=False)
class Payload:
    """A bit string destined for (or recovered from) cover weights."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8).reshape(-1)
        if bits.size and bits.max() > 1:
            raise ValueError("payload bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def k(self) -> int:
        return len(self.bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Payload":
        return cls(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))

    @classmethod
    def from_file(cls, path) -> "Payload":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    @classmethod
    def synthetic(cls, n_bytes: int, seed: int) -> "Payload":
        """Seeded pseudo-random bytes standing in for a malware sample."""
        if n_bytes < 1:
            raise ValueError("synthetic payload needs at least one byte")
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=n_bytes, dtype=np.uint8)
        return cls(np.unpackbits(data))

    def to_bytes(self) -> bytes:
        """Pack MSB-first per byte; a ragged tail is zero-padded."""
        return np.packbits(self.bits).tobytes()

    def sha256(self) -> str:
        return sha256_hex(self.to_bytes())

    def __eq__(self, other):
        return isinstance(other, Payload) and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class AttackSpec:
    """One attack, from the command line down; where an attack is optional, None is benign."""

    lsb: int
    fill: bool
    payload: Payload
    mantissa_only: bool = True

    def __post_init__(self):
        if self.lsb < 1:  # the upper bound depends on the cover's dtype: validate_for
            raise ValueError(f"lsb must be at least 1, got {self.lsb}")

    def validate_for(self, dtype: DType) -> None:
        _check_lsb(self.lsb, dtype.word_bits)
        if self.mantissa_only and self.lsb > dtype.mantissa_bits:
            raise ValueError(
                f"lsb={self.lsb} exceeds the {dtype.mantissa_bits}-bit mantissa of "
                f"{dtype.value}; embed and build-dataset go beyond it only with --allow-exponent"
            )

    def provenance(self) -> dict[str, str]:
        """What an attacked copy's metadata records of the attack."""
        return {"attack": "lsb-fill" if self.fill else "lsb", "lsb": str(self.lsb),
                "payload_sha256": self.payload.sha256()}

    def words(self, source: Words) -> "LsbWords":
        """The attacked words of source, a flat cover, computed on demand."""
        self.validate_for(source.dtype)
        return LsbWords(source, self.lsb, self.payload, self.fill)


def _check_lsb(lsb: int, word_bits: int) -> None:
    if not 1 <= lsb <= word_bits:
        raise ValueError(f"lsb must be in [1, {word_bits}], got {lsb}")


class LsbWords:
    """An LSB attack of a flat cover, word by word.

    Word i < limit becomes ``(w_i & keep) | fields[i mod period]``, where
    keep clears the low lsb bits; later words are left bit-identical. Field
    i holds stream bits ``(i*lsb + t) mod k``, t < lsb, most significant
    first.

    - The plain attack (fill False) writes the payload once:
      ``limit = period = ceil(k / lsb)``. A short final chunk fills only the
      top of its field; the field's low bits are the cover's, read once
      here. Raises CapacityError when the payload cannot fully fit.
    - The fill attack (fill True) repeats or truncates the payload to every
      word: ``limit = n`` and ``period = k / gcd(k, lsb)``, at most n.

    One period is built, on blocks of CHUNK_WORDS entries. As an attack
    source (weights_io.Words) over the cover, source, its take reads only
    the cover words asked for (what render taps) and its rewrite lays the
    period over a run of cover words (what FileWords.save writes), so the
    attacked cover is never held whole.
    """

    def __init__(self, source: Words, lsb: int, payload, fill: bool = False):
        self.source, self.dtype, self.n = source, source.dtype, source.n
        _check_lsb(lsb, self.dtype.word_bits)
        bits = (payload if isinstance(payload, Payload) else Payload(payload)).bits
        k = len(bits)
        if fill:
            if k == 0:
                raise ValueError("fill attack requires a non-empty payload")
            _check_words(self.n)
            self.limit = self.n
            period = min(self.n, k // math.gcd(k, lsb))
        else:
            if k > self.n * lsb:
                raise CapacityError(
                    f"payload of {k} bits exceeds capacity {self.n}*{lsb}={self.n * lsb}"
                )
            self.limit = period = math.ceil(k / lsb)
        self.fields = np.zeros(period, dtype=self.dtype.word_dtype)
        for lo in range(0, period, CHUNK_WORDS):  # index temporaries stay chunk-sized
            block = self.fields[lo : lo + CHUNK_WORDS]
            at = np.arange(lo, lo + len(block), dtype=np.int64)
            at *= lsb
            at %= k
            for _ in range(lsb):  # MSB of the field first
                block <<= 1
                block |= np.take(bits, at, mode="wrap")
                at += 1
        short = period * lsb - k
        if not fill and short:
            # the final chunk's field ends in cover bits, not in wrapped payload
            cover = self.source.take(np.array([period - 1]))
            self.fields[-1:] ^= (self.fields[-1:] ^ cover) & ((1 << short) - 1)
        # the word mask that clears the low lsb bits
        self.keep = np.array((1 << self.dtype.word_bits) - (1 << lsb), dtype=self.dtype.word_dtype)

    def take(self, flat_indices) -> np.ndarray:
        """The attacked words at flat_indices."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        words = self.source.take(idx)
        hit = idx < self.limit
        words[hit] = (words[hit] & self.keep) | self.fields[idx[hit] % len(self.fields)]
        return words

    def rewrite(self, words: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
        """The attacked words of a run of cover words (see weights_io.Words):
        the period is or-ed into the masked words in place, and a run wholly
        at or past limit is copied as it is."""
        carried = max(0, min(len(words), self.limit - first))  # words of the run below limit
        if out is not words:
            out[carried:] = words[carried:]
        if carried == 0:
            return out
        fields, period = self.fields, len(self.fields)
        run = np.bitwise_and(words[:carried], self.keep, out=out[:carried])
        phase = first % period
        head = min(carried, period - phase)
        run[:head] |= fields[phase : phase + head]
        rest = run[head:]  # starts at phase 0
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
    words = LsbWords(tensor, lsb, payload)
    return tensor.with_bits(words.rewrite(tensor.bits, 0, out=np.empty_like(tensor.bits)))


def extract_lsb(source: Words, lsb: int, n_bits: int) -> Payload:
    """Read back the first ``n_bits`` payload bits using the embedding convention.

    Only the ceil(n_bits / lsb) words of source that carry those bits are
    read, CHUNK_WORDS at a time, so the call holds one byte per extracted
    bit plus one chunk.
    """
    _check_lsb(lsb, source.dtype.word_bits)
    if n_bits < 0:
        raise ValueError("cannot extract a negative number of bits")
    if n_bits > source.n * lsb:
        raise ValueError(
            f"requested {n_bits} bits but capacity is {source.n}*{lsb}={source.n * lsb}"
        )
    # each field's bits MSB first; a short final chunk is the top of its field
    n_fields = math.ceil(n_bits / lsb)
    bits = np.empty((n_fields, lsb), dtype=np.uint8)
    for lo in range(0, n_fields, CHUNK_WORDS):  # temporaries stay chunk-sized
        words = source.take(np.arange(lo, min(n_fields, lo + CHUNK_WORDS)))
        for t in range(lsb):
            bits[lo : lo + len(words), t] = (words >> (lsb - 1 - t)) & 1
    return Payload(bits.reshape(-1)[:n_bits])

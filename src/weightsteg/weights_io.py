"""Bit-exact reading and writing of model weight files.

Weights are kept as raw unsigned words (uint32 for float32, uint16 for
float16) so that every transformation downstream is defined on bits, not on
decimal values. Decimal interpretation is a view; serializing a parsed file
reproduces the input bytes. Parsing copies nothing: a parsed tensor's words
are a read-only view of the bytes it was parsed from.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import stat
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Protocol

import numpy as np

from .errors import FormatError

_METADATA_KEY = "__metadata__"
# Words per chunk wherever words are streamed instead of held: FileWords'
# passes over a whole file, the full-image gather. 256 KiB of float32.
CHUNK_WORDS = 1 << 16


class DType(Enum):
    """Word layout of a weight file."""

    F32 = "F32"
    F16 = "F16"

    @classmethod
    def parse(cls, text: str) -> "DType":
        try:
            return cls(text.upper())
        except ValueError:
            raise FormatError(f"unsupported dtype {text!r} (expected F32 or F16)") from None

    @property
    def word_bits(self) -> int:
        return 32 if self is DType.F32 else 16

    @property
    def mantissa_bits(self) -> int:
        return 23 if self is DType.F32 else 10

    @property
    def word_bytes(self) -> int:
        return self.word_bits // 8

    @property
    def word_dtype(self) -> np.dtype:
        # explicit little-endian so on-disk layout is platform independent
        return np.dtype("<u4") if self is DType.F32 else np.dtype("<u2")

    @property
    def float_dtype(self) -> np.dtype:
        return np.dtype("<f4") if self is DType.F32 else np.dtype("<f2")


class Words(Protocol):
    """A words source, through which every command renders, attacks or
    extracts a model: a WeightTensor, FileWords, imagerep.KeptWords or
    steg.LsbWords. A source has dtype, n and take:

    - ``dtype``, the DType of its words, and ``n``, their number;
    - ``take(flat_indices)``, given strictly increasing 1-D flat indices, as
      every caller sends, returns the words at them in a new writable array
      of ``dtype.word_dtype`` that shares no memory with the source
      (LsbWords.take writes into it). An empty take returns an empty array;
      an index below 0, or at or past n, raises IndexError. A KeptWords
      answers only the indices of a render at its size, and any others
      raise ValueError;
    - an attack source (LsbWords) also has ``rewrite(words, first, out)``:
      given the cover's words from flat index first on, it writes the words
      take gives there to out, which may be words itself, and returns out.
    """

    dtype: DType
    n: int

    def take(self, flat_indices) -> np.ndarray: ...


def _frombuffer(data, dtype: DType, count: int = -1, offset: int = 0) -> np.ndarray:
    """count words of data from byte offset on, as a read-only view (no copy)."""
    words = np.frombuffer(data, dtype=dtype.word_dtype, count=count, offset=offset)
    words.flags.writeable = False
    return words


@dataclass(frozen=True, eq=False)
class WeightTensor:
    """A named tensor held as flat raw words in row-major order."""

    name: str
    dtype: DType
    shape: tuple[int, ...]
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        bits = np.asarray(self.bits).astype(self.dtype.word_dtype, copy=False)
        object.__setattr__(self, "bits", np.ascontiguousarray(bits).reshape(-1))
        if any(d < 0 for d in self.shape):
            raise ValueError(f"tensor {self.name!r}: negative dimension in {self.shape}")
        if len(self.bits) != math.prod(self.shape):
            raise ValueError(
                f"tensor {self.name!r}: {len(self.bits)} words != prod{self.shape}"
            )

    @property
    def n(self) -> int:
        """Number of weights."""
        return len(self.bits)

    def values(self) -> np.ndarray:
        """Decimal view of the stored bit patterns (no copy)."""
        return self.bits.view(self.dtype.float_dtype)

    def take(self, flat_indices) -> np.ndarray:
        """The words at flat_indices (see Words), gathered as raw bytes (a
        void view): numpy copies an unaligned parse view whole before a plain
        take, and fancy indexing reads it several times slower."""
        flat_indices = np.asarray(flat_indices, dtype=np.int64)
        if flat_indices.size and flat_indices.min() < 0:  # numpy counts it from the end
            raise IndexError(f"flat index out of range for {self.n} words")
        return self.bits.view(f"V{self.bits.itemsize}").take(flat_indices).view(self.bits.dtype)

    def with_bits(self, bits) -> "WeightTensor":
        return WeightTensor(self.name, self.dtype, self.shape, bits)

    def __eq__(self, other):
        return (
            isinstance(other, WeightTensor)
            and self.name == other.name
            and self.dtype is other.dtype
            and self.shape == other.shape
            and np.array_equal(self.bits, other.bits)
        )


@dataclass(eq=False)
class ModelWeights:
    """Ordered tensors parsed from one weights file."""

    tensors: list[WeightTensor]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise ValueError("duplicate tensor names")

    @property
    def n(self) -> int:
        return sum(t.n for t in self.tensors)

    def __eq__(self, other):
        return (
            isinstance(other, ModelWeights)
            and self.tensors == other.tensors
            and self.metadata == other.metadata
        )


def _raw_word_count(nbytes: int, dtype: DType) -> int:
    if nbytes % dtype.word_bytes != 0:
        raise FormatError(
            f"byte length {nbytes} not divisible by word size {dtype.word_bytes}"
        )
    return nbytes // dtype.word_bytes


def read_raw(data: bytes, dtype: DType) -> WeightTensor:
    """Parse consecutive little-endian words into one unnamed flat tensor,
    a read-only view of data."""
    n = _raw_word_count(len(data), dtype)
    return WeightTensor("", dtype, (n,), _frombuffer(data, dtype))


def _header_length(prefix: bytes, size: int) -> int:
    """The JSON header length from the first 8 bytes of a size-byte container."""
    if len(prefix) < 8:
        raise FormatError("file too small for container header")
    (header_len,) = struct.unpack("<Q", prefix[:8])
    if 8 + header_len > size:
        raise FormatError("header extends beyond end of file")
    return header_len


def _decode_header(raw: bytes) -> dict:
    def reject_duplicates(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise FormatError(f"duplicate tensor name {key!r}")
            out[key] = value
        return out

    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("container header is not a JSON object")
    return header


class _Entry(NamedTuple):
    """One tensor of a container header; begin and end are offsets into the data buffer."""

    name: str
    dtype: DType
    shape: tuple[int, ...]
    begin: int
    end: int


def _layout(header: dict, buffer_len: int) -> tuple[dict[str, str], list[_Entry]]:
    """Check a decoded header against a data buffer of buffer_len bytes.

    Returns the metadata and the tensor entries in header order. Every
    container check lives here, so a full parse and a header-only read of
    the same bytes accept and refuse the same files.
    """
    metadata = header.pop(_METADATA_KEY, {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise FormatError("__metadata__ must map strings to strings")

    entries = []
    for name, meta in header.items():
        if not isinstance(meta, dict):
            raise FormatError(f"tensor {name!r}: metadata is not an object")
        try:
            dtype = DType.parse(str(meta["dtype"]))
            shape = tuple(int(d) for d in meta["shape"])
            begin, end = (int(x) for x in meta["data_offsets"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: JSON admits Infinity and 1e999, which int() refuses
            raise FormatError(f"tensor {name!r}: bad header entry ({exc})") from exc
        if any(d < 0 for d in shape):
            raise FormatError(f"tensor {name!r}: negative dimension")
        nbytes = math.prod(shape) * dtype.word_bytes
        if begin < 0 or end - begin != nbytes:
            raise FormatError(f"tensor {name!r}: data_offsets do not match shape")
        if end > buffer_len:
            raise FormatError(f"tensor {name!r}: data truncated")
        entries.append(_Entry(name, dtype, shape, begin, end))

    # tensors must tile the buffer: no gaps, no overlap
    cursor = 0
    for begin, end in sorted((e.begin, e.end) for e in entries):
        if begin != cursor:
            raise FormatError("tensor data_offsets overlap or leave a gap")
        cursor = end
    if cursor != buffer_len:
        raise FormatError("trailing bytes after tensor data")
    return dict(metadata), entries


def read_container(data: bytes) -> ModelWeights:
    """Parse a safetensors-compatible container, preserving tensor order.

    Each tensor's words are a read-only view of data, which they keep alive.
    """
    header_len = _header_length(data[:8], len(data))
    buffer_start = 8 + header_len
    metadata, entries = _layout(_decode_header(data[8:buffer_start]), len(data) - buffer_start)
    tensors = [
        WeightTensor(
            e.name, e.dtype, e.shape,
            _frombuffer(data, e.dtype, (e.end - e.begin) // e.dtype.word_bytes,
                        buffer_start + e.begin),
        )
        for e in entries
    ]
    return ModelWeights(tensors, metadata=metadata)


def _tensor_buffer(tensor: WeightTensor) -> memoryview:
    """The tensor's on-disk bytes without a copy (its words are little-endian)."""
    return memoryview(tensor.bits).cast("B")


def _container_header(metadata: dict[str, str], tensors) -> bytes:
    """The length-prefixed compact JSON header of the canonical container
    encoding of tensors (anything with name, dtype and shape) under metadata;
    the tensors' words follow it in tensor order."""
    header: dict = {}
    if metadata:
        header[_METADATA_KEY] = dict(metadata)
    offset = 0
    for tensor in tensors:
        if tensor.name == _METADATA_KEY:
            raise ValueError(f"{_METADATA_KEY!r} is reserved and cannot name a tensor")
        nbytes = math.prod(tensor.shape) * tensor.dtype.word_bytes
        header[tensor.name] = {
            "dtype": tensor.dtype.value,
            "shape": list(tensor.shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(header_bytes)) + header_bytes


def write_container(model: ModelWeights) -> bytes:
    """Serialize to the canonical container encoding (compact JSON header).

    read_container(write_container(m)) == m bit for bit; re-serializing a
    model parsed from canonical bytes reproduces those bytes.
    """
    return b"".join([_container_header(model.metadata, model.tensors),
                     *map(_tensor_buffer, model.tensors)])


def flatten(model: ModelWeights) -> WeightTensor:
    """Concatenate all tensors' bits in file order into one flat tensor.

    This is the canonical cover sequence every attack operates on. When the
    tensors lie back to back in tensor order in one buffer, as those parsed
    from a raw file or from a container whose header lists them in offset
    order do, the result is a read-only view of that buffer, not a copy.
    """
    dtype = _flat_dtype(model.tensors)
    bits = _joined([t.bits for t in model.tensors])
    return WeightTensor("", dtype, (len(bits),), bits)


def _owner(arr: np.ndarray):
    """The object whose memory arr views (arr itself when it owns its data)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr if arr.base is None else arr.base


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The 1-D contiguous arrays end to end: a view of their common buffer
    when each starts where the one before ends in it, else a new array."""
    words = [a for a in arrays if len(a)]
    starts = [a.__array_interface__["data"][0] for a in words]
    back_to_back = all(
        start + a.nbytes == next_start for a, start, next_start in zip(words, starts, starts[1:])
    )
    if words and back_to_back and len({id(_owner(a)) for a in words}) == 1:
        # one owner and no gaps, so every word of the span lies in its memory
        n = sum(len(a) for a in words)
        return np.lib.stride_tricks.as_strided(words[0], shape=(n,), writeable=False)
    return np.concatenate(arrays)


def _check_words(n: int) -> None:
    """A model of no words is malformed, whatever reads, renders or attacks it."""
    if n == 0:
        raise FormatError("cannot flatten a model with no words")


def _flat_dtype(tensors) -> DType:
    """The one dtype of a flattenable model's tensors (or header entries)."""
    if not tensors:
        raise FormatError("cannot flatten a model with no tensors")
    _check_words(sum(math.prod(t.shape) for t in tensors))
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise FormatError(f"mixed dtypes in model: {sorted(d.value for d in dtypes)}")
    return tensors[0].dtype


def _raw_dtype_for_path(path: Path) -> DType | None:
    return {".f32": DType.F32, ".f16": DType.F16}.get(path.suffix.lower())


def load_model(path: str | Path) -> ModelWeights:
    """Load a container or raw (.f32/.f16) weights file; the suffix of path picks the format."""
    path = Path(path)
    data, raw_dtype = path.read_bytes(), _raw_dtype_for_path(path)
    return read_container(data) if raw_dtype is None else ModelWeights([read_raw(data, raw_dtype)])


# Words at most this many bytes apart are read by one pread, the bytes between included.
_RUN_GAP_BYTES = 4096


class FileWords:
    """The words of a model file (a container's tensors in header order, or
    a raw .f32/.f16 file's words), read from an open regular file on demand.

    Construction reads only the 8-byte length prefix and the JSON header
    (nothing for a raw file) and makes every check that load_model and
    flatten make. ``take`` reads each run of words less than _RUN_GAP_BYTES
    apart in the file with one os.pread, into one buffer that holds the runs
    end to end. ``sha256`` and ``save`` are the only streamed passes: each
    reads the file a chunk at a time. It never maps the file, so a file
    truncated while open raises FormatError instead of faulting, as does a
    streamed pass that ends with the file's size or modification time not
    what they were at open. The file descriptor stays the caller's.
    """

    def __init__(self, fd: int, path: Path):
        info = os.fstat(fd)
        self._fd, self._stamp, self._sha256 = fd, (info.st_size, info.st_mtime_ns), None
        size = info.st_size
        raw_dtype = _raw_dtype_for_path(path)
        if raw_dtype is not None:
            self.metadata, data_start = {}, 0
            self.tensors = [_Entry("", raw_dtype, (_raw_word_count(size, raw_dtype),), 0, size)]
        else:
            data_start = 8 + _header_length(os.pread(fd, 8, 0), size)
            self.metadata, self.tensors = _layout(_decode_header(self._read(data_start - 8, 8)),
                                                  size - data_start)
        self.dtype = _flat_dtype(self.tensors)
        word_bytes = self.dtype.word_bytes
        # (file offset, words) per tensor, in flatten order
        spans = [(data_start + e.begin, (e.end - e.begin) // word_bytes) for e in self.tensors]
        self.n = sum(words for _, words in spans)
        self._spans = np.array([span for span in spans if span[1] > 0], dtype=np.int64)
        counts = self._spans[:, 1]
        self._starts = np.cumsum(counts) - counts  # first flat index of each tensor
        # flat index i of a tensor lies at file byte i * word_bytes + its shift
        self._shifts = self._spans[:, 0] - self._starts * self.dtype.word_bytes

    def _read(self, nbytes: int, offset: int) -> bytes:
        data = os.pread(self._fd, nbytes, offset)
        _check_read(len(data), nbytes, offset)
        return data

    def take(self, flat_indices) -> np.ndarray:
        """The words at strictly increasing 1-D flat_indices; others raise ValueError unread."""
        wanted = np.asarray(flat_indices, dtype=np.int64)
        if wanted.ndim != 1 or np.any(wanted[1:] <= wanted[:-1]):
            raise ValueError("FileWords.take reads strictly increasing 1-D flat indices only")
        if len(wanted) == 0:
            return np.empty(0, dtype=self.dtype.word_dtype)
        if wanted[0] < 0 or wanted[-1] >= self.n:
            raise IndexError(f"flat index out of range for {self.n} words")
        word_bytes = self.dtype.word_bytes
        # wanted is sorted, so each tensor's words are one slice of it
        per_tensor = np.diff(np.append(np.searchsorted(wanted, self._starts), len(wanted)))
        pos = wanted * word_bytes + np.repeat(self._shifts, per_tensor)
        # a run ends where the next word lies before it (header order is not
        # offset order) or too far after it
        step = np.diff(pos)
        cuts = np.flatnonzero((step < 0) | (step > _RUN_GAP_BYTES)) + 1
        lo, hi = np.append(0, cuts), np.append(cuts, len(wanted))
        first, nbytes = pos[lo], pos[hi - 1] + word_bytes - pos[lo]  # the bytes of each run
        joined_first = np.cumsum(nbytes) - nbytes  # where each run starts in the joined buffer
        runs = bytearray(int(nbytes.sum()))
        for start, f, size in zip(joined_first.tolist(), first.tolist(), nbytes.tolist()):
            runs[start : start + size] = self._read(size, f)
        # every word lies a whole number of words into its run
        at_word = (pos + np.repeat(joined_first - first, hi - lo)) // word_bytes
        return np.frombuffer(runs, dtype=self.dtype.word_dtype)[at_word]

    def _stream(self, spans, dtype: np.dtype):
        """Read each (file offset, count) span of dtype items in order, into
        one aligned buffer of CHUNK_WORDS items reused for every block, and
        yield (index of the block's first item across the spans, block); a
        block is valid until the next is read. Ends by checking that the file
        has not changed since it was opened."""
        buffer = np.empty(CHUNK_WORDS, dtype=dtype)
        first = 0
        for offset, count in spans:
            for lo in range(0, count, CHUNK_WORDS):
                block, at = buffer[: min(CHUNK_WORDS, count - lo)], offset + lo * dtype.itemsize
                _check_read(os.preadv(self._fd, [block], at), block.nbytes, at)
                yield first + lo, block
            first += count
        info = os.fstat(self._fd)
        if (info.st_size, info.st_mtime_ns) != self._stamp:
            raise FormatError("file changed while it was read (size or modification time)")

    def sha256(self) -> str:
        """The sha256 hex digest of the file's bytes, read in one streamed pass on first call."""
        if self._sha256 is None:
            digest = hashlib.sha256()
            for _, block in self._stream([(0, self._stamp[0])], np.dtype(np.uint8)):
                digest.update(block)
            self._sha256 = digest.hexdigest()
        return self._sha256

    def save(self, path: str | Path, rewrite, provenance: dict[str, str]) -> str:
        """Write the file's model to path, each block of words (see _stream)
        passed through rewrite(words, first, out=words), an attack source's
        (see Words), and return the sha256 hex digest of the bytes written. A
        .f32/.f16 path gets the words alone, any other path a container whose
        metadata is this file's, then provenance, then source_sha256: the
        sha256 of this file's bytes, which sha256sum gives too."""
        path = Path(path)
        if path.exists() and os.path.samestat(os.stat(path), os.fstat(self._fd)):
            raise ValueError(f"{path} is the file being read; write the copy elsewhere")
        metadata = {}
        if _raw_dtype_for_path(path) is None:  # only a container records provenance
            metadata = {**self.metadata, **provenance, "source_sha256": self.sha256()}
        blocks = self._stream(self._spans.tolist(), self.dtype.word_dtype)
        digest = hashlib.sha256()
        _write(path, self.tensors, metadata,
               (rewrite(block, first, out=block) for first, block in blocks), digest)
        return digest.hexdigest()


def _check_read(got: int, nbytes: int, offset: int) -> None:
    if got != nbytes:
        raise FormatError(
            f"file ends at byte {offset + got}, short of byte {offset + nbytes} "
            "that its layout promised (truncated while open?)"
        )


@contextmanager
def open_words(path: str | Path):
    """Yield the words of the model file at path as a FileWords (which see).

    A regular file is read only where asked, and closed when the block
    exits. Anything else (a pipe, a device) cannot be read at offsets, so it
    is first copied whole, a chunk at a time, into an anonymous temporary
    file, which the FileWords reads instead.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            yield FileWords(fh.fileno(), path)
        else:
            with tempfile.TemporaryFile() as copy:
                shutil.copyfileobj(fh, copy)
                copy.flush()
                yield FileWords(copy.fileno(), path)


def _write(path: Path, tensors, metadata: dict[str, str], buffers, digest=None) -> None:
    """Write tensors (anything with name, dtype and shape) to path, their
    words given as buffers in tensor order, and feed every byte written to
    digest (a hashlib object) when one is given. A .f32/.f16 path gets the
    words alone, any other path the container header under metadata first;
    nothing is joined."""
    raw_dtype = _raw_dtype_for_path(path)
    if raw_dtype is not None and _flat_dtype(tensors) is not raw_dtype:
        raise ValueError(f"model dtype {_flat_dtype(tensors).value} does not match {path.suffix}")
    parts = [] if raw_dtype else [_container_header(metadata, tensors)]
    with open(path, "wb") as fh:
        for part in itertools.chain(parts, buffers):
            fh.write(part)
            if digest is not None:
                digest.update(part)


def save_model(model: ModelWeights, path: str | Path) -> None:
    """Write model to path: a .f32/.f16 path gets the bytes of
    flatten(model)'s words, any other path write_container(model). The
    pieces are written as they are, never joined into one copy."""
    _write(Path(path), model.tensors, model.metadata, (_tensor_buffer(t) for t in model.tensors))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()

"""One conformance suite for every words source (weights_io.Words).

Each factory builds a source from a Case and returns it with its oracle: the
words it must give, worked out without it. A new source joins with one factory.
The per-class tests in test_weights_io and test_steg run check_source on their
own cases.
"""

import math
from contextlib import ExitStack
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import effective_fill_payload, fourpart_oracle, make_tensor, random_tensors
from helpers import scrambled_container, splice_oracle
from weightsteg.errors import FormatError
from weightsteg.imagerep import KeptWords, _render_plan, grayscale_fourpart, render, resize
from weightsteg.steg import AttackSpec, LsbWords, Payload
from weightsteg.weights_io import DType, FileWords, ModelWeights, flatten, open_words, read_raw
from weightsteg.weights_io import write_container


class Case(NamedTuple):
    tensors: list  # the model, in header order
    order: list  # the order of their data in a scrambled container
    shift: int  # the bytes before the words of an unaligned view
    size: int  # the side of a render, and of those a KeptWords keeps words for
    asked: np.ndarray  # the strictly increasing indices a take asks for
    cuts: list  # where a rewrite splits the cover into runs
    lsb: int
    plain: np.ndarray  # the payload bits of a plain attack, at most n * lsb
    fill: np.ndarray  # the payload bits of a fill attack, at least one

    @property
    def words(self) -> np.ndarray:  # the oracle of every reader of the model
        return np.concatenate([t.bits for t in self.tensors])


def case_of(shapes, order=None, dtype=DType.F32, size=3, lsb=8, plain=8, fill=8):
    """The case of tensors of the given shapes that asks take for every word
    and rewrites the cover in two runs."""
    tensors = random_tensors(dtype, shapes)
    n = sum(t.n for t in tensors)
    bits = np.random.default_rng(0).integers(0, 2, size=max(plain, fill), dtype=np.uint8)
    return Case(tensors, order or list(range(len(shapes))), 1, size, np.arange(n), [n // 2],
                lsb, bits[:plain], bits[:fill])


@st.composite
def cases(draw, dtypes=(DType.F32, DType.F16)):
    """n > 0 words, often a square or one past it, in 1-4 tensors (all but
    one may be empty); a render size below, at and above the full image's
    side; take indices, all, some or none; rewrite runs; an attack."""
    dtype = draw(st.sampled_from(dtypes))
    root = draw(st.integers(1, 12))
    n = draw(st.one_of(st.sampled_from([1, root * root, root * root + 1, root * root + root]),
                       st.integers(1, 160)))
    sizes = np.diff([0, *sorted(draw(st.lists(st.integers(0, n), max_size=3))), n]).tolist()
    picked = draw(st.one_of(st.just(range(n)), st.just([]),
                            st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    lsb = draw(st.integers(1, dtype.word_bits))
    capacity = n * lsb
    # a fill payload shorter than one field, within capacity, or longer than capacity
    k_fill = draw(st.one_of(st.integers(1, lsb), st.integers(1, capacity),
                            st.integers(capacity + 1, 2 * capacity + 70)))
    seed = draw(st.integers(0, 2**16))
    bits = np.random.default_rng(seed).integers(0, 2, size=max(capacity, k_fill), dtype=np.uint8)
    return Case(random_tensors(dtype, [(size,) for size in sizes], seed),
                draw(st.permutations(range(len(sizes)))),
                draw(st.sampled_from([1, 2, 3] if dtype is DType.F32 else [1, 3])),
                draw(st.integers(1, 2 * (2 * math.isqrt(n - 1) + 2) + 3)),
                np.array(sorted(set(picked)), dtype=np.int64),
                draw(st.lists(st.integers(0, n), max_size=4)),
                lsb, bits[: draw(st.integers(0, capacity))], bits[:k_fill])


def file_words(data, suffix=lambda case: ".safetensors"):
    """The factory of a FileWords of a file of data(case), named with suffix(case)."""

    def factory(case, stack, tmp):
        path = tmp.getbasetemp() / f"words{suffix(case)}"
        path.write_bytes(data(case))
        words = stack.enter_context(open_words(path))
        assert isinstance(words, FileWords)
        return words, case.words

    return factory


def unaligned(case, stack, tmp):
    """A WeightTensor of words that start off a word boundary, as a parse's often do."""
    words, dtype = case.words, case.tensors[0].dtype
    flat = read_raw(memoryview(bytes(case.shift) + words.tobytes())[case.shift :], dtype)
    assert len(words) == 0 or not flat.bits.flags.aligned
    return flat, words


scrambled = file_words(lambda case: scrambled_container(case.tensors, case.order, {"k": "v"}))


def kept(case, stack, tmp):
    """A KeptWords of a scrambled container's words for renders at case.size,
    read after the file is closed."""
    with ExitStack() as file:
        return KeptWords(scrambled(case, file, tmp)[0], case.size), case.words


def attacked(base, fill: bool):
    """The factory of base's words under the plain or the fill attack of the
    case's payload, whose oracle splices in the stream the attack embeds."""

    def factory(case, stack, tmp):
        cover, words = base(case, stack, tmp)
        bits, dtype = (case.fill if fill else case.plain), cover.dtype
        if base is kept and not fill:  # see test_plain_attack_of_kept_words_needs_whole_chunks
            bits = bits[: len(bits) - len(bits) % case.lsb]
        stream = effective_fill_payload(bits, len(words), case.lsb) if fill else bits
        want = splice_oracle(words, dtype.word_bits, case.lsb, "".join(map(str, stream)))
        spec = AttackSpec(case.lsb, fill, Payload(bits), mantissa_only=False)
        return spec.words(cover), np.array(want, dtype=dtype.word_dtype)

    return factory


READERS = {
    # aligned words, as flatten joins separate tensors
    "tensor": lambda case, stack, tmp: (flatten(ModelWeights(case.tensors)), case.words),
    "unaligned": unaligned,
    "container": file_words(lambda case: write_container(ModelWeights(case.tensors))),
    "scrambled": scrambled,  # header order is not offset order
    "raw": file_words(lambda case: case.words.tobytes(),
                      lambda case: f".{case.tensors[0].dtype.value.lower()}"),
    "kept": kept,
}
ATTACKS = {f"{kind}({name})": attacked(base, kind == "fill")
           for kind in ("plain", "fill") for name, base in READERS.items()}
FACTORIES = {**READERS, **ATTACKS}
KEPT = [name for name in FACTORIES if "kept" in name]  # they answer one render's indices


LAYOUTS = [  # shapes, offset order, render size
    ([(3, 4), (0, 2), (5,)], [2, 0, 1], 1),  # an empty tensor
    ([(0,), (7,), (0, 3)], [1, 2, 0], 15),  # empty first and last
    ([(1,)], [0], 3), ([(4, 4)], [0], 33),  # n = 1**2 and 4**2
    ([(16,), (1,)], [1, 0], 9),  # n = side**2 + 1
    ([(30,), (20,), (50,)], [2, 0, 1], 19),
]


def with_layouts(test):
    """test with an example of each layout."""
    for shapes, order, size in LAYOUTS:
        test = example(case=case_of(shapes, order, size=size))(test)
    return test


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=40)
@given(case=cases())
@with_layouts
@example(case=case_of([(3,)], dtype=DType.F16, lsb=5, plain=7))  # a short final chunk
@example(case=case_of([(4,)], lsb=3, plain=0))  # an empty plain payload
@example(case=case_of([(5000,)], size=50, lsb=8, plain=8 * 3000 - 3, fill=1001))
@example(case=case_of([(5000,)], size=142, lsb=23, plain=1001, fill=8 * 3000 - 3))
def test_source_gives_the_oracle_words(tmp_path_factory, name, case):
    check_source(tmp_path_factory, name, case)


def check_source(tmp_path_factory, name, case):
    """The source that FACTORIES[name] builds of case has the oracle's dtype
    and n, and gives the oracle's words, which this returns:

    - to take, at strictly increasing indices (runs across tensor boundaries
      included), in a new writable array that shares no memory with the
      source. An empty take gives an empty array and an index below 0, or at
      or past n, raises IndexError; kept words answer only the indices of a render at
      their size and refuse any others.
    - to render, as the resized four-part image of the words, and to the
      full image (kept words have none) as that image. Kept words refuse a
      render at another size that asks for other indices. float16 words are
      refused, by kept words when they are built.
    - to rewrite (an attack source), from the cover whole, run by run into
      slices of a new array, and in place, the runs split anywhere.
    """
    dtype, size, f16 = case.tensors[0].dtype, case.size, case.tensors[0].dtype is DType.F16
    with ExitStack() as stack:
        if name in KEPT and f16:
            with pytest.raises(FormatError, match="requires float32 weights, got F16"):
                FACTORIES[name](case, stack, tmp_path_factory)
            return None
        source, want = FACTORIES[name](case, stack, tmp_path_factory)
        n = len(want)
        assert (source.dtype, source.n) == (dtype, n)
        asked = _render_plan(n, size)[0] if name in KEPT else case.asked
        got = source.take(asked)
        assert got.dtype == dtype.word_dtype and np.array_equal(got, want[asked])
        got ^= 1  # the caller's to write into
        again = source.take(asked)
        assert np.array_equal(again, want[asked]) and not np.shares_memory(got, again)
        if name in KEPT:
            for other in ([], [n]):
                with pytest.raises(ValueError, match=f"words of a {size} x {size} render"):
                    source.take(np.array(other, dtype=np.int64))
        else:
            empty = source.take(np.zeros(0, dtype=np.int64))
            assert empty.shape == (0,) and empty.dtype == dtype.word_dtype
            for bad in ([n], [0, n], [-1], [-1, 0]):
                with pytest.raises(IndexError):
                    source.take(np.array(bad))

        if f16:
            for image in (lambda: render(source, size), lambda: grayscale_fourpart(source)):
                with pytest.raises(FormatError, match="requires float32 weights, got F16"):
                    image()
        else:
            full = fourpart_oracle(want)
            assert np.array_equal(render(source, size), resize(full, size, size))
            if name not in KEPT:
                assert np.array_equal(grayscale_fourpart(source), full)
            elif np.array_equal(_render_plan(n, size + 1)[0], asked):
                assert np.array_equal(render(source, size + 1), resize(full, size + 1, size + 1))
            else:
                with pytest.raises(ValueError, match=f"only the words of a {size} x {size} render"):
                    render(source, size + 1)

    if name in ATTACKS:
        cover = case.words
        assert np.array_equal(source.rewrite(cover, 0, out=np.empty_like(cover)), want)
        bounds = sorted({0, n, *(cut for cut in case.cuts if cut <= n)})
        out, block = np.empty_like(cover), cover.copy()
        for lo, hi in zip(bounds, bounds[1:]):
            source.rewrite(cover[lo:hi], lo, out=out[lo:hi])
            run = block[lo:hi]
            assert source.rewrite(run, lo, out=run) is run
        assert np.array_equal(out, want) and np.array_equal(block, want)
    return want


@pytest.mark.parametrize("name", FACTORIES)
def test_render_refuses_what_the_full_image_refuses(tmp_path_factory, name):
    """A render of size 0 and a model of no words are refused as the full
    image refuses them, when the source is built or rendered; no words is
    the one data error that flatten raises."""
    with ExitStack() as stack:
        with pytest.raises(ValueError, match="image dimensions must be >= 1"):
            render(FACTORIES[name](case_of([(5,)], size=0), stack, tmp_path_factory)[0], 0)
        with pytest.raises(FormatError, match="^cannot flatten a model with no words$"):
            render(FACTORIES[name](case_of([(0,)], plain=0), stack, tmp_path_factory)[0], 4)


def test_plain_attack_of_kept_words_needs_whole_chunks():
    """A plain attack whose final chunk is short reads the cover word under
    it when built, which kept words hold only where a render taps it. No
    command attacks kept words but with a fill attack."""
    words = KeptWords(make_tensor(np.arange(100)), 4)
    with pytest.raises(ValueError, match="only the words of a 4 x 4 render were kept"):
        LsbWords(words, 3, Payload(np.ones(7, dtype=np.uint8)))
    assert LsbWords(words, 3, Payload(np.ones(6, dtype=np.uint8))).n == 100

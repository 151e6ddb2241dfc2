"""Differential tests: the stride-wise codecs against the byte-wise oracles.

``lz_compress`` (precomputed prefix keys, 64-byte match extension),
``lz_decompress`` (slice and period copies) and ``xxhash32`` (one
unpack, inlined rounds) must equal the reference loops in
``tests/kernel/codec_oracle.py`` with ``==`` on every output, and a bad
stream must raise the same :class:`KernelError` from both decoders.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.compress import lz_compress, lz_decompress
from repro.kernel.xxhash import xxhash32
from repro.units import PAGE_SIZE
from tests.kernel.codec_oracle import (reference_compress,
                                       reference_decompress,
                                       reference_xxhash32)

SEEDS = (0, 1, 2**32 - 1)


def _text_page(words: list) -> bytes:
    return (b" ".join(words) * (PAGE_SIZE // 4 + 1))[:PAGE_SIZE]


def _decoded(decode, blob: bytes):
    """A decoder's outcome: its output, or the error it raised."""
    try:
        return "ok", decode(blob)
    except KernelError as exc:
        return "error", str(exc)


# -- inputs -------------------------------------------------------------------

short = st.integers(0, 17).flatmap(lambda n: st.binary(min_size=n,
                                                       max_size=n))
zero_page = st.just(bytes(PAGE_SIZE))
random_page = st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).bytes(PAGE_SIZE))
text_page = st.lists(st.sampled_from([b"zswap", b"page", b"the", b"ksm",
                                      b"cxl", b"\x00\x00"]),
                     min_size=1, max_size=12).map(_text_page)
# A page of repeated short periods: offsets shorter than the match, so
# every match overlaps its own output.
period_page = st.binary(min_size=1, max_size=7).map(
    lambda unit: (unit * PAGE_SIZE)[:PAGE_SIZE])
# Runs of one byte between random stretches: long literal runs (>= 15)
# and long matches (>= 19) both need extended-count bytes.
run_page = st.lists(st.tuples(st.integers(0, 300), st.integers(0, 600),
                              st.integers(0, 255)),
                    min_size=1, max_size=12).map(
    lambda parts: b"".join(np.random.default_rng(lit).bytes(lit)
                           + bytes([byte]) * run
                           for lit, run, byte in parts)[:PAGE_SIZE])
pages = st.one_of(short, zero_page, random_page, text_page, period_page,
                  run_page)


# -- compress -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=pages)
def test_compress_equals_reference(data):
    assert lz_compress(data) == reference_compress(data)


@pytest.mark.parametrize("n", range(18))
def test_compress_short_lengths(n):
    for data in (bytes(n), bytes(range(n)), b"ab" * (n // 2) + b"a" * (n % 2)):
        assert lz_compress(data) == reference_compress(data)


def test_compress_match_crossing_stride_boundaries():
    """Matches that end just before, at and after a whole stride."""
    rng = np.random.default_rng(3)
    head = rng.bytes(200)
    for length in (63, 64, 65, 127, 128, 129, 200):
        data = head + head[:length] + rng.bytes(50)
        assert lz_compress(data) == reference_compress(data)


def test_compress_accepts_buffers():
    data = b"buffer " * 300
    assert lz_compress(bytearray(data)) == lz_compress(data)
    assert lz_compress(memoryview(data)) == lz_compress(data)


# -- decompress ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=pages)
def test_decompress_equals_reference(data):
    blob = reference_compress(data)
    assert lz_decompress(blob) == reference_decompress(blob) == data


def _extended(count: int) -> bytes:
    """Continuation bytes of a count whose nibble is 15."""
    count -= 15
    return b"\xff" * (count // 255) + bytes([count % 255])


def _sequence(literals: bytes, offset: int, match_len: int) -> bytes:
    """One hand-built LZ sequence with a match (token, counts, offset)."""
    lit, extra = len(literals), match_len - 4
    return (bytes([(min(lit, 15) << 4) | min(extra, 15)])
            + (_extended(lit) if lit >= 15 else b"")
            + literals + offset.to_bytes(2, "little")
            + (_extended(extra) if extra >= 15 else b""))


@settings(max_examples=200, deadline=None)
@given(literals=st.binary(min_size=1, max_size=40),
       offset_back=st.integers(0, 39), match_len=st.integers(4, 700),
       tail=st.binary(max_size=20))
def test_decompress_overlapping_and_long_matches(literals, offset_back,
                                                 match_len, tail):
    """Offsets from 1 up to the output length, so matches both overlap
    (offset < length) and do not; lengths up to the extended counts."""
    offset = max(1, len(literals) - offset_back)
    blob = (_sequence(literals, offset, match_len)
            + bytes([min(len(tail), 15) << 4])
            + (_extended(len(tail)) if len(tail) >= 15 else b"") + tail)
    assert lz_decompress(blob) == reference_decompress(blob)


@settings(max_examples=60, deadline=None)
@given(data=pages)
def test_truncated_streams_fail_alike(data):
    blob = reference_compress(data)
    for cut in sorted({0, 1, 2, 3, len(blob) // 2, len(blob) - 2,
                       len(blob) - 1}):
        if 0 <= cut < len(blob):
            part = blob[:cut]
            assert (_decoded(lz_decompress, part)
                    == _decoded(reference_decompress, part))


@settings(max_examples=150, deadline=None)
@given(data=pages, at=st.integers(0, 2**16), value=st.integers(0, 255))
def test_corrupt_streams_fail_alike(data, at, value):
    blob = bytearray(reference_compress(data))
    blob[at % len(blob)] = value
    blob = bytes(blob)
    assert (_decoded(lz_decompress, blob)
            == _decoded(reference_decompress, blob))


def test_decoders_raise_the_same_errors():
    bad_offset = bytes([0x01]) + b"A" + (9999).to_bytes(2, "little")
    cases = [
        bytes([0xF0]),                         # literal count truncated
        bytes([0x50]) + b"abc",                # literals truncated
        bytes([0x11]) + b"A" + b"\x01",        # offset truncated
        bad_offset + bytes([0]),               # offset beyond output
        bytes([0x11]) + b"A" + b"\x00\x00",    # zero offset
        bytes([0x1F]) + b"A" + b"\x01\x00",    # match count truncated
    ]
    for blob in cases:
        outcome = _decoded(lz_decompress, blob)
        assert outcome[0] == "error", blob
        assert outcome == _decoded(reference_decompress, blob)


# -- xxhash32 -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=pages, seed=st.sampled_from(SEEDS))
def test_xxhash_equals_reference(data, seed):
    assert xxhash32(data, seed) == reference_xxhash32(data, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_xxhash_every_short_length(seed):
    data = bytes(range(7, 7 + 40))
    for n in range(len(data) + 1):
        assert xxhash32(data[:n], seed) == reference_xxhash32(data[:n], seed)


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=300), seed=st.integers(0, 2**32 - 1))
def test_xxhash_any_seed(data, seed):
    assert xxhash32(data, seed) == reference_xxhash32(data, seed)

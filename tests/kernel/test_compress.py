"""Round-trip and robustness tests for the LZ codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.compress import compression_ratio, lz_compress, lz_decompress
from repro.units import PAGE_SIZE
from tests.kernel.codec_oracle import reference_compress


@pytest.mark.parametrize("data", [
    b"",
    b"a",
    b"abc",
    b"aaaaaaaaaaaaaaaaaaaaaaaa",
    b"abcd" * 1000,
    bytes(PAGE_SIZE),                      # the zero page
    b"the quick brown fox jumps over the lazy dog " * 90,
    bytes(range(256)) * 16,                # incompressible-ish pattern
], ids=["empty", "one", "short", "run", "period4", "zero-page", "text",
        "sequence"])
def test_roundtrip(data):
    assert lz_decompress(lz_compress(data)) == data


def test_compressible_input_shrinks():
    page = (b"kernel page contents " * 300)[:PAGE_SIZE]
    assert len(lz_compress(page)) < PAGE_SIZE // 2


def test_zero_page_compresses_massively():
    assert len(lz_compress(bytes(PAGE_SIZE))) < 64


def test_random_data_does_not_explode():
    import numpy as np
    data = np.random.default_rng(1).bytes(PAGE_SIZE)
    blob = lz_compress(data)
    assert len(blob) < PAGE_SIZE * 1.1      # bounded expansion
    assert lz_decompress(blob) == data


def test_compression_ratio_helper():
    assert compression_ratio(bytes(PAGE_SIZE)) > 50
    with pytest.raises(KernelError):
        compression_ratio(b"")


def test_long_match_and_long_literals():
    """Exercise the extended-count (nibble==15) encodings both ways."""
    long_run = b"x" * 5000                      # match length >> 19
    import numpy as np
    long_literals = np.random.default_rng(2).bytes(400)  # literal run > 15
    for data in (long_run, long_literals, long_literals + long_run):
        assert lz_decompress(lz_compress(data)) == data


def test_truncated_stream_rejected():
    blob = lz_compress(b"hello hello hello hello hello")
    with pytest.raises(KernelError):
        lz_decompress(blob[:len(blob) // 2])


def test_corrupt_offset_rejected():
    # A sequence with a match offset pointing before the output start.
    bad = bytes([0x01]) + b"A" + (9999).to_bytes(2, "little") + bytes([0])
    with pytest.raises(KernelError):
        lz_decompress(bad)


def test_overlapping_match_semantics():
    """RLE-style overlapping copies (offset < length) must replicate."""
    data = b"ab" * 600
    assert lz_decompress(lz_compress(data)) == data


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=2048))
def test_property_roundtrip(data):
    assert lz_decompress(lz_compress(data)) == data


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abcdef ", min_size=100, max_size=1500))
def test_property_repetitive_text_compresses(text):
    data = text.encode()
    blob = lz_compress(data)
    assert lz_decompress(blob) == data
    if len(set(text)) <= 4 and len(data) > 500:
        assert len(blob) < len(data)


# ---------------------------------------------------------------------------
# The int-prefix-key hot loop is a pure representation change: the stream
# equals the ``bytes``-keyed reference (tests/kernel/codec_oracle.py)


@pytest.mark.parametrize("data", [
    b"",
    b"abc",
    b"a" * 300,
    b"abcd" * 1000,
    bytes(PAGE_SIZE),
    b"the quick brown fox jumps over the lazy dog " * 90,
    bytes(range(256)) * 16,
], ids=["empty", "short", "run", "period4", "zero-page", "text", "sequence"])
def test_int_key_stream_matches_bytes_key_reference(data):
    assert lz_compress(data) == reference_compress(data)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=3000))
def test_property_int_key_stream_matches_reference(data):
    assert lz_compress(data) == reference_compress(data)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="ab", min_size=50, max_size=800))
def test_property_int_key_matches_on_low_entropy(text):
    data = text.encode()
    assert lz_compress(data) == reference_compress(data)

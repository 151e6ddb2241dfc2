"""LZ4-style page compressor.

zswap compresses reclaimed pages before parking them in the zpool; the
paper's cxl-zswap offloads this compression to a streaming FPGA IP
(SVI-A).  This module provides the *functional* half: a self-contained
LZ77 byte-oriented codec in the spirit of LZ4 (the family Linux zswap
typically uses), good enough to produce realistic compression ratios on
realistic page contents while remaining dependency-free.

Format (per sequence, mirroring LZ4's token scheme):

* token byte: high nibble = literal count, low nibble = match length - 4;
  a nibble of 15 is extended by 255-continuation bytes;
* the literal bytes;
* 2-byte little-endian match offset (absent for the terminal sequence,
  which carries literals only).

The codec is exercised by round-trip unit tests and hypothesis property
tests, and its output sizes drive the zpool accounting of
:mod:`repro.kernel.zswap`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
# Bytes compared per slice while a match extends.
_STRIDE = 64


def _write_count(out: bytearray, count: int) -> None:
    """Extended-count continuation bytes for a nibble that hit 15."""
    count -= 15
    while count >= 255:
        out.append(255)
        count -= 255
    out.append(count)


def _read_count(data: bytes, pos: int, nibble: int) -> tuple[int, int]:
    count = nibble
    if nibble == 15:
        while True:
            if pos >= len(data):
                raise KernelError("truncated LZ stream (count)")
            byte = data[pos]
            pos += 1
            count += byte
            if byte != 255:
                break
    return count, pos


def _prefix_keys(data: bytes) -> list:
    """Every 4-byte prefix of ``data`` packed little-endian into one int,
    position by position, computed in one numpy pass.  The packing is
    bijective, so equal keys mean equal prefixes and a candidate match
    needs no re-check."""
    a = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    return (a[:-3] | (a[1:-2] << 8) | (a[2:-1] << 16)
            | (a[3:] << 24)).tolist()


def lz_compress(data: bytes) -> bytes:
    """Compress ``data``; ``lz_decompress`` inverts exactly.

    Greedy LZ77 over 4-byte prefixes: each position looks up the last
    occurrence of its prefix (positions covered by a match are never
    entered), and a match extends as far as the bytes agree.  The
    prefix keys are computed for every position up front, and matches
    extend by 64-byte slice compares before a byte-wise tail; both are
    pure speedups, so the stream is the one a byte-at-a-time loop
    emits."""
    n = len(data)
    if n < _MIN_MATCH:          # no prefix: one literals-only sequence
        return bytes((n << 4,)) + bytes(data)
    if type(data) is not bytes:
        data = bytes(data)
    keys = _prefix_keys(data)
    # Positions of prefixes seen so far (last occurrence wins).
    table: dict[int, int] = {}
    get = table.get
    out = bytearray()
    anchor = 0  # start of pending literals
    i = 0
    last = n - _MIN_MATCH

    while i <= last:
        key = keys[i]
        candidate = get(key)
        table[key] = i
        if candidate is None or i - candidate > _MAX_OFFSET:
            i += 1
            continue
        # Extend the match forward: whole strides, then byte by byte
        match_len = _MIN_MATCH
        limit = n - i
        a = candidate + match_len
        b = i + match_len
        while (match_len + _STRIDE <= limit
               and data[a:a + _STRIDE] == data[b:b + _STRIDE]):
            match_len += _STRIDE
            a += _STRIDE
            b += _STRIDE
        while match_len < limit and data[a] == data[b]:
            match_len += 1
            a += 1
            b += 1
        # Emit sequence: literals [anchor, i) + match
        lit_len = i - anchor
        token_lit = min(lit_len, 15)
        token_match = min(match_len - _MIN_MATCH, 15)
        out.append((token_lit << 4) | token_match)
        if token_lit == 15:
            _write_count(out, lit_len)
        out += data[anchor:i]
        offset = i - candidate
        out += offset.to_bytes(2, "little")
        if token_match == 15:
            _write_count(out, match_len - _MIN_MATCH)
        i += match_len
        anchor = i

    # Terminal literals-only sequence
    lit_len = n - anchor
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if token_lit == 15:
        _write_count(out, lit_len)
    out += data[anchor:n]
    return bytes(out)


def lz_decompress(blob: bytes) -> bytes:
    """Invert :func:`lz_compress`.

    A match that does not overlap its own output is one slice copy; an
    overlapping one (offset < length) repeats its last ``offset`` bytes,
    which is what a byte-wise copy produces."""
    out = bytearray()
    pos = 0
    n = len(blob)
    while pos < n:
        token = blob[pos]
        pos += 1
        lit_len, pos = _read_count(blob, pos, token >> 4)
        if pos + lit_len > n:
            raise KernelError("truncated LZ stream (literals)")
        out += blob[pos:pos + lit_len]
        pos += lit_len
        if pos >= n:
            break  # terminal sequence carries no match
        if pos + 2 > n:
            raise KernelError("truncated LZ stream (offset)")
        offset = blob[pos] | (blob[pos + 1] << 8)
        pos += 2
        if offset == 0 or offset > len(out):
            raise KernelError(f"corrupt LZ offset {offset}")
        match_len, pos = _read_count(blob, pos, token & 0x0F)
        match_len += _MIN_MATCH
        start = len(out) - offset
        if match_len <= offset:
            out += out[start:start + match_len]
        else:                   # overlapping: the period repeats
            period = out[start:]
            reps, rest = divmod(match_len, offset)
            out += period * reps
            out += period[:rest]
    return bytes(out)


def compression_ratio(data: bytes) -> float:
    """Convenience: original size / compressed size."""
    if not data:
        raise KernelError("cannot measure ratio of empty input")
    return len(data) / len(lz_compress(data))

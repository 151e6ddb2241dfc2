"""Reference codecs: the byte-at-a-time loops the production codecs replace.

``reference_compress`` is the LZ hot loop with ``bytes`` prefix keys and
a byte-wise match extension; ``reference_decompress`` copies every match
byte by byte; ``reference_xxhash32`` is XXH32 with one helper call per
round.  :mod:`repro.kernel.compress` and :mod:`repro.kernel.xxhash` must
produce output equal to these, byte for byte, and raise the same
:class:`~repro.errors.KernelError` on a bad stream.  The oracles keep
their own constants and helpers so a change to the production module
cannot move both sides at once.
"""

from __future__ import annotations

import struct

from repro.errors import KernelError

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF


def _write_count(out: bytearray, count: int) -> None:
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


def reference_compress(data: bytes) -> bytes:
    """LZ compression keyed on ``bytes`` prefixes, matches extended one
    byte at a time."""
    n = len(data)
    out = bytearray()
    if n == 0:
        out.append(0)
        return bytes(out)
    table: dict = {}
    anchor = 0
    i = 0
    view = memoryview(data)
    while i + _MIN_MATCH <= n:
        key = bytes(view[i:i + _MIN_MATCH])
        candidate = table.get(key)
        table[key] = i
        if candidate is None or i - candidate > _MAX_OFFSET:
            i += 1
            continue
        match_len = _MIN_MATCH
        limit = n - i
        while (match_len < limit
               and data[candidate + match_len] == data[i + match_len]):
            match_len += 1
        lit_len = i - anchor
        token_lit = min(lit_len, 15)
        token_match = min(match_len - _MIN_MATCH, 15)
        out.append((token_lit << 4) | token_match)
        if token_lit == 15:
            _write_count(out, lit_len)
        out += view[anchor:i]
        out += (i - candidate).to_bytes(2, "little")
        if token_match == 15:
            _write_count(out, match_len - _MIN_MATCH)
        i += match_len
        anchor = i
    lit_len = n - anchor
    token_lit = min(lit_len, 15)
    out.append(token_lit << 4)
    if token_lit == 15:
        _write_count(out, lit_len)
    out += view[anchor:n]
    return bytes(out)


def reference_decompress(blob: bytes) -> bytes:
    """LZ decompression copying every match byte by byte."""
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
        offset = int.from_bytes(blob[pos:pos + 2], "little")
        pos += 2
        if offset == 0 or offset > len(out):
            raise KernelError(f"corrupt LZ offset {offset}")
        match_len, pos = _read_count(blob, pos, token & 0x0F)
        match_len += _MIN_MATCH
        start = len(out) - offset
        for k in range(match_len):  # byte-wise: overlapping copies are legal
            out.append(out[start + k])
    return bytes(out)


_PRIME1 = 2654435761
_PRIME2 = 2246822519
_PRIME3 = 3266489917
_PRIME4 = 668265263
_PRIME5 = 374761393
_MASK = 0xFFFFFFFF


def _rotl(value: int, count: int) -> int:
    value &= _MASK
    return ((value << count) | (value >> (32 - count))) & _MASK


def _round(acc: int, lane: int) -> int:
    acc = (acc + lane * _PRIME2) & _MASK
    return (_rotl(acc, 13) * _PRIME1) & _MASK


def reference_xxhash32(data: bytes, seed: int = 0) -> int:
    """XXH32, one ``struct`` unpack and one helper call per round."""
    seed &= _MASK
    length = len(data)
    index = 0

    if length >= 16:
        v1 = (seed + _PRIME1 + _PRIME2) & _MASK
        v2 = (seed + _PRIME2) & _MASK
        v3 = seed
        v4 = (seed - _PRIME1) & _MASK
        limit = length - 16
        while index <= limit:
            lane1, lane2, lane3, lane4 = struct.unpack_from("<IIII", data, index)
            v1 = _round(v1, lane1)
            v2 = _round(v2, lane2)
            v3 = _round(v3, lane3)
            v4 = _round(v4, lane4)
            index += 16
        acc = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _MASK
    else:
        acc = (seed + _PRIME5) & _MASK

    acc = (acc + length) & _MASK

    while index + 4 <= length:
        (lane,) = struct.unpack_from("<I", data, index)
        acc = (_rotl((acc + lane * _PRIME3) & _MASK, 17) * _PRIME4) & _MASK
        index += 4

    while index < length:
        acc = (_rotl((acc + data[index] * _PRIME5) & _MASK, 11) * _PRIME1) & _MASK
        index += 1

    acc ^= acc >> 15
    acc = (acc * _PRIME2) & _MASK
    acc ^= acc >> 13
    acc = (acc * _PRIME3) & _MASK
    acc ^= acc >> 16
    return acc

"""Pure-Python xxHash32.

ksm computes a 32-bit hash of every scanned page as a change hint
(SVI-B); the paper's cxl-ksm offloads exactly this xxhash computation
[13] to the device.  This is a faithful implementation of the XXH32
algorithm, validated in tests against the reference vectors published by
the xxHash project.
"""

from __future__ import annotations

import struct

_PRIME1 = 2654435761
_PRIME2 = 2246822519
_PRIME3 = 3266489917
_PRIME4 = 668265263
_PRIME5 = 374761393
_MASK = 0xFFFFFFFF


def _rotl(value: int, count: int) -> int:
    value &= _MASK
    return ((value << count) | (value >> (32 - count))) & _MASK


def xxhash32(data: bytes, seed: int = 0) -> int:
    """XXH32 of ``data`` with ``seed``; returns an unsigned 32-bit int.

    Every 16-byte stripe is unpacked by one ``struct`` call up front,
    and the four lanes' rounds are inlined.  A round only needs its
    input reduced mod 2**32 before the rotate: the rotate's high spill
    and the product's high bits vanish at the next reduction, so each
    accumulator is masked once per round and once at the end."""
    seed &= _MASK
    length = len(data)
    index = 0

    if length >= 16:
        p1, p2, mask = _PRIME1, _PRIME2, _MASK
        v1 = (seed + _PRIME1 + _PRIME2) & _MASK
        v2 = (seed + _PRIME2) & _MASK
        v3 = seed
        v4 = (seed - _PRIME1) & _MASK
        stripes = length // 16
        lanes = iter(struct.unpack_from(f"<{4 * stripes}I", data))
        for lane1, lane2, lane3, lane4 in zip(lanes, lanes, lanes, lanes):
            v1 = (v1 + lane1 * p2) & mask
            v1 = ((v1 << 13) | (v1 >> 19)) * p1
            v2 = (v2 + lane2 * p2) & mask
            v2 = ((v2 << 13) | (v2 >> 19)) * p1
            v3 = (v3 + lane3 * p2) & mask
            v3 = ((v3 << 13) | (v3 >> 19)) * p1
            v4 = (v4 + lane4 * p2) & mask
            v4 = ((v4 << 13) | (v4 >> 19)) * p1
        index = 16 * stripes
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


def page_checksum(page: bytes) -> int:
    """The ksm per-page change hint: XXH32 with seed 0 (SVI-B)."""
    return xxhash32(page, 0)

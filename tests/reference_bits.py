"""Test-only oracle: pure-Python MSB-first bit packing.

These are the original `keyspace.pack_bits` and `keyspace.unpack_bits`,
kept verbatim.  The hex encoding in `spdmark.keyspace` now packs with
numpy, and the differential tests check it against these.  Nothing under
`src/` imports this module.
"""

from typing import Sequence


def pack_bits(bits: Sequence[int]) -> bytes:
    """Pack bits MSB-first into bytes, zero-padding the low bits of the last."""
    data = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            data[i >> 3] |= 0x80 >> (i & 7)
    return bytes(data)


def unpack_bits(data: bytes, num_bits: int) -> tuple[int, ...]:
    """Read num_bits MSB-first from a byte string."""
    if num_bits > 8 * len(data):
        raise ValueError("not enough bytes for the requested bit count")
    return tuple((data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(num_bits))

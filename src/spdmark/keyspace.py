"""Watermark keys, basis-selection masks, and per-frame message schedules.

A watermark key is an ordered string of M bits.  Two derived objects drive
the rest of the pipeline:

* a selection mask, the L x P one-hot-per-row binary matrix that picks one
  basis shift per generator layer (the key is read as L chunks of log2(P)
  bits, MSB first, and chunk value i selects column i + 1 in 1-based terms);
* a frame-message schedule, the deterministic sequence of per-frame M-bit
  messages derived from a base secret and the key via HMAC-SHA256.

Frame messages, scheduled or extracted, are one MessageSequence: a
read-only (T, M) uint8 bit matrix, checked once when it is built.

Everything here is pure and deterministic, so concurrent use needs no
coordination.
"""

import contextlib
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .counter import KEY_TAG, counter_array, stream_words

__all__ = [
    "KeyConfig",
    "WatermarkKey",
    "FrameMessage",
    "MessageSequence",
    "MAX_MESSAGE_BITS",
    "SelectionMask",
    "BaseSecret",
    "key_to_mask",
    "mask_to_key",
    "derive_frame_messages",
    "derive_schedules",
    "random_key",
    "random_keys",
    "bits_to_hex",
    "hex_to_bits",
    "key_document",
    "parse_key_document",
    "schedule_document",
    "parse_schedule_document",
    "extraction_document",
    "parse_extraction_document",
]

MIN_SECRET_BYTES = 16

# Separator between the packed key and the frame index in the HMAC input.
_HASH_SEPARATOR = b"\x7c"
_FRAME_INDEX_BYTES = 8

# HMAC-SHA256 (RFC 2104): the block size and the inner and outer pads, as
# byte tables that XOR a padded key with 0x36 and 0x5c.
_SHA256_BLOCK = 64
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))
# A frame message is cut from one 256-bit HMAC-SHA256 digest.
MAX_MESSAGE_BITS = 256


@dataclass(frozen=True)
class KeyConfig:
    """Shape of the keyspace: L layers and P bases per layer.  A key picks
    one basis per layer, so its width M = L * log2(P) follows from them."""

    num_layers: int
    bases_per_layer: int

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        p = self.bases_per_layer
        if p < 2 or p & (p - 1) != 0:
            raise ValueError("bases_per_layer must be a power of two >= 2")

    @property
    def bits_per_layer(self) -> int:
        return self.bases_per_layer.bit_length() - 1

    @property
    def message_bits(self) -> int:
        return self.num_layers * self.bits_per_layer


@dataclass(frozen=True)
class WatermarkKey:
    """An M-bit watermark key."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("key bits must contain only 0/1 values")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.bits:
            raise ValueError("key must contain at least one bit")


def _unchecked_key(bits: tuple[int, ...]) -> WatermarkKey:
    """`bits` as a WatermarkKey without the check: the caller guarantees a
    non-empty tuple of the Python ints 0 and 1."""
    key = object.__new__(WatermarkKey)
    object.__setattr__(key, "bits", bits)
    return key


class FrameMessage(NamedTuple):
    """One row of a MessageSequence: frame t (1-based) and its read-only bits."""

    frame_index: int
    bits: np.ndarray


@dataclass(frozen=True, eq=False)
class MessageSequence:
    """T frame messages of M bits as a read-only (T, M) uint8 matrix; row
    t - 1 is the message of frame t.  T >= 1, M >= 1, entries 0 or 1."""

    messages: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.messages)
        if bits.ndim != 2 or 0 in bits.shape:
            raise ValueError("messages must be a non-empty (T, M) bit matrix")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("message bits must be 0 or 1")
        bits = np.array(bits, dtype=np.uint8, order="C")
        bits.setflags(write=False)
        object.__setattr__(self, "messages", bits)

    @property
    def message_bits(self) -> int:
        return self.messages.shape[1]

    def __len__(self) -> int:
        return self.messages.shape[0]

    def __iter__(self) -> Iterator[FrameMessage]:
        return (FrameMessage(t, row) for t, row in enumerate(self.messages, 1))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is None and not copy:
            return self.messages
        return np.array(self.messages, dtype=dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MessageSequence):
            return NotImplemented
        return np.array_equal(self.messages, other.messages)

    __hash__ = None


def _unchecked_sequence(bits: np.ndarray) -> MessageSequence:
    """`bits` as a MessageSequence without a second check: the caller
    guarantees a non-empty C-contiguous (T, M) uint8 matrix of 0/1 values,
    taken from a checked sequence or made of bits.  It is made read-only
    in place."""
    bits.setflags(write=False)
    sequence = object.__new__(MessageSequence)
    object.__setattr__(sequence, "messages", bits)
    return sequence


@dataclass(frozen=True, eq=False)
class SelectionMask:
    """L x P binary matrix with exactly one selected basis per row."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.mask, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("mask must be a 2-D matrix")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        if not (arr.sum(axis=1) == 1).all():
            raise ValueError("every mask row must select exactly one basis")
        arr.setflags(write=False)
        object.__setattr__(self, "mask", arr)

    @property
    def num_layers(self) -> int:
        return self.mask.shape[0]

    @property
    def bases_per_layer(self) -> int:
        return self.mask.shape[1]


@dataclass(frozen=True)
class BaseSecret:
    """Opaque secret for the frame-message schedule; at least 16 bytes."""

    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) < MIN_SECRET_BYTES:
            raise ValueError(f"secret must be at least {MIN_SECRET_BYTES} bytes")


def _basis_indices(bits: np.ndarray, cfg: KeyConfig) -> np.ndarray:
    """The (n, L) basis index each row of (n, M) bits selects per layer.

    Chunk ell (1-based) of a row is bits [(ell-1)*log2P, ell*log2P), read
    MSB first; its value i selects basis i + 1 of layer ell in 1-based
    terms.
    """
    if bits.shape[1] != cfg.message_bits:
        raise ValueError(
            f"messages have {bits.shape[1]} bits, config expects {cfg.message_bits}"
        )
    width = cfg.bits_per_layer
    chunks = bits.astype(np.intp).reshape(len(bits), cfg.num_layers, width)
    return (chunks << np.arange(width - 1, -1, -1)).sum(axis=2)


def key_to_mask(key: WatermarkKey, cfg: KeyConfig) -> SelectionMask:
    """Map a key to its per-layer basis selection: row ell is the one-hot
    of the basis the key's chunk ell selects (see _basis_indices)."""
    index = _basis_indices(np.array([key.bits]), cfg)[0]
    mask = np.zeros((cfg.num_layers, cfg.bases_per_layer), dtype=np.uint8)
    mask[np.arange(cfg.num_layers), index] = 1
    return SelectionMask(mask)


def mask_to_key(mask: SelectionMask, cfg: KeyConfig) -> WatermarkKey:
    """Invert key_to_mask: each row's selected basis, read back as its MSB
    first chunk (SelectionMask holds exactly one selection per row).
    Public API with no caller in src/, kept for acceptance criterion 3."""
    if mask.num_layers != cfg.num_layers or mask.bases_per_layer != cfg.bases_per_layer:
        raise ValueError("mask dimensions do not match config")
    index = mask.mask.argmax(axis=1)
    bits = (index[:, None] >> np.arange(cfg.bits_per_layer - 1, -1, -1)) & 1
    return WatermarkKey(tuple(bits.ravel().tolist()))


def _pack(bits: Sequence[int]) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def bits_to_hex(bits: Sequence[int]) -> str:
    """Bits packed MSB first, the last byte zero-padded, as hex."""
    return _pack(bits).hex()


def hex_to_bits(text: str, num_bits: int) -> np.ndarray:
    """Inverse of bits_to_hex: exactly ceil(num_bits / 8) bytes whose
    padding bits are zero."""
    data = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    size = (num_bits + 7) // 8
    if data.size != size:
        raise ValueError(f"{num_bits} bits take {size} bytes, not {data.size}")
    bits = np.unpackbits(data)
    if bits[num_bits:].any():
        raise ValueError(f"nonzero padding bits after bit {num_bits}")
    return bits[:num_bits]


def derive_schedules(
    secret: BaseSecret, keys: Sequence[WatermarkKey], num_frames: int
) -> MessageSequence:
    """Derive the deterministic per-frame message schedules of many keys as
    one sequence, key after key: rows k*num_frames .. (k+1)*num_frames - 1
    are the schedule of keys[k].

    Message t of key k is the first M bits of HMAC-SHA256(secret, msg_t)
    with msg_t = pack(k) || 0x7C || t as an 8-byte big-endian unsigned
    integer, for t = 1..num_frames.  The keys must share one width M.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    if not keys:
        raise ValueError("need at least one key")
    widths = {len(key.bits) for key in keys}
    if len(widths) != 1:
        raise ValueError("keys must all have the same number of bits")
    (m,) = widths
    if m > MAX_MESSAGE_BITS:
        raise ValueError(f"a message is cut from one {MAX_MESSAGE_BITS}-bit HMAC-SHA256 digest")
    indices = [t.to_bytes(_FRAME_INDEX_BYTES, "big") for t in range(1, num_frames + 1)]
    # HMAC(K, x) = sha256((K ^ opad) || sha256((K ^ ipad) || x)), K the
    # secret (hashed first when longer than a block) zero-padded to one
    # block.  The two padded-key states are hashed once; each key's inner
    # state is fed its shared prefix once and copied per frame index.
    padded = secret.key_bytes
    if len(padded) > _SHA256_BLOCK:
        padded = hashlib.sha256(padded).digest()
    padded = padded.ljust(_SHA256_BLOCK, b"\x00")
    inner = hashlib.sha256(padded.translate(_INNER_PAD))
    outer = hashlib.sha256(padded.translate(_OUTER_PAD))
    digests = []
    for key in keys:
        keyed = inner.copy()
        keyed.update(_pack(key.bits) + _HASH_SEPARATOR)
        for index in indices:
            frame = keyed.copy()
            frame.update(index)
            message = outer.copy()
            message.update(frame.digest())
            digests.append(message.digest())
    bits = np.unpackbits(
        np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(len(digests), -1),
        axis=1,
    )
    # unpackbits makes 0/1 bits, so the rows need no second check.
    return _unchecked_sequence(np.ascontiguousarray(bits[:, :m]))


def derive_frame_messages(
    secret: BaseSecret, key: WatermarkKey, num_frames: int
) -> MessageSequence:
    """Derive the deterministic per-frame message schedule of one key:
    derive_schedules for one key."""
    return derive_schedules(secret, [key], num_frames)


def random_keys(cfg: KeyConfig, seeds: Sequence[int]) -> list[WatermarkKey]:
    """One uniform key per seed, each an int in [0, 2**64): bit j of key i
    is the top bit of word j of the key stream of seeds[i]."""
    counters = counter_array(seeds, "key seeds")[:, None]
    bits = stream_words(KEY_TAG, counters, cfg.message_bits) >> np.uint64(63)
    # Each bit is a Python int 0 or 1 by construction, so the keys skip
    # WatermarkKey's per-bit check.
    return [_unchecked_key(tuple(row)) for row in bits.tolist()]


def random_key(cfg: KeyConfig, seed: int) -> WatermarkKey:
    """Draw a uniform key, deterministic under the seed: random_keys for
    one seed."""
    return random_keys(cfg, [seed])[0]


def key_document(cfg: KeyConfig, key: WatermarkKey) -> dict:
    """JSON-ready key document: the keyspace layout and the packed key."""
    return {
        "config": {
            "L": cfg.num_layers,
            "P": cfg.bases_per_layer,
            "M": cfg.message_bits,
        },
        "key_hex": bits_to_hex(key.bits),
    }


def _typed(value, kind: type):
    """`value`, read from outside the program, as a `kind`: an int is an
    integer and not a bool, a float any finite number but a bool (returned
    as a float), a str a string, a tuple a list or tuple; else TypeError."""
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if kind is float:
        try:
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            ok = False
    else:
        ok = isinstance(value, (list, tuple) if kind is tuple else kind)
    if not ok or isinstance(value, bool):
        raise TypeError(f"not a valid {kind.__name__}: {value!r}")
    return float(value) if kind is float else value


def _canonical(doc) -> str:
    """`doc` as canonical JSON text, in which 1, 1.0 and true differ."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def _document(what: str):
    """Report a missing key, a value of the wrong type or too deep a
    nesting in a JSON document as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} is missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def parse_key_document(doc: dict) -> tuple[KeyConfig, WatermarkKey]:
    with _document("key document"):
        cfg = KeyConfig(
            num_layers=_typed(doc["config"]["L"], int),
            bases_per_layer=_typed(doc["config"]["P"], int),
        )
        width = _typed(doc["config"]["M"], int)
        if width != cfg.message_bits:
            raise ValueError(
                f"key document M must equal L * log2(P) = {cfg.message_bits}, got {width}"
            )
        return cfg, WatermarkKey(hex_to_bits(doc["key_hex"], cfg.message_bits))


def _frames_document(messages: MessageSequence) -> list:
    return [
        {"t": t, "bits_hex": bits_to_hex(row)}
        for t, row in enumerate(messages.messages, 1)
    ]


def _parse_frames(frames: list, num_bits: int) -> MessageSequence:
    # Entries may come in any order, but their indices t must be 1..T.
    entries = sorted(
        ((_typed(entry["t"], int), entry["bits_hex"]) for entry in frames),
        key=lambda entry: entry[0],
    )
    if [t for t, _ in entries] != list(range(1, len(entries) + 1)):
        raise ValueError("frame indices t must be exactly 1..T")
    return MessageSequence([hex_to_bits(text, num_bits) for _, text in entries])


def schedule_document(
    cfg: KeyConfig, key: WatermarkKey, frames: MessageSequence
) -> dict:
    """The key document plus the frame messages; bit fields are hex in
    packed form."""
    return {**key_document(cfg, key), "frames": _frames_document(frames)}


def parse_schedule_document(
    doc: dict,
) -> tuple[KeyConfig, WatermarkKey, MessageSequence]:
    cfg, key = parse_key_document(doc)
    with _document("schedule document"):
        return cfg, key, _parse_frames(doc["frames"], cfg.message_bits)


def extraction_document(sequence: MessageSequence) -> dict:
    return {
        "message_bits": sequence.message_bits,
        "frames": _frames_document(sequence),
    }


def parse_extraction_document(doc: dict) -> MessageSequence:
    with _document("extraction document"):
        return _parse_frames(doc["frames"], _typed(doc["message_bits"], int))

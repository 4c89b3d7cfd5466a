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
import hmac
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "KeyConfig",
    "WatermarkKey",
    "FrameMessage",
    "MessageSequence",
    "SelectionMask",
    "BaseSecret",
    "key_to_mask",
    "mask_to_key",
    "derive_frame_messages",
    "random_key",
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


@dataclass(frozen=True)
class KeyConfig:
    """Shape of the keyspace: L layers, P bases per layer, M message bits."""

    num_layers: int
    bases_per_layer: int
    message_bits: int

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        p = self.bases_per_layer
        if p < 2 or p & (p - 1) != 0:
            raise ValueError("bases_per_layer must be a power of two >= 2")
        if self.message_bits != self.num_layers * self.bits_per_layer:
            raise ValueError(
                "message_bits must equal num_layers * log2(bases_per_layer); "
                f"got {self.message_bits} for L={self.num_layers}, "
                f"P={self.bases_per_layer}"
            )

    @property
    def bits_per_layer(self) -> int:
        return self.bases_per_layer.bit_length() - 1

    @classmethod
    def from_layout(cls, num_layers: int, bases_per_layer: int) -> "KeyConfig":
        if bases_per_layer < 2 or bases_per_layer & (bases_per_layer - 1) != 0:
            raise ValueError("bases_per_layer must be a power of two >= 2")
        bits = bases_per_layer.bit_length() - 1
        return cls(num_layers, bases_per_layer, num_layers * bits)


def _validate_bits(bits: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"{what} must contain only 0/1 values")
    return out


@dataclass(frozen=True)
class WatermarkKey:
    """An M-bit watermark key."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _validate_bits(self.bits, "key bits"))
        if not self.bits:
            raise ValueError("key must contain at least one bit")


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
    """Invert key_to_mask; rejects rows without exactly one selection."""
    if mask.num_layers != cfg.num_layers or mask.bases_per_layer != cfg.bases_per_layer:
        raise ValueError("mask dimensions do not match config")
    width = cfg.bits_per_layer
    bits: list[int] = []
    for layer in range(cfg.num_layers):
        row = np.flatnonzero(mask.mask[layer])
        if row.size != 1:
            raise ValueError(f"mask row {layer + 1} does not select exactly one basis")
        index = int(row[0])
        bits.extend((index >> (width - 1 - k)) & 1 for k in range(width))
    return WatermarkKey(tuple(bits))


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


def derive_frame_messages(
    secret: BaseSecret, key: WatermarkKey, num_frames: int
) -> MessageSequence:
    """Derive the deterministic per-frame message schedule.

    Message t is the first M bits of HMAC-SHA256(secret, msg_t) with
    msg_t = pack(key) || 0x7C || t as an 8-byte big-endian unsigned integer,
    for t = 1..num_frames.
    """
    if num_frames < 1:
        raise ValueError("num_frames must be >= 1")
    m = len(key.bits)
    if m > 256:
        raise ValueError("a message is cut from one 256-bit HMAC-SHA256 digest")
    prefix = _pack(key.bits) + _HASH_SEPARATOR
    digests = b"".join(
        hmac.digest(secret.key_bytes, prefix + t.to_bytes(_FRAME_INDEX_BYTES, "big"),
                    "sha256")
        for t in range(1, num_frames + 1)
    )
    bits = np.unpackbits(np.frombuffer(digests, dtype=np.uint8).reshape(num_frames, -1),
                         axis=1)
    return MessageSequence(bits[:, :m])


def random_key(cfg: KeyConfig, seed: int) -> WatermarkKey:
    """Draw a uniform key, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    return WatermarkKey(tuple(int(b) for b in rng.integers(0, 2, cfg.message_bits)))


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


@contextlib.contextmanager
def _document(what: str):
    """Report a missing key or a value of the wrong type in a JSON document
    as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} is missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def parse_key_document(doc: dict) -> tuple[KeyConfig, WatermarkKey]:
    with _document("key document"):
        cfg = KeyConfig(
            num_layers=int(doc["config"]["L"]),
            bases_per_layer=int(doc["config"]["P"]),
            message_bits=int(doc["config"]["M"]),
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
        ((int(entry["t"]), entry["bits_hex"]) for entry in frames),
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
        return _parse_frames(doc["frames"], int(doc["message_bits"]))

"""Compact tagged binary codec for values.

Both the WAL and the wire protocol move *bytes*; this module is the
single codec both sit on.  It serializes the small set of value types
that appear in log-record payloads, rows, and request/response frames
(page images are struct-packed by the page classes themselves):

``None``, ``bool``, ``int`` (64-bit signed), ``float``, ``bytes``,
``str``, ``list``/``tuple`` (decoded as ``list``), ``dict`` with
``str`` keys, :class:`~repro.common.rid.RID`, and
:class:`~repro.common.rid.IndexKey`.

The format is a one-byte type tag followed by a fixed or
length-prefixed body.  It is deterministic, which lets tests compare
encoded values directly.

Two things matter for speed here (this codec is ~a quarter of the
engine's hot path, and every wire frame rides it too):

- Encoding uses exact-``type`` dispatch with fused tag+body struct
  packs, falling back to an ``isinstance`` chain only for subclasses
  (str-enums, RID, IndexKey).  Dict keys — which repeat endlessly in
  log-record bodies — are memoized as pre-packed length+utf-8 bytes.
- Decoding indexes the buffer for integer tags instead of slicing
  one-byte strings, and accepts any buffer object (``bytes`` or
  ``memoryview``), so frame bodies can be decoded zero-copy straight
  out of a receive buffer.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.common.errors import CorruptLogError, TruncatedLogError, WALError
from repro.common.rid import RID, IndexKey

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_DICT = b"D"
_TAG_RID = b"R"
_TAG_KEY = b"K"
_TAG_FLOAT = b"G"

# Integer forms for buffer-indexing decode dispatch.
_ITAG_NONE = _TAG_NONE[0]
_ITAG_TRUE = _TAG_TRUE[0]
_ITAG_FALSE = _TAG_FALSE[0]
_ITAG_INT = _TAG_INT[0]
_ITAG_BYTES = _TAG_BYTES[0]
_ITAG_STR = _TAG_STR[0]
_ITAG_LIST = _TAG_LIST[0]
_ITAG_DICT = _TAG_DICT[0]
_ITAG_RID = _TAG_RID[0]
_ITAG_KEY = _TAG_KEY[0]
_ITAG_FLOAT = _TAG_FLOAT[0]

_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_RID_BODY = struct.Struct(">IH")

# Fused tag+body packers: one struct call + one bytearray append per
# scalar instead of two.  The leading byte is the tag.
_PACK_TAG_I64 = struct.Struct(">Bq").pack
_PACK_TAG_F64 = struct.Struct(">Bd").pack
_PACK_TAG_RID = struct.Struct(">BIH").pack
_PACK_TAG_U32 = struct.Struct(">BI").pack
_PACK_U32 = _U32.pack

_UNPACK_I64 = _I64.unpack_from
_UNPACK_F64 = _F64.unpack_from
_UNPACK_U32 = _U32.unpack_from
_UNPACK_RID = _RID_BODY.unpack_from

# Dict keys repeat endlessly (log-record field names, request arg
# names); memoize their length-prefixed utf-8 encoding.  Bounded so a
# workload with pathological key churn can't grow it without limit.
_KEY_CACHE: dict[str, bytes] = {}
_KEY_CACHE_MAX = 4096


def encode_value(value: Any) -> bytes:
    """Serialize ``value`` into tagged bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Any) -> None:
    # Exact-type checks first, ordered by hot-path frequency; the
    # isinstance chain at the bottom catches subclasses (str-enums,
    # bool-before-int is handled by the identity checks).
    t = type(value)
    if t is int:
        out += _PACK_TAG_I64(0x49, value)  # b"I"
    elif t is str:
        raw = value.encode("utf-8")
        out += _PACK_TAG_U32(0x53, len(raw))  # b"S"
        out += raw
    elif t is dict:
        out += _PACK_TAG_U32(0x44, len(value))  # b"D"
        cache = _KEY_CACHE
        for key in value:
            pre = cache.get(key)
            if pre is None:
                if type(key) is not str and not isinstance(key, str):
                    raise WALError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
                raw = key.encode("utf-8")
                pre = _PACK_U32(len(raw)) + raw
                if len(cache) < _KEY_CACHE_MAX:
                    cache[key] = pre
            out += pre
            _encode_into(out, value[key])
    elif value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif t is bytes:
        out += _PACK_TAG_U32(0x42, len(value))  # b"B"
        out += value
    elif t is list or t is tuple:
        out += _PACK_TAG_U32(0x4C, len(value))  # b"L"
        for item in value:
            _encode_into(out, item)
    elif t is RID:
        out += _PACK_TAG_RID(0x52, value.page_id, value.slot)  # b"R"
    elif t is float:
        out += _PACK_TAG_F64(0x47, value)  # b"G"
    elif t is IndexKey:
        out += _PACK_TAG_RID(0x4B, value.rid.page_id, value.rid.slot)  # b"K"
        out += _PACK_U32(len(value.value))
        out += value.value
    # Slow path: subclasses (str-enums are the common case).
    elif isinstance(value, int):
        out += _PACK_TAG_I64(0x49, int(value))
    elif isinstance(value, float):
        out += _PACK_TAG_F64(0x47, float(value))
    elif isinstance(value, bytes):
        out += _PACK_TAG_U32(0x42, len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _PACK_TAG_U32(0x53, len(raw))
        out += raw
    elif isinstance(value, RID):
        out += _PACK_TAG_RID(0x52, value.page_id, value.slot)
    elif isinstance(value, IndexKey):
        out += _PACK_TAG_RID(0x4B, value.rid.page_id, value.rid.slot)
        out += _PACK_U32(len(value.value))
        out += value.value
    elif isinstance(value, (list, tuple)):
        out += _PACK_TAG_U32(0x4C, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out += _PACK_TAG_U32(0x44, len(value))
        for key in value:
            if not isinstance(key, str):
                raise WALError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            out += _PACK_U32(len(raw))
            out += raw
            _encode_into(out, value[key])
    else:
        raise WALError(f"cannot serialize value of type {type(value).__name__}")


def decode_value(raw, offset: int = 0) -> tuple[Any, int]:
    """Deserialize one value starting at ``offset``.

    ``raw`` may be ``bytes`` or any buffer object (``memoryview``
    included) — decoded ``bytes``/``str`` leaves are materialized, the
    rest of the walk never copies.  Returns ``(value, next_offset)``.
    Malformed or truncated input raises
    :class:`~repro.common.errors.WALError`.
    """
    try:
        return _decode_value(raw, offset)
    except WALError:
        raise
    except (
        struct.error,
        UnicodeDecodeError,
        IndexError,
        OverflowError,
        RecursionError,
    ) as exc:
        raise WALError(f"malformed encoded value at offset {offset}: {exc}") from exc


def _decode_value(raw, offset: int) -> tuple[Any, int]:
    if offset >= len(raw):
        raise WALError(f"truncated input: no tag at offset {offset}")
    tag = raw[offset]
    offset += 1
    if tag == _ITAG_INT:
        (value,) = _UNPACK_I64(raw, offset)
        return value, offset + 8
    if tag == _ITAG_STR:
        (length,) = _UNPACK_U32(raw, offset)
        offset += 4
        _check_room(raw, offset, length)
        return str(raw[offset : offset + length], "utf-8"), offset + length
    if tag == _ITAG_DICT:
        (count,) = _UNPACK_U32(raw, offset)
        offset += 4
        mapping: dict[str, Any] = {}
        for _ in range(count):
            (key_len,) = _UNPACK_U32(raw, offset)
            offset += 4
            _check_room(raw, offset, key_len)
            key = str(raw[offset : offset + key_len], "utf-8")
            offset += key_len
            mapping[key], offset = _decode_value(raw, offset)
        return mapping, offset
    if tag == _ITAG_NONE:
        return None, offset
    if tag == _ITAG_TRUE:
        return True, offset
    if tag == _ITAG_FALSE:
        return False, offset
    if tag == _ITAG_BYTES:
        (length,) = _UNPACK_U32(raw, offset)
        offset += 4
        _check_room(raw, offset, length)
        return bytes(raw[offset : offset + length]), offset + length
    if tag == _ITAG_LIST:
        (count,) = _UNPACK_U32(raw, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_value(raw, offset)
            items.append(item)
        return items, offset
    if tag == _ITAG_RID:
        page_id, slot = _UNPACK_RID(raw, offset)
        return RID(page_id, slot), offset + 6
    if tag == _ITAG_FLOAT:
        (value,) = _UNPACK_F64(raw, offset)
        return value, offset + 8
    if tag == _ITAG_KEY:
        page_id, slot = _UNPACK_RID(raw, offset)
        offset += 6
        (length,) = _UNPACK_U32(raw, offset)
        offset += 4
        _check_room(raw, offset, length)
        value = bytes(raw[offset : offset + length])
        return IndexKey(value, RID(page_id, slot)), offset + length
    raise WALError(f"unknown type tag {bytes((tag,))!r} at offset {offset - 1}")


def _check_room(raw, offset: int, length: int) -> None:
    if offset + length > len(raw):
        raise WALError(
            f"truncated input: need {length} bytes at offset {offset}, "
            f"have {len(raw) - offset}"
        )


def encoded_size(value: Any) -> int:
    """Size in bytes that ``value`` will occupy when encoded."""
    return len(encode_value(value))


# -- record framing ----------------------------------------------------------
#
# Every log record is written as ``[crc32(body) u32][len(body) u32][body]``.
# The CRC lives *with* the record in the byte stream, so a torn log tail
# (a record only partially persisted at crash time) is detectable when the
# stream is re-read: the frame is either cut short (TruncatedLogError) or
# its body no longer matches the CRC (CorruptLogError).

RECORD_FRAME = struct.Struct(">II")
"""``(crc32(body), len(body))`` header preceding every log-record body."""


def frame_record(body: bytes) -> bytes:
    """Wrap an encoded record body in its CRC frame."""
    return RECORD_FRAME.pack(zlib.crc32(body), len(body)) + body


def unframe_record(raw: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Validate and strip one record frame starting at ``offset``.

    Returns ``(body, next_offset)``.  Raises
    :class:`~repro.common.errors.TruncatedLogError` if the frame is cut
    short and :class:`~repro.common.errors.CorruptLogError` if the body
    fails its CRC — both are what a torn or damaged log tail looks like.
    """
    if offset + RECORD_FRAME.size > len(raw):
        raise TruncatedLogError(
            f"log frame header cut short at offset {offset}: "
            f"need {RECORD_FRAME.size} bytes, have {len(raw) - offset}"
        )
    crc, length = RECORD_FRAME.unpack_from(raw, offset)
    start = offset + RECORD_FRAME.size
    end = start + length
    if end > len(raw):
        raise TruncatedLogError(
            f"log record body cut short at offset {start}: "
            f"need {length} bytes, have {len(raw) - start}"
        )
    body = raw[start:end]
    if zlib.crc32(body) != crc:
        raise CorruptLogError(f"log record at offset {offset} failed its CRC check")
    return body, end


def valid_frames_end(raw: bytes) -> int:
    """Offset of the first frame in ``raw`` that is cut short or fails
    its CRC, or ``len(raw)`` when every frame is whole.  The loop of
    :func:`unframe_record` without its per-frame call and body copy:
    log-tail repair runs it over the whole log before restart opens."""
    view = memoryview(raw)
    unpack = RECORD_FRAME.unpack_from
    head = RECORD_FRAME.size
    size = len(raw)
    offset = 0
    while offset + head <= size:
        crc, length = unpack(raw, offset)
        end = offset + head + length
        if end > size or zlib.crc32(view[offset + head : end]) != crc:
            return offset
        offset = end
    return offset


# -- lock-table payloads (two-phase commit) ----------------------------------
#
# A PREPARE record carries the transaction's COMMIT-duration lock set so
# a restarted shard can reacquire it before the database reopens.  Lock
# names are flat tuples of codec-native leaves (str/int/bytes/RID); the
# codec decodes tuples as lists, so the decode side restores the tuple
# shape the lock manager hashes on.


def encode_lock_table(locks: list[tuple[Any, str]]) -> list[list[Any]]:
    """``[(lock_name_tuple, mode_value), ...]`` → payload-safe lists."""
    return [[list(name), mode] for name, mode in locks]


def decode_lock_table(payload: Any) -> list[tuple[tuple, str]]:
    """Inverse of :func:`encode_lock_table` after a codec round-trip."""
    return [(tuple(name), mode) for name, mode in payload or []]


"""``repro.codec`` — the unified serialization layer.

One tagged binary value codec (:mod:`repro.codec.values`) underlies
both the write-ahead log and the wire protocol; on top of it sit the
v2 binary frames (:mod:`repro.codec.frames`), the typed op registry
(:mod:`repro.codec.ops`), and the error payload mapping
(:mod:`repro.codec.errors`) shared by every front-end.
"""

from repro.codec.errors import (
    WIRE_ERRORS,
    error_payload,
    raise_from_payload,
    rebuild_error,
)
from repro.codec.frames import (
    FLAG_ERROR,
    FLAG_RESPONSE,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_V2,
    Frame,
    encode_frame,
    error_frame,
    response_frame,
    try_parse_frame,
)
from repro.codec.ops import OP_BY_CODE, OP_BY_NAME, OPS, OpSpec
from repro.codec.values import (
    decode_lock_table,
    decode_value,
    encode_lock_table,
    encode_value,
    encoded_size,
    frame_record,
    unframe_record,
)

__all__ = [
    "FLAG_ERROR",
    "FLAG_RESPONSE",
    "HEADER",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "OPS",
    "OP_BY_CODE",
    "OP_BY_NAME",
    "PROTOCOL_V2",
    "WIRE_ERRORS",
    "Frame",
    "OpSpec",
    "decode_lock_table",
    "decode_value",
    "encode_frame",
    "encode_lock_table",
    "encode_value",
    "encoded_size",
    "error_frame",
    "error_payload",
    "frame_record",
    "raise_from_payload",
    "rebuild_error",
    "response_frame",
    "try_parse_frame",
    "unframe_record",
]

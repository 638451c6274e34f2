"""Page abstraction and the page-kind registry.

Pages live in two representations: live Python objects in the buffer
pool, and serialized bytes on the simulated disk.  Only the bytes are
durable.  Every page carries ``page_lsn``, the LSN of the log record
describing its most recent update — the field ARIES recovery compares
against log-record LSNs to decide whether a change is present (§1.2).

A page image is one struct-packed header ``(kind code, page_id,
page_lsn)`` followed by the kind's own struct-packed body.  Concrete
page classes (heap page, index page) register a ``KIND_CODE`` so the
buffer pool can deserialize without knowing about them; each writes
its body with :meth:`Page.pack_body` and reads it back with
:meth:`Page.unpack_body`.  A body that does not parse, or does not end
exactly where the image does, raises :class:`StorageError` naming the
page — whatever the damage, never a bare ``struct.error``.
"""

from __future__ import annotations

import abc
import struct
from typing import Any, ClassVar

from repro.common.errors import StorageError
from repro.wal.records import NULL_LSN

_PAGE_KINDS: dict[int, type["Page"]] = {}

#: Bytes reserved for the serialized header/envelope of any page.
PAGE_OVERHEAD = 256

#: Image header: kind code, page id, page LSN.
PAGE_IMAGE_HEADER = struct.Struct(">BIQ")

#: First byte of an image written by the tagged codec (a dict
#: envelope), the page format before the struct-packed one.  No
#: ``KIND_CODE`` may equal it.
_TAGGED_ENVELOPE = b"D"


class Page(abc.ABC):
    """Base class for all page types."""

    KIND_CODE: ClassVar[int] = 0

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.page_lsn: int = NULL_LSN

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.KIND_CODE:
            existing = _PAGE_KINDS.get(cls.KIND_CODE)
            if existing is not None and existing is not cls:
                raise StorageError(f"duplicate page kind code {cls.KIND_CODE}")
            _PAGE_KINDS[cls.KIND_CODE] = cls

    # -- serialization ------------------------------------------------------

    @abc.abstractmethod
    def pack_body(self) -> bytes:
        """The struct-packed body (everything after the image header)."""

    @classmethod
    @abc.abstractmethod
    def unpack_body(cls, page_id: int, raw: bytes, offset: int) -> "Page":
        """Rebuild a page from the body at ``raw[offset:]``, which must
        end exactly at ``len(raw)``.  May raise ``struct.error``,
        ``IndexError`` or ``ValueError`` on a malformed body; the caller
        turns those into :class:`StorageError`."""

    @abc.abstractmethod
    def used_size(self) -> int:
        """Serialized-size budget of the page, for page-capacity checks;
        never below ``len(self.to_bytes())``."""

    def to_bytes(self) -> bytes:
        return (
            PAGE_IMAGE_HEADER.pack(self.KIND_CODE, self.page_id, self.page_lsn)
            + self.pack_body()
        )

    @staticmethod
    def from_bytes(raw: bytes) -> "Page":
        if raw[:1] == _TAGGED_ENVELOPE:
            raise StorageError(
                "page image is in the tagged-codec format, which this "
                "version no longer reads"
            )
        try:
            code, page_id, page_lsn = PAGE_IMAGE_HEADER.unpack_from(raw, 0)
        except struct.error:
            raise StorageError(
                f"page image of {len(raw)} bytes is too short for its header"
            ) from None
        cls = _PAGE_KINDS.get(code)
        if cls is None:
            raise StorageError(f"page {page_id} has unknown page kind code {code}")
        try:
            page = cls.unpack_body(page_id, raw, PAGE_IMAGE_HEADER.size)
        except (struct.error, IndexError, ValueError) as exc:
            raise StorageError(
                f"page {page_id} ({cls.__name__}) has a malformed image: {exc}"
            ) from exc
        page.page_lsn = page_lsn
        return page

    def __repr__(self) -> str:
        return f"<{type(self).__name__} id={self.page_id} lsn={self.page_lsn}>"

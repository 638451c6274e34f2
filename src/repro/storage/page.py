"""Page abstraction and the page-kind registry.

Pages live in two representations: live Python objects in the buffer
pool, and serialized bytes on the simulated disk.  Only the bytes are
durable.  Every page carries ``page_lsn``, the LSN of the log record
describing its most recent update — the field ARIES recovery compares
against log-record LSNs to decide whether a change is present (§1.2).

Concrete page classes (heap page, index page) register a ``KIND`` tag
so the buffer pool can deserialize without knowing about them.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar

from repro.codec.values import decode_value, encode_value
from repro.common.errors import StorageError
from repro.wal.records import NULL_LSN

_PAGE_KINDS: dict[str, type["Page"]] = {}

#: Bytes reserved for the serialized header/envelope of any page.
PAGE_OVERHEAD = 256


class Page(abc.ABC):
    """Base class for all page types."""

    KIND: ClassVar[str] = ""

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.page_lsn: int = NULL_LSN

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.KIND:
            existing = _PAGE_KINDS.get(cls.KIND)
            if existing is not None and existing is not cls:
                raise StorageError(f"duplicate page kind {cls.KIND!r}")
            _PAGE_KINDS[cls.KIND] = cls

    # -- serialization ------------------------------------------------------

    @abc.abstractmethod
    def to_payload(self) -> dict[str, Any]:
        """Codec-serializable body (everything except the envelope)."""

    @classmethod
    @abc.abstractmethod
    def from_payload(cls, page_id: int, payload: dict[str, Any]) -> "Page":
        """Rebuild a page object from its body."""

    @abc.abstractmethod
    def used_size(self) -> int:
        """Approximate serialized body size, for page-capacity checks."""

    def to_bytes(self) -> bytes:
        envelope = {
            "kind": self.KIND,
            "page_id": self.page_id,
            "page_lsn": self.page_lsn,
            "body": self.to_payload(),
        }
        return encode_value(envelope)

    @staticmethod
    def from_bytes(raw: bytes) -> "Page":
        envelope, _ = decode_value(raw)
        if not isinstance(envelope, dict):
            raise StorageError("malformed page image")
        kind = envelope["kind"]
        cls = _PAGE_KINDS.get(kind)
        if cls is None:
            raise StorageError(f"unknown page kind {kind!r}")
        page = cls.from_payload(envelope["page_id"], envelope["body"])
        page.page_lsn = envelope["page_lsn"]
        return page

    def __repr__(self) -> str:
        return f"<{type(self).__name__} id={self.page_id} lsn={self.page_lsn}>"

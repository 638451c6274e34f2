"""Wire error mapping: one registry shared by every front-end.

The server, the cluster router, and the client all need the same two
maps: library exception → wire payload, and wire payload → re-raised
exception.  This module owns both, so adding an error class (or a
structured constructor) is one edit here instead of parallel edits in
``server/protocol.py`` and ``cluster/router.py``.

An error payload is a plain dict::

    {"error": "<kind>", "message": "...", "args": {...}?}

``kind`` is the library exception class name; the client re-raises the
matching class so ``UniqueKeyViolationError`` round-trips as itself.
``args`` carries structured constructor fields for the classes that
have them (``DeadlockError`` keeps its victim and cycle,
``UniqueKeyViolationError`` its key bytes); the binary frames carry
them as-is, ``bytes`` included.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common import errors as _errors
from repro.common.errors import (
    DeadlockError,
    ServerError,
    SimulatedCrash,
    UniqueKeyViolationError,
)

#: Exception classes a server may report and a client can re-raise.
#: Anything not listed arrives client-side as a plain ServerError whose
#: ``kind`` preserves the original class name.
WIRE_ERRORS: dict[str, type[Exception]] = {
    name: cls
    for name, cls in vars(_errors).items()
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError)
}


# -- structured constructor args ---------------------------------------------
#
# Classes whose __init__ takes more than a message register an
# (extract, rebuild) pair.  Extract returns codec-encodable args;
# rebuild constructs the exception from them.  Everything else
# round-trips through the single-message path.

_ARG_CODECS: dict[
    str,
    tuple[Callable[[Any], dict[str, Any]], Callable[[dict[str, Any]], Exception]],
] = {
    "DeadlockError": (
        lambda exc: {"txn_id": exc.txn_id, "cycle": list(exc.cycle)},
        lambda args: DeadlockError(args["txn_id"], tuple(args["cycle"])),
    ),
    "UniqueKeyViolationError": (
        lambda exc: {"key_value": exc.key_value},
        lambda args: UniqueKeyViolationError(args["key_value"]),
    ),
    "SimulatedCrash": (
        lambda exc: {"failpoint": exc.failpoint},
        lambda args: SimulatedCrash(args["failpoint"]),
    ),
}


def error_payload(exc: BaseException) -> dict:
    """Serialize ``exc`` into a wire error payload."""
    kind = getattr(exc, "kind", None) or type(exc).__name__
    payload: dict[str, Any] = {"error": kind, "message": str(exc)}
    codec = _ARG_CODECS.get(type(exc).__name__)
    if codec is not None:
        try:
            payload["args"] = codec[0](exc)
        except AttributeError:
            pass  # hand-built instance missing its fields
    return payload


def rebuild_error(payload: dict) -> Exception:
    """Inverse of :func:`error_payload`: the exception to re-raise."""
    kind = payload.get("error", "ServerError")
    message = payload.get("message", "")
    cls = WIRE_ERRORS.get(kind)
    if cls is None:
        return ServerError(message, kind=kind)
    args = payload.get("args")
    codec = _ARG_CODECS.get(kind)
    if codec is not None and isinstance(args, dict):
        try:
            return codec[1](args)
        except (KeyError, TypeError):
            pass  # fall through to the bare rebuild
    if issubclass(cls, ServerError):
        return cls(message, kind=kind)
    try:
        return cls(message)
    except TypeError:
        # The class wants structured constructor args that didn't cross
        # the wire (missing or a stale args shape); rebuild it bare so
        # callers can still dispatch on the type.
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
        return exc


def raise_from_payload(payload: dict) -> None:
    """Client side: re-raise the server-reported error, by kind."""
    raise rebuild_error(payload)


__all__ = [
    "WIRE_ERRORS",
    "error_payload",
    "raise_from_payload",
    "rebuild_error",
]

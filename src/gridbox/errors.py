"""Shared error vocabulary.

Every error that can cross the wire carries a stable ``code`` string; the
protocol layer maps exceptions to response envelopes and back, so a client
sees the same exception class the server raised.
"""

from __future__ import annotations


class GridError(Exception):
    """Base class; ``code`` is the wire-visible error identifier."""

    code = "GridError"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


# --- catalog ---------------------------------------------------------------

class DanglingParent(GridError):
    code = "DanglingParent"


class ForeignSite(GridError):
    code = "ForeignSite"


class UnknownAttribute(GridError):
    code = "UnknownAttribute"


# --- query language --------------------------------------------------------

class QuerySyntaxError(GridError):
    """Malformed query text; carries the offset and what was expected."""

    code = "QuerySyntax"

    def __init__(self, message: str, position: int = -1, expected: tuple[str, ...] = ()):
        detail = message
        if position >= 0:
            detail += f" at position {position}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class TypeMismatch(GridError):
    code = "TypeMismatch"


class NotAMember(GridError):
    code = "NotAMember"


# --- result sets -----------------------------------------------------------

class MalformedXml(GridError):
    code = "MalformedXml"


class SchemaViolation(GridError):
    code = "SchemaViolation"


# --- image files and blobs -------------------------------------------------

class MgiFormatError(GridError):
    code = "MgiFormat"


class BadMagic(MgiFormatError):
    code = "BadMagic"


class UnknownHeaderKey(MgiFormatError):
    code = "UnknownHeaderKey"


class PayloadSizeMismatch(MgiFormatError):
    code = "PayloadSizeMismatch"


class NotFound(GridError):
    code = "NotFound"


class CorruptBlob(GridError):
    code = "CorruptBlob"


class StorageError(GridError):
    code = "StorageError"


# --- algorithm DSL ---------------------------------------------------------

class AlgorithmSyntaxError(GridError):
    code = "SyntaxError"


class DuplicateEmit(AlgorithmSyntaxError):
    code = "DuplicateEmit"


class EmptyProgram(AlgorithmSyntaxError):
    code = "EmptyProgram"


class UnknownAlgorithm(GridError):
    code = "UnknownAlgorithm"


class AlgorithmConflict(GridError):
    code = "AlgorithmConflict"


# --- node and federation ---------------------------------------------------

class AuthFailed(GridError):
    code = "AuthFailed"


class RegistryUnreachable(GridError):
    code = "RegistryUnreachable"


class PeerUnreachable(GridError):
    code = "PeerUnreachable"


class HopViolation(GridError):
    code = "HopViolation"


class NodeStopped(GridError):
    """The node was stopped, so it starts no more peer calls."""

    code = "NodeStopped"


class UnknownPeer(GridError):
    code = "UnknownPeer"


class MalformedFile(GridError):
    code = "MalformedFile"


class DuplicateSiteDifferentIdentity(GridError):
    code = "DuplicateSiteDifferentIdentity"


class ProtocolError(GridError):
    """Framing violations: bad lengths, non-JSON envelopes, missing keys."""

    code = "ProtocolError"


class AnswerTooLarge(GridError):
    """A handler's answer does not fit in one frame (``wire.MAX_ENVELOPE``
    or ``wire.MAX_BINARY``); the message names the op and the size."""

    code = "AnswerTooLarge"


_BY_CODE: dict[str, type[GridError]] = {}


def _index(cls: type[GridError]) -> None:
    _BY_CODE.setdefault(cls.code, cls)
    for sub in cls.__subclasses__():
        _index(sub)


def error_from_code(code: str, message: str) -> GridError:
    """Rebuild the exception a peer reported, falling back to GridError."""
    if not _BY_CODE:
        _index(GridError)
    err = _BY_CODE.get(code, GridError)(message)
    err.code = code
    return err

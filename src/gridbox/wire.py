"""Framed TCP wire protocol shared by nodes, the registry, and clients.

One frame = 4-byte big-endian length, then that many bytes of UTF-8 JSON
(the envelope), then exactly ``envelope["binary_len"]`` raw bytes.  Requests
carry ``{id, op, token, params, binary_len}``; responses carry
``{id, status, error_code, result, warnings, binary_len}`` with status
``ok`` or ``error``.  JSON is canonical, so envelope bytes are deterministic:
they are exactly ``json.dumps(envelope, sort_keys=True, separators=(",",
":"))``.  :func:`encode_envelope` writes a list of two or more strings that
need no escaping (answer columns, mostly) with one ``str.join``, and hands
everything else to the standard library's C encoder, one call per value.

The module also hosts two observation points used by the test harness and
the ``stats`` service:

* a process-global *capture tap* list — every frame sent by this process is
  offered to each tap as raw bytes (privacy scans hook in here);
* :class:`TrafficAccountant` — per-op frame/byte counters that servers feed
  from their receive/replay loop (the data-locality ledger).

A request is written by :func:`send` and its answer read by
:func:`receive`; :func:`request` is the two in a row.  A caller with
several requests out at once writes them all, then reads each answer as it
arrives (:func:`gather`), on its own thread.

Connections are reused.  :func:`receive` keeps each connection it finished
a clean exchange on in a small process-wide pool, keyed by address, and
:func:`send` takes it from there for the next request to that address; a
server answers any number of frames on one connection and keeps no state
between them, so clients, the registry client and peers can share pooled
connections.
:meth:`FramedServer.stop` shuts every connection it accepted, so a stopped
server cannot answer over a pooled one.

Transport security is a seam: ``TRANSPORT.wrap(sock)`` is applied to every
accepted and dialed socket, and the default implementation is a null cipher.
"""

from __future__ import annotations

import hmac
import json
import math
import secrets
import select
import socket
import struct
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

from gridbox.errors import AnswerTooLarge, GridError, ProtocolError, error_from_code

MAX_ENVELOPE = 8 * 1024 * 1024
MAX_BINARY = 64 * 1024 * 1024
POOL_SIZE = 64  # idle connections kept for reuse, over all addresses


class NullTransport:
    """Default (null-cipher) transport security: sockets pass through."""

    def wrap(self, sock: socket.socket, server_side: bool = False) -> socket.socket:
        return sock


TRANSPORT = NullTransport()

_capture_taps: list = []
_tap_lock = threading.Lock()


def add_capture_tap(fn) -> None:
    """Register ``fn(frame_bytes)`` to observe every frame this process sends."""
    with _tap_lock:
        _capture_taps.append(fn)


def remove_capture_tap(fn) -> None:
    with _tap_lock:
        _capture_taps.remove(fn)


def _offer_to_taps(data: bytes) -> None:
    with _tap_lock:
        taps = list(_capture_taps)
    for fn in taps:
        fn(data)


class TrafficAccountant:
    """Per-op counters: frames seen, envelope bytes, binary payload bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._per_op: dict[str, dict[str, int]] = {}

    def record(self, op: str, json_bytes: int, binary_bytes: int) -> None:
        with self._lock:
            row = self._per_op.setdefault(
                op, {"frames": 0, "json_bytes": 0, "binary_bytes": 0})
            row["frames"] += 1
            row["json_bytes"] += json_bytes
            row["binary_bytes"] += binary_bytes

    def snapshot(self) -> dict:
        with self._lock:
            return {op: dict(row) for op, row in sorted(self._per_op.items())}

    def binary_bytes(self, op: str) -> int:
        with self._lock:
            return self._per_op.get(op, {}).get("binary_bytes", 0)


# The C encoder that ``json.dumps(value, sort_keys=True, separators=(",",
# ":"))`` builds anew on each call, built once: ``_ENCODE(value, 0)`` returns
# the pieces of ``value``'s text.  It skips the check for circular
# references, whose table of the values being written would be shared by
# every thread.
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)
# the ASCII bytes JSON writes as they are: printable, bar '"' and '\\'
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"")


def _is_column(value) -> bool:
    """Whether ``value`` is a list of two or more items whose first is a str."""
    return type(value) is list and len(value) > 1 and type(value[0]) is str


def _holds_column(value: dict) -> bool:
    """Whether the dict ``value`` holds a column, directly or in a dict."""
    for item in value.values():
        if type(item) is dict:
            if _holds_column(item):
                return True
        elif _is_column(item):
            return True
    return False


def _write(value, out: list) -> None:
    """Append to ``out`` the pieces of ``value``'s canonical JSON text.

    A dict with only str keys that holds a list of two or more strings is
    written key by key in sorted order.  Such a list is joined in one call
    when the joined text holds nothing JSON escapes, which one
    byte-deletion test decides: once the plain bytes are deleted, only the
    separators' quotes may remain.  Everything else, a list with a non-str
    or a text to escape included, is written by one ``_ENCODE`` call."""
    if type(value) is dict and _holds_column(value) and all(type(k) is str for k in value):
        out.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(("," if i else "") + encode_basestring_ascii(key) + ":")
            _write(item, out)
        out.append("}")
        return
    if _is_column(value):
        try:
            joined = '","'.join(value)
        except TypeError:  # an item that is not a str
            pass
        else:
            if (joined.isascii() and len(joined.encode().translate(None, _PLAIN))
                    == 2 * (len(value) - 1)):
                out += ('["', joined, '"]')
                return
    out += _ENCODE(value, 0)


def encode_envelope(envelope: dict) -> bytes:
    """The bytes of ``json.dumps(envelope, sort_keys=True, separators=(",",
    ":"))``, written as one list of pieces joined once."""
    out: list = []
    _write(envelope, out)
    return "".join(out).encode("utf-8")


def _frame(envelope: dict, binary: bytes) -> tuple[bytes, int]:
    """One whole frame and the length of its envelope, which gains the
    ``binary_len`` key."""
    envelope = dict(envelope)
    envelope["binary_len"] = len(binary)
    payload = encode_envelope(envelope)
    if len(payload) > MAX_ENVELOPE:
        raise ProtocolError(f"envelope too large ({len(payload)} bytes)")
    if len(binary) > MAX_BINARY:
        raise ProtocolError(f"binary section too large ({len(binary)} bytes)")
    return b"".join((struct.pack(">I", len(payload)), payload, binary)), len(payload)


def send_frame(sock: socket.socket, envelope: dict, binary: bytes = b"") -> None:
    frame, _ = _frame(envelope, binary)
    _offer_to_taps(frame)
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict, bytes, int] | None:
    """Read one frame: its envelope, its binary section and the length of
    the envelope as it came; None on clean EOF at a frame boundary."""
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            if header:
                raise ProtocolError("connection closed mid-frame")
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    if length > MAX_ENVELOPE:
        raise ProtocolError(f"envelope too large ({length} bytes)")
    try:
        envelope = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays or objects nested deeper than the decoder goes
        raise ProtocolError(f"bad envelope: {e}") from e
    if not isinstance(envelope, dict):
        raise ProtocolError("envelope is not an object")
    binary_len = envelope.get("binary_len", 0)
    if not isinstance(binary_len, int) or binary_len < 0 or binary_len > MAX_BINARY:
        raise ProtocolError(f"bad binary_len {binary_len!r}")
    binary = _recv_exact(sock, binary_len) if binary_len else b""
    return envelope, binary, length


# --- request/response helpers ---------------------------------------------------

_idle: list[tuple[tuple[str, int], socket.socket]] = []  # oldest first
_idle_lock = threading.Lock()


def _checkout(key: tuple[str, int]) -> socket.socket | None:
    """The newest idle connection to ``key`` that still has nothing to read,
    or None.  A readable idle connection was closed by the far side or holds
    stray bytes; it is closed and the next one tried."""
    while True:
        with _idle_lock:
            for i in range(len(_idle) - 1, -1, -1):
                if _idle[i][0] == key:
                    sock = _idle.pop(i)[1]
                    break
            else:
                return None
        try:
            readable, _, _ = select.select([sock], [], [], 0)
        except (OSError, ValueError):  # ValueError: fd beyond select's range
            readable = True
        if not readable:
            return sock
        sock.close()


def _sweep() -> None:
    """Close the idle connections, to any address, that one ``select`` finds
    readable: their server stopped, or they hold stray bytes."""
    with _idle_lock:  # so no connection is taken or returned between the steps
        socks = [sock for _, sock in _idle]
        try:
            dead = set(select.select(socks, [], [], 0)[0])
        except (OSError, ValueError):  # ValueError: fd beyond select's range
            dead = set(socks)
        _idle[:] = [entry for entry in _idle if entry[1] not in dead]
    for sock in dead:
        sock.close()


def _checkin(key: tuple[str, int], sock: socket.socket) -> None:
    """Keep ``sock`` for reuse; the oldest idle connection goes when the
    pool is full."""
    with _idle_lock:
        _idle.append((key, sock))
        evicted = _idle.pop(0)[1] if len(_idle) > POOL_SIZE else None
    if evicted is not None:
        evicted.close()


def _check_response(response: dict) -> None:
    """ProtocolError unless ``response``, of a known status, has the shape
    `call` reads: ``result`` an object, ``warnings`` absent or a list of
    strings, and on an error envelope a string ``error_code`` and a string
    ``message`` in ``result`` when it has one."""
    result, warnings = response.get("result"), response.get("warnings", [])
    if not isinstance(result, dict):
        raise ProtocolError(f"response result is a {type(result).__name__}, not an object")
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ProtocolError("response warnings are not a list of strings")
    if response["status"] == "error" and not (
            isinstance(response.get("error_code"), str)
            and isinstance(result.get("message", ""), str)):
        raise ProtocolError("error response carries no string code and message")


class Exchange:
    """A request written to a connection, whose answer `receive` reads."""

    __slots__ = ("key", "op", "req_id", "sock", "expired")

    def __init__(self, key: tuple[str, int], op: str, req_id: str, sock: socket.socket):
        self.key, self.op, self.req_id, self.sock = key, op, req_id, sock
        self.expired = False  # set by `gather` when its wait ran out first

    def close(self) -> None:
        """Drop the connection without reading the answer."""
        self.sock.close()


def send(address: tuple[str, int], op: str, params: dict, *,
         token: str = "", binary: bytes = b"", req_id: str = "",
         timeout: float = 10.0) -> Exchange:
    """Write one request, on a pooled connection to ``address`` when there
    is an idle one and on a new one otherwise, after dropping the idle
    connections whose server has stopped (:func:`_sweep`).  A caller that
    signs the request id passes it as ``req_id``.  ``timeout`` bounds the
    dial, the write and each read of the answer.  On any failure the
    connection is closed."""
    req_id = req_id or secrets.token_hex(8)
    envelope = {"id": req_id, "op": op, "token": token, "params": params}
    key = (address[0], address[1])
    sock = _checkout(key)
    if sock is None:
        _sweep()
        sock = TRANSPORT.wrap(socket.create_connection(key, timeout=timeout))
    try:
        sock.settimeout(timeout)
        send_frame(sock, envelope, binary)
    except BaseException:
        sock.close()
        raise
    return Exchange(key, op, req_id, sock)


def receive(exchange: Exchange) -> tuple[dict, bytes]:
    """Read the answer to ``exchange``'s request: the raw response envelope
    and its binary section.  Error-status envelopes are returned, not raised
    (:func:`call` raises them).  The connection goes back to the pool only
    after an answer whose id, status and shape check out
    (:func:`_check_response`); on any failure, an expired exchange's
    ``TimeoutError`` included, it is closed.  A request is written once: a
    failure after it is sent raises, and is never retried on another
    connection."""
    sock = exchange.sock
    try:
        if exchange.expired:
            raise TimeoutError("timed out")
        got = recv_frame(sock)
        if got is None:
            raise ProtocolError("peer closed the connection without answering")
        response, resp_binary, _ = got
        if response.get("id") != exchange.req_id:
            raise ProtocolError("response id does not match request id")
        if response.get("status") not in ("ok", "error"):
            raise ProtocolError(f"bad response status {response.get('status')!r}")
        _check_response(response)
    except BaseException:
        sock.close()
        raise
    _checkin(exchange.key, sock)
    return response, resp_binary


def request(address: tuple[str, int], op: str, params: dict, *,
            token: str = "", binary: bytes = b"", req_id: str = "",
            timeout: float = 10.0) -> tuple[dict, bytes]:
    """One request/response exchange: :func:`send`, then :func:`receive`."""
    return receive(send(address, op, params, token=token, binary=binary,
                        req_id=req_id, timeout=timeout))


def gather(exchanges: dict, deadline: float):
    """Yield ``(key, exchange)`` for each item of ``exchanges`` once its
    connection has something to read, in the order they become readable,
    until ``deadline`` (a `time.monotonic` value); then the others, marked
    expired, so that `receive` closes each with a timeout.  Answers that are
    readable when the deadline has already passed are still yielded as they
    are.  One `select.poll` watches every connection, so no descriptor
    number is too large to watch, and a silent connection never holds up
    the reading of another."""
    waiting = {exchange.sock.fileno(): (key, exchange)
               for key, exchange in exchanges.items()}
    poller = select.poll()
    for fd in waiting:
        poller.register(fd, select.POLLIN)
    while waiting:
        events = poller.poll(max(0, math.ceil((deadline - time.monotonic()) * 1000)))
        if not events and time.monotonic() >= deadline:
            break
        for fd, _ in events:
            poller.unregister(fd)
            yield waiting.pop(fd)
    for key, exchange in waiting.values():
        exchange.expired = True
        yield key, exchange


def _unreachable(unreachable: type[GridError], key: tuple[str, int], op: str,
                 error: Exception) -> GridError:
    return unreachable(f"{op} to {key[0]}:{key[1]}: {error}")


def _outcome(response: dict, resp_binary: bytes) -> tuple[dict, list, bytes]:
    """``(result, warnings, binary)`` of an ok envelope; an error envelope
    raises the error the far side reported, under its own code."""
    if response["status"] == "error":
        raise error_from_code(response["error_code"],
                              response["result"].get("message", ""))
    return response["result"], response.get("warnings", []), resp_binary


def call(address: tuple[str, int], op: str, params: dict, *,
         unreachable: type[GridError], token: str = "", binary: bytes = b"",
         req_id: str = "", timeout: float = 10.0) -> tuple[dict, list, bytes]:
    """The one request path of clients and the registry client.

    Returns ``(result, warnings, binary)``.  Failing to reach ``address`` or
    to get a well-formed answer raises ``unreachable``; an error envelope
    raises the error the far side reported, under its own code.
    """
    try:
        response, resp_binary = request(address, op, params, token=token,
                                        binary=binary, req_id=req_id,
                                        timeout=timeout)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, address, op, e) from e
    return _outcome(response, resp_binary)


def start_call(address: tuple[str, int], op: str, params: dict, *,
               unreachable: type[GridError], req_id: str = "",
               timeout: float = 10.0) -> Exchange:
    """The first half of :func:`call`, for a request with no token or binary:
    the request written, or ``unreachable``."""
    try:
        return send(address, op, params, req_id=req_id, timeout=timeout)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, address, op, e) from e


def finish_call(exchange: Exchange,
                unreachable: type[GridError]) -> tuple[dict, list, bytes]:
    """The second half of :func:`call`: the answer to a :func:`start_call`."""
    try:
        response, resp_binary = receive(exchange)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, exchange.key, exchange.op, e) from e
    return _outcome(response, resp_binary)


def ok_response(req_id: str, result: dict, warnings: list | None = None) -> dict:
    return {"id": req_id, "status": "ok", "error_code": "",
            "result": result, "warnings": warnings or []}


def error_response(req_id: str, code: str, message: str) -> dict:
    return {"id": req_id, "status": "error", "error_code": code,
            "result": {"message": message}, "warnings": []}


def answer(envelope: dict, binary: bytes, serve) -> tuple[dict, bytes]:
    """The response to one request, the one answer path of every server
    handler.  ``serve(req_id, op, token, params, binary)`` returns
    ``(result, warnings, binary)``.  A ``params`` that is not a JSON object
    is a ProtocolError before ``serve`` runs; a GridError answers under its
    own code, and any other exception is ``Internal``, with its traceback on
    stderr, since a handler must answer, not raise."""
    req_id = str(envelope.get("id", ""))
    params = envelope.get("params") or {}
    try:
        if not isinstance(params, dict):
            raise ProtocolError("params must be an object")
        result, warnings, resp_binary = serve(req_id, envelope.get("op"),
                                              str(envelope.get("token") or ""),
                                              params, binary)
        return ok_response(req_id, result, warnings), resp_binary
    except GridError as e:
        return error_response(req_id, e.code, e.message), b""
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return error_response(req_id, "Internal", f"{type(e).__name__}: {e}"), b""


def text_param(params: dict, name: str) -> str:
    """Request param ``name``, "" when absent; a value that is present but
    not a JSON string is a `ProtocolError`, never coerced with ``str()``.
    The message names the value's type only, since it may be a secret."""
    value = params.get(name, "")
    if not isinstance(value, str):
        raise ProtocolError(f"{name} must be a string, not {type(value).__name__}")
    return value


def same_secret(supplied: str, expected: str) -> bool:
    """``supplied == expected`` in constant time, for any two strings: it
    compares their UTF-8 bytes, since `hmac.compare_digest` raises on a str
    that is not ASCII."""
    return hmac.compare_digest(supplied.encode("utf-8", "surrogatepass"),
                               expected.encode("utf-8", "surrogatepass"))


# --- server ----------------------------------------------------------------------

@dataclass
class FramedServer:
    """Thread-per-connection TCP server speaking the framed protocol.

    A connection carries any number of requests, one after another, and the
    server keeps nothing between them: each request is read and answered in
    its own call, so an idle connection holds no reference to its last
    request or answer.  :meth:`stop` closes the listening socket and shuts
    down every accepted connection, so a client holding a pooled connection
    reads EOF and no request is answered after it.

    ``handler(envelope, binary) -> (response_envelope, response_binary)`` is
    called once per request; it must not raise.  The accountant is fed one
    record per request (op, request json+binary) and one per response
    (op, response json+binary) so binary payloads are visible in both
    directions.  The json bytes are those of the envelope on the wire, its
    ``binary_len`` key included, and a response is counted before it is
    sent, so a client that reads the counters after its answer sees it.
    An answer too large for a frame is replaced by an ``AnswerTooLarge``
    error envelope that names the op and the size, and the connection
    stays open for the next request.
    """

    host: str
    port: int
    handler: object
    accountant: TrafficAccountant = field(default_factory=TrafficAccountant)

    def __post_init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self._sock.listen(64)
        self.address = self._sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    def start(self) -> None:
        self._thread = threading.Thread(target=self._accept_loop,
                                        name=f"server-{self.address[1]}", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        # shutdown() wakes a thread blocked in accept(); close() alone may not
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:  # after the flag, so no accepted socket escapes
            conns = list(self._conns)
        for conn in conns:  # wakes each connection thread with EOF
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn = TRANSPORT.wrap(conn, server_side=True)
            with self._conns_lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name=f"conn-{self.address[1]}", daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._exchange(conn):  # stop() ends it by shutting conn down
                pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            conn.close()

    def _exchange(self, conn: socket.socket) -> bool:
        """Read one request and answer it; False once the connection is done.
        The request and answer are locals of this call, so they are freed
        before the connection waits for its next request."""
        try:
            got = recv_frame(conn)
        except (ProtocolError, OSError):
            return False
        if got is None:
            return False
        envelope, binary, json_bytes = got
        op = str(envelope.get("op", "?"))
        self.accountant.record(op, json_bytes, len(binary))
        response, resp_binary = self.handler(envelope, binary)
        try:
            try:
                frame, json_bytes = _frame(response, resp_binary)
            except ProtocolError as e:  # the answer does not fit in a frame
                response = error_response(response.get("id", ""), AnswerTooLarge.code,
                                          f"{op} answer: {e.message}")
                resp_binary = b""
                # still too large only when the request's own id or op nearly was
                frame, json_bytes = _frame(response, resp_binary)
            self.accountant.record(op, json_bytes, len(resp_binary))
            _offer_to_taps(frame)
            conn.sendall(frame)
        except (ProtocolError, OSError):
            return False
        return True

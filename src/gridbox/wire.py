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

An answer may relay other answers: a response carrying ``"relayed": n``
is followed by ``n`` whole frames, written exactly as they arrived from
elsewhere, each with no binary section.  A node's QUERY answer relays its
peers' RQUERY answers so.  The node reads each of them by its length and
never decodes it (:func:`finish_relay`); :func:`receive` reads the frames
an answer announces, raw, before the connection goes back to the pool, and
the caller checks each one as an answer it read (:func:`read_relayed`).

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


def _read_length(sock: socket.socket) -> int | None:
    """The envelope length in the next frame's 4-byte header; None on clean
    EOF at a frame boundary."""
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
    return length


def _decode(payload: bytes) -> dict:
    """The envelope whose JSON text is ``payload``; ProtocolError unless it
    is an object."""
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        # RecursionError: arrays or objects nested deeper than the decoder goes
        raise ProtocolError(f"bad envelope: {e}") from e
    if not isinstance(envelope, dict):
        raise ProtocolError("envelope is not an object")
    return envelope


def _binary_len(envelope: dict) -> int:
    """``envelope``'s ``binary_len``, 0 when absent; ProtocolError unless it
    is a JSON integer (not ``true``) from 0 to MAX_BINARY."""
    binary_len = envelope.get("binary_len", 0)
    if type(binary_len) is not int or not 0 <= binary_len <= MAX_BINARY:
        raise ProtocolError(f"bad binary_len {binary_len!r}")
    return binary_len


def recv_frame(sock: socket.socket) -> tuple[dict, bytes, int] | None:
    """Read one frame: its envelope, its binary section and the length of
    the envelope as it came; None on clean EOF at a frame boundary."""
    length = _read_length(sock)
    if length is None:
        return None
    envelope = _decode(_recv_exact(sock, length))
    binary_len = _binary_len(envelope)
    binary = _recv_exact(sock, binary_len) if binary_len else b""
    return envelope, binary, length


def _recv_raw(sock: socket.socket) -> bytes:
    """The next frame exactly as it arrives, header included, read by its
    length and never decoded: a frame with no binary section."""
    length = _read_length(sock)
    if length is None:
        raise ProtocolError("peer closed the connection without answering")
    return struct.pack(">I", length) + _recv_exact(sock, length)


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


def _check_answer(response: dict, req_id: str) -> None:
    """ProtocolError unless ``response`` answers request ``req_id`` with a
    known status and has the shape `call` reads: ``result`` an object,
    ``warnings`` absent or a list of strings, and on an error envelope a
    string ``error_code`` and a string ``message`` in ``result`` when it has
    one."""
    if response.get("id") != req_id:
        raise ProtocolError("response id does not match request id")
    if response.get("status") not in ("ok", "error"):
        raise ProtocolError(f"bad response status {response.get('status')!r}")
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
    """A request written to a connection, whose answer `receive` reads, or
    `finish_relay` for an answer relayed unread."""

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


def receive(exchange: Exchange, relayed: list | None = None) -> tuple[dict, bytes]:
    """Read the answer to ``exchange``'s request: the raw response envelope
    and its binary section.  Error-status envelopes are returned, not raised
    (:func:`call` raises them).  An answer that announces relayed frames
    (``"relayed": n``, as a QUERY answer does) is followed by ``n`` frames,
    each read by its length and never decoded; they are appended to
    ``relayed`` when it is given, and dropped otherwise.

    The connection goes back to the pool only after an answer whose id,
    status and shape check out (:func:`_check_answer`) and whose announced
    frames were all read whole.  On any failure, an expired exchange's
    ``TimeoutError`` included, it is closed; a failure while reading the
    announced frames raises nothing, and ``relayed`` gets the frames read
    whole before it.  A request is written once: a failure after it is
    sent raises, and is never retried on another connection."""
    sock = exchange.sock
    try:
        if exchange.expired:
            raise TimeoutError("timed out")
        got = recv_frame(sock)
        if got is None:
            raise ProtocolError("peer closed the connection without answering")
        response, resp_binary, _ = got
        _check_answer(response, exchange.req_id)
        count = response.get("relayed", 0)
        if type(count) is not int or count < 0:
            raise ProtocolError(f"bad relayed count {count!r}")
    except BaseException:
        sock.close()
        raise
    frames = [] if relayed is None else relayed
    try:
        for _ in range(count):
            frames.append(_recv_raw(sock))
    except BaseException as e:
        sock.close()
        if not isinstance(e, (OSError, ProtocolError)):
            raise  # an OSError or ProtocolError leaves the frames read whole
    else:
        _checkin(exchange.key, sock)
    return response, resp_binary


def request(address: tuple[str, int], op: str, params: dict, *,
            token: str = "", binary: bytes = b"", req_id: str = "",
            timeout: float = 10.0, relayed: list | None = None) -> tuple[dict, bytes]:
    """One request/response exchange: :func:`send`, then :func:`receive`."""
    return receive(send(address, op, params, token=token, binary=binary,
                        req_id=req_id, timeout=timeout), relayed)


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


def _unreachable(unreachable: type[GridError], address: str, op: str,
                 error: Exception) -> GridError:
    return unreachable(f"{op} to {address}: {error}")


def host_port(key: tuple[str, int]) -> str:
    """``key`` as the ``host:port`` text that warnings and relay lists name."""
    return f"{key[0]}:{key[1]}"


def _outcome(response: dict, resp_binary: bytes) -> tuple[dict, list, bytes]:
    """``(result, warnings, binary)`` of an ok envelope; an error envelope
    raises the error the far side reported, under its own code."""
    if response["status"] == "error":
        raise error_from_code(response["error_code"],
                              response["result"].get("message", ""))
    return response["result"], response.get("warnings", []), resp_binary


def call(address: tuple[str, int], op: str, params: dict, *,
         unreachable: type[GridError], token: str = "", binary: bytes = b"",
         req_id: str = "", timeout: float = 10.0,
         relayed: list | None = None) -> tuple[dict, list, bytes]:
    """The one request path of clients and the registry client.

    Returns ``(result, warnings, binary)``; the frames the answer relays
    are appended to ``relayed`` when it is given (:func:`receive`).
    Failing to reach ``address`` or to get a well-formed answer raises
    ``unreachable``; an error envelope raises the error the far side
    reported, under its own code.
    """
    try:
        response, resp_binary = request(address, op, params, token=token,
                                        binary=binary, req_id=req_id,
                                        timeout=timeout, relayed=relayed)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, host_port(address), op, e) from e
    return _outcome(response, resp_binary)


def start_call(address: tuple[str, int], op: str, params: dict, *,
               unreachable: type[GridError], req_id: str = "",
               timeout: float = 10.0) -> Exchange:
    """The first half of :func:`call`, for a request with no token or binary:
    the request written, or ``unreachable``."""
    try:
        return send(address, op, params, req_id=req_id, timeout=timeout)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, host_port(address), op, e) from e


def finish_call(exchange: Exchange,
                unreachable: type[GridError]) -> tuple[dict, list, bytes]:
    """The second half of :func:`call`: the answer to a :func:`start_call`."""
    try:
        response, resp_binary = receive(exchange)
    except (OSError, ProtocolError) as e:
        raise _unreachable(unreachable, host_port(exchange.key), exchange.op, e) from e
    return _outcome(response, resp_binary)


def finish_relay(exchange: Exchange, unreachable: type[GridError]) -> bytes:
    """The other second half of :func:`start_call`, for an answer that is
    relayed unread: its frame exactly as it arrived, read by its length and
    never decoded, so neither its id nor its status is checked here
    (:func:`read_relayed` does so where it is read).  The answer must have
    no binary section.  The connection goes back to the pool once the frame
    is read whole; failing to read it raises ``unreachable``."""
    sock = exchange.sock
    try:
        if exchange.expired:
            raise TimeoutError("timed out")
        frame = _recv_raw(sock)
    except BaseException as e:
        sock.close()
        if isinstance(e, (OSError, ProtocolError)):
            raise _unreachable(unreachable, host_port(exchange.key), exchange.op, e) from e
        raise
    _checkin(exchange.key, sock)
    return frame


def read_relayed(frame: bytes | None, op: str, address: str, req_id: str,
                 unreachable: type[GridError]) -> tuple[dict, list, bytes]:
    """``(result, warnings, binary)`` of ``frame``, the answer to an ``op``
    request ``req_id`` that a node sent to ``address`` and relayed unread
    (:func:`finish_relay`), checked as :func:`receive` and :func:`call`
    check an answer they read: it decodes, its id, status and shape check
    out, and its ``binary_len`` is the integer 0, since a relayed frame
    carries no binary section.  A ``frame`` of None is one that was not
    relayed.  A failed check raises ``unreachable``, worded as :func:`call`
    words it; an error envelope raises the error the far side reported."""
    try:
        if frame is None:
            raise ProtocolError("the origin relayed no answer")
        response = _decode(frame[4:])
        if _binary_len(response) != 0:
            raise ProtocolError(f"a relayed answer has binary_len {response['binary_len']}, not 0")
        _check_answer(response, req_id)
    except ProtocolError as e:
        raise _unreachable(unreachable, address, op, e) from e
    return _outcome(response, b"")


def ok_response(req_id: str, result: dict, warnings: list | None = None) -> dict:
    return {"id": req_id, "status": "ok", "error_code": "",
            "result": result, "warnings": warnings or []}


def error_response(req_id: str, code: str, message: str) -> dict:
    return {"id": req_id, "status": "error", "error_code": code,
            "result": {"message": message}, "warnings": []}


def answer(envelope: dict, binary: bytes, serve) -> tuple[dict, bytes]:
    """The response to one request, the one answer path of every server
    handler.  ``serve(req_id, op, token, params, binary)`` returns
    ``(result, warnings, binary)``, or in place of the binary section the
    list of whole frames to relay after the answer (see `FramedServer`),
    which the response carries under ``relayed``.  A ``params`` that is not a JSON object
    is a ProtocolError before ``serve`` runs; a GridError answers under its
    own code, and any other exception is ``Internal``, with its traceback on
    stderr, since a handler must answer, not raise."""
    req_id = str(envelope.get("id", ""))
    params = envelope.get("params") or {}
    try:
        if not isinstance(params, dict):
            raise ProtocolError("params must be an object")
        result, warnings, body = serve(req_id, envelope.get("op"),
                                       str(envelope.get("token") or ""), params, binary)
        if type(body) is list:  # the frames a QUERY answer relays
            response = ok_response(req_id, result, warnings)
            return (dict(response, relayed=body) if body else response), b""
        return ok_response(req_id, result, warnings), body
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
    A response envelope may hold ``relayed``, a list of whole frames; the
    server writes the envelope with their count in its place, then the
    frames as they are, and books and offers to the capture taps each of
    them as a frame of the response's op, with no binary section.
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
        relayed = response.get("relayed") or []
        if relayed:
            response = dict(response, relayed=len(relayed))
        try:
            try:
                frame, json_bytes = _frame(response, resp_binary)
            except ProtocolError as e:  # the answer does not fit in a frame
                response = error_response(response.get("id", ""), AnswerTooLarge.code,
                                          f"{op} answer: {e.message}")
                resp_binary, relayed = b"", []
                # still too large only when the request's own id or op nearly was
                frame, json_bytes = _frame(response, resp_binary)
            self.accountant.record(op, json_bytes, len(resp_binary))
            _offer_to_taps(frame)
            for raw in relayed:
                self.accountant.record(op, len(raw) - 4, 0)
                _offer_to_taps(raw)
            conn.sendall(b"".join((frame, *relayed)))
        except (ProtocolError, OSError):
            return False
        return True

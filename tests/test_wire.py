import enum
import gc
import json
import socket
import struct
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbox import wire
from gridbox.errors import AnswerTooLarge, GridError, PeerUnreachable, ProtocolError
from gridbox.wire import (
    FramedServer,
    TrafficAccountant,
    add_capture_tap,
    answer,
    call,
    encode_envelope,
    error_response,
    gather,
    ok_response,
    read_relayed,
    receive,
    recv_frame,
    remove_capture_tap,
    request,
    send_frame,
)

keys = st.text(st.sampled_from("abcdefop_"), min_size=1, max_size=8)
scalars = st.one_of(
    st.integers(-10**9, 10**9),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
envelopes = st.dictionaries(keys.filter(lambda k: k != "binary_len"),
                            scalars, max_size=6)


@given(envelopes, st.binary(max_size=4096))
@settings(max_examples=50)
def test_frame_roundtrip(envelope, binary):
    a, b = socket.socketpair()
    try:
        send_frame(a, envelope, binary)
        got_env, got_bin, got_len = recv_frame(b)
    finally:
        a.close()
        b.close()
    assert got_env == {**envelope, "binary_len": len(binary)}
    assert got_bin == binary
    assert got_len == len(encode_envelope(got_env))


def test_envelope_bytes_are_canonical():
    one = encode_envelope({"b": 1, "a": 2})
    two = encode_envelope({"a": 2, "b": 1})
    assert one == two == b'{"a":2,"b":1}'


def reference_bytes(envelope) -> bytes:
    """The envelope bytes as the standard library writes them."""
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode("utf-8")


# text of any plane, surrogates included, with what JSON escapes made common
json_texts = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\x80\u2028\ud800\udfff'),
                               st.characters(exclude_categories=())), max_size=8)
plain_texts = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                    exclude_characters='"\\'), max_size=8)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_texts)
json_keys = st.one_of(json_texts, st.integers(), st.booleans(), st.none(), st.floats())
json_values = st.recursive(
    st.one_of(json_scalars,
              st.lists(plain_texts, min_size=2, max_size=6),  # a column to join
              st.lists(st.one_of(plain_texts, json_texts, st.none()), min_size=2, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_texts, inner, max_size=4),
                            st.dictionaries(json_keys, inner, max_size=3)),
    max_leaves=24)


@given(st.dictionaries(json_texts, json_values, max_size=5))
@settings(max_examples=400)
def test_envelope_bytes_are_those_of_json_dumps(envelope):
    try:
        expected = reference_bytes(envelope)
    except TypeError:  # keys of types that do not sort together
        with pytest.raises(TypeError):
            encode_envelope(envelope)
        return
    assert encode_envelope(envelope) == expected


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [True, False, 1, 0, -0, 2**70, -7, None, [], {}, "",
                                   [True, 1], [False, 0], [1, True], {"t": True, "o": 1},
                                   Level.LOW, [Level.LOW, 1], 1.0, [[]], [{}], ["x"]])
def test_a_bool_is_not_written_as_the_int_it_equals(value):
    """True == 1 and False == 0, and an IntEnum is an int: each is written
    as ``json.dumps`` writes it, alone, in a list and in a dict."""
    for envelope in ({"v": value}, {"v": [value, value]}, {"v": {"w": value}}):
        assert encode_envelope(envelope) == reference_bytes(envelope)


@pytest.fixture
def encoded(monkeypatch):
    """The values handed to the module's JSON encoder, in order."""
    seen = []
    real = wire._ENCODE

    def spy(o, level):
        seen.append(o)
        return real(o, level)

    monkeypatch.setattr(wire, "_ENCODE", spy)
    return seen


def answer_of(column):
    return ok_response("ab", {"query": "select images where true", "origin": ["CAM"],
                              "ids": column, "fields": {}})


def test_a_plain_column_is_joined_not_encoded(encoded):
    column = [f"CAM:image:{n:032x}" for n in range(3000)]
    envelope = answer_of(column)
    assert encode_envelope(envelope) == reference_bytes(envelope)
    assert encoded and not any(value is column for value in encoded)


@pytest.mark.parametrize("cell", [None, 'say "hi"', "back\\slash", "tab\t", "del\x7f",
                                  "caf\u00e9", "\ud800"])
def test_a_column_with_a_null_or_a_text_to_escape_is_encoded(encoded, cell):
    column = [f"CAM:image:{n:032x}" for n in range(3000)]
    column[1234] = cell
    envelope = answer_of(column)
    assert encode_envelope(envelope) == reference_bytes(envelope)
    assert any(value is column for value in encoded)


@pytest.mark.parametrize("envelope", [
    dict(ok_response("0123456789abcdef", {
        "file": {"id": "CAM:file:" + "a" * 32, "sha256": "b" * 64, "size": 1234},
        "image": "CAM:image:" + "c" * 32, "changed": True}), binary_len=0),
    {"id": "0123456789abcdef", "op": "RQUERY", "token": "", "binary_len": 0,
     "params": {"text": "select images where true", "hop": 1, "peer_site": "CAM",
                "peer_sig": "d" * 64}},
    answer_of(["CAM:image:" + "e" * 32]),
], ids=["add-answer", "rquery-request", "one-row-answer"])
def test_an_envelope_without_a_column_is_one_encoder_call(encoded, envelope):
    """An envelope that holds no list of two or more strings is not walked
    key by key: the encoder writes all of it at once."""
    assert encode_envelope(envelope) == reference_bytes(envelope)
    assert encoded == [envelope]


def test_clean_eof_returns_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert recv_frame(b) is None
    finally:
        b.close()


def test_eof_mid_header_is_an_error():
    a, b = socket.socketpair()
    a.sendall(b"\x00\x00")
    a.close()
    try:
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


def test_eof_mid_binary_is_an_error():
    a, b = socket.socketpair()
    payload = encode_envelope({"binary_len": 10})
    a.sendall(struct.pack(">I", len(payload)) + payload + b"abc")
    a.close()
    try:
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


@pytest.mark.parametrize("payload", [
    b"not json at all",
    b"[1,2,3]",
    b'{"binary_len":-1}',
    b'{"binary_len":"big"}',
    b'{"binary_len":' + str(64 * 1024 * 1024 + 1).encode() + b"}",
    b"\xff\xfe{}",
    pytest.param(b"[" * 100_000, id="nested-deeper-than-the-decoder-goes"),
    pytest.param(b'{"binary_len":true}', id="binary-len-true"),
])
def test_bad_envelopes_rejected(payload):
    a, b = socket.socketpair()
    a.sendall(struct.pack(">I", len(payload)) + payload)
    try:
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_a_request_nested_too_deep_closes_only_its_connection(monkeypatch):
    def echo(envelope, binary):
        return ok_response(envelope["id"], {"n": 1}), b""

    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    server = FramedServer("127.0.0.1", 0, echo)
    server.start()
    try:
        payload = b"[" * 100_000
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            assert sock.recv(1) == b""  # closed, with no answer
        deadline = time.monotonic() + 5
        while (any(t.name == f"conn-{server.address[1]}" for t in threading.enumerate())
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert died == []  # its thread ended without a traceback
        assert call(server.address, "PING", {}, unreachable=PeerUnreachable,
                    timeout=5)[0] == {"n": 1}
    finally:
        server.stop()


def test_oversized_length_header_rejected_before_read():
    a, b = socket.socketpair()
    a.sendall(struct.pack(">I", 9 * 1024 * 1024))
    try:
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_capture_tap_sees_exact_frame_bytes():
    seen = []
    add_capture_tap(seen.append)
    try:
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "X"}, b"\x00\x01")
            frame = b.recv(1 << 16)
        finally:
            a.close()
            b.close()
    finally:
        remove_capture_tap(seen.append)
    assert seen == [frame]
    assert seen[0].endswith(b"\x00\x01")
    # no further capture after removal
    a, b = socket.socketpair()
    send_frame(a, {"op": "Y"})
    a.close()
    b.close()
    assert len(seen) == 1


def test_accountant_counts_per_op():
    acct = TrafficAccountant()
    acct.record("QUERY", 100, 0)
    acct.record("QUERY", 50, 0)
    acct.record("ADD", 10, 2048)
    snap = acct.snapshot()
    assert snap["QUERY"] == {"frames": 2, "json_bytes": 150, "binary_bytes": 0}
    assert acct.binary_bytes("ADD") == 2048
    assert acct.binary_bytes("RETRIEVE") == 0
    assert list(snap) == sorted(snap)


def echo_handler(envelope, binary):
    return ok_response(envelope["id"], {"echo": envelope["params"]}), binary


def unanswered(req_id: str = "r1"):
    """An exchange over a socket pair whose answer is still to come, and the
    far end of the pair, which answers it."""
    near, far = socket.socketpair()
    return wire.Exchange(("local", 0), "RQUERY", req_id, near), far


def test_gather_yields_each_exchange_as_its_answer_arrives():
    (first, first_far), (second, second_far) = unanswered(), unanswered()
    try:
        waiting = gather({"first": first, "second": second}, time.monotonic() + 5)
        send_frame(second_far, ok_response("r1", {}))
        assert next(waiting) == ("second", second) and not second.expired
        send_frame(first_far, ok_response("r1", {}))
        assert next(waiting) == ("first", first) and not first.expired
        assert next(waiting, None) is None
    finally:
        for sock in (first.sock, first_far, second.sock, second_far):
            sock.close()


def test_gather_marks_the_silent_exchanges_expired_at_the_deadline():
    """The silent exchange comes last, expired, and `receive` closes its
    connection with a timeout; an answer that is ready before that is not
    held up by it."""
    (silent, silent_far), (ready, ready_far) = unanswered(), unanswered()
    send_frame(ready_far, ok_response("r1", {}))
    started = time.monotonic()
    try:
        got = list(gather({"silent": silent, "ready": ready}, started + 0.2))
        assert got == [("ready", ready), ("silent", silent)]
        assert silent.expired and not ready.expired
        assert 0.2 <= time.monotonic() - started < 2
        with pytest.raises(TimeoutError):
            receive(silent)
        assert silent.sock.fileno() == -1
    finally:
        for sock in (silent.sock, silent_far, ready.sock, ready_far):
            sock.close()


def test_gather_yields_an_answer_that_is_ready_after_its_deadline():
    """A deadline that passed while the caller was busy still lets the
    answers that arrived meanwhile be read."""
    exchange, far = unanswered()
    send_frame(far, ok_response("r1", {}))
    try:
        assert list(gather({"x": exchange}, time.monotonic() - 1)) == [("x", exchange)]
        assert not exchange.expired
    finally:
        exchange.sock.close()
        far.close()


def test_server_answers_requests():
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    try:
        response, binary = request(server.address, "PING", {"n": 7},
                                   binary=b"xyz", timeout=5)
    finally:
        server.stop()
    assert response["status"] == "ok"
    assert response["result"] == {"echo": {"n": 7}}
    assert binary == b"xyz"


def test_server_accountant_sees_both_directions():
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    try:
        request(server.address, "ADD", {}, binary=b"\x00" * 500, timeout=5)
    finally:
        server.stop()
    row = server.accountant.snapshot()["ADD"]
    assert row["frames"] == 2  # request + response
    assert row["binary_bytes"] == 1000  # payload echoed back


def test_accountant_counts_the_frames_on_the_wire():
    frames = []
    tap = frames.append
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    add_capture_tap(tap)
    try:
        request(server.address, "ADD", {"n": 1}, binary=b"\x00" * 300, timeout=5)
    finally:
        remove_capture_tap(tap)
        server.stop()
    assert len(frames) == 2  # the request and the echoed response
    envelopes = [struct.unpack(">I", frame[:4])[0] for frame in frames]
    assert server.accountant.snapshot()["ADD"] == {
        "frames": 2,
        "json_bytes": sum(envelopes),
        "binary_bytes": sum(len(f) - 4 - n for f, n in zip(frames, envelopes)),
    }


def test_many_requests_on_one_connection():
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5) as sock:
            for n in range(5):
                send_frame(sock, {"id": str(n), "op": "PING", "token": "",
                                  "params": {"n": n}})
                envelope, _, _ = recv_frame(sock)
                assert envelope["result"] == {"echo": {"n": n}}
    finally:
        server.stop()


def test_request_checks_response_id():
    def liar(envelope, binary):
        return ok_response("0000000000000000", {}), b""

    server = FramedServer("127.0.0.1", 0, liar)
    server.start()
    try:
        with pytest.raises(ProtocolError, match="id"):
            request(server.address, "PING", {}, timeout=5)
    finally:
        server.stop()


def test_request_rejects_silent_close():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def slam():
        conn, _ = listener.accept()
        recv_frame(conn)
        conn.close()

    t = threading.Thread(target=slam, daemon=True)
    t.start()
    try:
        with pytest.raises(ProtocolError):
            request(listener.getsockname(), "PING", {}, timeout=5)
    finally:
        t.join(timeout=5)
        listener.close()


def test_call_returns_result_warnings_and_binary():
    def answer(envelope, binary):
        return ok_response(envelope["id"], {"n": 1}, ["late"]), b"xyz"

    server = FramedServer("127.0.0.1", 0, answer)
    server.start()
    try:
        got = call(server.address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
    finally:
        server.stop()
    assert got == ({"n": 1}, ["late"], b"xyz")


def grid_errors(cls=GridError):
    yield cls
    for sub in cls.__subclasses__():
        yield from grid_errors(sub)


@pytest.mark.parametrize("code,raised", [(cls.code, cls) for cls in grid_errors()],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_call_raises_the_far_sides_own_error(code, raised):
    def refuse(envelope, binary):
        return error_response(envelope["id"], code, "no"), b""

    server = FramedServer("127.0.0.1", 0, refuse)
    server.start()
    try:
        with pytest.raises(raised) as info:
            call(server.address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
    finally:
        server.stop()
    assert type(info.value) is raised and info.value.code == code


MALFORMED_REPLIES = {
    "ok-without-result": lambda r: {k: v for k, v in r.items() if k != "result"},
    "ok-result-not-an-object": lambda r: dict(r, result=[1]),
    "error-result-a-list": lambda r: dict(r, status="error", error_code="NotFound",
                                          result=["no"]),
    "error-without-code": lambda r: {k: v for k, v in dict(r, status="error").items()
                                     if k != "error_code"},
    "error-message-not-a-string": lambda r: dict(r, status="error", error_code="NotFound",
                                                 result={"message": 5}),
    "warnings-a-number": lambda r: dict(r, warnings=5),
    "warnings-not-strings": lambda r: dict(r, warnings=["late", 1]),
}


@pytest.mark.parametrize("mangle", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES.keys())
def test_a_malformed_reply_raises_the_callers_class(mangle):
    def answer(envelope, binary):
        return mangle(ok_response(envelope["id"], {"n": 1}, ["late"])), b""

    server = FramedServer("127.0.0.1", 0, answer)
    server.start()
    try:
        with pytest.raises(PeerUnreachable, match="PING to 127.0.0.1"):
            call(server.address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
    finally:
        server.stop()


def test_call_maps_transport_failures_to_the_callers_class():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    address = listener.getsockname()
    listener.close()  # nothing listens here any more
    with pytest.raises(PeerUnreachable):
        call(address, "PING", {}, unreachable=PeerUnreachable, timeout=5)


def test_error_response_shape():
    resp = error_response("ab", "NotFound", "no such image")
    assert resp["status"] == "error"
    assert resp["error_code"] == "NotFound"
    assert resp["result"]["message"] == "no such image"


def test_concurrent_clients():
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    results = []
    lock = threading.Lock()

    def hit(n):
        response, _ = request(server.address, "PING", {"n": n}, timeout=5)
        with lock:
            results.append(response["result"]["echo"]["n"])

    threads = [threading.Thread(target=hit, args=(n,)) for n in range(12)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        server.stop()
    assert sorted(results) == list(range(12))


# --- pooled connections ------------------------------------------------------------

def idle_to(address) -> int:
    """How many idle pooled connections lead to ``address``."""
    with wire._idle_lock:
        return sum(key == tuple(address) for key, _ in wire._idle)


def drain_pool() -> None:
    with wire._idle_lock:
        idle = [sock for _, sock in wire._idle]
        wire._idle.clear()
    for sock in idle:
        sock.close()


@pytest.fixture
def dials(monkeypatch):
    """The addresses the test dialled, in order: from its own thread and
    the threads it starts.  Threads already running are left out; the
    pollers of a live session VO dial their registry at any moment."""
    seen = []
    real = socket.create_connection
    running = set(threading.enumerate()) - {threading.current_thread()}

    def counting(address, *args, **kwargs):
        if threading.current_thread() not in running:
            seen.append(tuple(address))
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return seen


def test_sequential_calls_dial_once(dials):
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    try:
        for n in range(5):
            got = call(server.address, "PING", {"n": n},
                       unreachable=PeerUnreachable, timeout=5)
            assert got[0] == {"echo": {"n": n}}
    finally:
        server.stop()
    assert dials == [server.address]


def lie_once(envelope, binary, first):
    if first:
        return ok_response("0000000000000000", {}), b""
    return echo_handler(envelope, binary)


def stall_once(envelope, binary, first):
    if first:
        time.sleep(0.5)
    return echo_handler(envelope, binary)


@pytest.mark.parametrize("misbehave", [lie_once, stall_once])
def test_a_failed_exchange_is_not_pooled(dials, misbehave):
    seen = []

    def handler(envelope, binary):
        seen.append(envelope["id"])
        return misbehave(envelope, binary, len(seen) == 1)

    server = FramedServer("127.0.0.1", 0, handler)
    server.start()
    try:
        with pytest.raises(PeerUnreachable):
            call(server.address, "PING", {}, unreachable=PeerUnreachable, timeout=0.2)
        assert idle_to(server.address) == 0
        got = call(server.address, "PING", {"n": 2}, unreachable=PeerUnreachable,
                   timeout=5)
    finally:
        server.stop()
    assert got[0] == {"echo": {"n": 2}}
    assert dials == [server.address] * 2
    assert len(seen) == 2


def test_a_silently_closed_exchange_is_not_pooled(dials):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    address = listener.getsockname()

    def slam_then_answer():
        conn, _ = listener.accept()
        recv_frame(conn)
        conn.close()
        conn, _ = listener.accept()
        with conn:
            envelope, _, _ = recv_frame(conn)
            send_frame(conn, ok_response(envelope["id"], {"n": 2}))
            recv_frame(conn)  # until the client lets go

    t = threading.Thread(target=slam_then_answer, daemon=True)
    t.start()
    try:
        with pytest.raises(PeerUnreachable):
            call(address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
        assert idle_to(address) == 0
        got = call(address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
    finally:
        drain_pool()
        t.join(timeout=5)
        listener.close()
    assert got[0] == {"n": 2}
    assert dials == [address] * 2


def whole_frame(envelope: dict) -> bytes:
    return wire._frame(envelope, b"")[0]


RELAYED = [whole_frame(ok_response("r1", {"n": 1})), whole_frame(ok_response("r2", {"n": 2}))]


def test_relayed_frames_follow_the_answer_as_they_are(dials):
    """A handler that relays frames has them written after its answer,
    byte for byte, each booked and offered to the taps as a frame of its
    own; the caller gets them raw and the connection is pooled."""
    def relay(envelope, binary):
        return answer(envelope, binary, lambda *args: ({"n": 0}, ["late"], list(RELAYED)))

    tapped = []
    server = FramedServer("127.0.0.1", 0, relay)
    server.start()
    add_capture_tap(tapped.append)
    try:
        frames = []
        got = call(server.address, "QUERY", {}, unreachable=PeerUnreachable, timeout=5,
                   relayed=frames)
        assert idle_to(server.address) == 1
        assert call(server.address, "QUERY", {}, unreachable=PeerUnreachable,
                    timeout=5) == got  # frames dropped, connection still in step
    finally:
        remove_capture_tap(tapped.append)
        server.stop()
    assert got == ({"n": 0}, ["late"], b"") and frames == RELAYED
    assert tapped[2:4] == RELAYED and tapped[6:8] == RELAYED
    assert json.loads(tapped[1][4:])["relayed"] == 2
    booked = server.accountant.snapshot()["QUERY"]
    assert booked["frames"] == 2 * (2 + len(RELAYED)) and booked["binary_bytes"] == 0
    assert dials == [server.address]


def answer_once(then: bytes = b"", **announced):
    """The address of a listener that answers one request with an ok
    envelope carrying the keys ``announced``, then sends ``then`` and
    closes, and the thread that does so."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                envelope, _, _ = recv_frame(conn)
                send_frame(conn, dict(ok_response(envelope["id"], {"n": 0}), **announced))
                conn.sendall(then)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return listener.getsockname(), t


def test_an_answer_cut_short_in_its_relayed_frames_is_not_pooled(dials):
    """An answer announces two frames and its connection closes halfway
    through the second: the caller gets the answer and the first frame,
    and the connection is closed, not pooled."""
    address, t = answer_once(RELAYED[0] + RELAYED[1][:7], relayed=2)
    frames = []
    try:
        got = call(address, "QUERY", {}, unreachable=PeerUnreachable, timeout=5,
                   relayed=frames)
        assert idle_to(address) == 0
    finally:
        t.join(timeout=5)
    assert got == ({"n": 0}, [], b"") and frames == RELAYED[:1]


@pytest.mark.parametrize("relayed", [-1, True, 1.0, "1"], ids=repr)
def test_a_bad_relayed_count_is_a_malformed_answer(dials, relayed):
    address, t = answer_once(relayed=relayed)
    try:
        with pytest.raises(PeerUnreachable, match="bad relayed count"):
            call(address, "QUERY", {}, unreachable=PeerUnreachable, timeout=5)
        assert idle_to(address) == 0
    finally:
        t.join(timeout=5)


def framed_payload(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


@pytest.mark.parametrize("frame, message", [
    (None, "the origin relayed no answer"),
    (framed_payload(b"not json"), "bad envelope"),
    (framed_payload(b"[" * 100_000), "bad envelope"),
    (framed_payload(b"[1]"), "envelope is not an object"),
    (whole_frame(ok_response("r2", {})), "response id does not match request id"),
    (whole_frame(dict(ok_response("r1", {}), status="maybe")), "bad response status"),
    (whole_frame(dict(ok_response("r1", {}), result=[])), "response result is a list"),
    (framed_payload(encode_envelope(dict(ok_response("r1", {}), binary_len=5))),
     "binary_len 5, not 0"),
    (framed_payload(encode_envelope(dict(ok_response("r1", {}), binary_len=True))),
     "bad binary_len True"),
], ids=["missing", "not-json", "too-deep", "not-an-object", "wrong-id", "bad-status",
        "result-a-list", "binary-len-5", "binary-len-true"])
def test_a_relayed_frame_is_checked_as_an_answer_read(frame, message):
    """A frame relayed unread gets, where it is read, the checks that
    `receive` makes of an answer, and it may have no binary section."""
    with pytest.raises(PeerUnreachable, match=f"^RQUERY to 10.0.0.1:7: .*{message}"):
        read_relayed(frame, "RQUERY", "10.0.0.1:7", "r1", PeerUnreachable)


def test_a_relayed_frame_reads_as_its_answer_or_its_error():
    assert read_relayed(RELAYED[0], "RQUERY", "10.0.0.1:7", "r1", PeerUnreachable) == \
        ({"n": 1}, [], b"")
    refusal = whole_frame(error_response("r1", "AuthFailed", "bad peer signature"))
    with pytest.raises(GridError, match="bad peer signature") as refused:
        read_relayed(refusal, "RQUERY", "10.0.0.1:7", "r1", PeerUnreachable)
    assert refused.value.code == "AuthFailed"


def test_a_connection_to_a_stopped_server_is_discarded(dials):
    asked = {"first": [], "second": []}

    def counting(name):
        def handler(envelope, binary):
            asked[name].append(envelope["id"])
            return echo_handler(envelope, binary)
        return handler

    first = FramedServer("127.0.0.1", 0, counting("first"))
    first.start()
    call(first.address, "PING", {}, unreachable=PeerUnreachable, timeout=5)
    first.stop()
    assert idle_to(first.address) == 1
    second = FramedServer("127.0.0.1", first.address[1], counting("second"))
    second.start()
    try:
        got = call(second.address, "PING", {"n": 2}, unreachable=PeerUnreachable,
                   req_id="feedfacefeedface", timeout=5)
    finally:
        second.stop()
    assert got[0] == {"echo": {"n": 2}}
    assert asked["second"] == ["feedfacefeedface"]
    assert len(asked["first"]) == 1
    assert dials == [first.address] * 2


def test_the_pool_holds_at_most_its_bound(dials, monkeypatch):
    monkeypatch.setattr(wire, "POOL_SIZE", 3)
    drain_pool()
    together = threading.Barrier(6, timeout=5)

    def wait_for_all(envelope, binary):
        together.wait()  # six requests in flight means six connections
        return echo_handler(envelope, binary)

    server = FramedServer("127.0.0.1", 0, wait_for_all)
    server.start()
    threads = [threading.Thread(target=call, args=(server.address, "PING", {}),
                                kwargs={"unreachable": PeerUnreachable, "timeout": 5})
               for _ in range(6)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(dials) == 6
        with wire._idle_lock:
            assert len(wire._idle) == 3
    finally:
        server.stop()
        drain_pool()


def sized_handler(envelope, binary):
    """An answer of ``n`` characters of result and ``n`` bytes of binary."""
    n = envelope["params"]["n"]
    return ok_response(envelope["id"], {"text": "x" * n}), b"\x00" * n


@pytest.mark.parametrize("limit,section", [("MAX_ENVELOPE", "envelope"),
                                           ("MAX_BINARY", "binary section")])
def test_an_answer_too_large_for_a_frame_is_answer_too_large(dials, monkeypatch,
                                                            limit, section):
    """The server answers an error naming the op and the size, and the
    connection that carried it is pooled and answers the next request."""
    monkeypatch.setattr(wire, limit, 1024)
    server = FramedServer("127.0.0.1", 0, sized_handler)
    server.start()
    try:
        with pytest.raises(AnswerTooLarge,
                           match=rf"^BIG answer: {section} too large \(\d+ bytes\)$"):
            call(server.address, "BIG", {"n": 2000}, unreachable=PeerUnreachable,
                 timeout=5)
        assert idle_to(server.address) == 1
        got = call(server.address, "SMALL", {"n": 10}, unreachable=PeerUnreachable,
                   timeout=5)
    finally:
        server.stop()
    assert got == ({"text": "x" * 10}, [], b"\x00" * 10)
    assert dials == [server.address]
    assert server.accountant.snapshot()["BIG"]["binary_bytes"] == 0


def test_a_refusal_too_large_for_a_frame_closes_the_connection(monkeypatch):
    """A request id that nearly fills a frame leaves no room for the error
    either: the server closes the connection, and its thread ends cleanly."""
    monkeypatch.setattr(wire, "MAX_ENVELOPE", 1024)
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    try:
        with pytest.raises(PeerUnreachable, match="without answering"):
            call(server.address, "PING", {}, unreachable=PeerUnreachable,
                 req_id="i" * 960, timeout=5)
    finally:
        server.stop()
    for thread in threading.enumerate():
        if thread.name == f"conn-{server.address[1]}":
            thread.join(timeout=5)
    assert raised == []


def test_stop_ends_open_connections():
    server = FramedServer("127.0.0.1", 0, echo_handler)
    server.start()
    with socket.create_connection(server.address, timeout=5) as sock:
        send_frame(sock, {"id": "1", "op": "PING", "token": "", "params": {}})
        assert recv_frame(sock)[0]["status"] == "ok"
        name = f"conn-{server.address[1]}"
        serving = [t for t in threading.enumerate() if t.name == name]
        assert len(serving) == 1
        time.sleep(0.05)  # until the thread waits for the next frame
        server.stop()
        assert sock.recv(1) == b""
    serving[0].join(timeout=5)
    assert not serving[0].is_alive()


class Answer(dict):
    """A result a weak reference can point at."""


def test_an_idle_connection_keeps_nothing_of_its_last_request():
    answers = []

    def handler(envelope, binary):
        answer = Answer(n=1)
        answers.append(weakref.ref(answer))
        return ok_response(envelope["id"], answer), b"\x00" * 1000

    server = FramedServer("127.0.0.1", 0, handler)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, {"id": "1", "op": "PING", "token": "", "params": {}},
                          b"\x01" * 1000)
            assert recv_frame(sock)[0]["result"] == {"n": 1}
            deadline = time.monotonic() + 5
            while answers[0]() is not None and time.monotonic() < deadline:
                gc.collect()  # the server thread may still be finishing its send
                time.sleep(0.01)
            assert answers[0]() is None
            serving = [t for t in threading.enumerate()
                       if t.name == f"conn-{server.address[1]}"]
            assert len(serving) == 1  # still waiting for the next request
    finally:
        server.stop()


def test_a_dial_drops_idle_connections_to_stopped_servers():
    """Servers stopped and replaced on new ports, with a request to each:
    the dial to each new server closes the idle connection to the last."""
    drain_pool()
    stopped = []
    server = None
    try:
        for n in range(10):
            if server is not None:
                server.stop()
                stopped.append(tuple(server.address))
            server = FramedServer("127.0.0.1", 0, echo_handler)
            server.start()
            call(server.address, "PING", {"n": n}, unreachable=PeerUnreachable,
                 timeout=5)
        assert sum(idle_to(address) for address in stopped) == 0
        assert idle_to(server.address) == 1
    finally:
        server.stop()
        drain_pool()


def test_threads_sharing_the_pool_never_share_a_connection(monkeypatch):
    monkeypatch.setattr(wire, "POOL_SIZE", 3)  # so that eviction runs too
    drain_pool()
    servers = [FramedServer("127.0.0.1", 0, echo_handler) for _ in range(2)]
    for server in servers:
        server.start()
    failures = []

    def hammer(worker):
        for n in range(40):
            address = servers[n % 2].address
            try:
                got = call(address, "PING", {"w": worker, "n": n},
                           unreachable=PeerUnreachable, timeout=5)
                assert got[0] == {"echo": {"w": worker, "n": n}}
            except Exception as e:  # one socket in two exchanges at once
                failures.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=hammer, args=(w,), daemon=True) for w in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        with wire._idle_lock:
            idle = [sock for _, sock in wire._idle]
        assert failures == []
        assert len(idle) <= 3 and len(set(idle)) == len(idle)
    finally:
        sys.setswitchinterval(interval)
        for server in servers:
            server.stop()
        drain_pool()

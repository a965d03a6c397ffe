import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbox.errors import NotFound, PeerUnreachable, ProtocolError
from gridbox.wire import (
    FramedServer,
    TrafficAccountant,
    add_capture_tap,
    call,
    encode_envelope,
    error_response,
    ok_response,
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


@pytest.mark.parametrize("code,raised", [("ProtocolError", ProtocolError),
                                         ("NotFound", NotFound)])
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

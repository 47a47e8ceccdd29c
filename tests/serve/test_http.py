"""End-to-end tests of the HTTP/JSON layer on an ephemeral port."""

import http.client
import io
import json
import logging
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import Session, make_server


@pytest.fixture()
def server():
    session = Session(32, scheduler="easy", alternatives=("cons",))
    http_server = make_server(session)  # port 0 -> ephemeral
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()


def call(server, method, path, body=None):
    port = server.server_address[1]
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = call(server, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_submit_advance_state_roundtrip(self, server):
        for i in range(10):
            status, payload = call(
                server,
                "POST",
                "/submit",
                {"runtime": 200, "procs": 4, "submit_time": float(i * 20)},
            )
            assert status == 200 and payload["job_id"] == i + 1
        status, payload = call(server, "POST", "/advance", {"to_time": 300.0})
        assert status == 200 and payload["clock"] == 300.0
        status, state = call(server, "GET", "/state")
        assert status == 200
        assert state["submitted"] == 10
        assert state["completed"] + state["running"] + state["queued"] == 10
        assert state["policies"] == ["easy", "cons"]

    def test_what_if_and_policy_targeting(self, server):
        for i in range(8):
            call(
                server,
                "POST",
                "/submit",
                {"runtime": 500, "procs": 8, "submit_time": float(i * 10)},
            )
        call(server, "POST", "/advance", {"to_time": 100.0})
        status, easy = call(
            server, "POST", "/what-if", {"job": {"runtime": 300, "procs": 16}}
        )
        assert status == 200
        assert easy["policy"] == "easy"
        assert easy["target"]["start_time"] >= 100.0
        assert "metrics" not in easy  # off by default
        status, cons = call(
            server,
            "POST",
            "/what-if",
            {"job": {"runtime": 300, "procs": 16}, "policy": "cons",
             "include_metrics": True},
        )
        assert status == 200 and cons["policy"] == "cons"
        assert "metrics" in cons

    def test_forecast(self, server):
        call(server, "POST", "/submit", {"runtime": 1000, "procs": 32})
        call(server, "POST", "/submit", {"runtime": 50, "procs": 8})
        status, forecast = call(server, "POST", "/forecast", {"horizon": 500.0})
        assert status == 200
        assert forecast["at_time"] == 500.0
        assert forecast["free_procs"] == 0  # the 32-wide job occupies all
        assert forecast["queued_ids"] == [2]

    def test_metrics_endpoint_serves_aggregates(self, server):
        call(server, "POST", "/submit", {"runtime": 10, "procs": 1})
        call(server, "POST", "/advance", {"to_time": 1000.0})
        status, payload = call(server, "GET", "/metrics")
        assert status == 200
        assert payload["overall"]["count"] == 1
        assert payload["overall"]["mean_wait"] == 0.0
        assert payload["record_count"] == 0  # bounded mode holds no rows
        assert sum(s["count"] for s in payload["by_category"].values()) == 1


class TestErrorMapping:
    def test_validation_errors_are_400(self, server):
        status, payload = call(
            server, "POST", "/submit", {"runtime": -5, "procs": 2}
        )
        assert status == 400 and "runtime" in payload["error"]
        status, _ = call(server, "POST", "/submit", {"procs": 2})
        assert status == 400
        call(server, "POST", "/advance", {"to_time": 100.0})
        status, payload = call(server, "POST", "/advance", {"to_time": 1.0})
        assert status == 400 and "non-decreasing" in payload["error"]
        status, _ = call(server, "POST", "/what-if", {"policy": "nope"})
        assert status == 400
        status, _ = call(server, "POST", "/forecast", {})
        assert status == 400

    def test_unknown_endpoint_is_404(self, server):
        status, _ = call(server, "GET", "/bogus")
        assert status == 404

    def test_malformed_json_is_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/submit",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestConcurrency:
    def test_parallel_what_ifs_agree_with_serial(self, server):
        for i in range(30):
            call(
                server,
                "POST",
                "/submit",
                {"runtime": 300 + i, "procs": 1 + i % 8,
                 "submit_time": float(i * 5)},
            )
        call(server, "POST", "/advance", {"to_time": 200.0})
        body = {"job": {"runtime": 123, "procs": 5}}
        reference = call(server, "POST", "/what-if", body)[1]
        results = [None] * 8

        def worker(index):
            results[index] = call(server, "POST", "/what-if", body)[1]

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert result == reference


# -- transport ------------------------------------------------------------------


class RecordingSocket:
    """An accepted socket that records every send the handler makes."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []

    def sendall(self, data, *args):
        self.sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.sends.append(bytes(data))
        return self._sock.send(data, *args)

    def makefile(self, mode="r", buffering=None, **kwargs):
        if "w" not in mode:
            return self._sock.makefile(mode, buffering, **kwargs)
        # The handler's writer, built over this wrapper so its writes
        # land in ``send`` above.
        raw = socket.SocketIO(self, "wb")
        return raw if buffering == 0 else io.BufferedWriter(raw)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def recorded(server):
    """The server with every accepted socket wrapped in a recorder."""
    accepted = []
    get_request = server.get_request

    def recording_get_request():
        sock, address = get_request()
        accepted.append(RecordingSocket(sock))
        return accepted[-1], address

    server.get_request = recording_get_request
    return server, accepted


def connect(server):
    return http.client.HTTPConnection(*server.server_address, timeout=10)


def exchange(conn, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; return everything the
    server sends back until it closes (or 5 s pass)."""
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestTransport:
    def test_each_reply_leaves_in_one_send_on_a_nodelay_socket(self, recorded):
        server, accepted = recorded
        conn = connect(server)
        try:
            for method, path, body in [
                ("GET", "/healthz", None),
                ("POST", "/submit", {"runtime": 100, "procs": 4}),
                ("POST", "/what-if", {"job": {"runtime": 50, "procs": 2}}),
                ("POST", "/advance", {"to_time": "soon"}),  # a 400 reply
                ("GET", "/metrics", None),
            ]:
                sends_before = len(accepted[0].sends) if accepted else 0
                status, payload = exchange(conn, method, path, body)
                (sock,) = accepted  # keep-alive: still the one connection
                assert len(sock.sends) == sends_before + 1
                reply = sock.sends[-1]
                assert reply.startswith(f"HTTP/1.1 {status} ".encode())
                assert reply.endswith(json.dumps(payload).encode())
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()

    def test_keep_alive_round_trips_take_milliseconds(self, server):
        conn = connect(server)
        try:
            for i in range(8):
                exchange(conn, "POST", "/submit", {"runtime": 400, "procs": 8})
            exchange(conn, "POST", "/advance", {"to_time": 10.0})
            sock = conn.sock
            samples = []
            for _ in range(20):
                started = time.perf_counter()
                status, _ = exchange(
                    conn, "POST", "/what-if", {"job": {"runtime": 60, "procs": 4}}
                )
                samples.append(time.perf_counter() - started)
                assert status == 200
            assert conn.sock is sock  # every request rode one connection
            # Two-segment replies wait ~40 ms each on the delayed ACK.
            assert statistics.median(samples) < 0.020
        finally:
            conn.close()

    def test_expect_100_continue_gets_its_interim_reply_first(self, server):
        body = json.dumps({"runtime": 10, "procs": 1}).encode()
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(
                b"POST /submit HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            interim = sock.recv(65536)  # the body has not been sent yet
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            final = b""
            while b"job_id" not in final:
                final += sock.recv(65536)
        assert final.startswith(b"HTTP/1.1 200 ")

    def test_stdlib_error_replies_still_go_out(self, server):
        reply = raw_exchange(server, b"PUT /submit HTTP/1.1\r\nHost: test\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 ")
        reply = raw_exchange(server, b"GET /healthz extra HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        reply = raw_exchange(server, b"GET /" + b"x" * 70000 + b" HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 414 ")

    def test_request_log_goes_to_the_module_logger(self, server, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.serve.http"):
            assert call(server, "GET", "/healthz")[0] == 200
        lines = [r.getMessage() for r in caplog.records if r.name == "repro.serve.http"]
        assert any('"GET /healthz HTTP/1.1" 200' in line for line in lines)


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "length, error",
        [
            (b"abc", b"Content-Length must be a non-negative integer"),
            (b"-1", b"Content-Length must be a non-negative integer"),
            (b"-5", b"Content-Length must be a non-negative integer"),
            (b"1.5", b"Content-Length must be a non-negative integer"),
            (b"\xb2", b"Content-Length must be a non-negative integer"),
            (b"99999999", b"request body too large"),
        ],
    )
    def test_bad_content_length_is_400_and_closes(self, server, length, error):
        started = time.perf_counter()
        reply = raw_exchange(
            server,
            b"POST /submit HTTP/1.1\r\nHost: test\r\nContent-Length: "
            + length
            + b"\r\n\r\n{}",
        )
        assert time.perf_counter() - started < 4  # replied, then closed
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert error in body

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/advance", {"to_time": "abc"}),
            ("/advance", {"to_time": True}),
            ("/advance", {"to_time": [1]}),
            ("/advance", {"dt": "5"}),
            ("/advance", {"dt": False}),
            ("/forecast", {"horizon": "5"}),
            ("/forecast", {"horizon": True}),
        ],
    )
    def test_non_numeric_fields_are_400(self, server, path, body):
        status, payload = call(server, "POST", path, body)
        assert status == 400 and "numeric" in payload["error"]

    def test_non_string_policy_is_400(self, server):
        status, payload = call(server, "POST", "/what-if", {"policy": ["easy"]})
        assert status == 400 and "unknown policy" in payload["error"]

    def test_connection_survives_a_json_level_400(self, server):
        conn = connect(server)
        try:
            sock = None
            for body, expected in [
                ({"to_time": "abc"}, 400),
                ({"to_time": 5.0}, 200),
                ({"dt": True}, 400),
                ({"dt": 1.0}, 200),
            ]:
                status, _ = exchange(conn, "POST", "/advance", body)
                assert status == expected
                sock = sock or conn.sock
                assert conn.sock is sock
        finally:
            conn.close()

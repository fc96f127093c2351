"""Open-loop latency is measured from due time, against a stub that stalls."""

import socket
import threading
import time

from driver import LoadDriver
from inputs import RequestSpec

BODY = b"ok"
RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n" + BODY


class StallingStub:
    """Answers every request at once, except request *stall_at*, which it
    holds for *stall* seconds."""

    def __init__(self, stall_at: int, stall: float):
        self.stall_at = stall_at
        self.stall = stall
        self.served = 0
        self.client = None
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(2)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            client, _ = self.listener.accept()
        except OSError:
            return
        self.client = client
        with client:
            pending = b""
            while True:
                try:
                    piece = client.recv(65536)
                except OSError:
                    return
                if not piece:
                    return
                pending += piece
                while b"\r\n\r\n" in pending:
                    _, _, pending = pending.partition(b"\r\n\r\n")
                    if self.served == self.stall_at:
                        time.sleep(self.stall)
                    self.served += 1
                    client.sendall(RESPONSE)

    def close(self):
        self.listener.close()
        if self.client is not None:
            try:
                self.client.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


def test_a_stall_shows_in_the_latency_of_the_requests_due_during_it():
    gap, stall, count, stall_at = 0.01, 0.2, 60, 20
    stub = StallingStub(stall_at, stall)
    try:
        stream = [RequestSpec(f"stub.example/r{i}", None, False) for i in range(count)]
        schedule = [gap * (i + 1) for i in range(count)]
        with LoadDriver(stub.port, [stream]) as driver:
            driver.warm_up()
            stub.served = 0
            result = driver.run_pass([schedule])
    finally:
        stub.close()
    assert result.completed == count
    latencies = [exchange.latency for exchange in result.exchanges]
    # About stall/gap requests fell due while the connection was held;
    # each carries its share of the stall although its own service was
    # instant.  Timing from send would show one slow request only.
    late = [value for value in latencies if value > 2 * gap]
    assert len(late) >= int(0.5 * stall / gap)
    assert latencies[stall_at] >= stall * 0.9
    assert latencies[stall_at + 5] >= stall - 7 * gap
    from_send = [x.latency - x.wait for x in result.exchanges]
    assert sum(1 for value in from_send if value > 2 * gap) <= 2
    # The connection being busy is waiting, not generator lateness.
    assert max(x.lag for x in result.exchanges) < stall / 2
    assert max(x.wait for x in result.exchanges) > stall / 2
    # Well before and well after the stall nothing is late.
    assert max(latencies[:stall_at]) < 2 * gap
    assert latencies[-1] < 2 * gap


def test_closed_loop_keeps_order_and_counts_transport_failures():
    stub = StallingStub(stall_at=-1, stall=0.0)
    stream = [RequestSpec(f"stub.example/r{i}", None, False) for i in range(10)]
    with LoadDriver(stub.port, [stream]) as driver:
        assert driver.warm_up().completed == 10
        stub.close()  # the next pass finds the peer gone
        result = driver.run_pass()
    assert [x.spec for x in result.exchanges] == stream
    assert result.completed < 10
    assert any(x.response is None for x in result.exchanges)

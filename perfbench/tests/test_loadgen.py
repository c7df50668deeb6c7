"""The open-loop generator against a stub server that stalls once.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import socket
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import loadgen  # noqa: E402

RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class StallingServer:
    """Answers every GET with "ok"; holds request number ``stall_at``
    (1-based) for ``stall`` seconds first."""

    def __init__(self, stall_at, stall):
        self.stall_at = stall_at
        self.stall = stall
        self.count = 0
        self.lsock = socket.socket()
        self.lsock.bind(("127.0.0.1", 0))
        self.lsock.listen(8)
        self.port = self.lsock.getsockname()[1]
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.lsock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn):
        buf = b""
        with conn:
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                _, buf = buf.split(b"\r\n\r\n", 1)
                self.count += 1
                if self.count == self.stall_at:
                    time.sleep(self.stall)
                conn.sendall(RESPONSE)

    def close(self):
        self.lsock.close()


class OpenLoopTest(unittest.TestCase):
    def test_stall_shows_in_later_latency_and_lag(self):
        server = StallingServer(stall_at=50, stall=0.3)
        try:
            # 200 requests, one every 5 ms: request 50 is due at 0.245 s.
            reqs = [loadgen.Request(i * 0.005, "/x", rid=i + 1)
                    for i in range(200)]
            st = loadgen.run("127.0.0.1", server.port, reqs)
        finally:
            server.close()
        self.assertTrue(all(r.ok for r in reqs))
        self.assertEqual(st.sent, 200)
        self.assertEqual(st.connects, 1)
        before, stalled, after = reqs[40], reqs[49], reqs[50]
        self.assertLess(before.latency, 0.1)
        self.assertLess(before.lag, 0.1)
        self.assertGreaterEqual(stalled.latency, 0.3)
        # The next request was due 5 ms later but could only go out
        # once the stall ended: it is late to send, and its latency
        # counts the wait from its due time.
        self.assertGreaterEqual(after.lag, 0.25)
        self.assertGreaterEqual(after.latency, 0.25)
        # None of that is the generator's own lateness: it sent each
        # request as soon as it was due and the connection was free.
        self.assertLess(after.own_lag, 0.05)
        self.assertLess(max(r.own_lag for r in reqs), 0.1)
        # Every request due during the stall waited for it.
        during = [r for r in reqs if 0.25 <= r.due < 0.5]
        self.assertTrue(all(r.latency >= 0.045 for r in during))
        # The backlog drains: the last requests are on time again.
        self.assertLess(reqs[-1].latency, 0.1)

    def test_schedule_is_seeded(self):
        a = loadgen.poisson_schedule(loadgen.seeded_rng(7, "x"), 1000, 1.0)
        b = loadgen.poisson_schedule(loadgen.seeded_rng(7, "x"), 1000, 1.0)
        c = loadgen.poisson_schedule(loadgen.seeded_rng(8, "x"), 1000, 1.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertTrue(800 < len(a) < 1200)
        self.assertTrue(all(0 <= t < 1.0 for t in a))


if __name__ == "__main__":
    unittest.main()

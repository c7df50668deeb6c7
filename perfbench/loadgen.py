"""An open-loop HTTP/1.1 load generator.

One process and one keep-alive connection (reopened when the server
closes it); requests are sent on a fixed schedule of due times
whatever the server does.  Each request is timed from its due time, so
a server stall shows up in the latency of every request that fell due
during it.  A request that is due while the connection is busy waits
in the generator: its ``lag`` (due to sent) counts that wait.  Its
``own_lag`` counts only the part after the connection came free, the
generator's own lateness; a high ``own_lag`` means the generator, not
the server, was the limit.

One connection carries at most one request per round trip, so rates
near ``1 / round trip`` measure the connection, not the server.
"""

import random
import selectors
import socket
import time

# Requests unanswered this long after the last due time fail.
GRACE = 30.0


class Request:
    """One scheduled request and, once run, what happened to it."""

    __slots__ = ("due", "path", "tag", "rid", "ready", "send", "done",
                 "status", "body", "headers", "error")

    def __init__(self, due, path, tag="", rid=0):
        self.due = due          # seconds after the run's origin
        self.path = path
        self.tag = tag
        self.rid = rid
        self.ready = None       # due and the connection free, same clock
        self.send = None        # when it went out
        self.done = None        # when the whole response was read
        self.status = None
        self.body = None
        self.headers = {}
        self.error = None

    @property
    def latency(self):
        return self.done - self.due

    @property
    def lag(self):
        return self.send - self.due

    @property
    def own_lag(self):
        return self.send - self.ready

    @property
    def rtt(self):
        return self.done - self.send

    @property
    def ok(self):
        return self.error is None and self.status == 200


def poisson_schedule(rng, rate, duration, start=0.0):
    """Due times of a Poisson arrival process of ``rate`` per second over
    ``[start, start + duration)``, drawn from ``rng``."""
    out = []
    t = start + rng.expovariate(rate)
    while t < start + duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def _parse(buf):
    """Split one complete response off ``buf``: (response, rest) or None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    headers = {}
    for line in head[1:]:
        k, _, v = line.partition(":")
        headers[k.strip().lower()] = v.strip()
    length = int(headers.get("content-length", "0"))
    total = end + 4 + length
    if len(buf) < total:
        return None
    return (status, headers, buf[end + 4:total]), buf[total:]


class _Conn:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class Stats:
    """What one ``run`` did besides the per-request records."""

    def __init__(self):
        self.connects = 0
        self.sent = 0


def run(host, port, requests, origin=None):
    """Send ``requests`` (sorted by due time) open-loop; fill each in.

    ``origin`` is the ``time.perf_counter()`` value due times count
    from (default: now).  Requests still unanswered ``GRACE`` seconds
    after the last due time fail with ``error = "timeout"``.  Returns a
    :class:`Stats`.
    """
    stats = Stats()
    if origin is None:
        origin = time.perf_counter()
    clock = lambda: time.perf_counter() - origin
    sel = selectors.DefaultSelector()
    conn = None             # the keep-alive connection, opened on demand
    inflight = None         # the request on it, if any
    free_at = 0.0           # when the connection last came free
    nxt = 0
    give_up = (requests[-1].due if requests else 0.0) + GRACE

    def finish(req, now, error=None, resp=None):
        nonlocal inflight, free_at
        req.done = now
        if error is not None:
            req.error = error
        else:
            req.status, req.headers, req.body = resp
        inflight = None
        free_at = now

    def drop():
        nonlocal conn
        if conn is not None:
            sel.unregister(conn.sock)
            conn.close()
            conn = None

    try:
        while nxt < len(requests) or inflight is not None:
            now = clock()
            if now > give_up:
                if inflight is not None:
                    finish(inflight, now, error="timeout")
                for req in requests[nxt:]:
                    finish(req, now, error="timeout")
                break
            if inflight is None and requests[nxt].due <= now:
                req = requests[nxt]
                nxt += 1
                try:
                    if conn is None:
                        conn = _Conn(host, port)
                        sel.register(conn.sock, selectors.EVENT_READ)
                        stats.connects += 1
                    req.send = clock()
                    req.ready = max(req.due, free_at)
                    conn.sock.sendall(("GET %s HTTP/1.1\r\nHost: %s\r\n\r\n"
                                       % (req.path, host)).encode())
                    stats.sent += 1
                except OSError as e:
                    if req.send is None:
                        req.send = req.ready = clock()
                    finish(req, clock(), error="send: %s" % e)
                    drop()
                    continue
                inflight = req
            if inflight is None:
                # Sleep until the next due time; the last two
                # milliseconds are polled, since the kernel rounds a
                # sleep's end up.
                wait = requests[nxt].due - clock()
                if wait > 0.002:
                    time.sleep(wait - 0.002)
                continue
            if not sel.select(0.05):
                continue
            req = inflight
            try:
                chunk = conn.sock.recv(65536)
            except OSError as e:
                finish(req, clock(), error="recv: %s" % e)
                drop()
                continue
            if not chunk:
                finish(req, clock(), error="connection closed")
                drop()
                continue
            conn.buf += chunk
            parsed = _parse(conn.buf)
            if parsed is None:
                continue
            resp, conn.buf = parsed
            finish(req, clock(), resp=resp)
            if resp[1].get("connection", "").lower() == "close":
                drop()
    finally:
        drop()
        sel.close()
    return stats


def get(host, port, paths):
    """Send ``paths`` back to back (all due at once, in order) and
    return ``(requests, stats)``."""
    reqs = [Request(0.0, p, rid=i + 1) for i, p in enumerate(paths)]
    stats = run(host, port, reqs)
    return reqs, stats


def seeded_rng(seed, label):
    """A ``random.Random`` for one named stream of a seeded run."""
    return random.Random("%s/%s" % (seed, label))

"""``padsc serve`` in its own process, and an open-loop load against it.

One load process (this one) drives at most ``nproc`` keep-alive
connections.  Requests are due at fixed intervals whatever the server
does, because the clients are independent: each request's latency runs
from when it was due, so a stall also charges the wait it imposes on
later requests.  How late the generator itself ran is reported apart.
"""

from __future__ import annotations

import base64
import gc
import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import Spans, summary

#: The latency limit a rate step must meet: its p99 (or the highest
#: percentile with ten samples beyond it) at or below this.
LIMIT_MS = 100.0
#: Ladder rungs are the base rate times RUNG ** k for k in RUNGS.
RUNG = 1.06
RUNGS = range(-12, 31)
#: Most steps the walk along the ladder takes.
WALK = 8
START_TIMEOUT_S = 30.0


@dataclass
class Reply:
    index: int
    due: float
    start: float
    done: float
    late: float
    status: int
    body: bytes


class Server:
    """One ``padsc serve --port 0`` process, started and registered."""

    def __init__(self, root: Path, formats, log: Path):
        self.root = root
        self.formats = formats
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.ids: Dict[str, str] = {}
        #: Set-up time by phase: process start until it listens,
        #: ``/healthz``, and registering each description.
        self.phases: Dict[str, float] = {}

    def start(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self._t0 = time.perf_counter()
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.padsc", "serve",
                 "--port", "0"],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            self._register()
        except BaseException:
            self.stop()
            raise
        return self

    def _phase(self, name: str) -> None:
        t1 = time.perf_counter()
        self.phases[name] = t1 - self._t0
        self._t0 = t1

    def _register(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"padsc serve did not start: {line!r}")
        self._phase("serve.start")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            status, _ = _call(conn, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            self._phase("serve.healthz")
            for fmt in self.formats:
                status, body = _call(conn, "POST", "/v1/descriptions",
                                     json.dumps({
                                         "source": fmt.source,
                                         "ambient": fmt.ambient,
                                         "records": fmt.records,
                                         "backend": "auto"}).encode())
                if status != 200:
                    raise RuntimeError(f"registering {fmt.name}: {body!r}")
                self.ids[fmt.name] = json.loads(body)["id"]
                self._phase(f"serve.register.{fmt.name}")
        finally:
            conn.close()

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` as a flat name -> value map (unlabelled series)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            _status, body = _call(conn, "GET", "/metrics")
        finally:
            conn.close()
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def _call(conn, method: str, path: str, body: bytes = b"",
          headers: Optional[dict] = None) -> Tuple[int, bytes]:
    conn.request(method, path, body=body or None,
                 headers={"Content-Type": "application/json",
                          **(headers or {})})
    resp = conn.getresponse()
    return resp.status, resp.read()


def request_body(server_id: str, fmt, data: bytes, mode: str) -> bytes:
    doc = {"id": server_id, "type": fmt.record_type, "mode": mode}
    if fmt.ambient == "binary":
        doc["data_b64"] = base64.b64encode(data).decode()
    else:
        doc["data"] = data.decode("latin-1")
    return json.dumps(doc).encode()


class Load:
    """Open-loop request stream over ``conns`` keep-alive connections."""

    def __init__(self, port: int, requests: List[Tuple[bytes, str]],
                 conns: int, spans: Spans):
        self.requests = requests  # (body, tenant), cycled in order
        self.conns = [http.client.HTTPConnection("127.0.0.1", port,
                                                 timeout=60)
                      for _ in range(conns)]
        self.spans = spans
        self.offset = 0

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def warm(self) -> None:
        """Open every connection and send each distinct request once,
        unmeasured: the first-call costs a fresh server pays."""
        bodies = dict.fromkeys(body for body, _tenant in self.requests)
        for i, body in enumerate(bodies):
            _call(self.conns[i % len(self.conns)], "POST", "/v1/parse", body)

    def step(self, rate: float, seconds: float, name: str) -> dict:
        """Requests due every 1/rate seconds for ``seconds``."""
        n = max(1, int(rate * seconds))
        first = self.offset
        self.offset += n
        lock = threading.Lock()
        cursor = [0]
        replies: List[Reply] = []
        self.spans.open(name, "bench")
        parent = self.spans.current()
        t0 = time.perf_counter() + 0.01

        def drive(conn):
            free = t0
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= n:
                    return
                due = t0 + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = time.perf_counter()
                body, tenant = self.requests[(first + i) % len(self.requests)]
                try:
                    status, payload = _call(conn, "POST", "/v1/parse", body,
                                            {"X-Tenant": tenant})
                except (OSError, http.client.HTTPException) as exc:
                    status, payload = 0, repr(exc).encode()
                    conn.close()
                done = time.perf_counter()
                replies.append(Reply(first + i, due, start, done,
                                     start - max(due, free), status, payload))
                self.spans.add("POST /v1/parse", "repro.serve", start, done,
                               parent, rid=first + i)
                free = done

        threads = [threading.Thread(target=drive, args=(conn,))
                   for conn in self.conns]
        # A collection in this process would stall the generator, and a
        # stall here reads as server latency; the step allocates little.
        gc.disable()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            gc.enable()
        self.spans.close()
        end = t0 + n / rate

        def outstanding(at):
            return sum(1 for r in replies if r.due <= at < r.done)

        # The backlog grows when more is outstanding at the end than the
        # service could clear within the latency limit.
        backlog = outstanding(end)
        return _verdict({"rate": rate, "n": n, "replies": replies,
                         "elapsed": max(r.done for r in replies) - t0,
                         "backlog": backlog,
                         "grows": backlog > rate * LIMIT_MS / 1e3})


def _verdict(step: dict) -> dict:
    """Latency summary and pass/fail for a step; a failed request misses
    the limit."""
    replies = step["replies"]
    step["latency_ms"] = [(r.done - r.due) * 1e3 if r.status == 200
                          else float("inf") for r in replies]
    step["late_ms"] = [r.late * 1e3 for r in replies]
    step["latency"] = summary(step["latency_ms"], "lower")
    step["achieved_rps"] = step["n"] / step["elapsed"]
    step["ok"] = step["latency"]["tail"] <= LIMIT_MS and not step["grows"]
    return step


def pooled(steps: List[dict]) -> dict:
    """Steps at one rate taken as one step."""
    return _verdict({"rate": steps[0]["rate"], "n": sum(s["n"] for s in steps),
                     "replies": [r for s in steps for r in s["replies"]],
                     "elapsed": sum(s["elapsed"] for s in steps),
                     "backlog": max(s["backlog"] for s in steps),
                     "grows": any(s["grows"] for s in steps)})


def ladder(load: Load, base: float, base_s: float, windows: int,
           probe_s: float):
    """Latency at the base rate, then the highest passing rung of the
    fixed ladder.  A generator: it yields after each step so the caller
    can interleave other work, and returns the result.

    The base rate runs as ``windows`` steps pooled together.  Then one
    step offered at the top rung overloads the service; what it completes
    per second places the walk, which starts at the highest rung below
    85% of that, gallops up (or down) by 1, 2, 4 rungs until a passing
    rung sits below a failing one, then bisects between them.  A rung
    that fails is run once more before it counts as failed: the machine
    this was tuned on runs up to 1.6x slower for seconds at a time when
    its neighbours are busy, and one slow spell should not set the
    figure."""
    windows_run = []
    for w in range(windows):
        windows_run.append(load.step(base, base_s / windows, f"base{w}"))
        yield
    flood = load.step(base * RUNG ** RUNGS[-1], probe_s, "flood")
    steps = [pooled(windows_run), flood]
    yield
    ceiling = 0.85 * flood["achieved_rps"]
    k = max((k for k in RUNGS if base * RUNG ** k <= ceiling),
            default=RUNGS[0])
    passed = {0: steps[0]} if steps[0]["ok"] else {}
    lo, hi = max(passed, default=RUNGS[0] - 1), RUNGS.stop
    stride, walked_pass, walked_fail = 1, False, False
    retried = set()
    for _ in range(WALK):
        step = load.step(base * RUNG ** k, probe_s, f"rung{k}")
        steps.append(step)
        yield
        if not step["ok"] and k not in retried:
            retried.add(k)
            continue
        if step["ok"]:
            passed[k] = step
            lo, walked_pass = max(lo, k), True
        else:
            hi, walked_fail = min(hi, k), True
        if hi - lo <= 1:
            break
        if walked_pass and walked_fail:
            k = (lo + hi) // 2
        elif step["ok"]:
            k = min(k + stride, hi - 1)
        else:
            k = max(k - stride, lo + 1)
        stride *= 2
    top = passed.get(lo)
    return {"base": steps[0], "windows": windows_run, "steps": steps,
            "top": top or steps[0],
            "max_rps": top["achieved_rps"] if top else
            min(s["achieved_rps"] for s in steps)}

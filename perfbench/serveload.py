"""Closed-loop HTTP load against one ``repro serve --jobs 2`` process.

Usage: ``python perfbench/serveload.py SPEC.json``.  The server is this
process's only child, so its peak memory (and its forked workers') is this
process's ``RUSAGE_CHILDREN`` peak.  Nothing here imports the program:
the clients see it only through HTTP.

Each of the two clients runs rounds of three steps: a private cold job, a
job both clients submit at the same moment (so the admission window dedups
it), and a resubmission of a job it already finished (a hot-tier hit).  A
barrier starts every step of a round on both clients at once, so each
step's jobs share one admission window.  A job is waited for on its
``/events`` stream, then its status document is fetched.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import SERVE_CLIENTS, canonical  # noqa: E402

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


def start_server(argv: list[str], env: dict[str, str], stderr: Any) -> tuple[subprocess.Popen, int]:
    """Start a server and return it with its port once it listens."""
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=stderr, env=env, text=True
    )
    port: list[int] = []

    def read_ready() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            if "listening on http://" in line:
                port.append(int(line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1]))
                break
        # Keep draining so the server never blocks on a full pipe.
        for _line in process.stdout:
            pass

    reader = threading.Thread(target=read_ready, daemon=True)
    reader.start()
    deadline = time.monotonic() + READY_TIMEOUT_S
    while not port and time.monotonic() < deadline and process.poll() is None:
        time.sleep(0.005)
    if not port:
        stop_server(process)
        raise RuntimeError("the server did not report a listening port")
    return process, port[0]


def stop_server(process: subprocess.Popen) -> int:
    """Drain the server with SIGTERM and wait for it to exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode


class Client:
    """One HTTP client of the service (one connection per request)."""

    def __init__(self, port: int, name: str) -> None:
        self.port = port
        self.name = name

    def _request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"X-Client": self.name}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict[str, Any]:
        status, body = self._request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def run(self, job: dict[str, Any]) -> dict[str, Any]:
        """Submit one job and wait for its terminal status document."""
        issued = time.perf_counter()
        status, body = self._request("POST", "/v1/jobs", canonical(job).encode("utf-8"))
        if status != 202:
            return {"error": f"HTTP {status}", "status_code": status}
        admitted = time.perf_counter()
        accepted = json.loads(body)
        job_id = accepted["id"]
        running_at = None
        if accepted.get("status") != "done":
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                connection.request("GET", f"/v1/jobs/{job_id}/events", headers={"X-Client": self.name})
                response = connection.getresponse()
                if response.status != 200:
                    return {"error": f"HTTP {response.status}", "status_code": response.status}
                for line in response:
                    if running_at is None and line.startswith(b"running"):
                        running_at = time.perf_counter()
            finally:
                connection.close()
        status, body = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            return {"error": f"HTTP {status}", "status_code": status}
        document = json.loads(body)
        done = time.perf_counter()
        if document.get("status") != "done":
            return {"error": f"job {document.get('status')}: {document.get('error')}"}
        text = json.dumps(document["result"], sort_keys=True)
        return {
            "latency_s": done - issued,
            "queue_wait_s": (running_at - admitted) if running_at is not None else 0.0,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "hot": bool(document.get("hot")),
            "execution": (document.get("run") or {}).get("execution") or {},
        }


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of a process plus its reaped children (from /proc)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def run_clients(
    spec: dict[str, Any], port: int, server_pid: int
) -> tuple[list[list[dict[str, Any]]], list[dict[str, float]], float]:
    """Drive the rounds with the clients until the stop rule holds.

    Returns the per-client job records, per block of rounds its jobs, wall
    and server CPU time, and the wall time of the whole phase.
    """
    rounds = spec["rounds"]
    max_rounds = spec.get("max_rounds")
    clients = [Client(port, f"client{index}") for index in range(SERVE_CLIENTS)]
    records: list[list[dict[str, Any]]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients), timeout=REQUEST_TIMEOUT_S)
    stop = threading.Event()
    blocks: list[dict[str, float]] = []
    start = time.perf_counter()
    mark = [start, _proc_cpu_s(server_pid), 0]

    def record(client: int, kind: str, job: dict[str, Any]) -> None:
        try:
            outcome = clients[client].run(job)
        except (OSError, http.client.HTTPException, ValueError) as error:
            outcome = {"error": f"{type(error).__name__}: {error}"}
        outcome.update(kind=kind, job=canonical(job))
        records[client].append(outcome)

    def drive(client: int) -> None:
        for index, round_ in enumerate(rounds):
            record(client, "private", round_["private"][client])
            barrier.wait()
            record(client, "shared", round_["shared"])
            barrier.wait()
            earlier = round_["resubmit"][client]
            again = rounds[earlier]["private"][client] if earlier >= 0 else round_["shared"]
            record(client, "resubmit", again)
            barrier.wait()
            if client == 0 and (index + 1) % spec["block_rounds"] == 0:
                # Only whole blocks of rounds, so every run has one mix.
                now, cpu = time.perf_counter(), _proc_cpu_s(server_pid)
                samples = sum(len(r) for r in records)
                blocks.append(
                    {"jobs": samples - mark[2], "wall_s": now - mark[0], "cpu_s": cpu - mark[1]}
                )
                mark[:] = [now, cpu, samples]
                if max_rounds is not None:
                    if index + 1 >= max_rounds:
                        stop.set()
                elif now - start >= spec["seconds"] and samples >= spec["min_samples"]:
                    stop.set()
            barrier.wait()
            if stop.is_set():
                return

    threads = [threading.Thread(target=drive, args=(index,)) for index in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, blocks, time.perf_counter() - start


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    env = dict(os.environ)
    with open(spec["stderr"], "w", encoding="utf-8") as stderr:
        launch = time.time()
        server, port = start_server(spec["argv"], env, stderr)
        try:
            warm = Client(port, "warmup").run(spec["warmup"])
            if "error" in warm:
                raise RuntimeError(f"warm-up job failed: {warm['error']}")
            setup_s = time.time() - launch
            stats_before = Client(port, "stats").stats()
            records, blocks, wall = run_clients(spec, port, server.pid)
            stats_after = Client(port, "stats").stats()
        finally:
            code = stop_server(server)
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "blocks": blocks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "records": [entry for client in records for entry in client],
        "rounds": len(records[0]) // 3,
        "stats_before": stats_before,
        "stats_after": stats_after,
        "server_exit": code,
    }
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

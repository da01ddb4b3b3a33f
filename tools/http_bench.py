"""HttpWebStore connection-pooling micro-benchmark (round 5).

Measures real-network GET throughput against a localhost server in two
modes over identical request streams:

- keep-alive (HTTP/1.1): the pooled path — one persistent connection per
  host per actor (the round-5 fix; urllib used to open a TCP connection
  per GET, which is exactly what the HTTP/1.0 leg forces below);
- close-per-response (HTTP/1.0): the old per-GET-connection cost model.

Also measures the host-sharded parallel batch path (auto max_workers)
across 8 simulated hosts (8 localhost servers).  Prints one JSON line.

Usage: python tools/http_bench.py [--n 2000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BODY = json.dumps([{"kind": "p", "text": "x" * 256, "media_ref": "",
                    "offset": 0}] * 8).encode()


def make_server(protocol: str, latency_s: float = 0.0):
    class H(BaseHTTPRequestHandler):
        protocol_version = protocol
        disable_nagle_algorithm = True   # see note below

        def do_GET(self):
            if latency_s:
                time.sleep(latency_s)    # simulated network RTT
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(BODY)))
            self.end_headers()
            self.wfile.write(BODY)

        def log_message(self, *a):
            pass

    # disable_nagle_algorithm on the HANDLER measures the CLIENT:
    # BaseHTTPRequestHandler writes status/headers as separate tiny
    # unbuffered sends, and on a persistent connection server-side Nagle +
    # client delayed-ACK serializes that at ~40 ms per response (~23
    # GETs/s measured) — a toy-server artifact real servers don't have
    # (they buffer responses and set TCP_NODELAY)
    srv = ThreadingHTTPServer(("127.0.0.1", 0), H)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


def run_sequential(protocol: str, n: int) -> float:
    from upton_ray.fetch import HttpWebStore

    srv = make_server(protocol)
    try:
        base = f"http://127.0.0.1:{srv.server_port}"
        store = HttpWebStore(cache_pages=8)      # tiny LRU: every GET real
        t0 = time.time()
        for i in range(n):
            assert store.lookup_one(f"{base}/p{i}.html") is not None
        dt = time.time() - t0
        assert store.n_requests == n
        return n / dt
    finally:
        srv.shutdown()


def _server_proc(q, latency_s: float = 0.0):
    srv = make_server("HTTP/1.1", latency_s)
    q.put(srv.server_port)
    srv.serve_forever()


def run_sharded(n_hosts: int, per_host: int,
                latency_s: float = 0.0) -> float:
    """Servers run in SUBPROCESSES: in-process servers share the client's
    GIL and understate the parallel path by ~4x."""
    import multiprocessing as mp

    from upton_ray.fetch import HttpWebStore

    ctx = mp.get_context("fork")
    q = ctx.Queue()
    procs = [ctx.Process(target=_server_proc, args=(q, latency_s),
                         daemon=True)
             for _ in range(n_hosts)]
    for p in procs:
        p.start()
    ports = [q.get() for _ in procs]
    try:
        urls = [f"http://127.0.0.1:{port}/p{i}.html"
                for i in range(per_host) for port in ports]
        store = HttpWebStore(cache_pages=16)     # auto workers
        t0 = time.time()
        tab = store.lookup_table(urls)
        dt = time.time() - t0
        assert len(tab) == len(urls)
        return len(urls) / dt
    finally:
        for p in procs:
            p.terminate()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    args = ap.parse_args()
    pooled = run_sequential("HTTP/1.1", args.n)
    per_conn = run_sequential("HTTP/1.0", args.n)
    sharded = run_sharded(8, max(1, args.n // 8))
    # RTT-bound legs: host-sharded threading exists to hide network
    # latency (real crawls are RTT-dominated); localhost sub-ms RTT is
    # parse-bound, where one sequential thread wins — both regimes
    # measured so the default is evidence, not a guess.
    lat_seq = run_sharded(1, 200, latency_s=0.02)
    lat_shard = run_sharded(8, 25, latency_s=0.02)
    print(json.dumps({
        "n": args.n,
        "pooled_keepalive_gets_per_sec": round(pooled, 1),
        "conn_per_get_gets_per_sec": round(per_conn, 1),
        "pooling_speedup": round(pooled / per_conn, 2),
        "host_sharded_8hosts_gets_per_sec": round(sharded, 1),
        "sharding_speedup_vs_pooled": round(sharded / pooled, 2),
        "rtt20ms_1host_gets_per_sec": round(lat_seq, 1),
        "rtt20ms_8host_sharded_gets_per_sec": round(lat_shard, 1),
        "rtt_sharding_speedup": round(lat_shard / lat_seq, 2),
    }))


if __name__ == "__main__":
    main()

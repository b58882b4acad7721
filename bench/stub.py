"""Loopback chat-completion stub that answers with the oracle policy.

Run as ``python3 bench/stub.py --oracle oracle.json``. It binds an ephemeral
port on 127.0.0.1, prints ``PORT <n>`` on stdout, and serves until it is
terminated:

* ``POST /`` -- a chat completion. The reply comes from :mod:`oracle`; the
  handler first sleeps ``SLEEP_BASE_S + SLEEP_PER_KCHAR_S`` per 1,000 prompt
  characters, a stand-in for model latency that grows with prompt size.
* ``GET /stats`` -- the per-question call meter as JSON, then resets it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import Meter, Oracle, OracleError, modelled_sleep_s  # noqa: E402


def make_handler(oracle: Oracle, meter: Meter):
    class Handler(BaseHTTPRequestHandler):
        # keep connections open like a real model server, so a client that
        # reuses them gains; reply without waiting on delayed ACKs
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, *args):  # keep the benchmark's stdout clean
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, meter.drain())

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            try:
                messages = json.loads(self.rfile.read(length))["messages"]
                system, body = messages[0]["content"], messages[1]["content"]
                reply = oracle.reply(system, body)
            except (OracleError, KeyError, IndexError, ValueError) as exc:
                meter.error(str(exc))
                self._send(400, {"error": str(exc)})
                return
            chars = len(system) + len(body)
            time.sleep(modelled_sleep_s(chars))
            meter.record(reply, chars)
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": reply.text}}]})

    return Handler


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--oracle", required=True, help="oracle.json written by gen.py")
    args = ap.parse_args(argv)
    with open(args.oracle, encoding="utf-8") as fh:
        oracle = Oracle(json.load(fh))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(oracle, Meter()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

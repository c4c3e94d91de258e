"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``serve`` — run the kernel-as-a-service daemon (:mod:`repro.service`)
  on an ``AF_UNIX`` socket (default) or a localhost TCP port, until a
  client sends ``shutdown`` or the process receives SIGINT.
* ``stats`` — scrape a running daemon's stats endpoint and print the
  JSON document (latency percentiles, warm-hit rate, admission counters,
  per-tenant launch counts, cache hits, resilience-log counts).
* ``shutdown`` — ask a running daemon to stop.

Examples::

    python -m repro serve --socket /tmp/repro.sock --engine compiled &
    python -m repro stats --socket /tmp/repro.sock
    python -m repro shutdown --socket /tmp/repro.sock
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence


def _address(args: argparse.Namespace):
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        return (host or "127.0.0.1", int(port))
    return args.socket


def _add_address_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default="/tmp/repro-serve.sock",
                        help="AF_UNIX socket path (default %(default)s)")
    parser.add_argument("--tcp", default=None, metavar="[HOST:]PORT",
                        help="listen/connect on TCP instead of the unix socket")


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .service.admission import (DEFAULT_MAX_INFLIGHT, DEFAULT_QUEUE_DEPTH,
                                    DEFAULT_QUEUE_TIMEOUT_S)

    parser = argparse.ArgumentParser(
        prog="repro", description="repro command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the kernel-as-a-service daemon")
    _add_address_flags(serve)
    serve.add_argument("--engine", default=None,
                       help="default execution engine (requests may override; "
                            "default: process default / REPRO_ENGINE)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes in the multicore engine's pool")
    serve.add_argument("--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
                       help="concurrent request cap")
    serve.add_argument("--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
                       help="bounded wait queue depth")
    serve.add_argument("--queue-timeout", type=float, default=DEFAULT_QUEUE_TIMEOUT_S,
                       help="seconds a queued request may wait")

    for name, help_text in (("stats", "print a running daemon's stats JSON"),
                            ("shutdown", "stop a running daemon")):
        command = commands.add_parser(name, help=help_text)
        _add_address_flags(command)

    args = parser.parse_args(argv)

    if args.command == "serve":
        from .service import KernelServer

        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            server = KernelServer(host=host or "127.0.0.1", port=int(port),
                                  engine=args.engine, workers=args.workers,
                                  max_inflight=args.max_inflight,
                                  queue_depth=args.queue_depth,
                                  queue_timeout_s=args.queue_timeout)
        else:
            server = KernelServer(socket_path=args.socket,
                                  engine=args.engine, workers=args.workers,
                                  max_inflight=args.max_inflight,
                                  queue_depth=args.queue_depth,
                                  queue_timeout_s=args.queue_timeout)
        print(f"repro serve: listening on {server.address}", flush=True)
        server.serve_forever()
        return 0

    from .service import ServiceClient

    with ServiceClient(_address(args)) as client:
        if args.command == "stats":
            json.dump(client.stats(), sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            client.shutdown()
            print("repro serve: shutdown requested")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

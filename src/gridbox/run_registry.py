"""Run a VO registry process: ``python -m gridbox.run_registry CONFIG``."""

from __future__ import annotations

import argparse
import signal
import threading
from pathlib import Path

from gridbox.config import RegistryConfig
from gridbox.registry import VoRegistry


def announce(path: str | None, text: str) -> None:
    """Atomically publish a ready-file for harnesses that wait on startup."""
    if path is None:
        return
    target = Path(path)
    tmp = target.with_suffix(".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    tmp.replace(target)


def serve(server, name: str, announce_path: str | None, prefix: str = "") -> int:
    """Start ``server`` (a node or the registry), announce ``prefix`` plus its
    ``host:port``, print that ``name`` listens there, and stop it on SIGTERM
    or Ctrl-C."""
    server.start()
    host, port = server.address
    announce(announce_path, f"{prefix}{host}:{port}")
    print(f"{name} listening on {host}:{port}", flush=True)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gridbox VO registry")
    parser.add_argument("config", help="registry config file (key = value lines)")
    parser.add_argument("--announce", default=None,
                        help="write host:port to this file once serving")
    args = parser.parse_args(argv)
    return serve(VoRegistry(RegistryConfig.from_file(args.config)), "registry",
                 args.announce)


if __name__ == "__main__":
    raise SystemExit(main())

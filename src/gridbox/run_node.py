"""Run a site node process: ``python -m gridbox.run_node CONFIG``."""

from __future__ import annotations

import argparse

from gridbox.config import NodeConfig
from gridbox.node import GridNode
from gridbox.run_registry import serve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gridbox site node")
    parser.add_argument("config", help="node config file (key = value lines)")
    parser.add_argument("--announce", default=None,
                        help="write 'SITE host:port' to this file once registered")
    args = parser.parse_args(argv)
    node = GridNode(NodeConfig.from_file(args.config))
    return serve(node, f"node {node.site}", args.announce, f"{node.site} ")


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line workstation client and VO harness.

Every error class has its own exit code so scripts can branch on failures::

    0  success                       4  authentication failure
    1  other/server-side error       5  query/algorithm syntax error
    2  usage error (argparse)        6  not found / unknown algorithm
    3  connection failure            7  malformed input or conflicting state

Node address and session come from ``--node``/``GRIDBOX_NODE`` and
``--token``/``GRIDBOX_TOKEN``; ``--secret-file``/``GRIDBOX_SECRET_FILE``
points at a site key file (``site = …`` / ``secret = …`` lines) enabling
client-side anonymization for ``add`` and ``gen-cohort``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from gridbox.client import NodeClient
from gridbox.cohort import manifest_for, spec_for_site, upload_site
from gridbox.config import SiteKey
from gridbox.errors import (
    AlgorithmSyntaxError,
    AuthFailed,
    CorruptBlob,
    GridError,
    MalformedFile,
    MalformedXml,
    MgiFormatError,
    NotFound,
    PeerUnreachable,
    ProtocolError,
    QuerySyntaxError,
    RegistryUnreachable,
    SchemaViolation,
    StorageError,
    TypeMismatch,
    UnknownAlgorithm,
    UnknownAttribute,
)
from gridbox.scenario import run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CONNECTION = 3
EXIT_AUTH = 4
EXIT_SYNTAX = 5
EXIT_NOT_FOUND = 6
EXIT_BAD_INPUT = 7

_EXIT_BY_TYPE = (
    ((PeerUnreachable, RegistryUnreachable, ProtocolError, ConnectionError,
      OSError), EXIT_CONNECTION),
    ((AuthFailed,), EXIT_AUTH),
    ((QuerySyntaxError, TypeMismatch, UnknownAttribute, AlgorithmSyntaxError),
     EXIT_SYNTAX),
    ((NotFound, UnknownAlgorithm), EXIT_NOT_FOUND),
    ((MalformedFile, MgiFormatError, SchemaViolation, MalformedXml,
      StorageError, CorruptBlob), EXIT_BAD_INPUT),
)


def exit_code_for(error: Exception) -> int:
    for types, code in _EXIT_BY_TYPE:
        if isinstance(error, types):
            return code
    return EXIT_ERROR


def _client(args: argparse.Namespace, need_token: bool = True) -> NodeClient:
    node = args.node or os.environ.get("GRIDBOX_NODE")
    if not node:
        raise AuthFailed("no node address: pass --node or set GRIDBOX_NODE")
    site_key = None
    key_path = getattr(args, "secret_file", None) or os.environ.get(
        "GRIDBOX_SECRET_FILE")
    if key_path:
        site_key = SiteKey.from_file(key_path)
    client = NodeClient(node, site_key=site_key)
    token = getattr(args, "token", None) or os.environ.get("GRIDBOX_TOKEN")
    if token:
        client.token = token
    elif args.user and args.credential is not None:
        client.auth(args.user, args.credential)
    elif need_token:
        raise AuthFailed("no session: pass --token/--user+--credential "
                         "or set GRIDBOX_TOKEN")
    return client


def _warn(warnings: list) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


# --- subcommands -----------------------------------------------------------------

def cmd_auth(args) -> int:
    if not (args.user and args.credential is not None):
        raise AuthFailed("auth needs --user and --credential")
    client = NodeClient(args.node or os.environ.get("GRIDBOX_NODE") or "")
    token = client.auth(args.user, args.credential)
    print(token)
    return EXIT_OK


def cmd_add(args) -> int:
    client = _client(args)
    for path in args.files:
        result = client.add_file(path)
        print(f"added {result['image']} file {result['file']['id']} "
              f"sha256 {result['file']['sha256']}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    client = _client(args)
    data = client.retrieve(args.id)
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"wrote {len(data)} bytes to {args.out}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return EXIT_OK


def cmd_query(args) -> int:
    client = _client(args)
    rs, warnings = client.query(args.text)
    xml = rs.to_xml()
    if args.out:
        Path(args.out).write_bytes(xml)
    else:
        sys.stdout.buffer.write(xml)
        sys.stdout.buffer.flush()
    _warn(warnings)
    num_images, num_patients = rs.summary
    print(f"images={num_images} patients={num_patients}")
    return EXIT_OK


def cmd_add_alg(args) -> int:
    client = _client(args)
    source = (sys.stdin.read() if args.source == "-"
              else Path(args.source).read_text(encoding="utf-8"))
    result, warnings = client.add_algorithm(args.name, source)
    _warn(warnings)
    print(f"registered {args.name} v{result['version']} id {result['id']}")
    return EXIT_OK


def cmd_exec_alg(args) -> int:
    client = _client(args)
    result, warnings = client.exec_algorithm(args.name, args.selector,
                                             args.version)
    _warn(warnings)
    per_site = " ".join(f"{site}={n}" for site, n in
                        sorted(result.get("per_site", {}).items()))
    print(f"written={result['written']} {per_site}".rstrip())
    return EXIT_OK


def cmd_stats(args) -> int:
    client = _client(args)
    print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gen_cohort(args) -> int:
    keys = {}
    for path in args.key:
        key = SiteKey.from_file(path)
        keys[key.site] = key
    addresses = {}
    for entry in args.vo:
        site, sep, address = entry.partition("=")
        if not sep:
            raise MalformedFile(f"--vo wants SITE=HOST:PORT, got {entry!r}")
        addresses[site] = address
    missing = sorted(set(addresses) - set(keys))
    if missing:
        raise MalformedFile(f"no site key file for {', '.join(missing)}")

    specs = {site: spec_for_site(site, args.seed, args.patients, args.full_scale)
             for site in sorted(addresses)}
    manifest = manifest_for(specs, {s: keys[s].secret for s in specs})
    for site in sorted(addresses):
        client = NodeClient(addresses[site], site_key=keys[site])
        token = args.token or os.environ.get("GRIDBOX_TOKEN")
        if token:
            client.token = token
        elif args.user and args.credential is not None:
            client.auth(args.user, args.credential)
        else:
            raise AuthFailed("gen-cohort needs --token or --user/--credential")
        report = upload_site(client, specs[site])
        print(f"{site}: uploaded {report['uploaded']} files "
              f"({report['new_images']} new images)", file=sys.stderr)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_scenario(args) -> int:
    failed = run_scenario(args.script)
    return EXIT_OK if failed == 0 else EXIT_ERROR


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--node", default=None,
                        help="node address host:port (or GRIDBOX_NODE)")
    common.add_argument("--user", default=None, help="user id for AUTH")
    common.add_argument("--credential", default=None, help="credential for AUTH")
    common.add_argument("--token", default=None,
                        help="session token (or GRIDBOX_TOKEN)")
    common.add_argument("--secret-file", default=None,
                        help="site key file enabling client-side anonymization "
                             "(or GRIDBOX_SECRET_FILE)")

    parser = argparse.ArgumentParser(
        prog="gridbox", description="federated medical-imaging grid client")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("auth", parents=[common], help="obtain a session token")
    p.set_defaults(fn=cmd_auth)

    p = sub.add_parser("add", parents=[common], help="upload MGI files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(fn=cmd_add)

    p = sub.add_parser("retrieve", parents=[common],
                       help="download a file by id or sha256")
    p.add_argument("id")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("query", parents=[common], help="run a federated query")
    p.add_argument("text", metavar="QUERY")
    p.add_argument("--out", "-o", default=None, help="write the XML here")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("add-alg", parents=[common], help="upload an algorithm")
    p.add_argument("name")
    p.add_argument("source", help="program file, or - for stdin")
    p.set_defaults(fn=cmd_add_alg)

    p = sub.add_parser("exec-alg", parents=[common],
                       help="execute an algorithm where the images live")
    p.add_argument("name")
    p.add_argument("selector", metavar="QUERY")
    p.add_argument("--version", type=int, default=None)
    p.set_defaults(fn=cmd_exec_alg)

    p = sub.add_parser("stats", parents=[common], help="node statistics")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("gen-cohort", parents=[common],
                       help="generate and upload a synthetic cohort")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--patients", type=int, default=None,
                   help="patients per site (default 100)")
    p.add_argument("--full-scale", action="store_true",
                   help="historical cohort sizes instead of the desk-scale default")
    p.add_argument("--vo", action="append", required=True, metavar="SITE=ADDR",
                   help="a VO member to upload to (repeatable)")
    p.add_argument("--key", action="append", required=True, metavar="KEYFILE",
                   help="site key file (repeatable, one per site)")
    p.add_argument("--out", "-o", default=None, help="write the manifest here")
    p.set_defaults(fn=cmd_gen_cohort)

    p = sub.add_parser("scenario", parents=[common],
                       help="run a scripted multi-node scenario")
    p.add_argument("script")
    p.set_defaults(fn=cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GridError as e:
        print(f"error [{e.code}]: {e.message}", file=sys.stderr)
        return exit_code_for(e)
    except OSError as e:
        print(f"error [connection]: {e}", file=sys.stderr)
        return EXIT_CONNECTION


if __name__ == "__main__":
    raise SystemExit(main())

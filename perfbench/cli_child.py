"""Run one ``pastnet`` subcommand under the benchmark's timing wrappers.

    python3 perfbench/cli_child.py --record FILE [--trace] [--probe] -- <pastnet args>

Calls ``pastnet.cli.main`` (what the ``pastnet`` script runs), writes the
wrappers' counts and times to FILE as JSON and exits with the command's
exit code.
"""
from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer(full=args.trace, probe=args.probe)
    tracer.install()
    from pastnet.cli import main as pastnet_main

    code = pastnet_main(command)
    with open(args.record, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
